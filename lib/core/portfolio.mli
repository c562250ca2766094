(** The racing portfolio meta-engine: several registered engines behind
    one {!Engine.S} face.

    A portfolio is described by a spec string —

    {v portfolio[:rr|race|chain][:e1+e2+...][:slice=N][:target=C] v}

    — and comes in three schedules over the same lane machinery:

    - {b round-robin} ([rr], the default): the iteration budget is
      split evenly across members and spent in interleaved slices, so
      [--engine portfolio:sa+tabu] compares like a single engine of the
      same total budget;
    - {b racing} ([race]): every member gets the {e full} budget and
      the lanes run concurrently on separate domains
      ({!Repro_util.Parallel.map_outcomes}); with [target=C] the first
      lane whose best reaches [C] wins and the losers are cancelled at
      their next iteration boundary (hedged cancellation — the slice
      quantum drops to one iteration so the latency bound is one member
      iteration);
    - {b chain}: members run to completion in order and each stage is
      warm-started ({!Engine.context}[.warm_start]) from the best
      incumbent of the stages before it (greedy seeding sa, say).

    {b Isolation.} Every slice runs under
    {!Repro_util.Parallel.map_outcomes}, so a member that raises, hits
    an armed {!Repro_util.Fault} or times out degrades to a dead lane:
    its best-so-far (from its last completed boundary) stays in the
    aggregate, the loss is logged, and the portfolio's outcome is the
    best over surviving lanes.  The run only fails when {e every} lane
    is lost before producing a boundary.

    {b Determinism.} Member seeds derive from the portfolio seed
    ([seed + 65537 * lane]), slice boundaries are fixed by the spec and
    budget, racing outcomes are folded in lane order, and ties (a
    target met by several lanes in the same round) resolve to the
    lowest lane index — so a fixed spec, seed and budget give a
    bit-identical outcome for any [--jobs], modulo wall-clock fields.

    {b Checkpointing.} The portfolio checkpoints as one self-contained
    ["dse-engine"] file: a versioned header (spec, cursor, incumbent)
    framing each live member's own checkpoint bytes.  Resume restores
    every lane mid-slice-sequence and replays bit-identically, which is
    what the registry-wide resume suite checks. *)

type mode = Round_robin | Race | Chain

type spec = {
  mode : mode;
  members : string list;  (** registry names, in lane order *)
  slice : int option;  (** slice quantum in member iterations *)
  target_cost : float option;  (** hedge: first lane at or under wins *)
}

val default_spec : spec
(** [rr] over [greedy+hill] — members every budget tolerates. *)

val parse_spec : string -> (spec, string) result
(** Parse a spec string.  Member lists accept both ['+'] and [','] as
    separators (so a portfolio can appear inside [--engines] lists,
    where [','] already separates engines).  Unknown members are only
    rejected by {!make} — parsing is registry-independent. *)

val canonical : spec -> string
(** The canonical spelling: registry key, [Engine.name], and the
    identity stamped into checkpoints.  The full default is
    ["portfolio"]. *)

val is_spec : string -> bool
(** True for ["portfolio"] and anything starting with ["portfolio:"]. *)

type lane_report = {
  member : string;  (** the member engine's name *)
  state : string;
      (** ["pending"], ["running"], ["finished"], ["won"],
          ["cancelled"], ["timed-out"] or ["faulted: <reason>"] *)
  iterations : int;
  evaluations : int;
  best : float;  (** infinity when the lane never reached a boundary *)
}

val make : ?report:(lane_report array -> unit) -> spec -> (Engine.t, string) result
(** Build the engine for a spec; [Error] when a member is not
    registered (or is itself a portfolio).  [report] fires once per
    run, just before the outcome returns, with the final per-lane
    verdicts — the data behind the CLI's lane table and the
    member-isolation tests. *)

val of_spec : ?report:(lane_report array -> unit) -> string -> (Engine.t, string) result
(** [parse_spec] followed by [make]. *)

val engine : unit -> Engine.t
(** The default portfolio, for registration.  A function because the
    members must already be registered when it is built — call after
    the baseline engines are in the registry. *)

val resolve :
  ?report:(lane_report array -> unit) -> string -> (Engine.t, string) result
(** The [--engine] front door: portfolio specs build a portfolio (whose
    final per-lane verdicts go to [report]), anything else goes to
    {!Engine_registry.find}. *)
