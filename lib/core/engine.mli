(** The uniform search-engine contract.

    The paper's headline claim is a comparison: adaptive annealing
    against alternative search methods on the same GTLP search space.
    That comparison is only fair when every engine runs under identical
    budgets, seeding and measurement.  This module is the contract that
    makes it so: every engine — the annealer and each baseline — is a
    first-class module of signature {!S} whose [run] obeys the same
    rules:

    - {b determinism}: the engine derives every random decision from a
      {!Repro_util.Rng} stream seeded with [context.seed]; equal
      contexts give bit-identical outcomes;
    - {b budget}: at most [budget.iterations] iterations are run (the
      engine's natural unit — moves, generations, samples, sweep
      points), and an optional wall-clock [time_limit] is enforced
      cooperatively at iteration boundaries;
    - {b stop probe}: [should_stop] is polled at every iteration
      boundary; when it answers [true] the engine returns within one
      iteration, with a valid best-so-far and status {!Interrupted};
    - {b timing}: [wall_seconds] is {!Repro_util.Clock} wall time
      (never [Sys.time] CPU time), so the seconds columns of every
      engine are comparable;
    - {b observability}: when [observe] is given it fires once per
      iteration with the current and best cost and the acceptance
      flag;
    - {b snapshots}: [outcome.best] is a deep copy; mutating the
      engine's working state (or the returned best) afterwards cannot
      corrupt it.

    Engines whose search loop is a plain iterate-and-improve cycle are
    written against the generic driver {!drive}, which centralizes the
    budget accounting, best-snapshot bookkeeping, interrupt handling
    and trace emission; the annealer implements the same contract
    natively on top of its warmup/cooling loop (see
    {!Explorer.sa_engine}) and checkpoints through the same
    {!Envelope}. *)

open Repro_taskgraph
open Repro_arch

(** {1 Contract types} *)

type budget = {
  iterations : int;
  (** iteration budget, in the engine's natural unit (annealing moves,
      GA generations, random samples, hill-climbing moves, tabu steps,
      greedy sweep points) *)
  time_limit : float option;
  (** optional wall-clock budget in seconds, enforced cooperatively at
      iteration boundaries; [None] = unlimited *)
  max_evaluations : int option;
  (** optional cost-evaluation budget, the engine-neutral currency:
      the run completes at the first iteration boundary where
      [evaluations >= max_evaluations], so the final count may
      overshoot by at most one iteration's evaluations.  [None] =
      unlimited.  Lets [dse-compare] hand every engine the same number
      of cost evaluations instead of per-name iteration heuristics. *)
}

type status = Repro_anneal.Annealer.status =
  | Complete     (** ran to the end of the iteration budget *)
  | Interrupted  (** stopped early by the stop probe or the time limit *)
(** The annealer's own status type, so the native annealer and every
    registered engine report through one type. *)

val status_name : status -> string
(** ["complete"] / ["interrupted"], the strings used in result files. *)

type probe = {
  iteration : int;    (** 0-based iteration index *)
  cost : float;       (** cost of the working state after the iteration *)
  best : float;       (** best cost seen so far *)
  accepted : bool;    (** the iteration changed the working state *)
}
(** One per-iteration observation, delivered to [context.observe]. *)

type resume_mode =
  | Resume_never      (** start fresh; only write checkpoints *)
  | Resume_if_exists  (** resume when a usable checkpoint exists; warn
                          and start fresh on a missing or unusable one *)
  | Resume_required   (** fail (one-line [Failure]) unless the
                          checkpoint loads and validates *)

type checkpoint = {
  path : string;  (** checkpoint file, written atomically *)
  every : int;    (** cadence in iterations between periodic saves; a
                      final save also happens on interruption *)
  resume : resume_mode;
}
(** Crash-safety contract for a run: where the driver persists its
    state, how often, and whether to continue from an existing file. *)

type context = {
  app : App.t;
  platform : Platform.t;
  seed : int;
  budget : budget;
  should_stop : (unit -> bool) option;
  observe : (probe -> unit) option;
  checkpoint : checkpoint option;
  warm_start : Solution.t option;
  (** optional incumbent to start from instead of the engine's native
      initial state (cross-engine warm starts: [--seed-from], portfolio
      chain mode).  Engines adopt it as their initial working state /
      seed member; determinism still holds — equal contexts (including
      equal warm starts) give bit-identical outcomes. *)
}
(** Everything an engine may read.  Engines must not consult any other
    source of randomness, time or configuration. *)

val context :
  ?time_limit:float ->
  ?max_evaluations:int ->
  ?should_stop:(unit -> bool) ->
  ?observe:(probe -> unit) ->
  ?checkpoint:checkpoint ->
  ?warm_start:Solution.t ->
  app:App.t -> platform:Platform.t -> seed:int -> iterations:int -> unit ->
  context

type outcome = {
  best : Solution.t;          (** deep copy of the best solution found *)
  best_cost : float;          (** its makespan (ms) *)
  initial_cost : float;       (** cost of the engine's initial state *)
  iterations_run : int;       (** <= [budget.iterations], always *)
  evaluations : int;          (** cost-function evaluations performed *)
  accepted : int;             (** iterations that changed the state *)
  wall_seconds : float;       (** {!Repro_util.Clock} wall time *)
  status : status;
}

val stop_probe : context -> (unit -> bool)
(** The context's [should_stop] and [time_limit] folded into one
    boundary probe (starts the time budget when called the first
    time). *)

(** {1 The engine signature} *)

module type S = sig
  val name : string
  (** Registry key, as accepted by [--engine]/[--engines]. *)

  val describe : string
  (** One-line description: method and provenance in the paper. *)

  val knobs : string
  (** One-line, human-readable account of the engine's fixed knobs and
      of what one budget iteration means. *)

  val default_iterations : int
  (** The engine's traditional budget, used when the caller does not
      choose one. *)

  val run : context -> outcome
end

type t = (module S)

val name : t -> string
val describe : t -> string
val knobs : t -> string
val default_iterations : t -> int
val run : t -> context -> outcome

(** {1 Generic driver} *)

type 'state step = {
  state : 'state;      (** working state after the iteration (a restart
                           may swap it for a fresh one) *)
  cost : float;        (** its cost *)
  accepted : bool;     (** the iteration changed the working state *)
  evaluations : int;   (** cost evaluations spent by the iteration *)
}

type 'state codec = {
  engine : string;
  (** the engine's registry name; stamped into checkpoints so a file is
      never resumed by a different engine *)
  version : int;
  (** state-format version; bump whenever [encode]'s layout changes so
      stale files are rejected with a one-line diagnostic instead of
      misparsed *)
  encode : 'state -> string;
  (** serialize the working state, including any auxiliary search
      memory the engine keeps outside the state value (incumbents,
      tabu tenure, populations).  Line-oriented text with ["%h"]
      floats, by the repo's checkpoint convention; must not contain a
      bare ["best"] or ["state"] line. *)
  decode : string -> ('state, string) result;
  (** inverse of [encode]; must also restore that auxiliary memory.
      After [decode] the engine must behave bit-identically to the run
      that produced the snapshot. *)
}
(** How a driven engine's working state crosses a process boundary.
    The driver owns everything else (counters, RNG words, best
    snapshot, wall-clock offset). *)

val fingerprint : context -> string
(** CRC fingerprint tying a driver checkpoint to its inputs, seed and
    budget (application text, platform text, seed, iteration and
    evaluation budgets).  Exposed so meta-engines (the portfolio) can
    stamp their own checkpoints with the same binding. *)

val checkpoint_kind : string
(** The {!Repro_util.Checkpoint} kind tag of every engine checkpoint,
    ["dse-engine"]: the driven engines, the annealer and the
    portfolio all write it. *)

val resolve_resume :
  checkpoint -> (string -> ('a, string) result) -> 'a option
(** [resolve_resume ck load] applies [ck.resume] to the file at
    [ck.path]: [Resume_never] answers [None] without touching it;
    [Resume_if_exists] answers [None] for a missing file and, for one
    [load] rejects, logs a warning and answers [None] (start fresh);
    [Resume_required] raises [Failure] with [load]'s one-line error
    unless the file loads.  The one place the resume policy lives. *)

(** The checkpoint envelope shared by every engine: the header lines
    (engine name and codec version, fingerprint), the driver counters,
    the costs, the wall-clock offset, the RNG words and the best
    solution, followed by the engine's own [state] section written by
    its {!codec}. *)
module Envelope : sig
  type 'state t = {
    iteration : int;       (** the next iteration to run *)
    evaluations : int;     (** cost evaluations so far *)
    accepted : int;        (** accepted iterations so far *)
    initial_cost : float;  (** cost of the run's initial state *)
    best_cost : float;
    elapsed : float;       (** wall seconds already spent *)
    rng : Repro_util.Rng.t;
    best : Solution.t;     (** best solution so far *)
    state : 'state;        (** the engine's working state *)
  }

  val save : 'state codec -> fingerprint:string -> string -> 'state t -> unit
  (** [save codec ~fingerprint path e] writes [e] atomically as a
      {!checkpoint_kind} checkpoint. *)

  val load :
    'state codec -> fingerprint:string -> App.t -> Platform.t -> string ->
    ('state t, string) result
  (** Inverse of {!save}.  A missing, corrupt or truncated file, a
      foreign kind, another engine's or codec version's file, or a
      fingerprint other than [fingerprint] is a one-line [Error]
      naming the path. *)
end

val drive :
  ?codec:'state codec ->
  context ->
  init:(Repro_util.Rng.t -> 'state * float * int) ->
  step:(Repro_util.Rng.t -> iteration:int -> 'state -> 'state step) ->
  snapshot:('state -> Solution.t) ->
  outcome
(** The one loop shared by every driven engine.  [init] builds the
    initial working state and returns it with its cost and the
    evaluations spent; the driver snapshots it as the initial best.
    Each iteration then polls the stop probe, calls [step], keeps the
    budget and acceptance accounts, snapshots new strict bests and
    emits the observation.  The initial state's cost must be finite
    (start from a feasible solution, e.g. all-software).

    When [context.checkpoint] is set, [codec] is mandatory
    ([Invalid_argument] otherwise) and the driver persists a snapshot
    — its counters, the RNG words, the best solution and
    [codec.encode state] — as an {!Envelope} at every [every] iteration
    boundary and on interruption.  Saves
    and loads happen only at iteration boundaries, before the step
    runs, so a resumed run replays the exact remaining iterations: the
    outcome (best solution, costs, counters) is bit-identical to the
    uninterrupted run.  [resume] says whether an existing file is
    ignored, opportunistically continued, or required
    ({!resolve_resume}); a required
    checkpoint that is missing, corrupt, of the wrong kind, from a
    different engine or codec version, or fingerprint-mismatched
    (different app/platform/seed/budget) raises a one-line
    [Failure]. *)
