(** The design-space-exploration tool: adaptive simulated annealing
    over the coupled spatial-partitioning / temporal-partitioning /
    scheduling space.

    The default objective is the paper's experimental one (architecture
    fixed, minimize execution time); the cost-minimization objective of
    the general method (minimize system cost subject to the performance
    constraint) is available for architecture exploration with a device
    catalogue. *)

open Repro_taskgraph
open Repro_arch
open Repro_sched

type objective =
  | Makespan
      (** minimize execution time — architecture fixed, as in §5 *)
  | Makespan_serialized
      (** minimize execution time under the explicit bus-transaction
          model ({!Repro_sched.Searchgraph.evaluate_serialized}):
          concurrent boundary crossings contend for the shared medium *)
  | Min_period
      (** minimize the steady-state initiation interval
          ({!Repro_sched.Periodic}): the right objective when the
          constraint is a pipeline period (one image every 40 ms)
          rather than a latency *)
  | Cost_under_deadline of { penalty_per_ms : float }
      (** minimize platform cost, with [penalty_per_ms] per millisecond
          of deadline overshoot; requires the application to declare a
          deadline *)

type config = {
  anneal : Repro_anneal.Annealer.config;
  moves : Moves.config;
  objective : objective;
}

val default_config : ?seed:int -> unit -> config
(** Fixed architecture, makespan objective, Lam schedule, the paper's
    1200-iteration infinite-temperature warmup. *)

val quality_config : ?seed:int -> float -> config
(** User-selected optimization quality in \[0,1\] (the paper's knob
    trading computing time for solution quality). *)

type result = {
  best : Solution.t;
  best_eval : Searchgraph.eval;
  best_cost : float;
  initial_cost : float;
  iterations_run : int;
  accepted : int;
  infeasible : int;
  wall_seconds : float;
  status : Engine.status;
  (** [Interrupted] when [should_stop] ended the run early; the best
      solution is still the best seen so far. *)
}
(** For results produced by a registered engine (see [engine] in
    {!explore}), [iterations_run]/[accepted] come from the engine's
    outcome, [infeasible] is 0 (only the annealer counts structurally
    invalid proposals) and [initial_cost] is the cost of the engine's
    initial state. *)

val result_fields :
  ?lead:(string * Repro_util.Json_lite.t) list ->
  ?after_run:(string * Repro_util.Json_lite.t) list ->
  ?after_solution:(string * Repro_util.Json_lite.t) list ->
  ?restart_statuses:string list -> ?degraded:int -> status:string ->
  result -> (string * Repro_util.Json_lite.t) list
(** The fields every result file shares, in order: [lead], then
    [status], [best_cost], [makespan], [n_contexts], [iterations_run],
    [accepted], [infeasible] and [wall_seconds], then [after_run], then
    [solution] (the CRC of the canonical solution text, which lets two
    runs be compared for bit-identity without shipping the solution),
    then [after_solution], then — when [restart_statuses] is non-empty —
    [restart_statuses] and [degraded_restarts].  Callers append their
    own trailing fields. *)

val cost_of : objective -> Solution.t -> float
(** The scalar the annealer minimizes. *)

val read_incumbent :
  string -> App.t -> Platform.t -> (Solution.t, string) Stdlib.result
(** [read_incumbent path app platform] extracts the best-so-far
    solution from any engine checkpoint file (kind ["dse-engine"]:
    the annealer's, a driven engine's or the portfolio's) and decodes
    it against [app] and [platform].  This is the [--seed-from]
    primitive: unlike a resume, no fingerprint is checked, so an
    incumbent found
    by one engine (any seed, any budget) can warm-start any other; the
    only contract is that the donor ran on the same inputs (the
    decode fails otherwise). *)

val explore :
  ?engine:Engine.t ->
  ?trace:Trace.t -> ?initial:Solution.t -> ?checkpoint:Engine.checkpoint ->
  ?should_stop:(unit -> bool) ->
  ?on_iteration:(iteration:int -> cost:float -> best:float ->
                 temperature:float -> accepted:bool -> unit) ->
  config -> App.t -> Platform.t -> result
(** Run one exploration chain: without [engine], the native annealer
    on the whole [config].  The initial solution defaults to
    {!Solution.random} drawn from the annealing seed.  [checkpoint]
    writes the run's state to [checkpoint.path] every
    [checkpoint.every] iterations as an {!Engine.Envelope} (kind
    ["dse-engine"], engine ["sa"]) whose fingerprint binds the
    application, platform and the whole annealing configuration
    (budgets, schedule, seed, frozen window, objective);
    [checkpoint.resume] decides whether an existing file is continued
    ({!Engine.resolve_resume}).  A resumed run ignores [initial] and
    replays the uninterrupted one bit for bit, [initial_cost] and the
    wall-clock offset included.  [should_stop] is polled at iteration
    boundaries — on [true] the run flushes a final checkpoint (when
    [checkpoint] is given) and returns with status [Interrupted].  [on_iteration] is a
    streaming observation callback firing once per annealing iteration
    (warmup iterations carry negative indices), independent of [trace]
    recording.  Raises [Invalid_argument] when [Cost_under_deadline] is
    used on an application without a deadline.

    [engine] runs a registered engine instead of the native annealer;
    this is the one place that choice is made.  The engine's context
    takes [config.anneal.seed] and [config.anneal.iterations] (its
    budget, in the engine's own unit) and the stop probe, checkpoint
    and [initial] (as the warm start); warmup, schedule and moves are
    the annealer's and are ignored.  [trace] and [on_iteration] are fed
    from the engine's observations, with temperature and context count
    recorded as 0.  Raises [Invalid_argument] when [config.objective]
    is not [Makespan]. *)

val resolve_engine :
  ?report:(Portfolio.lane_report array -> unit) -> string ->
  (Engine.t option, string) Stdlib.result
(** The engine a name selects for {!explore}: ["sa"] is [None], the
    native annealer on the caller's own configuration; any other name
    is {!Portfolio.resolve}'s (a registered engine or a portfolio spec,
    whose lane verdicts go to [report]).  [dse-run], [dse-sweep],
    [dse-pareto] and the job daemon resolve their engine name here, so
    ["sa"] and no engine are the same run in each of them. *)

val sa_engine : Engine.t
(** The annealer behind the uniform {!Engine.S} contract, under the
    name ["sa"].  The generic iteration budget is the run's {e total}
    move count: a tenth (capped at the paper's 1200, at least 1) is
    spent as infinite-temperature warmup and the rest cools under the
    default Lam schedule, so [iterations_run <= budget.iterations]
    holds like for every other engine.  The stop probe, wall timing and
    per-iteration observations follow the contract; the objective is
    the makespan.

    [context.checkpoint] is honoured by {!explore}, so the annealer
    resumes bit-identically like every driven engine; an evaluation
    budget is enforced exactly by capping the move count (the annealer
    spends at most one evaluation per move). *)

val meets_deadline : App.t -> Searchgraph.eval -> bool
(** True when the application declares no deadline or the evaluated
    makespan honours it. *)

type item_status =
  | Item_done                (** completed within its budget *)
  | Item_timed_out           (** per-item deadline hit; best-so-far kept *)
  | Item_failed of string    (** raised on every attempt; printed exn *)
  | Item_skipped             (** global stop pending before it started *)
(** Per-restart (or per-device) supervision verdict, mirroring
    {!Repro_util.Parallel.outcome} without the payload. *)

val item_status_name : item_status -> string
(** ["done"] / ["timed-out"] / ["failed"] / ["skipped"], the strings
    used in result files. *)

type restarts_report = {
  best_result : result option;
  (** best over surviving restarts; [None] when every restart was
      lost *)
  restart_costs : (int * float) list;
  (** (restart index, best cost) for each survivor, in index order —
      timed-out restarts contribute their best-so-far *)
  restart_statuses : item_status array;
  (** one verdict per restart *)
  degraded : int;
  (** restarts that did not complete cleanly; [0] means every restart
      completed *)
}

val explore_restarts_supervised :
  ?trace:Trace.t -> ?jobs:int -> ?restart_timeout:float ->
  ?should_stop:(unit -> bool) -> ?retries:int -> ?engine:Engine.t ->
  ?restart_checkpoint:(int -> Engine.checkpoint) ->
  ?warm_start:Solution.t ->
  restarts:int -> config -> App.t -> Platform.t -> restarts_report
(** Run [restarts] independent explorations (seeds derived from the
    configured one) and report the best one together with every run's
    best cost — the usual defense against annealing variance, and the
    data behind the paper's Fig. 3 averaging.  Raises
    [Invalid_argument] when [restarts < 1].

    [jobs] (default 1) runs the chains on that many domains
    ({!Repro_util.Parallel}); every chain's seed derives from its index
    and results are folded in index order, so the best solution, the
    cost list and the trace are bit-identical for every [jobs].

    The run is supervised: one raising or overrunning chain never
    costs the others their results.  Each restart runs
    under [restart_timeout] wall seconds (cooperatively — the deadline
    is the engine's stop probe, so an over-budget chain flushes and
    yields best-so-far at an iteration boundary), is retried [retries]
    extra times on failure, and resolves to its own {!item_status}.
    The report aggregates over survivors; consumers must treat
    [degraded > 0] as a partial (still deterministic) answer.

    Each chain is one {!explore} call with [engine] (default: the
    native annealer), on [config] with its seed derived from the index
    ([config.anneal.seed + 65537 * index]); restart 0 feeds [trace].

    [restart_checkpoint] makes the supervised run crash-safe: it maps
    a restart index to that chain's {!Engine.checkpoint} (path,
    cadence, resume mode).  Because per-restart seeds are derived from
    the index, each chain's checkpoint resumes exactly that chain.

    [warm_start] hands every restart a copy of the same donated
    incumbent (see {!read_incumbent}) as its [initial] solution.  A
    resumed chain ignores it — the warm start is baked into the
    checkpointed state. *)

type frontier_point = {
  platform : Platform.t;
  eval : Searchgraph.eval;
  cost : float;
  meets : bool;
}

type frontier_report = {
  frontier : frontier_point list;
  (** Pareto frontier over the devices that completed (or salvaged a
      best-so-far under a timeout) *)
  device_statuses : item_status array;
  (** one verdict per catalogue device, in catalogue order *)
  devices_lost : int;
  (** devices that did not complete cleanly; when positive the
      frontier is partial — it equals the frontier of the catalogue
      with those devices excluded a priori *)
}

val cost_performance_frontier_supervised :
  ?seed:int -> ?iterations:int -> ?jobs:int -> ?device_timeout:float ->
  ?should_stop:(unit -> bool) -> ?retries:int -> ?engine:Engine.t ->
  App.t -> Platform.t list -> frontier_report
(** Explore the application once per catalogue platform (makespan
    objective) and keep the Pareto-dominant (platform cost, makespan)
    points, sorted by increasing cost — the designer-facing output of
    the paper's cost-minimization story.  Default budget: 20000
    iterations per platform; [jobs] explores catalogue devices in
    parallel with identical output.

    Each device explores under its own [device_timeout] and failure
    isolation, and the report labels exactly which devices the
    frontier covers.  Candidates never
    interact before the final dominance pass, so the degraded frontier
    is the exact frontier of the surviving sub-catalogue.  Each device
    is one {!explore} call with [engine] (default: the native
    annealer) under the same seed and iteration budget. *)
