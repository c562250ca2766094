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
  status : Repro_anneal.Annealer.status;
  (** [Interrupted] when [should_stop] ended the run early; the best
      solution is still the best seen so far. *)
}
(** For results produced by a generic engine (see [engine] below),
    [iterations_run]/[accepted] come from the engine's outcome,
    [infeasible] is 0 (only the annealer counts structurally invalid
    proposals) and [initial_cost] is the cost of the engine's initial
    state. *)

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
  ?trace:Trace.t -> ?initial:Solution.t -> ?checkpoint:Engine.checkpoint ->
  ?should_stop:(unit -> bool) ->
  ?on_iteration:(iteration:int -> cost:float -> best:float ->
                 temperature:float -> accepted:bool -> unit) ->
  config -> App.t -> Platform.t -> result
(** Run one exploration.  The initial solution defaults to
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
    used on an application without a deadline. *)

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

val result_of_outcome : Engine.outcome -> result
(** A generic engine's outcome dressed as the explorer's {!result}:
    the eval is recomputed from the (feasible) best solution,
    [infeasible] is 0.  Raises [Failure] if the engine returned an
    infeasible best. *)

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

    [engine] selects the search engine (default: the annealer through
    its native path, preserving the historical bit-exact streams).
    Every engine gets the same treatment: per-restart derived seeds
    ([config.anneal.seed + 65537 * index]), parallel chains over
    [jobs] domains, per-restart timeouts and degradation.  Generic
    engines take [config.anneal.iterations] as their iteration budget
    and run on the makespan objective; restart 0 feeds [trace] through
    the engine's observation callback (temperature and context count
    are not defined for them and recorded as 0).

    [restart_checkpoint] makes the supervised run crash-safe: it maps
    a restart index to that chain's {!Engine.checkpoint} (path,
    cadence, resume mode).  Generic engines receive it through their
    context, the native annealer through {!explore}.  Because
    per-restart seeds are derived from the index, each chain's
    checkpoint resumes exactly that chain.

    [warm_start] hands every restart the same donated incumbent
    (see {!read_incumbent}): generic engines receive it through
    [context.warm_start], the native annealer as its initial
    solution.  A resumed chain ignores it — the warm start is baked
    into the checkpointed state. *)

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
    is the exact frontier of the surviving sub-catalogue.  [engine]
    selects the search engine per device (default: the annealer's
    native path); every device gets the same seed and iteration
    budget, whichever engine runs. *)
