(** Mutable solution of the spatio-temporal mapping problem.

    A solution carries the four decisions of the paper's §3.3:

    - spatial partitioning: each task bound to the processor or to the
      reconfigurable circuit;
    - temporal partitioning: the hardware tasks grouped into an ordered
      list of contexts, each within the device CLB capacity;
    - software schedule: a total order of the processor tasks;
    - implementation selection: one area-time point per task (used when
      the task is in hardware).

    The transaction order on the bus follows from the longest-path
    (ASAP) semantics of the search graph.  Mutations are performed by
    {!Moves}; evaluation is cached and invalidated on mutation. *)

open Repro_taskgraph
open Repro_arch
open Repro_sched

type t

val app : t -> App.t
val platform : t -> Platform.t
val closure : t -> Closure.t
(** Transitive closure of the application graph (static precedences):
    the application's own [App.t.closure], shared by all its
    solutions. *)

(** {1 Construction} *)

val all_software : App.t -> Platform.t -> t
(** Every task on the processor, in deterministic topological order. *)

val random : Repro_util.Rng.t -> App.t -> Platform.t -> t
(** The paper's initial solution: a random number of tasks moved one by
    one to the circuit (smallest implementation), packed into contexts
    in topological order, a new context being created whenever the
    capacity of the last one is exceeded; the rest on the processor in
    a random precedence-consistent order. *)

val copy : t -> t
(** An independent solution with the same decisions and result.  The
    copy keeps no incremental evaluation state (its first {!save}
    rebuilds one); a result known only as a makespan is turned into
    its {!evaluate} record first.  Evaluation counters stay shared. *)

val of_mapping :
  ?scratch:t ->
  App.t -> Platform.t ->
  sw_orders:int list list ->
  contexts:int list list ->
  impl:int list ->
  (t, string) result
(** Build a solution directly from mapping decisions: per-processor
    execution orders (primary first; together they must list exactly
    the tasks in no context), contexts in execution order with their
    exact member order, and one implementation index per task.  The
    constructed solution passes {!check_invariants} or an error is
    returned.  Used by the decoded baselines (GA, greedy) to express
    their answers as first-class solutions behind the common engine
    interface.  [scratch] donates a retiring solution of the same
    problem size whose evaluation storage (graph, weights, positions)
    is recycled by the first evaluation instead of reallocated. *)

(** {1 Inspection} *)

val size : t -> int
val binding : t -> int -> Searchgraph.binding
(** [Hw j] uses the positional index of the context (0-based). *)

val impl_index : t -> int -> int

val sw_order : t -> int list
(** Execution order of the primary processor. *)

val sw_orders : t -> int list list
(** Execution orders of every processor (primary first). *)

val processor_index : t -> int -> int
(** Processor of a software-bound task (0 = primary); raises
    [Invalid_argument] for a hardware task. *)

val contexts : t -> int list list
(** Context members in execution order of the contexts. *)

val n_contexts : t -> int
val hw_tasks : t -> int list

val hw_task_count : t -> int
(** [List.length (hw_tasks t)], without building the list. *)

val nth_hw_task : t -> int -> int
(** [nth_hw_task t k] is [List.nth (hw_tasks t) k], found by scanning
    the assignment instead of building the list.  Raises
    [Invalid_argument] when [k] is out of range. *)

val context_size : t -> int -> int
(** Number of tasks in the context at positional index [j]. *)

val context_clbs : t -> int -> int
(** CLBs used by the context at positional index [j]. *)

val spec : t -> Searchgraph.spec

val evaluate : t -> Searchgraph.eval option
(** Cached; [None] if the current order is infeasible (cyclic) or a
    context exceeds the device capacity.

    Evaluation keeps the built search graph and its longest-path state
    alive inside the solution, and the graph is {e dynamic}: both the
    structure-preserving mutation ({!set_impl}) and the structural
    moves ({!reorder_sw}, {!move_to_sw}, {!move_to_context},
    {!insert_context}/{!append_context}, {!swap_contexts}) edit it in
    place, and the next evaluation refreshes only the affected
    downstream cones ({!Repro_sched.Longest_path.refresh}).  Each
    mutator emits its own exact edge delta from the per-class pair
    emitters of the chains, contexts and context adjacencies it
    touched ({!Repro_sched.Searchgraph.chain_pairs_near},
    [ehw_intra_pairs], [gtlp_pairs]) — the global canonical pair list
    is never regenerated on the move path.  The emitters are callback
    iterators: the pairs the footprint owned before and after the move
    are packed as ints into two int buffers that the incremental state
    reuses from move to move, sorted in place, and the delta is applied
    by a merge walk over the two — deletions, then insertions — so a
    move allocates no pair tuples or lists and does work in proportion
    to what it touches.  The boundary-traffic total is patched by
    flipping the sum-tree terms of the edges incident to the moved
    tasks.  Every edit lands in a delta log so
    {!save}'s undo closure restores the live graph by replaying
    inverses.  {!replace_platform}, {!decode} and cycle detection fall
    back to a full rebuild that recycles the previous state's storage.
    Incremental results are bit-identical to a rebuild: the
    longest-path fixpoint is exact, and the comm term is a pairwise
    sum whose value is a pure function of the current boundary terms
    ({!Repro_sched.Searchgraph.Comm}).  Under [REPRO_CHECK_DELTAS]
    (see {!set_check_deltas}) every move's emitted delta is
    additionally asserted against a regenerate-and-diff reference.
    The record (with its finish array) is built only here and by
    {!copy}: {!makespan} reads the live state without it. *)

(** {1 Evaluation statistics} *)

type move_kind =
  | Init          (** first evaluation after construction *)
  | Impl          (** implementation selection (weight-only) *)
  | Sw_reorder    (** m1: software order *)
  | Sw_migrate    (** m2/m3: task moved to a processor *)
  | Ctx_migrate   (** m2: task moved into an existing context *)
  | Ctx_create    (** m4: fresh context inserted *)
  | Ctx_swap      (** context execution order exchange *)
  | Platform_swap (** device/architecture exploration *)

val move_kinds : move_kind list
val move_kind_label : move_kind -> string

type kind_stats = {
  mutable k_full_evals : int;
  mutable k_incr_evals : int;
  mutable k_incr_nodes : int;
  mutable k_edges_edited : int;
  mutable k_pairs_emitted : int;
  mutable k_comm_patched : int;
  mutable k_pair_regens : int;
}

type eval_stats = {
  mutable full_evals : int;   (** evaluations that rebuilt the graph *)
  mutable full_nodes : int;   (** nodes evaluated across full rebuilds *)
  mutable incr_evals : int;   (** evaluations served by the fast path *)
  mutable incr_nodes : int;   (** nodes re-evaluated across refreshes *)
  mutable edges_edited : int; (** in-place edge insertions/deletions *)
  mutable pairs_emitted : int;
  (** pairs produced by the per-move delta emitters (before + after
      captures) — the footprint of the native-delta path *)
  mutable comm_patched : int;
  (** boundary-traffic terms flipped in the comm sum tree *)
  mutable pair_regens : int;
  (** global canonical pair-list regenerations; 0 in the default mode
      (only the [REPRO_CHECK_DELTAS] cross-check regenerates) *)
  by_kind : kind_stats array; (** indexed per {!move_kind} *)
}

val eval_stats : t -> eval_stats
(** Counters shared by a solution and its snapshots — the measured
    locality win of the incremental path (see the bench harness and
    the solution tests). *)

val kind_stats : eval_stats -> move_kind -> kind_stats
(** Evaluation work booked against the kind of the mutation that
    preceded it. *)

val set_check_deltas : bool -> unit
(** Toggle the paranoid delta cross-check ([REPRO_CHECK_DELTAS]): every
    structural move additionally regenerates the canonical
    sequencing-pair list and asserts the mutator-emitted edge delta
    equals the regenerate-and-diff reference (raising [Failure] on
    divergence).  Reads of the environment variable happen once at
    startup; this setter lets tests flip the mode in-process. *)

val check_deltas_enabled : unit -> bool

val makespan : t -> float
(** Makespan of a feasible solution; [infinity] when infeasible.
    Bitwise equal to [(evaluate t).makespan], but served off the live
    longest-path state as the maximum finish time over the task nodes
    and live configuration slots, without building the eval record:
    besides the refresh, a call allocates nothing. *)

val check_invariants : t -> (unit, string) result
(** Structural invariants: bindings, context membership and capacity,
    software order is a permutation of the software tasks, every
    context non-empty, implementation indices in range. *)

(** {1 Mutation — used by Moves} *)

val snapshot : t -> t
(** Alias of {!copy} for the annealer's best-keeping. *)

val save : t -> (unit -> unit)
(** Mark a save point; the returned closure (move undo) restores the
    solution to it.  Saving costs O(1) whatever the solution's size:
    it records a mark in the journal of [assign]/[impl] writes, the
    delta-log mark of the live search graph, and pointers to the
    immutable (or copy-on-write) processor orders, contexts, platform
    and cached result.  Undo rewinds the journal and replays the delta
    log backwards to the mark, so rejecting a move costs what the move
    touched.  On a solution whose result is feasible but whose live
    state is gone (a {!copy}, or after a fallback), [save] first
    rebuilds that state once, so the moves that follow stay
    incremental.

    Undo closures are one-shot and LIFO: undo the newest save first.
    [save] resets the journal and the log once they pass 8192
    entries, so an older undo whose entries are gone raises
    [Invalid_argument] instead of restoring part of the state. *)

val invalidate : t -> unit
(** Force the next evaluation to rebuild from scratch (the retired
    incremental state is kept as a storage donor).  Escape hatch for
    manual surgery on the solution — and the forced-rebuild arm of the
    micro benchmark. *)

val set_impl : t -> int -> int -> unit
(** Structure-preserving: updates the task's weight (and its context's
    configuration weight) in the live evaluation state. *)

val move_to_sw : ?proc:int -> t -> task:int -> before:int option -> unit
(** Detach [task] from wherever it runs (dropping its context if
    emptied) and insert it into processor [proc]'s order (default the
    primary processor) just before [before] (at the end when [None]).
    [before] must already be on that processor. *)

val move_to_context : t -> task:int -> dest:int -> unit
(** Bind [task] to the context of hardware task [dest].  When the
    destination context cannot also hold [task]'s implementation, a
    fresh context is spawned right after it instead, as in §4.3.
    [task] may come from software or from another context. *)

val insert_context : t -> task:int -> at:int -> unit
(** Move m4 restricted to the reconfigurable circuit: create a fresh
    context at position [at] of the context order (0 = first), holding
    just [task] (detached from wherever it was).  [at] is clamped when
    detaching [task] emptied and removed its previous context. *)

val append_context : t -> task:int -> unit
(** [insert_context] at the end of the context order. *)

val swap_contexts : t -> at:int -> unit
(** Exchange the execution order of contexts [at] and [at+1] —
    exploring the globally total order on the DRLC. *)

val reorder_sw : t -> task:int -> before:int -> unit
(** Move m1: reposition software [task] immediately before software
    task [before]; both must sit on the same processor. *)

val replace_platform : t -> Platform.t -> unit
(** Architecture-exploration move (m3/m4 restricted to device
    selection): swap the platform; contexts exceeding the new capacity
    make the solution infeasible until repaired by further moves.  The
    new platform must have the same number of processors. *)

(** {1 Persistence} *)

val encode : t -> string
(** Line-oriented textual form of the mapping decisions (bindings,
    implementation choices, processor orders, contexts in execution
    order with their exact member order).  Context ids are renumbered
    positionally, which no move can observe, so a decoded solution
    replays the same proposal stream as the original. *)

val decode : ?scratch:t -> App.t -> Platform.t -> string -> (t, string) result
(** Rebuild a solution from {!encode} output against the same
    application and platform; validates shape and
    {!check_invariants}.  Evaluation caches start cold — the exact
    longest-path refresh guarantees re-evaluation is bit-identical.
    [scratch] donates a retiring solution's evaluation storage as in
    {!of_mapping}. *)

val pp : Format.formatter -> t -> unit
