(** Search-graph construction and solution evaluation.

    A candidate solution (spatial partitioning + temporal partitioning
    + software order) is evaluated by building the paper's *search
    graph* G' = <V, E ∪ Esw ∪ Ehw>:

    - the application precedence edges E, weighted by the bus transfer
      time when they cross the processor/circuit boundary;
    - software sequentialization edges Esw chaining the processor tasks
      in their chosen total order (zero weight);
    - context sequentialization edges Ehw realizing the globally total,
      locally partial order of the reconfigurable circuit.  Each
      context k is represented by a configuration node of duration
      [tR × nCLB(context k)]; it must wait for all members of context
      k-1 and precedes all members of context k.  The configuration
      node of the first context gives the *initial* reconfiguration
      time.

    The system execution time is the longest path of this DAG; a
    solution whose search graph is cyclic is infeasible. *)

open Repro_taskgraph
open Repro_arch

type binding = Sw | Hw of int | On_asic of int
(** Spatial assignment of a task: software (on one of the platform's
    processors — which one is given by [proc_of]), context [c] of the
    reconfigurable circuit, or the [a]-th ASIC of the platform.  An
    ASIC is the paper's partial-order resource: its tasks execute under
    the task-graph precedences alone — no sequentialization edges, no
    capacity bound, no reconfiguration — using their selected hardware
    implementation times. *)

type spec = {
  app : App.t;
  platform : Platform.t;
  binding : int -> binding;       (** per task id *)
  impl_choice : int -> int;       (** per task id: index into its impls *)
  sw_order : int list;            (** primary-processor tasks, in order *)
  contexts : int list list;       (** context k = members (any order) *)
  proc_of : int -> int;
  (** processor index (0-based) of a software-bound task; tasks in
      [sw_order] must map to 0, tasks of [extra_sw_orders.(k)] to
      [k+1].  Software tasks on different processors communicate
      through the shared memory like a HW/SW crossing. *)
  extra_sw_orders : int list list;
  (** execution orders of the additional processors (index 1
      upwards); [[]] for the single-processor systems of the paper's
      experiments *)
}

val single_processor_spec :
  app:App.t -> platform:Platform.t -> binding:(int -> binding) ->
  impl_choice:(int -> int) -> sw_order:int list -> contexts:int list list ->
  spec
(** Convenience constructor for the paper's 1-processor + 1-DRLC
    setting ([proc_of] constant 0, no extra orders). *)

type eval = {
  makespan : float;          (** longest path = total execution time, ms *)
  initial_reconfig : float;  (** configuration time of the first context *)
  dynamic_reconfig : float;  (** sum over subsequent contexts *)
  comm : float;              (** total boundary-crossing transfer time *)
  n_contexts : int;
  finish : float array;      (** per search-graph node; tasks first,
                                 then one node per context *)
}

val exec_time : spec -> int -> float
(** Execution time of a task under its binding and implementation
    choice. *)

val context_clbs : spec -> int list -> int
(** CLBs occupied by a context (sum over members of the chosen
    implementation). *)

val resource_code : (int -> binding) -> (int -> int) -> int -> int
(** [resource_code binding proc_of v] collapses a task's resource into
    one integer: software on processor p is [-(p+1)], the
    reconfigurable circuit is [0], the a-th ASIC is [a+1].  A transfer
    crosses the shared memory exactly when the endpoint codes differ —
    the single crossing predicate behind {!comm_cost} and [Solution]'s
    incrementally patched boundary-traffic total. *)

val crossing : spec -> int -> int -> bool
(** [crossing spec u v] iff a transfer u → v goes through the shared
    memory (the endpoints' {!resource_code}s differ). *)

(** Boundary-traffic total as a balanced pairwise sum.  The total is a
    pure function of the current per-edge terms under one fixed
    association, so updating a leaf ({!Comm.set}) and reading the root
    yields exactly the bits a from-scratch {!Comm.create} over the same
    terms would — the property that lets [Solution] patch the comm term
    per move while staying bit-identical to a rebuild. *)
module Comm : sig
  type t

  val create : float array -> t
  (** Build the sum tree over per-edge terms (index = position in
      [App.edges] order). *)

  val get : t -> int -> float
  val set : t -> int -> float -> unit
  (** Replace one term and recompute its O(log m) ancestor chain. *)

  val total : t -> float
end

val comm_terms :
  platform:Platform.t -> app:App.t -> crossing:(int -> int -> bool) ->
  float array
(** Per-application-edge boundary terms in [App.edges] order: the
    transfer time when the edge crosses under [crossing], 0 otherwise.
    [Comm.total (Comm.create (comm_terms ...))] is {!comm_cost}. *)

val comm_cost : spec -> float
(** Total boundary-crossing transfer time (the [comm] field of
    {!eval}); depends only on bindings and processor assignments, not
    on implementation choices.  Computed as the {!Comm} pairwise sum of
    {!comm_terms}. *)

(** {2 Sequentialization-pair emitters}

    Every Esw/Ehw pair of the search graph has exactly one owner: an
    Esw pair belongs to the adjacency of its endpoints in one
    processor's order; an Ehw pair [(c_j, v)] belongs to context [j]
    alone ({!ehw_intra_pairs}); the pairs into [c_j] from the previous
    context — [(c_{j-1}, c_j)] and [(v, c_j)] per member [v] of context
    [j-1] — belong to the adjacent context pair ({!gtlp_pairs}).  The
    families are mutually disjoint, so the canonical list is
    duplicate-free, and a mutator obtains the exact pair delta of a
    move by running only the emitters its footprint touches, before
    and after the mutation.

    The emitters are callback iterators: each pair [(u, v)] is handed
    to [emit u v] as it is found, and the emitters allocate nothing per
    pair, so the incremental evaluator can pack the pairs straight
    into its reusable int buffers.  The list forms ({!chain_pairs},
    {!ehw_pairs}, {!sequencing_pairs}) are collected from the same
    emitters. *)

val chain_pairs_near :
  (int -> bool) -> (int -> int -> unit) -> int list -> unit
(** [chain_pairs_near mem emit order] emits, in chain order, the
    consecutive pairs of a software execution order with at least one
    endpoint satisfying [mem]: the Esw pairs a move around the selected
    positions can have disturbed.  One walk of the order. *)

val ehw_intra_pairs : cfg:int -> (int -> int -> unit) -> int list -> unit
(** [ehw_intra_pairs ~cfg emit members] emits the pairs owned by one
    context: its configuration node [cfg] before each member. *)

val gtlp_pairs :
  prev_cfg:int -> prev_members:int list -> cfg:int ->
  (int -> int -> unit) -> unit
(** Emits the pairs owned by an adjacent context pair: the
    configuration chain edge [(prev_cfg, cfg)], then [(v, cfg)] for each
    member of the earlier context — the globally-total local order of
    the DRLC. *)

val iter_sequencing_pairs :
  cfg:(int -> int) ->
  sw_order:int list ->
  extra_sw_orders:int list list ->
  contexts:int list list ->
  (int -> int -> unit) ->
  unit
(** All Esw ∪ Ehw pairs in {!build}'s insertion order, configuration
    node ids supplied by [cfg] (positional index → node id): the chain
    of [sw_order], the chains of [extra_sw_orders], then the Ehw pairs —
    intra pairs of context 0, then per adjacency its GTLP pairs followed
    by the next context's intra pairs. *)

val chain_pairs : int list -> (int * int) list
(** Consecutive pairs of a software execution order: the Esw chain
    edges, in emission order. *)

val ehw_pairs : cfg:(int -> int) -> int list list -> (int * int) list
(** The Ehw pairs of {!iter_sequencing_pairs} for the given context
    list, as a list in emission order. *)

val sequencing_pairs :
  cfg:(int -> int) ->
  sw_order:int list ->
  extra_sw_orders:int list list ->
  contexts:int list list ->
  (int * int) list
(** {!iter_sequencing_pairs} as a list.  The incremental evaluator
    builds it only in its [REPRO_CHECK_DELTAS] paranoid mode, to assert
    the mutator-emitted deltas against a regenerate-and-diff
    reference. *)

val build :
  ?reuse:Graph.t -> spec -> Graph.t * (int -> float) * (int -> int -> float)
(** The raw search graph with its node- and edge-weight functions
    (tasks [0..n-1], then context configuration nodes).  Exposed for
    tests and for the Gantt view.  [reuse] donates a graph whose edges
    are discarded; when its size matches the spec's, the adjacency
    storage is rebuilt in place instead of reallocated (the hot path of
    the move loop). *)

val evaluate : spec -> eval option
(** [None] when the search graph is cyclic (infeasible order).
    Boundary-crossing transfers are charged as edge delays; concurrent
    transactions do not contend for the bus. *)

val evaluate_serialized : spec -> eval option
(** Like {!evaluate} but with the paper's §3.3 transaction model made
    explicit: every boundary-crossing transfer becomes a bus
    transaction, and all transactions execute under a total order on
    the shared medium (one at a time).  The order is derived from a
    topological order of the search graph, hence always consistent with
    the task execution ordering: a spec feasible for {!evaluate} is
    feasible here too, with a makespan at least as large. *)

val schedule : spec -> (float * float) array option
(** Start/finish times per task (ASAP under the longest-path
    semantics); [None] when infeasible. *)
