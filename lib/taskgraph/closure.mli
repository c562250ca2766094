(** Incrementally maintained transitive closure.

    The paper rejects moves that would create a cycle, "detectable in
    O(1) operations on the associated transitive closure matrix".  This
    module provides that matrix: a Boolean reachability matrix kept
    up to date under edge insertion (Italiano-style propagation).
    Deletions invalidate the matrix; rebuild with {!of_graph}.

    {!App.make} computes each application's closure once; every
    solution of the application reads that one matrix, so it must not
    be passed to {!add_edge}. *)


type t

val of_graph : Graph.t -> t
(** Closure of a DAG.  Raises [Invalid_argument] on cyclic input. *)

val size : t -> int

val reaches : t -> int -> int -> bool
(** [reaches t u v] is [true] iff there is a non-empty path u -> v.
    O(1). *)

val would_close_cycle : t -> int -> int -> bool
(** [would_close_cycle t u v] — would adding edge u->v create a cycle?
    Equivalent to [u = v || reaches t v u].  O(1). *)

val add_edge : t -> int -> int -> unit
(** Registers a new edge and updates reachability: every row holding
    the source (its ancestors, found by scanning the rows — only the
    descendant rows are stored) gains the target's descendants.
    O(n²/w) for n nodes and w-bit words.  Raises [Invalid_argument] if
    the edge closes a cycle (check with {!would_close_cycle} first). *)

val descendants : t -> int -> Repro_util.Bitset.t
(** Reachability row (do not mutate). *)
