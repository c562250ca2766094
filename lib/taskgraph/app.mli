(** Application model: an acyclic precedence graph G = <V, E> whose
    nodes are {!Task.t} and whose edges carry the amount of data
    transferred (the paper's [qij]). *)

type edge = {
  src : int;
  dst : int;
  kbytes : float;  (** data transferred along the edge, kilobytes *)
}

type t = private {
  name : string;
  tasks : Task.t array;
  graph : Graph.t;                   (** precedence structure *)
  closure : Closure.t;
  (** transitive closure of [graph], computed once here and shared by
      every solution of the application; treat it as read-only *)
  edge_data : (int * int, float) Hashtbl.t;  (** (src,dst) -> kbytes *)
  deadline : float option;           (** performance constraint, ms *)
}

val make :
  name:string -> ?deadline:float -> tasks:Task.t list -> edges:edge list ->
  unit -> t
(** Builds and validates an application: task ids must be exactly
    [0 .. n-1], edges must reference existing tasks, data amounts must
    be non-negative, and the precedence graph must be acyclic.
    Raises [Invalid_argument] otherwise. *)

val size : t -> int
val task : t -> int -> Task.t
val kbytes : t -> int -> int -> float
(** Data carried by an edge; 0 when the edge does not exist. *)

val edges : t -> edge list
val topological_order : t -> int array

val total_sw_time : t -> float
(** Execution time of the all-software solution (tasks are sequential
    on the single processor, no communication cost). *)

val sw_critical_path : t -> float
(** Longest path using software times only — an idealized
    infinite-resource lower bound for software execution. *)

val hw_critical_path : t -> float
(** Longest path using each task's fastest hardware implementation and
    no communication or reconfiguration cost — an optimistic lower
    bound on any mapping. *)

val parallelism : t -> float
(** [total_sw_time / sw_critical_path]: average width of the graph. *)

val validate : t -> (unit, string) result
(** Re-checks all construction invariants (used by property tests). *)

val pp_summary : Format.formatter -> t -> unit
