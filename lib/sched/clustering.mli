(** Deterministic temporal partitioning by clustering.

    The GA baseline of Ben Chehida & Auguin derives, for each spatial
    partitioning, a *single* temporal partitioning with a deterministic
    clustering pass (this is precisely the limitation the paper's
    concurrent exploration removes).  The pass walks the hardware tasks
    in topological order and packs them into the current context until
    the device capacity would be exceeded, then opens a new context. *)

open Repro_taskgraph
open Repro_arch

val contexts :
  App.t -> Platform.t -> is_hw:(int -> bool) -> impl_choice:(int -> int) ->
  int list list
(** Contexts in execution order; every member satisfies [is_hw].
    Tasks whose selected implementation alone exceeds the device are
    skipped (the caller must treat them as software).  *)

val oversized_tasks :
  App.t -> Platform.t -> is_hw:(int -> bool) -> impl_choice:(int -> int) ->
  int list
(** The hardware-requested tasks that cannot fit the device at all. *)

val plan :
  App.t -> Platform.t -> is_hw:(int -> bool) -> impl_choice:(int -> int) ->
  int list list * int list * (int -> Searchgraph.binding)
(** The deterministic realization of a hardware/software chromosome,
    shared by the GA baseline and the multi-mode explorer: the tasks
    [is_hw] requests whose selected implementation fits the device are
    clustered into {!contexts}; the rest run in software, ordered by
    list scheduling on HEFT upward ranks.  Returns the contexts, the
    software order and the resulting binding. *)
