(** Genetic-algorithm baseline, after Ben Chehida & Auguin (CASES'02),
    the comparison point of the paper's §5.

    The GA explores spatial partitioning (and implementation selection)
    only; for each individual the temporal partitioning is produced by
    the deterministic {!Clustering} pass and the software schedule by
    list scheduling on HEFT upward ranks — one partitioning and one
    schedule per spatial solution, exactly the structure the paper
    criticizes. *)

open Repro_taskgraph
open Repro_arch
open Repro_sched

type individual = {
  hw : bool array;        (** spatial partitioning gene per task *)
  impl : int array;       (** implementation-selection gene per task *)
}

val decode : App.t -> Platform.t -> individual -> Searchgraph.spec
(** Clustering + list scheduling realization of a chromosome.
    Hardware genes whose implementation cannot fit the device are
    treated as software. *)

val solution_of :
  ?scratch:Repro_dse.Solution.t ->
  App.t -> Platform.t -> individual ->
  (Repro_dse.Solution.t, string) Stdlib.result
(** The same realization as {!decode}, materialized as a first-class
    {!Repro_dse.Solution.t} (via {!Repro_dse.Solution.of_mapping}) so
    decoded individuals flow through the engine contract.  [scratch]
    donates a retiring solution's evaluation storage to the new one
    (see {!Repro_dse.Solution.of_mapping}). *)

val fitness : App.t -> Platform.t -> individual -> float
(** Makespan of the decoded individual.  [infinity] when the decoded
    search graph is cyclic (the list-scheduled software order can
    conflict with the clustered context chain on rare partitions);
    such individuals are selected away. *)

val engine :
  ?population:int -> ?explore_impls:bool -> unit -> Repro_dse.Engine.t
(** An engine over generations: one budget iteration = one generation
    (120 by default).  Registered as ["ga"] (implementations explored,
    the default) and as ["ga-spatial"] ([~explore_impls:false]: every
    individual keeps the smallest implementation, the spatial-only GA
    closest to [6]'s published description).  [population] defaults to
    300, the size [6] quotes; the other knobs are fixed (crossover 0.9,
    per-gene mutation 0.02, tournament 3, elite 2) and the seed and
    generation budget come from the engine context.  The per-generation
    best makespan reaches [context.observe] as each probe's [cost]. *)
