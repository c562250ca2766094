(** Pure random sampling of the solution space — the weakest sensible
    baseline, and the control showing how much structure the annealer
    exploits. *)

val engine : Repro_dse.Engine.t
(** Registered as ["random"]; one budget iteration = one random
    solution ({!Repro_dse.Solution.random}) drawn and evaluated, the
    best feasible one kept. *)
