(** First-improvement hill climbing with random restarts, using the
    same move set as the annealer — the ablation isolating the value of
    accepting uphill moves. *)

val engine : Repro_dse.Engine.t
(** Registered as ["hill"]; one budget iteration = one proposed move,
    with a fresh random restart every 5000 moves. *)

val engine_with : ?moves_per_climb:int -> unit -> Repro_dse.Engine.t
(** The same engine (still named ["hill"]) restarting every
    [moves_per_climb] moves (default 5000), so a budget of
    [moves_per_climb * k] iterations runs exactly [k] climbs.  The
    checkpoint does not record the climb length: resume with the same
    one.  Raises [Invalid_argument] at run time when
    [moves_per_climb < 1]. *)
