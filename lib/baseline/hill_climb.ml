module Solution = Repro_dse.Solution
module Moves = Repro_dse.Moves
module Engine = Repro_dse.Engine

(* One iteration = one proposed move; every [moves_per_climb]
   iterations the climb restarts from a fresh random solution (the
   restart shares the iteration with the first move of the new climb,
   so a budget of moves_per_climb * k iterations is exactly k climbs).
   The driver's best-snapshot bookkeeping subsumes the historical
   end-of-climb comparison: within a climb the current cost only
   decreases, so the per-improvement snapshots reach the same optima. *)
let engine_run ~moves_per_climb (ctx : Engine.context) =
  if moves_per_climb < 1 then
    invalid_arg "Hill_climb: moves_per_climb < 1";
  let app = ctx.Engine.app and platform = ctx.Engine.platform in
  let current = ref infinity in
  let codec =
    State_codec.solution_plus ~engine:"hill" ~version:1 ~tag:"climb" current
      app platform
  in
  Engine.drive ~codec ctx
    ~init:(fun _rng ->
      (* A warm start becomes the initial best the climbs must beat;
         the iteration-0 restart still draws its own fresh state. *)
      let s =
        match ctx.Engine.warm_start with
        | Some w -> Solution.snapshot w
        | None -> Solution.all_software app platform
      in
      let cost = Solution.makespan s in
      (s, cost, 1))
    ~step:(fun rng ~iteration state ->
      let state, restart_evals =
        if iteration mod moves_per_climb = 0 then begin
          let s = Solution.random rng app platform in
          current := Solution.makespan s;
          (s, 1)
        end
        else (state, 0)
      in
      match Moves.propose rng Moves.fixed_architecture state with
      | None ->
        { Engine.state; cost = !current; accepted = false;
          evaluations = restart_evals }
      | Some undo ->
        let candidate = Solution.makespan state in
        if candidate < !current then begin
          current := candidate;
          { Engine.state; cost = candidate; accepted = true;
            evaluations = restart_evals + 1 }
        end
        else begin
          undo ();
          { Engine.state; cost = !current; accepted = false;
            evaluations = restart_evals + 1 }
        end)
    ~snapshot:Solution.snapshot

let engine_with ?(moves_per_climb = 5000) () : Engine.t =
  (module struct
    let name = "hill"
    let describe = "first-improvement hill climbing with random restarts"

    let knobs =
      Printf.sprintf
        "restart every %d moves; one iteration = one proposed move \
         (annealer move set, uphill always rejected)"
        moves_per_climb

    let default_iterations = 20_000
    let run ctx = engine_run ~moves_per_climb ctx
  end : Engine.S)

let engine : Engine.t = engine_with ()
