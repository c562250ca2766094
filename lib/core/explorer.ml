open Repro_taskgraph
open Repro_arch
open Repro_sched
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module Rng = Repro_util.Rng
module Parallel = Repro_util.Parallel
module Clock = Repro_util.Clock
module Checkpoint = Repro_util.Checkpoint
module Json = Repro_util.Json_lite

type objective =
  | Makespan
  | Makespan_serialized
  | Min_period
  | Cost_under_deadline of { penalty_per_ms : float }

type config = {
  anneal : Annealer.config;
  moves : Moves.config;
  objective : objective;
}

let default_config ?(seed = 1) () =
  {
    anneal = { Annealer.default_config with seed };
    moves = Moves.fixed_architecture;
    objective = Makespan;
  }

let quality_config ?(seed = 1) q =
  {
    anneal = Annealer.config_of_quality ~seed q;
    moves = Moves.fixed_architecture;
    objective = Makespan;
  }

type result = {
  best : Solution.t;
  best_eval : Searchgraph.eval;
  best_cost : float;
  initial_cost : float;
  iterations_run : int;
  accepted : int;
  infeasible : int;
  wall_seconds : float;
  status : Engine.status;
}

let result_fields ?(lead = []) ?(after_run = []) ?(after_solution = [])
    ?(restart_statuses = []) ?(degraded = 0) ~status r =
  let open Json in
  lead
  @ [
      ("status", Str status);
      ("best_cost", Num r.best_cost);
      ("makespan", Num r.best_eval.Searchgraph.makespan);
      ("n_contexts", num_int r.best_eval.Searchgraph.n_contexts);
      ("iterations_run", num_int r.iterations_run);
      ("accepted", num_int r.accepted);
      ("infeasible", num_int r.infeasible);
      ("wall_seconds", Num r.wall_seconds);
    ]
  @ after_run
  @ [ ("solution", Str (Checkpoint.crc32_hex (Solution.encode r.best))) ]
  @ after_solution
  @
  match restart_statuses with
  | [] -> []
  | statuses ->
    [
      ("restart_statuses", Arr (List.map (fun s -> Str s) statuses));
      ("degraded_restarts", num_int degraded);
    ]

(* A checkpoint only resumes against the inputs and configuration it
   was taken under; the fingerprint ties the file to them. *)
let fingerprint config application platform =
  let anneal = config.anneal in
  Checkpoint.crc32_hex
    (String.concat "\n"
       [
         App_io.to_string application;
         Platform_io.to_string platform;
         Printf.sprintf "anneal %d %d %s %d %s %s" anneal.Annealer.iterations
           anneal.Annealer.warmup_iterations
           (Schedule.name anneal.Annealer.schedule)
           anneal.Annealer.seed
           (match anneal.Annealer.frozen_window with
            | None -> "-"
            | Some w -> string_of_int w)
           (match config.objective with
            | Makespan -> "makespan"
            | Makespan_serialized -> "serialized"
            | Min_period -> "period"
            | Cost_under_deadline { penalty_per_ms } ->
              Printf.sprintf "deadline:%h" penalty_per_ms);
       ])

(* The annealer's part of a snapshot: the [state] section of its
   checkpoint.  The {!Engine.Envelope} carries the rest — RNG words,
   next iteration, accepted count, best solution and cost. *)
type sa_state = {
  current : Solution.t;
  current_cost : float;
  schedule_state : float array;
  warmup_state : float array;
  infeasible_so_far : int;
  since_improvement : int;
}

let sa_codec application platform =
  let floats tag a =
    String.concat " " (tag :: List.map (Printf.sprintf "%h") (Array.to_list a))
  in
  let decode text =
    let ( let* ) = Result.bind in
    let field = Checkpoint.field in
    let lines = String.split_on_char '\n' text in
    let* schedule, lines = field "schedule" float_of_string_opt lines in
    let* warmup, lines = field "warmup" float_of_string_opt lines in
    let* counters, lines = field "counters" int_of_string_opt lines in
    let* cost, lines = field "current" float_of_string_opt lines in
    let* current =
      Solution.decode application platform (String.concat "\n" lines)
    in
    match (counters, cost) with
    | [ infeasible_so_far; since_improvement ], [ current_cost ] ->
      Ok
        {
          current;
          current_cost;
          schedule_state = Array.of_list schedule;
          warmup_state = Array.of_list warmup;
          infeasible_so_far;
          since_improvement;
        }
    | _ -> Error "bad counters or current line"
  in
  {
    Engine.engine = "sa";
    version = 1;
    encode =
      (fun s ->
        Printf.sprintf "%s\n%s\ncounters %d %d\ncurrent %h\n%s"
          (floats "schedule" s.schedule_state)
          (floats "warmup" s.warmup_state)
          s.infeasible_so_far s.since_improvement s.current_cost
          (Solution.encode s.current));
    decode;
  }

let envelope_of_snapshot ~initial_cost ~elapsed
    (s : Solution.t Annealer.snapshot) =
  {
    Engine.Envelope.iteration = s.Annealer.next_iteration;
    evaluations = s.Annealer.next_iteration - s.Annealer.infeasible_so_far;
    accepted = s.Annealer.accepted_so_far;
    initial_cost;
    best_cost = s.Annealer.best_so_far_cost;
    elapsed;
    rng = Rng.of_state s.Annealer.rng_state;
    best = s.Annealer.best_so_far;
    state =
      {
        current = s.Annealer.current;
        current_cost = s.Annealer.current_cost;
        schedule_state = s.Annealer.schedule_state;
        warmup_state = s.Annealer.warmup_state;
        infeasible_so_far = s.Annealer.infeasible_so_far;
        since_improvement = s.Annealer.since_improvement;
      };
  }

let snapshot_of_envelope (e : sa_state Engine.Envelope.t) =
  let s = e.Engine.Envelope.state in
  {
    Annealer.rng_state = Rng.state e.Engine.Envelope.rng;
    schedule_state = s.schedule_state;
    warmup_state = s.warmup_state;
    next_iteration = e.Engine.Envelope.iteration;
    current = s.current;
    current_cost = s.current_cost;
    best_so_far = e.Engine.Envelope.best;
    best_so_far_cost = e.Engine.Envelope.best_cost;
    accepted_so_far = e.Engine.Envelope.accepted;
    infeasible_so_far = s.infeasible_so_far;
    since_improvement = s.since_improvement;
  }

(* The incumbent of any engine checkpoint, for cross-engine warm starts
   (--seed-from).  Deliberately *not* fingerprint-checked: the donor
   may be a different engine under a different seed or budget — the
   only requirement is that its best solution decodes against the
   current application and platform (the "inputs-only" rule).  Every
   "dse-engine" file holds it between bare [best] and [state] marker
   lines no solution encoding can contain. *)
let read_incumbent path application platform =
  let ( let* ) = Result.bind in
  let fail fmt =
    Printf.ksprintf (fun m -> Error (path ^ ": checkpoint: " ^ m)) fmt
  in
  let* kind, payload = Checkpoint.inspect path in
  let rec drop_to marker = function
    | [] -> None
    | l :: tail -> if l = marker then Some tail else drop_to marker tail
  in
  let rec take_until marker acc = function
    | [] -> List.rev acc
    | l :: _ when l = marker -> List.rev acc
    | l :: tail -> take_until marker (l :: acc) tail
  in
  let* best_lines =
    if kind <> Engine.checkpoint_kind then
      fail "kind %S holds no incumbent solution" kind
    else
      match drop_to "best" (String.split_on_char '\n' payload) with
      | Some ls -> Ok (take_until "state" [] ls)
      | None -> fail "missing best section"
  in
  match
    Solution.decode application platform (String.concat "\n" best_lines)
  with
  | Ok s -> Ok s
  | Error m -> fail "incumbent does not fit these inputs: %s" m

let cost_of objective solution =
  match objective with
  | Makespan -> Solution.makespan solution
  | Makespan_serialized ->
    (match Searchgraph.evaluate_serialized (Solution.spec solution) with
     | Some eval -> eval.Searchgraph.makespan
     | None -> infinity)
  | Min_period ->
    if Solution.evaluate solution = None then infinity
    else
      (Periodic.analyze (Solution.spec solution)).Periodic.min_initiation_interval
  | Cost_under_deadline { penalty_per_ms } ->
    let deadline =
      match (Solution.app solution).App.deadline with
      | Some d -> d
      | None ->
        invalid_arg "Explorer: Cost_under_deadline needs an app deadline"
    in
    let overshoot = Float.max 0.0 (Solution.makespan solution -. deadline) in
    Platform.total_cost (Solution.platform solution)
    +. (penalty_per_ms *. overshoot)

let meets_deadline application eval =
  match application.App.deadline with
  | None -> true
  | Some d -> eval.Searchgraph.makespan <= d

type frontier_point = {
  platform : Platform.t;
  eval : Searchgraph.eval;
  cost : float;
  meets : bool;
}

(* [trace] recording and [on_iteration] folded into one per-iteration
   callback; [n_contexts] reads the working state's context count. *)
let iteration_callback trace on_iteration ~n_contexts =
  let record =
    Option.map
      (fun t ~iteration ~cost ~best ~temperature ~accepted ->
        Trace.record t
          {
            Trace.iteration;
            cost;
            best;
            temperature;
            accepted;
            n_contexts = n_contexts ();
          })
      trace
  in
  match (record, on_iteration) with
  | None, None -> None
  | Some f, None | None, Some f -> Some f
  | Some f, Some g ->
    Some
      (fun ~iteration ~cost ~best ~temperature ~accepted ->
        f ~iteration ~cost ~best ~temperature ~accepted;
        g ~iteration ~cost ~best ~temperature ~accepted)

(* The native annealer on [config]: the whole configuration (warmup,
   schedule, moves, objective) applies, and checkpoints carry the
   annealer's own state section. *)
let anneal ?trace ?initial ?checkpoint ?should_stop ?on_iteration config
    application platform =
  let module P = struct
    type state = Solution.t

    let cost = cost_of config.objective
    let snapshot = Solution.snapshot
    let propose rng s = Moves.propose rng config.moves s
  end in
  let module Sa = Annealer.Make (P) in
  let start_clock = Clock.wall () in
  let persist =
    Option.map
      (fun ck ->
        (ck, sa_codec application platform,
         fingerprint config application platform))
      checkpoint
  in
  let resumed =
    Option.bind persist (fun (ck, codec, fingerprint) ->
        Engine.resolve_resume ck
          (Engine.Envelope.load codec ~fingerprint application platform))
  in
  let solution, initial_cost, elapsed_before =
    match resumed with
    | Some e ->
      ( e.Engine.Envelope.state.current,
        e.Engine.Envelope.initial_cost,
        e.Engine.Envelope.elapsed )
    | None ->
      let solution =
        match initial with
        | Some s -> s
        | None ->
          let rng = Rng.create config.anneal.Annealer.seed in
          Solution.random rng application platform
      in
      (match Solution.evaluate solution with
       | Some _ -> ()
       | None ->
         invalid_arg "Explorer.explore: initial solution is infeasible");
      (solution, P.cost solution, 0.0)
  in
  let elapsed () = elapsed_before +. Clock.wall () -. start_clock in
  let annealer_trace =
    iteration_callback trace on_iteration ~n_contexts:(fun () ->
        Solution.n_contexts solution)
  in
  let sink =
    Option.map
      (fun ((ck : Engine.checkpoint), codec, fingerprint) ->
        ( ck.Engine.every,
          fun snapshot ->
            Engine.Envelope.save codec ~fingerprint ck.Engine.path
              (envelope_of_snapshot ~initial_cost ~elapsed:(elapsed ())
                 snapshot) ))
      persist
  in
  let outcome =
    match resumed with
    | Some e ->
      Sa.resume ?trace:annealer_trace ?checkpoint:sink ?should_stop
        config.anneal (snapshot_of_envelope e)
    | None ->
      Sa.run ?trace:annealer_trace ?checkpoint:sink ?should_stop config.anneal
        solution
  in
  let best = outcome.Annealer.best in
  let best_eval =
    match Solution.evaluate best with
    | Some eval -> eval
    | None -> assert false (* only feasible states are ever accepted *)
  in
  {
    best;
    best_eval;
    best_cost = outcome.Annealer.best_cost;
    initial_cost;
    iterations_run = outcome.Annealer.iterations_run;
    accepted = outcome.Annealer.accepted;
    infeasible = outcome.Annealer.infeasible;
    wall_seconds = elapsed ();
    status = outcome.Annealer.status;
  }

(* A registered engine on the explorer's inputs.  The context takes the
   annealing seed and iteration budget; the observations feed the trace
   and [on_iteration], with temperature and context count (defined only
   for the annealer) recorded as 0.  The eval is recomputed from the
   (feasible) best solution, and the annealer-specific infeasible
   counter is 0. *)
let run_engine engine ?trace ?initial ?checkpoint ?should_stop ?on_iteration
    config application platform =
  (match config.objective with
   | Makespan -> ()
   | Makespan_serialized | Min_period | Cost_under_deadline _ ->
     invalid_arg "Explorer.explore: a registered engine optimizes the makespan");
  let observe =
    Option.map
      (fun f { Engine.iteration; cost; best; accepted } ->
        f ~iteration ~cost ~best ~temperature:0.0 ~accepted)
      (iteration_callback trace on_iteration ~n_contexts:(fun () -> 0))
  in
  let o =
    Engine.run engine
      (Engine.context ?should_stop ?observe ?checkpoint
         ?warm_start:(Option.map Solution.snapshot initial)
         ~app:application ~platform ~seed:config.anneal.Annealer.seed
         ~iterations:config.anneal.Annealer.iterations ())
  in
  let best_eval =
    match Solution.evaluate o.Engine.best with
    | Some eval -> eval
    | None -> failwith "Explorer: engine returned an infeasible best solution"
  in
  {
    best = o.Engine.best;
    best_eval;
    best_cost = o.Engine.best_cost;
    initial_cost = o.Engine.initial_cost;
    iterations_run = o.Engine.iterations_run;
    accepted = o.Engine.accepted;
    infeasible = 0;
    wall_seconds = o.Engine.wall_seconds;
    status = o.Engine.status;
  }

let explore ?engine ?trace ?initial ?checkpoint ?should_stop ?on_iteration
    config application platform =
  let run =
    match engine with None -> anneal | Some engine -> run_engine engine
  in
  run ?trace ?initial ?checkpoint ?should_stop ?on_iteration config
    application platform

let resolve_engine ?report name =
  if name = "sa" then Ok None
  else Result.map Option.some (Portfolio.resolve ?report name)

(* ---- the annealer as a registered engine -------------------------- *)

(* The annealer implements the Engine contract natively: the generic
   iteration budget is the *total* move count (warmup + cooling), so
   [iterations_run <= budget.iterations] holds exactly as for the
   driven engines, and the stop probe / wall timing / observation
   callbacks are the ones the rest of the system already exercises. *)
module Sa_engine : Engine.S = struct
  let name = "sa"
  let describe = "adaptive simulated annealing (the paper, \xc2\xa74)"

  let knobs =
    "Lam schedule (quality 0.003); warmup = min(1200, budget/10); one \
     iteration = one proposed move"

  let default_iterations = 50_000

  let run (ctx : Engine.context) =
    let total = ctx.Engine.budget.Engine.iterations in
    (* The annealer spends at most one evaluation per iteration, so an
       evaluation budget is enforced exactly by capping the move
       count. *)
    let total =
      match ctx.Engine.budget.Engine.max_evaluations with
      | Some m -> min total m
      | None -> total
    in
    if total < 2 then invalid_arg "sa engine: budget below 2 iterations";
    let warmup = max 1 (min 1_200 (total / 10)) in
    let config =
      {
        anneal =
          {
            Annealer.default_config with
            Annealer.iterations = total - warmup;
            warmup_iterations = warmup;
            seed = ctx.Engine.seed;
          };
        moves = Moves.fixed_architecture;
        objective = Makespan;
      }
    in
    let on_iteration =
      Option.map
        (fun f ~iteration ~cost ~best ~temperature:_ ~accepted ->
          (* Warmup iterations count from -warmup; present the engine's
             uniform 0-based index instead. *)
          f { Engine.iteration = iteration + warmup; cost; best; accepted })
        ctx.Engine.observe
    in
    let result =
      anneal
        ~should_stop:(Engine.stop_probe ctx)
        ?initial:(Option.map Solution.snapshot ctx.Engine.warm_start)
        ?on_iteration ?checkpoint:ctx.Engine.checkpoint config ctx.Engine.app
        ctx.Engine.platform
    in
    {
      Engine.best = result.best;
      best_cost = result.best_cost;
      initial_cost = result.initial_cost;
      iterations_run = result.iterations_run;
      evaluations = result.iterations_run - result.infeasible;
      accepted = result.accepted;
      wall_seconds = result.wall_seconds;
      status = result.status;
    }
end

let sa_engine : Engine.t = (module Sa_engine)

(* ---- supervised restarts ----------------------------------------- *)

type item_status =
  | Item_done
  | Item_timed_out
  | Item_failed of string
  | Item_skipped

let item_status_name = function
  | Item_done -> "done"
  | Item_timed_out -> "timed-out"
  | Item_failed _ -> "failed"
  | Item_skipped -> "skipped"

let status_of_outcome = function
  | Parallel.Done _ -> Item_done
  | Parallel.Timed_out _ -> Item_timed_out
  | Parallel.Failed { error; _ } -> Item_failed error
  | Parallel.Skipped -> Item_skipped

type restarts_report = {
  best_result : result option;
  restart_costs : (int * float) list;
  restart_statuses : item_status array;
  degraded : int;
}

let explore_restarts_supervised ?trace ?(jobs = 1) ?restart_timeout
    ?should_stop ?(retries = 0) ?engine ?restart_checkpoint ?warm_start
    ~restarts config application platform =
  if restarts < 1 then
    invalid_arg "Explorer.explore_restarts_supervised: restarts < 1";
  (* Each chain's seed is a pure function of its index, and results are
     collected in index order, so the winner (first strict minimum) and
     the cost list are identical for every [jobs] value. *)
  let run_chain index ~stop =
    let seed = config.anneal.Annealer.seed + (index * 65_537) in
    let trace = if index = 0 then trace else None in
    let checkpoint =
      Option.map (fun path_of -> path_of index) restart_checkpoint
    in
    let config =
      { config with anneal = { config.anneal with Annealer.seed } }
    in
    (* The per-restart deadline reaches the chain as its stop probe: a
       chain out of budget returns best-so-far at the next iteration
       boundary instead of being torn down. *)
    explore ?engine ?trace ?checkpoint ~should_stop:stop
      ?initial:(Option.map Solution.snapshot warm_start)
      config application platform
  in
  let outcomes =
    Parallel.map_outcomes ~jobs ~retries ?timeout:restart_timeout ?should_stop
      restarts run_chain
  in
  let statuses = Array.map status_of_outcome outcomes in
  let survivors =
    Array.to_list outcomes
    |> List.mapi (fun index outcome -> (index, Parallel.outcome_value outcome))
    |> List.filter_map (fun (index, value) ->
           Option.map (fun r -> (index, r)) value)
  in
  let best =
    match survivors with
    | [] -> None
    | (_, first) :: rest ->
      Some
        (List.fold_left
           (fun best (_, candidate) ->
             if candidate.best_cost < best.best_cost then candidate else best)
           first rest)
  in
  {
    best_result = best;
    restart_costs = List.map (fun (i, r) -> (i, r.best_cost)) survivors;
    restart_statuses = statuses;
    degraded =
      Array.fold_left
        (fun n s -> match s with Item_done -> n | _ -> n + 1)
        0 statuses;
  }

let pareto_frontier candidates =
  let dominated point =
    List.exists
      (fun other ->
        other != point
        && other.cost <= point.cost
        && other.eval.Searchgraph.makespan <= point.eval.Searchgraph.makespan
        && (other.cost < point.cost
            || other.eval.Searchgraph.makespan
               < point.eval.Searchgraph.makespan))
      candidates
  in
  List.sort
    (fun a b -> compare (a.cost, a.eval.Searchgraph.makespan)
        (b.cost, b.eval.Searchgraph.makespan))
    (List.filter (fun p -> not (dominated p)) candidates)

type frontier_report = {
  frontier : frontier_point list;
  device_statuses : item_status array;
  devices_lost : int;
}

let cost_performance_frontier_supervised ?(seed = 1) ?(iterations = 20_000)
    ?(jobs = 1) ?device_timeout ?should_stop ?(retries = 0) ?engine
    application catalogue =
  (* One independent exploration per catalogue device: a natural
     parallel grid (same seed per device as sequentially).  A device
     whose exploration fails or runs out of budget drops out of the
     frontier — the frontier over survivors equals the frontier over a
     catalogue with that device excluded a priori, because candidates
     never interact before the final dominance pass. *)
  let devices = Array.of_list catalogue in
  let config =
    let base = default_config ~seed () in
    { base with anneal = { base.anneal with Annealer.iterations } }
  in
  let outcomes =
    Parallel.map_outcomes ~jobs ~retries ?timeout:device_timeout ?should_stop
      (Array.length devices)
      (fun i ~stop ->
        let platform = devices.(i) in
        let result =
          explore ?engine ~should_stop:stop config application platform
        in
        {
          platform;
          eval = result.best_eval;
          cost = Platform.total_cost platform;
          meets = meets_deadline application result.best_eval;
        })
  in
  let statuses = Array.map status_of_outcome outcomes in
  let candidates =
    Array.to_list outcomes |> List.filter_map Parallel.outcome_value
  in
  {
    frontier = pareto_frontier candidates;
    device_statuses = statuses;
    devices_lost =
      Array.fold_left
        (fun n s -> match s with Item_done -> n | _ -> n + 1)
        0 statuses;
  }
