(* Benchmark harness: one experiment per table/figure of the paper's
   evaluation (§5), plus the ablations called out in DESIGN.md and
   Bechamel micro-benchmarks of the evaluation primitives.

     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- fig3 space   # a selection
     BENCH_RUNS=100 dune exec bench/main.exe -- fig3   # paper-scale

   Each experiment also writes a machine-readable BENCH_<name>.json
   ({"experiment", "wall_seconds", "metrics": {...}}) to the working
   directory, so runs can be tracked and compared without scraping the
   tables.  Iteration budgets come from BENCH_* environment knobs (see
   the env_int calls below); BENCH_JOBS sets the domain count for the
   parallel grids.

   Paper anchors are printed next to each measured series; we reproduce
   the *shape* (who wins, where the minima/plateaus fall), not the
   authors' absolute testbed numbers. *)

module Md = Repro_workloads.Motion_detection
module Suite_w = Repro_workloads.Suite
module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Moves = Repro_dse.Moves
module Trace = Repro_dse.Trace
module Combinatorics = Repro_dse.Combinatorics
module Searchgraph = Repro_sched.Searchgraph
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module Ga = Repro_baseline.Ga
module Greedy = Repro_baseline.Greedy
module Random_search = Repro_baseline.Random_search
module Hill_climb = Repro_baseline.Hill_climb
module Tabu = Repro_baseline.Tabu
module Engine = Repro_dse.Engine
module Portfolio = Repro_dse.Portfolio
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Rng = Repro_util.Rng
module Parallel = Repro_util.Parallel
module Clock = Repro_util.Clock
module App = Repro_taskgraph.App
module Task = Repro_taskgraph.Task

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> (try int_of_string v with Failure _ -> default)
  | None -> default

let runs_per_point = env_int "BENCH_RUNS" 5
let iters_per_run = env_int "BENCH_ITERS" 6_000
let fig2_iters = env_int "BENCH_FIG2_ITERS" 50_000
let compare_iters = env_int "BENCH_COMPARE_ITERS" 50_000
let ga_generations = env_int "BENCH_GA_GENERATIONS" 120
let ga_population = env_int "BENCH_GA_POPULATION" 300
let random_samples = env_int "BENCH_RANDOM_SAMPLES" 5_000
let hill_moves = env_int "BENCH_HILL_MOVES" 10_000
let tabu_iters = env_int "BENCH_TABU_ITERS" 2_000
let restarts_iters = env_int "BENCH_RESTARTS_ITERS" 20_000
let micro_moves = env_int "BENCH_MICRO_MOVES" 20_000
let bench_jobs = env_int "BENCH_JOBS" (Parallel.default_jobs ())

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let anneal_config ~iterations ~seed =
  {
    Annealer.iterations;
    warmup_iterations = 1_200;
    schedule = Schedule.lam ~quality:(150.0 /. float_of_int iterations) ();
    seed;
    frozen_window = None;
  }

let explore_once ?trace ?(moves = Moves.fixed_architecture) ~iterations ~seed
    app platform =
  let config =
    { Explorer.anneal = anneal_config ~iterations ~seed; moves;
      objective = Explorer.Makespan }
  in
  Explorer.explore ?trace config app platform

(* ------------------------------------------------------------------ *)
(* Fig. 2: evolution of execution time and number of contexts along a
   typical run (2000 CLBs).                                            *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "Fig. 2 — execution time and number of contexts vs iteration";
  Printf.printf
    "paper: warmup spans ~35-70 ms and 1-8 contexts; cooling drops below the\n\
     40 ms constraint and freezes at 18.1 ms with 3 contexts (2000 CLBs).\n\n";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let trace = Trace.create () in
  let result = explore_once ~trace ~iterations:fig2_iters ~seed:5 app platform in
  let entries = Trace.entries trace in
  let warmup = List.filter (fun e -> e.Trace.iteration < 0) entries in
  let warmup_costs = List.map (fun e -> e.Trace.cost) warmup in
  let warmup_ctx = List.map (fun e -> float_of_int e.Trace.n_contexts) warmup in
  Printf.printf
    "warmup (infinite temperature): exec time %.1f..%.1f ms, contexts %.0f..%.0f\n"
    (List.fold_left Float.min infinity warmup_costs)
    (List.fold_left Float.max 0.0 warmup_costs)
    (List.fold_left Float.min infinity warmup_ctx)
    (List.fold_left Float.max 0.0 warmup_ctx);
  let table =
    Table.create
      [ ("iteration", Table.Right); ("exec ms", Table.Right);
        ("best ms", Table.Right); ("contexts", Table.Right);
        ("temperature", Table.Right) ]
  in
  List.iter
    (fun e ->
      Table.add_row table
        [
          Table.cell_int e.Trace.iteration;
          Table.cell_float e.Trace.cost;
          Table.cell_float e.Trace.best;
          Table.cell_int e.Trace.n_contexts;
          (if e.Trace.temperature = infinity then "inf"
           else Table.cell_float ~decimals:4 e.Trace.temperature);
        ])
    (Trace.downsample trace ~max_points:24);
  print_string (Table.render table);
  (* The figure itself: execution time [*] and context count [o],
     rescaled x5 like the paper's second axis) vs iteration. *)
  let sampled = Trace.downsample trace ~max_points:400 in
  let exec_series =
    List.map (fun e -> (float_of_int e.Trace.iteration, e.Trace.cost)) sampled
  in
  let context_series =
    List.map
      (fun e ->
        (float_of_int e.Trace.iteration, 5.0 *. float_of_int e.Trace.n_contexts))
      sampled
  in
  print_newline ();
  print_string
    (Repro_util.Ascii_chart.render ~width:72 ~height:14
       ~x_label:"iteration" ~y_label:"exec time ms (*) / 5 x contexts (o)"
       [
         { Repro_util.Ascii_chart.marker = 'o'; points = context_series };
         { Repro_util.Ascii_chart.marker = '*'; points = exec_series };
       ]);
  let eval = result.Explorer.best_eval in
  Printf.printf
    "final: %.1f ms with %d context(s) [paper: 18.1 ms, 3 contexts]; \
     constraint 40 ms %s\n"
    result.Explorer.best_cost eval.Searchgraph.n_contexts
    (if Explorer.meets_deadline app eval then "MET" else "MISSED");
  [
    ("best_cost_ms", result.Explorer.best_cost);
    ("contexts", float_of_int eval.Searchgraph.n_contexts);
    ("iterations_per_second",
     float_of_int result.Explorer.iterations_run
     /. Float.max result.Explorer.wall_seconds 1e-9);
    ("deadline_met", if Explorer.meets_deadline app eval then 1.0 else 0.0);
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 3: execution time, reconfiguration times and number of
   contexts vs FPGA size, averaged over several runs.                  *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Fig. 3 — execution/reconfiguration time and contexts vs FPGA size";
  Printf.printf
    "paper (100 runs/point): sharp drop once a context holds several tasks,\n\
     minimum near 800 CLBs, slow growth to a plateau around 5000 CLBs where a\n\
     single context holds every hardware task; up to ~10 contexts for small\n\
     devices; total reconfiguration time roughly constant.\n\
     this run: %d run(s)/point, %d iterations (BENCH_RUNS/BENCH_ITERS),\n\
     %d job(s) (BENCH_JOBS).\n\n"
    runs_per_point iters_per_run bench_jobs;
  let app = Md.app () in
  let exec_by_index = ref [] in
  let reconfig_by_index = ref [] in
  let table =
    Table.create
      [ ("CLBs", Table.Right); ("exec ms", Table.Right); ("±", Table.Right);
        ("init rcfg", Table.Right); ("dyn rcfg", Table.Right);
        ("total rcfg", Table.Right); ("contexts", Table.Right);
        ("40ms met", Table.Right) ]
  in
  (* The (size x run) grid runs on BENCH_JOBS domains; each cell's seed
     depends only on its coordinates, and cells are folded per size in
     run order, so the table is identical for any job count. *)
  let sizes = Array.of_list Md.fig3_sizes in
  let cells =
    Parallel.map ~jobs:bench_jobs
      (Array.length sizes * runs_per_point)
      (fun i ->
        let n_clb = sizes.(i / runs_per_point) in
        let run = i mod runs_per_point in
        let platform = Md.platform ~n_clb () in
        let result =
          explore_once ~iterations:iters_per_run
            ~seed:(1 + (run * 7919) + n_clb)
            app platform
        in
        let eval = result.Explorer.best_eval in
        ( eval.Searchgraph.makespan, eval.Searchgraph.initial_reconfig,
          eval.Searchgraph.dynamic_reconfig, eval.Searchgraph.n_contexts,
          Explorer.meets_deadline app eval ))
  in
  let min_mean_exec = ref infinity in
  Array.iteri
    (fun size_index n_clb ->
      let exec = Stats.Running.create () in
      let init_r = Stats.Running.create () in
      let dyn_r = Stats.Running.create () in
      let ctx = Stats.Running.create () in
      let met = ref 0 in
      for run = 0 to runs_per_point - 1 do
        let makespan, init, dyn, n_contexts, meets =
          cells.((size_index * runs_per_point) + run)
        in
        Stats.Running.add exec makespan;
        Stats.Running.add init_r init;
        Stats.Running.add dyn_r dyn;
        Stats.Running.add ctx (float_of_int n_contexts);
        if meets then incr met
      done;
      min_mean_exec := Float.min !min_mean_exec (Stats.Running.mean exec);
      exec_by_index :=
        (float_of_int size_index, Stats.Running.mean exec) :: !exec_by_index;
      reconfig_by_index :=
        ( float_of_int size_index,
          Stats.Running.mean init_r +. Stats.Running.mean dyn_r )
        :: !reconfig_by_index;
      Table.add_row table
        [
          Table.cell_int n_clb;
          Table.cell_float (Stats.Running.mean exec);
          Table.cell_float (Stats.Running.stddev exec);
          Table.cell_float (Stats.Running.mean init_r);
          Table.cell_float (Stats.Running.mean dyn_r);
          Table.cell_float
            (Stats.Running.mean init_r +. Stats.Running.mean dyn_r);
          Table.cell_float ~decimals:1 (Stats.Running.mean ctx);
          Printf.sprintf "%d/%d" !met runs_per_point;
        ])
    sizes;
  print_string (Table.render table);
  (* Figure view: exec time [*] and total reconfiguration time [#]
     against the device-size index (the paper's x axis is effectively
     log-spaced). *)
  print_newline ();
  print_string
    (Repro_util.Ascii_chart.render ~width:72 ~height:12
       ~x_label:"device size index (100 .. 10000 CLBs)"
       ~y_label:"exec time ms (*) / total reconfiguration ms (#)"
       [
         { Repro_util.Ascii_chart.marker = '#';
           points = List.rev !reconfig_by_index };
         { Repro_util.Ascii_chart.marker = '*'; points = List.rev !exec_by_index };
       ]);
  [
    ("min_mean_exec_ms", !min_mean_exec);
    ("sizes", float_of_int (Array.length sizes));
    ("runs_per_point", float_of_int runs_per_point);
    ("jobs", float_of_int bench_jobs);
  ]

(* ------------------------------------------------------------------ *)
(* §5 comparison: adaptive SA vs the GA of [6] and extra baselines.    *)
(* ------------------------------------------------------------------ *)

let compare_methods () =
  header "§5 comparison — adaptive SA vs GA [6] and baselines (2000 CLBs)";
  Printf.printf
    "paper: SA best 18.1 ms in <10 s; GA of [6] 28 ms in ~4 min (population\n\
     300).  Two GA variants: with implementation-selection genes (stronger\n\
     than [6]'s published tool) and with spatial genes only, as [6]\n\
     describes — the latter reproduces the paper's SA-over-GA quality gap.\n\n";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let table =
    Table.create
      [ ("method", Table.Left); ("makespan ms", Table.Right);
        ("contexts", Table.Right); ("time s", Table.Right);
        ("40 ms", Table.Left) ]
  in
  let row name makespan contexts seconds =
    Table.add_row table
      [
        name; Table.cell_float makespan; contexts;
        Table.cell_float ~decimals:2 seconds;
        (if makespan <= Md.deadline_ms then "met" else "missed");
      ]
  in
  row "all-software" (App.total_sw_time app) "0" 0.0;
  let sa = explore_once ~iterations:compare_iters ~seed:1 app platform in
  row "adaptive SA (this paper)" sa.Explorer.best_cost
    (string_of_int sa.Explorer.best_eval.Searchgraph.n_contexts)
    sa.Explorer.wall_seconds;
  (* Every baseline runs through the uniform engine contract: seed 1,
     its own iteration budget, contexts read off the returned best. *)
  let run_engine engine ~iterations =
    Engine.run engine (Engine.context ~app ~platform ~seed:1 ~iterations ())
  in
  let engine_row name (o : Engine.outcome) =
    let contexts =
      match Solution.evaluate o.Engine.best with
      | Some eval -> string_of_int eval.Searchgraph.n_contexts
      | None -> "-"
    in
    row name o.Engine.best_cost contexts o.Engine.wall_seconds
  in
  let ga =
    run_engine (Ga.engine ~population:ga_population ())
      ~iterations:ga_generations
  in
  engine_row (Printf.sprintf "GA after [6] (pop %d)" ga_population) ga;
  let ga_spatial =
    run_engine
      (Ga.engine ~population:ga_population ~explore_impls:false ())
      ~iterations:ga_generations
  in
  engine_row "GA, spatial genes only (as [6])" ga_spatial;
  let greedy = run_engine Greedy.engine ~iterations:11 in
  engine_row "greedy compute-to-HW (11 fractions)" greedy;
  let random = run_engine Random_search.engine ~iterations:random_samples in
  engine_row (Printf.sprintf "random search (%d samples)" random_samples) random;
  let hill =
    run_engine
      (Hill_climb.engine_with ~moves_per_climb:hill_moves ())
      ~iterations:(hill_moves * 5)
  in
  engine_row "hill climbing (5 restarts)" hill;
  let tabu =
    run_engine (Tabu.engine_with ~tenure:20 ()) ~iterations:tabu_iters
  in
  engine_row "tabu search (tenure 20)" tabu;
  Repro_baseline.Engines.register_all ();
  let portfolio =
    let engine =
      match Portfolio.of_spec "portfolio:race:sa+tabu" with
      | Ok e -> e
      | Error msg -> failwith msg
    in
    Engine.run engine
      (Engine.context ~app ~platform ~seed:1 ~iterations:compare_iters ())
  in
  row "racing portfolio (sa+tabu)" portfolio.Engine.best_cost "-"
    portfolio.Engine.wall_seconds;
  print_string (Table.render table);
  [
    ("sa_best_ms", sa.Explorer.best_cost);
    ("sa_seconds", sa.Explorer.wall_seconds);
    ("ga_best_ms", ga.Engine.best_cost);
    ("ga_seconds", ga.Engine.wall_seconds);
    ("ga_spatial_best_ms", ga_spatial.Engine.best_cost);
    ("greedy_best_ms", greedy.Engine.best_cost);
    ("random_best_ms", random.Engine.best_cost);
    ("hill_best_ms", hill.Engine.best_cost);
    ("tabu_best_ms", tabu.Engine.best_cost);
    ("portfolio_best_ms", portfolio.Engine.best_cost);
    ("portfolio_seconds", portfolio.Engine.wall_seconds);
    ("iterations_per_second",
     float_of_int sa.Explorer.iterations_run
     /. Float.max sa.Explorer.wall_seconds 1e-9);
  ]

(* ------------------------------------------------------------------ *)
(* §5 solution-space counts.                                           *)
(* ------------------------------------------------------------------ *)

let space () =
  header "§5 solution-space counts (exact reproduction)";
  let table =
    Table.create
      [ ("quantity", Table.Left); ("measured", Table.Right);
        ("paper", Table.Right) ]
  in
  let row label measured paper =
    Table.add_row table [ label; string_of_int measured; string_of_int paper ]
  in
  row "28-chain, 2 context changes"
    (Combinatorics.context_change_combinations ~nodes:28 ~changes:2)
    378;
  row "28-chain, 6 context changes"
    (Combinatorics.context_change_combinations ~nodes:28 ~changes:6)
    376_740;
  row "total orders, first 20 nodes" (Combinatorics.interleavings [ 7; 6 ]) 1716;
  row "total orders, 28 nodes"
    (Combinatorics.motion_detection_total_orders ())
    348_840;
  row "combinations, 2 changes"
    (Combinatorics.motion_detection_combinations ~changes:2)
    131_861_520;
  row "combinations, 4 changes"
    (Combinatorics.motion_detection_combinations ~changes:4)
    7_142_499_000;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Ablation: cooling schedules at an equal iteration budget.           *)
(* ------------------------------------------------------------------ *)

let ablation_schedule () =
  header "Ablation — cooling schedule (equal budget, motion detection)";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let iterations = iters_per_run in
  let schedules =
    [
      ("lam (adaptive, the paper's)",
       fun () -> Schedule.lam ~quality:(150.0 /. float_of_int iterations) ());
      ("swartz (feedback target)", fun () -> Schedule.swartz ());
      ("geometric 0.95/100", fun () -> Schedule.geometric ());
      ("infinite (random walk)", fun () -> Schedule.infinite ());
    ]
  in
  let table =
    Table.create
      [ ("schedule", Table.Left); ("mean ms", Table.Right); ("±", Table.Right);
        ("best ms", Table.Right) ]
  in
  List.iter
    (fun (name, make_schedule) ->
      let stats = Stats.Running.create () in
      for run = 0 to runs_per_point - 1 do
        let config =
          {
            Explorer.anneal =
              {
                Annealer.iterations;
                warmup_iterations = 1_200;
                schedule = make_schedule ();
                seed = 100 + run;
                frozen_window = None;
              };
            moves = Moves.fixed_architecture;
            objective = Explorer.Makespan;
          }
        in
        let result = Explorer.explore config app platform in
        Stats.Running.add stats result.Explorer.best_cost
      done;
      Table.add_row table
        [
          name;
          Table.cell_float (Stats.Running.mean stats);
          Table.cell_float (Stats.Running.stddev stats);
          Table.cell_float (Stats.Running.min stats);
        ])
    schedules;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Ablation: move families.                                            *)
(* ------------------------------------------------------------------ *)

let ablation_moves () =
  header "Ablation — move families (equal budget, motion detection)";
  Printf.printf
    "spatial-only disables implementation selection and the explicit\n\
     context-management moves, leaving m1/m2 (plus the ergodicity escape).\n\n";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let variants =
    [
      ("full move set (paper)", Moves.fixed_architecture);
      ("spatial only (no impl/context moves)", Moves.spatial_only);
      ("no implementation move",
       { Moves.fixed_architecture with Moves.p_impl = 0.0 });
      ("no context moves",
       { Moves.fixed_architecture with Moves.p_new_context = 0.0;
         p_swap_contexts = 0.0 });
    ]
  in
  let table =
    Table.create
      [ ("moves", Table.Left); ("mean ms", Table.Right); ("±", Table.Right);
        ("best ms", Table.Right) ]
  in
  List.iter
    (fun (name, moves) ->
      let stats = Stats.Running.create () in
      for run = 0 to runs_per_point - 1 do
        let result =
          explore_once ~moves ~iterations:iters_per_run ~seed:(200 + run) app
            platform
        in
        Stats.Running.add stats result.Explorer.best_cost
      done;
      Table.add_row table
        [
          name;
          Table.cell_float (Stats.Running.mean stats);
          Table.cell_float (Stats.Running.stddev stats);
          Table.cell_float (Stats.Running.min stats);
        ])
    variants;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Wider evaluation: the auxiliary workload suite.                     *)
(* ------------------------------------------------------------------ *)

let suite_eval () =
  header "Wider evaluation — auxiliary workloads";
  let table =
    Table.create
      [ ("application", Table.Left); ("tasks", Table.Right);
        ("all-SW ms", Table.Right); ("explored ms", Table.Right);
        ("min period ms", Table.Right); ("contexts", Table.Right);
        ("deadline", Table.Left) ]
  in
  List.iter
    (fun (name, make) ->
      let app = make () in
      let platform =
        if name = "motion_detection" then Md.platform ()
        else Suite_w.platform_for app
      in
      let result = explore_once ~iterations:iters_per_run ~seed:11 app platform in
      let eval = result.Explorer.best_eval in
      let periodic =
        Repro_sched.Periodic.analyze (Solution.spec result.Explorer.best)
      in
      Table.add_row table
        [
          name;
          Table.cell_int (App.size app);
          Table.cell_float (App.total_sw_time app);
          Table.cell_float result.Explorer.best_cost;
          Table.cell_float periodic.Repro_sched.Periodic.min_initiation_interval;
          Table.cell_int eval.Searchgraph.n_contexts;
          (match app.App.deadline with
           | Some d ->
             Printf.sprintf "%.0f ms %s" d
               (if Explorer.meets_deadline app eval then "met" else "missed")
           | None -> "none");
        ])
    Suite_w.named;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Robustness: exploration quality vs application size on random graph
   families (beyond the paper: tool-scaling study).                    *)
(* ------------------------------------------------------------------ *)

let scaling () =
  header "Scaling — exploration quality vs application size (random graphs)";
  Printf.printf
    "speedup = all-software time / explored makespan; the idealized upper\n\
     bound ignores reconfiguration and communication entirely.\n\n";
  let table =
    Table.create
      [ ("family", Table.Left); ("tasks", Table.Right);
        ("all-SW ms", Table.Right); ("explored ms", Table.Right);
        ("speedup", Table.Right); ("bound", Table.Right);
        ("seconds", Table.Right) ]
  in
  let model = Repro_taskgraph.Generators.default_impl_model in
  let families =
    [
      ("chain 20", fun rng ->
        Repro_taskgraph.Generators.chain rng model ~length:20 ~mean_sw_time:2.0
          ~mean_kbytes:8.0);
      ("chain 60", fun rng ->
        Repro_taskgraph.Generators.chain rng model ~length:60 ~mean_sw_time:2.0
          ~mean_kbytes:8.0);
      ("layered 6x4", fun rng ->
        Repro_taskgraph.Generators.layered rng model ~layers:6 ~width:4
          ~edge_probability:0.4 ~mean_sw_time:2.0 ~mean_kbytes:8.0);
      ("layered 10x6", fun rng ->
        Repro_taskgraph.Generators.layered rng model ~layers:10 ~width:6
          ~edge_probability:0.3 ~mean_sw_time:2.0 ~mean_kbytes:8.0);
      ("series-parallel d5", fun rng ->
        Repro_taskgraph.Generators.series_parallel rng model ~depth:5
          ~mean_sw_time:2.0 ~mean_kbytes:8.0);
    ]
  in
  List.iter
    (fun (name, make) ->
      let rng = Rng.create 42 in
      let app = make rng in
      let platform = Suite_w.platform_for app in
      let result = explore_once ~iterations:iters_per_run ~seed:42 app platform in
      let all_sw = App.total_sw_time app in
      let bound =
        all_sw
        /. Float.max (App.hw_critical_path app) 1e-9
      in
      Table.add_row table
        [
          name;
          Table.cell_int (App.size app);
          Table.cell_float all_sw;
          Table.cell_float result.Explorer.best_cost;
          Table.cell_float (all_sw /. result.Explorer.best_cost);
          Table.cell_float bound;
          Table.cell_float ~decimals:2 result.Explorer.wall_seconds;
        ])
    families;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Ablation: tabu tenure sensitivity (the paper's argument that tabu
   search needs tuning where the adaptive schedule does not).          *)
(* ------------------------------------------------------------------ *)

let ablation_tabu () =
  header "Ablation — tabu-search tenure sensitivity";
  Printf.printf
    "the paper contrasts its tuning-free adaptive schedule with tabu\n\
     search's tabu-list-size tuning; the sweep shows that sensitivity.\n\n";
  let app = Md.app () in
  (* A small device makes the landscape rugged enough for the tabu
     memory to matter. *)
  let platform = Md.platform ~n_clb:200 () in
  let table =
    Table.create
      [ ("tenure", Table.Right); ("mean ms", Table.Right); ("±", Table.Right) ]
  in
  List.iter
    (fun tenure ->
      (* Each tenure point is its own engine instance, run through the
         uniform contract — the same driver every other comparison
         uses. *)
      let engine = Tabu.engine_with ~tenure () in
      let stats = Stats.Running.create () in
      for run = 0 to runs_per_point - 1 do
        let ctx =
          Engine.context ~app ~platform ~seed:(300 + run)
            ~iterations:(tabu_iters / 2) ()
        in
        let outcome = Engine.run engine ctx in
        Stats.Running.add stats outcome.Engine.best_cost
      done;
      Table.add_row table
        [
          Table.cell_int tenure;
          Table.cell_float (Stats.Running.mean stats);
          Table.cell_float (Stats.Running.stddev stats);
        ])
    [ 1; 5; 20; 100; 500 ];
  print_string (Table.render table);
  Printf.printf
    "finding: with a sampled best-of-N neighbourhood and state-hash tabu,\n\
     this instance is robust to the tenure — the paper's tuning concern\n\
     applies to attribute-based tabu on harder landscapes; quality-wise\n\
     tabu matches the SA here (see compare).\n";
  []

(* ------------------------------------------------------------------ *)
(* Ablation: communication model — edge delays vs serialized bus
   transactions (§3.3's ordered transactions made explicit).           *)
(* ------------------------------------------------------------------ *)

let ablation_bus () =
  header "Ablation — bus model (edge delays vs serialized transactions)";
  Printf.printf
    "each row optimizes under one model and reports the solution under both;\n\
     the serialized model charges contention between concurrent transfers.\n\n";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let table =
    Table.create
      [ ("optimized under", Table.Left); ("edge-delay ms", Table.Right);
        ("serialized ms", Table.Right); ("crossings", Table.Right) ]
  in
  let crossings solution =
    let spec = Solution.spec solution in
    List.length
      (List.filter
         (fun { App.src; dst; kbytes = _ } ->
           match (spec.Searchgraph.binding src, spec.Searchgraph.binding dst)
           with
           | Searchgraph.Sw, Searchgraph.Hw _ | Searchgraph.Hw _, Searchgraph.Sw
             ->
             true
           | Searchgraph.Sw, Searchgraph.Sw | Searchgraph.Hw _, Searchgraph.Hw _
           | Searchgraph.On_asic _, _ | _, Searchgraph.On_asic _
             ->
             false)
         (App.edges app))
  in
  let both solution =
    let spec = Solution.spec solution in
    let simple =
      match Searchgraph.evaluate spec with
      | Some e -> e.Searchgraph.makespan
      | None -> nan
    in
    let serialized =
      match Searchgraph.evaluate_serialized spec with
      | Some e -> e.Searchgraph.makespan
      | None -> nan
    in
    (simple, serialized)
  in
  List.iter
    (fun (name, objective) ->
      let config =
        { Explorer.anneal = anneal_config ~iterations:iters_per_run ~seed:3;
          moves = Moves.fixed_architecture; objective }
      in
      let result = Explorer.explore config app platform in
      let simple, serialized = both result.Explorer.best in
      Table.add_row table
        [
          name;
          Table.cell_float simple;
          Table.cell_float serialized;
          Table.cell_int (crossings result.Explorer.best);
        ])
    [
      ("edge delays (paper's estimate)", Explorer.Makespan);
      ("serialized transactions", Explorer.Makespan_serialized);
    ];
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Cost/performance frontier over the device catalogue (the paper's
   cost-minimization story as a designer-facing output).               *)
(* ------------------------------------------------------------------ *)

let pareto () =
  header "Cost/performance frontier — which device should a designer buy?";
  Printf.printf
    "the paper determines \"the size of the smallest device for which the\n\
     40 ms constraint is attained\" as a byproduct of Fig. 3; the frontier\n\
     makes the full cost/performance trade explicit.\n\n";
  let app = Md.app () in
  let catalogue = List.map (fun n_clb -> Md.platform ~n_clb ()) Md.fig3_sizes in
  let { Explorer.frontier; _ } =
    Explorer.cost_performance_frontier_supervised ~seed:1
      ~iterations:iters_per_run ~jobs:bench_jobs app catalogue
  in
  let table =
    Table.create
      [ ("CLBs", Table.Right); ("cost", Table.Right);
        ("makespan ms", Table.Right); ("contexts", Table.Right);
        ("40 ms", Table.Left) ]
  in
  List.iter
    (fun { Explorer.platform; eval; cost; meets } ->
      Table.add_row table
        [
          Table.cell_int (Repro_arch.Platform.n_clb platform);
          Table.cell_float cost;
          Table.cell_float eval.Searchgraph.makespan;
          Table.cell_int eval.Searchgraph.n_contexts;
          (if meets then "met" else "missed");
        ])
    frontier;
  print_string (Table.render table);
  (match List.find_opt (fun p -> p.Explorer.meets) frontier with
   | Some cheapest ->
     Printf.printf "smallest device meeting 40 ms at this budget: %d CLBs\n"
       (Repro_arch.Platform.n_clb cheapest.Explorer.platform);
     [
       ("frontier_points", float_of_int (List.length frontier));
       ("smallest_meeting_clbs",
        float_of_int (Repro_arch.Platform.n_clb cheapest.Explorer.platform));
     ]
   | None ->
     Printf.printf "no catalogue device meets 40 ms at this budget\n";
     [ ("frontier_points", float_of_int (List.length frontier)) ])

(* ------------------------------------------------------------------ *)
(* Beyond the paper: multiprocessor platforms (the general model of
   section 3 allows several processors).                               *)
(* ------------------------------------------------------------------ *)

let multiproc () =
  header "Extension — second processor (general multiprocessor model)";
  Printf.printf
    "same FPGA, with and without an extra DSP running the software\n\
     estimates 1.5x faster; gains hinge on how much software load remains.\n\n";
  let table =
    Table.create
      [ ("application", Table.Left); ("1 CPU ms", Table.Right);
        ("CPU+DSP ms", Table.Right); ("gain %", Table.Right) ]
  in
  List.iter
    (fun (name, make) ->
      let app = make () in
      let n_clb = 400 in
      let single =
        Repro_arch.Platform.make ~name:"single"
          ~processor:(Repro_arch.Resource.processor ~cost:10.0 "cpu")
          ~rc:
            (Repro_arch.Resource.reconfigurable ~cost:8.0 ~n_clb
               ~reconfig_ms_per_clb:0.0225 "fpga")
          ~bus:{ Repro_arch.Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
          ()
      in
      let dual =
        Repro_arch.Platform.make ~name:"dual"
          ~processor:(Repro_arch.Resource.processor ~cost:10.0 "cpu")
          ~rc:
            (Repro_arch.Resource.reconfigurable ~cost:8.0 ~n_clb
               ~reconfig_ms_per_clb:0.0225 "fpga")
          ~extra:[ Repro_arch.Resource.processor ~cost:6.0 ~speed:1.5 "dsp" ]
          ~bus:{ Repro_arch.Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
          ()
      in
      let best platform =
        (explore_once ~iterations:iters_per_run ~seed:13 app platform)
          .Explorer.best_cost
      in
      let single_ms = best single and dual_ms = best dual in
      Table.add_row table
        [
          name;
          Table.cell_float single_ms;
          Table.cell_float dual_ms;
          Table.cell_float ~decimals:1
            ((single_ms -. dual_ms) /. single_ms *. 100.0);
        ])
    Suite_w.named;
  print_string (Table.render table);
  []

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the evaluation primitives.             *)
(* ------------------------------------------------------------------ *)

(* Moves/sec per move kind, incremental vs forced-rebuild evaluation.
   Each arm runs the annealer's rejected-move cycle — save, mutate,
   evaluate, undo — against the same starting solution with the same
   draw stream, using the annealer's own per-kind generators
   ([Moves.propose_kind]); the rebuild arm calls [Solution.invalidate]
   before every proposal so its evaluations are full builds.  Always
   undoing keeps the state (hence the kinds' preconditions) fixed, so
   the two arms walk identically and their final solutions must agree
   bit-for-bit. *)
let micro_move_matrix_for ~tag app platform alt_platform =
  let prefix = if tag = "" then "" else tag ^ "_" in
  header
    (Printf.sprintf
       "Structural-move matrix%s — %d tasks, %d draws/kind, incremental vs \
        rebuild (BENCH_MICRO_MOVES)"
       (if tag = "" then "" else " [" ^ tag ^ "]")
       (App.size app) micro_moves);
  (* A starting point with software tasks and several contexts.
     [Solution.random] packs hardware into as few contexts as the
     device allows (one, here), so the structural kinds need a richer
     start: move two mutually independent software tasks into fresh
     singleton contexts — independence keeps at least the swap of
     those two contexts acyclic, so every kind has feasible draws.
     The seed search keeps the recipe deterministic. *)
  let prepare s =
    let clo = Solution.closure s in
    let order = Solution.sw_order s in
    let independent a b =
      (not (Repro_taskgraph.Closure.reaches clo a b))
      && not (Repro_taskgraph.Closure.reaches clo b a)
    in
    let pair =
      List.find_map
        (fun a ->
          List.find_map
            (fun b -> if a < b && independent a b then Some (a, b) else None)
            order)
        order
    in
    match pair with
    | Some (a, b) when Solution.n_contexts s >= 1 ->
      Solution.insert_context s ~task:a ~at:(Solution.n_contexts s);
      Solution.insert_context s ~task:b ~at:(Solution.n_contexts s);
      Solution.n_contexts s >= 3
      && List.length (Solution.sw_order s) >= 4
      && Float.is_finite (Solution.makespan s)
    | _ -> false
  in
  let base_seed =
    let rec find seed =
      if prepare (Solution.random (Rng.create seed) app platform) then seed
      else find (seed + 1)
    in
    find 1
  in
  let mconfig = Moves.exploration [ platform; alt_platform ] in
  let kinds =
    [
      ("impl", Solution.Impl);
      ("sw_reorder", Solution.Sw_reorder);
      ("sw_migrate", Solution.Sw_migrate);
      ("ctx_migrate", Solution.Ctx_migrate);
      ("ctx_create", Solution.Ctx_create);
      ("ctx_swap", Solution.Ctx_swap);
      ("device", Solution.Platform_swap);
    ]
  in
  (* Each arm is a resumable closure over its own solution and RNG;
     the driver alternates chunks of the two arms so both sample the
     same machine conditions (frequency drift otherwise dominates the
     per-kind ratios). *)
  let make_arm ~rebuild kind =
    let rng = Rng.create 101 in
    let s = Solution.random (Rng.create base_seed) app platform in
    let ok = prepare s in
    assert ok;
    ignore (Solution.makespan s);
    let applied = ref 0 in
    let wall = ref 0.0 in
    let run chunk =
      let t0 = Clock.wall () in
      for _ = 1 to chunk do
        if rebuild then Solution.invalidate s;
        match Moves.propose_kind rng mconfig s kind with
        | Some undo ->
          incr applied;
          undo ()
        | None -> ()
      done;
      wall := !wall +. (Clock.wall () -. t0)
    in
    (run, wall, applied, s)
  in
  let run_arms kind =
    let run_i, wall_i, applied_i, s_i = make_arm ~rebuild:false kind in
    let run_r, wall_r, applied_r, s_r = make_arm ~rebuild:true kind in
    let chunk = max 1 (micro_moves / 10) in
    let rec go left =
      if left > 0 then begin
        let c = min chunk left in
        run_i c;
        run_r c;
        go (left - c)
      end
    in
    go micro_moves;
    ( (!wall_i, !applied_i, Solution.eval_stats s_i, Solution.encode s_i),
      (!wall_r, !applied_r, Solution.eval_stats s_r, Solution.encode s_r) )
  in
  Printf.printf
    "  %-12s %13s %13s %8s %11s %9s %9s %9s %7s\n" "kind" "incr moves/s"
    "rebld moves/s" "speedup" "nodes/rfsh" "edges/mv" "pairs/mv" "comm/mv"
    "regens";
  let metrics =
    List.concat_map
      (fun (name, kind) ->
        let (wall_i, applied_i, stats_i, final_i),
            (wall_r, applied_r, _stats_r, final_r) =
          run_arms kind
        in
        if applied_i <> applied_r || final_i <> final_r then
          failwith
            (Printf.sprintf
               "micro: %s%s: incremental and rebuild arms diverged" prefix name);
        let ks = Solution.kind_stats stats_i kind in
        let rate applied wall =
          float_of_int applied /. Float.max wall 1e-9
        in
        let per num den =
          if den = 0 then 0.0 else float_of_int num /. float_of_int den
        in
        let incr_rate = rate applied_i wall_i in
        let rebuild_rate = rate applied_r wall_r in
        let speedup = incr_rate /. Float.max rebuild_rate 1e-9 in
        Printf.printf
          "  %-12s %13.0f %13.0f %7.2fx %11.1f %9.1f %9.1f %9.1f %7d\n" name
          incr_rate rebuild_rate speedup
          (per ks.Solution.k_incr_nodes ks.Solution.k_incr_evals)
          (per ks.Solution.k_edges_edited applied_i)
          (per ks.Solution.k_pairs_emitted applied_i)
          (per ks.Solution.k_comm_patched applied_i)
          ks.Solution.k_pair_regens;
        [
          (prefix ^ name ^ "_moves_per_s_incr", incr_rate);
          (prefix ^ name ^ "_moves_per_s_rebuild", rebuild_rate);
          (prefix ^ name ^ "_speedup", speedup);
          (prefix ^ name ^ "_incr_evals", float_of_int ks.Solution.k_incr_evals);
          (prefix ^ name ^ "_nodes_per_incr_eval",
           per ks.Solution.k_incr_nodes ks.Solution.k_incr_evals);
          (prefix ^ name ^ "_edges_per_move",
           per ks.Solution.k_edges_edited applied_i);
          (prefix ^ name ^ "_pairs_per_move",
           per ks.Solution.k_pairs_emitted applied_i);
          (prefix ^ name ^ "_comm_patched_per_move",
           per ks.Solution.k_comm_patched applied_i);
          (prefix ^ name ^ "_pair_regens",
           float_of_int ks.Solution.k_pair_regens);
        ])
      kinds
  in
  Printf.printf "\n";
  metrics

(* The matrix on the 28-task case study, then on a >=128-node layered
   graph: the native-delta claim is that per-move cost tracks the move
   footprint, so the incremental-vs-rebuild gap must widen with size.
   Layer widths are drawn randomly, so the seed is searched
   deterministically until the generator actually crosses 128 nodes. *)
let micro_move_matrix () =
  let m28 =
    micro_move_matrix_for ~tag:"" (Md.app ()) (Md.platform ())
      (Md.platform ~n_clb:2000 ())
  in
  let model = Repro_taskgraph.Generators.default_impl_model in
  (* Wide and shallow — the parallel-workload shape whose move
     footprints stay local (a deep chain would make every downstream
     cone the whole graph, drowning the locality the deltas buy). *)
  let g_app =
    let rec find seed =
      let app =
        Repro_taskgraph.Generators.layered ~name:"layered128"
          (Rng.create seed) model ~layers:8 ~width:31 ~edge_probability:0.12
          ~mean_sw_time:2.0 ~mean_kbytes:8.0
      in
      if App.size app >= 128 then app else find (seed + 1)
    in
    find 1
  in
  (* Size the device for a handful of tasks per context, as in the
     case study, rather than [platform_for]'s 60%-of-total giant
     contexts. *)
  let g_platform =
    Repro_arch.Platform.with_rc_size (Suite_w.platform_for g_app) 600
  in
  let g_alt = Repro_arch.Platform.with_rc_size g_platform 1_200 in
  m28 @ micro_move_matrix_for ~tag:"g128" g_app g_platform g_alt

let micro () =
  header "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let app = Md.app () in
  let platform = Md.platform () in
  let base_solution =
    let rng = Rng.create 5 in
    Solution.random rng app platform
  in
  let test_evaluate =
    Test.make ~name:"searchgraph evaluate (28 tasks)"
      (Staged.stage (fun () ->
           let spec = Solution.spec base_solution in
           match Searchgraph.evaluate spec with
           | Some eval -> ignore eval.Searchgraph.makespan
           | None -> ()))
  in
  let move_rng = Rng.create 9 in
  let move_solution = Solution.snapshot base_solution in
  let test_move =
    Test.make ~name:"propose+undo move"
      (Staged.stage (fun () ->
           match
             Moves.propose move_rng Moves.fixed_architecture move_solution
           with
           | Some undo -> undo ()
           | None -> ()))
  in
  let test_closure =
    Test.make ~name:"closure of the task graph"
      (Staged.stage (fun () ->
           ignore (Repro_taskgraph.Closure.of_graph app.App.graph)))
  in
  let random_rng = Rng.create 3 in
  let test_random_solution =
    Test.make ~name:"random initial solution"
      (Staged.stage (fun () -> ignore (Solution.random random_rng app platform)))
  in
  (* Incremental longest path: full solve vs Woodbury-style refresh of
     one changed node, on the case study's search graph. *)
  let lp_graph, lp_node_weight, lp_edge_weight =
    Searchgraph.build (Solution.spec base_solution)
  in
  (* Perturb a sink task (13, the tracking output): the affected cone
     is minimal, which is the annealing case the paper's Woodbury
     remark targets — a local move touching a local region. *)
  let perturb = ref 0.0 in
  let node_weight v = lp_node_weight v +. if v = 13 then !perturb else 0.0 in
  let lp_state =
    match
      Repro_sched.Longest_path.create lp_graph ~node_weight
        ~edge_weight:lp_edge_weight
    with
    | Some lp -> lp
    | None -> assert false (* specs of feasible solutions are acyclic *)
  in
  let test_lp_full =
    Test.make ~name:"longest path, full recompute"
      (Staged.stage (fun () -> Repro_sched.Longest_path.recompute lp_state))
  in
  let test_lp_refresh =
    Test.make ~name:"longest path, incremental refresh"
      (Staged.stage (fun () ->
           perturb := if !perturb = 0.0 then 0.3 else 0.0;
           Repro_sched.Longest_path.refresh lp_state [ 13 ]))
  in
  let test_serialized =
    Test.make ~name:"searchgraph evaluate_serialized"
      (Staged.stage (fun () ->
           ignore (Searchgraph.evaluate_serialized (Solution.spec base_solution))))
  in
  let tests =
    [ test_evaluate; test_serialized; test_move; test_closure;
      test_random_solution; test_lp_full; test_lp_refresh ]
  in
  let benchmark test =
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock (benchmark test) in
      Hashtbl.iter
        (fun name ols_result ->
          let nanoseconds =
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> est
            | Some _ | None -> nan
          in
          Printf.printf "  %-40s %12.1f ns/run\n" name nanoseconds)
        results)
    tests;
  micro_move_matrix ()

(* ------------------------------------------------------------------ *)
(* Parallel restarts: wall-clock of jobs=1 vs jobs=4 on the same four
   chains, with the determinism contract checked on the spot.          *)
(* ------------------------------------------------------------------ *)

let restarts_bench () =
  header "Parallel restarts — 4 chains, jobs=1 vs jobs=4";
  Printf.printf
    "same seeds, same winner selection: the parallel run must produce the\n\
     bit-identical best solution and cost list.  speedup tracks the number\n\
     of cores the container actually has (this host: %d).\n\
     this run: %d iterations/chain (BENCH_RESTARTS_ITERS).\n\n"
    (Domain.recommended_domain_count ())
    restarts_iters;
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let config =
    { Explorer.anneal = anneal_config ~iterations:restarts_iters ~seed:21;
      moves = Moves.fixed_architecture; objective = Explorer.Makespan }
  in
  let timed jobs =
    let t0 = Clock.wall () in
    let report =
      Explorer.explore_restarts_supervised ~jobs ~restarts:4 config app
        platform
    in
    match report.Explorer.best_result with
    | Some best when report.Explorer.degraded = 0 ->
      (Clock.wall () -. t0, best, report.Explorer.restart_costs)
    | Some _ | None ->
      failwith
        (Printf.sprintf "restarts_bench: %d of 4 restarts lost"
           report.Explorer.degraded)
  in
  let wall1, best1, costs1 = timed 1 in
  let wall4, best4, costs4 = timed 4 in
  let identical =
    costs1 = costs4
    && best1.Explorer.best_cost = best4.Explorer.best_cost
    && Format.asprintf "%a" Solution.pp best1.Explorer.best
       = Format.asprintf "%a" Solution.pp best4.Explorer.best
  in
  if not identical then
    failwith "restarts_bench: jobs=4 diverged from jobs=1";
  let stats = Solution.eval_stats best4.Explorer.best in
  let per_eval evals nodes =
    if evals = 0 then 0.0 else float_of_int nodes /. float_of_int evals
  in
  Printf.printf
    "jobs=1: %.2f s   jobs=4: %.2f s   speedup %.2fx   best %.2f ms \
     (identical: yes)\n"
    wall1 wall4 (wall1 /. Float.max wall4 1e-9)
    best1.Explorer.best_cost;
  Printf.printf
    "incremental evaluation on the winning chain: %d full evals \
     (%.1f nodes/eval), %d incremental (%.1f nodes/eval), %d edges edited\n"
    stats.Solution.full_evals
    (per_eval stats.Solution.full_evals stats.Solution.full_nodes)
    stats.Solution.incr_evals
    (per_eval stats.Solution.incr_evals stats.Solution.incr_nodes)
    stats.Solution.edges_edited;
  [
    ("wall_jobs1", wall1);
    ("wall_jobs4", wall4);
    ("speedup", wall1 /. Float.max wall4 1e-9);
    ("best_cost_ms", best1.Explorer.best_cost);
    ("iterations_per_second",
     float_of_int (4 * restarts_iters) /. Float.max wall4 1e-9);
    ("identical", 1.0);
    ("full_nodes_per_eval",
     per_eval stats.Solution.full_evals stats.Solution.full_nodes);
    ("incr_nodes_per_eval",
     per_eval stats.Solution.incr_evals stats.Solution.incr_nodes);
    ("edges_edited", float_of_int stats.Solution.edges_edited);
  ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("compare", compare_methods);
    ("space", space);
    ("ablation_schedule", ablation_schedule);
    ("ablation_moves", ablation_moves);
    ("ablation_bus", ablation_bus);
    ("ablation_tabu", ablation_tabu);
    ("pareto", pareto);
    ("scaling", scaling);
    ("multiproc", multiproc);
    ("suite", suite_eval);
    ("restarts", restarts_bench);
    ("micro", micro);
  ]

let json_field (key, value) =
  Printf.sprintf "%S: %s" key
    (if Float.is_finite value then Printf.sprintf "%g" value else "null")

let write_json name ~wall metrics =
  let path = Printf.sprintf "BENCH_%s.json" name in
  (* Atomic write: a killed benchmark run never leaves a truncated
     BENCH_*.json behind. *)
  Repro_util.Atomic_io.write_file path (fun oc ->
      Printf.fprintf oc
        "{\"experiment\": %S, \"wall_seconds\": %g, \"metrics\": {%s}}\n" name
        wall
        (String.concat ", " (List.map json_field metrics)));
  path

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | [ _ ] | [] -> List.map fst experiments
  in
  Printf.printf
    "DSE-for-DRA benchmark harness (Miramond & Delosme, DATE'05 reproduction)\n";
  Printf.printf "experiments: %s\n" (String.concat ", " requested);
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run ->
        let t0 = Clock.wall () in
        let metrics = run () in
        let wall = Clock.wall () -. t0 in
        let path = write_json name ~wall metrics in
        Printf.printf "\n[%s: %.2f s, wrote %s]\n" name wall path
      | None ->
        Printf.printf "unknown experiment %S (available: %s)\n" name
          (String.concat ", " (List.map fst experiments)))
    requested
