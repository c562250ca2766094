(* The four workloads.  Each builds its inputs from the seed, measures
   its loop for the requested seconds and checks every output.  The
   untraced run reports the end-to-end metrics; the traced run reports
   the per-layer metrics, measured on the workload's own instance:
   its own loop is traced, and the layers it does not drive itself are
   probed with small fixed budgets on the same instance, so every run
   reports every layer. *)

open Repro_dse
open Bench_util
module Md = Repro_workloads.Motion_detection
module Suite = Repro_workloads.Suite
module Rng = Repro_util.Rng

type params = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string;  (* scratch and result directory *)
}

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  notes : (string * Json.t) list;  (* extra fields for the result file *)
}

let deadline p fraction =
  let stop = now_ns () + int_of_float (p.seconds *. fraction *. 1e9) in
  fun () -> now_ns () >= stop

(* A workload sets up once before its loop and again at every round
   boundary, outside the timed intervals, so the reported median
   samples the host across the whole run instead of in one burst at its
   start.  Returns the first product, the samples so far, and the
   function that takes one more. *)
let timed_setup f =
  let samples = ref [] in
  let time () =
    let t0 = now_ns () in
    let x = f () in
    samples := since_s t0 :: !samples;
    x
  in
  let x = time () in
  (x, samples, fun () -> ignore (time ()))

(* The measured loop is a sequence of rounds — a group of chains, one
   pass over the engine cells, one spool batch.  A throughput is the
   work of all rounds over their summed wall time (rounds of one
   workload differ in size, e.g. chains on different graphs, so a
   median over rounds would jump between them).  Times to target are per
   operation (a chain, a restart or a spool job).  A p90 needs ten
   operations beyond it: when every round holds at least 100, the
   quantiles are taken per round and their median is reported;
   otherwise the operations of all rounds are pooled. *)
type round = { wall_s : float; iterations : int; evaluations : int; completed : int }

type loop = {
  rounds : round list;
  ttts : float list list;  (* per round *)
  best_cost_ms : float;
  setup_s : float;
}

(* The live major heap after a full collection, sampled at round
   boundaries (outside the timed intervals); [top_heap_mb] is the
   largest sample.  Unlike the runtime's own peak heap size, this does
   not depend on when two domains happened to trigger collections. *)
let heap_samples = ref []

let sample_heap () =
  Gc.full_major ();
  let mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6 in
  heap_samples := mb :: !heap_samples

let top_heap_mb () =
  if !heap_samples = [] then sample_heap ();
  List.fold_left Float.max 0.0 !heap_samples

let ttt_quantile rounds q =
  if List.for_all (fun r -> List.length r >= 100) rounds then
    median (List.map (fun r -> quantile r q) rounds)
  else quantile (List.concat rounds) q

let end_to_end l =
  let wall = List.fold_left (fun s r -> s +. r.wall_s) 0.0 l.rounds in
  let rate f = float_of_int (List.fold_left (fun n r -> n + f r) 0 l.rounds) /. wall in
  [
    metric "iters_per_s" "1/s" (rate (fun r -> r.iterations));
    metric "evals_per_s" "1/s" (rate (fun r -> r.evaluations));
    metric "jobs_per_s" "1/s" (rate (fun r -> r.completed));
    metric "ttt_p50_s" "s" (ttt_quantile l.ttts 0.5);
    metric "ttt_p90_s" "s" (ttt_quantile l.ttts 0.9);
    metric "best_cost_ms" "ms" l.best_cost_ms;
    metric "setup_s" "s" l.setup_s;
    metric "top_heap_mb" "MB" (top_heap_mb ());
  ]

let rounds_note l =
  ( "round_jobs_per_s",
    nums (List.map (fun r -> float_of_int r.completed /. r.wall_s) l.rounds) )

(* ---- SA chains (md28_sa, g512_sa) ------------------------------- *)

let chain_seed p i = (p.seed * 1_000_003) + i

(* Chains one after another on one domain, cycling over [instances],
   until [stop]; at least [min_chains].  With [tracer], each chain is
   replayed traced right after it ran. *)
let run_chains ?tracer ?checks ?(round_size = 1) ?(on_round = sample_heap) p ~stop
    ~min_chains ~iterations ~target instances =
  let n = Array.length instances in
  let rec go i acc =
    if i >= min_chains && stop () then List.rev acc
    else
      let app, platform = instances.(i mod n) in
      let c = Sa.run_chain ~target (Sa.config ~iterations ~seed:(chain_seed p i)) app platform in
      (match (tracer, checks) with
       | Some t, Some checks -> Sa.replay t checks c app platform
       | _ -> ());
      if (i + 1) mod round_size = 0 then on_round ();
      go (i + 1) (c :: acc)
  in
  go 0 []

(* Check every chain; rounds are [round_size] consecutive chains. *)
let chains_loop checks ~round_size ~setup_s chains =
  List.iteri
    (fun i c -> Sa.check_chain checks ~what:(Printf.sprintf "chain %d" i) c)
    chains;
  let r c = c.Sa.result in
  let round cs =
    {
      wall_s = List.fold_left (fun s c -> s +. c.Sa.wall_s) 0.0 cs;
      iterations = List.fold_left (fun n c -> n + (r c).Explorer.iterations_run) 0 cs;
      evaluations =
        List.fold_left
          (fun n c -> n + (r c).Explorer.iterations_run - (r c).Explorer.infeasible)
          0 cs;
      completed = List.length cs;
    }
  in
  let rec group acc cur k = function
    | [] -> List.rev (if cur = [] then acc else round cur :: acc)
    | c :: rest ->
      if k = round_size then group (round cur :: acc) [ c ] 1 rest
      else group acc (c :: cur) (k + 1) rest
  in
  ( {
      rounds = group [] [] 0 chains;
      ttts = [ List.filter_map (fun c -> c.Sa.ttt_s) chains ];
      best_cost_ms = mean (List.map (fun c -> (r c).Explorer.best_cost) chains);
      setup_s;
    },
    List.length (List.filter (fun c -> c.Sa.ttt_s = None) chains) )

(* ---- small probes of the layers a workload does not drive -------- *)

let probe_cells spans p ~max_evaluations ~app_name app platform =
  List.mapi
    (fun k engine_name ->
      Engines.run_cell ~spans ~max_evaluations ~engine_name ~iterations:1_000_000
        ~seed:(p.seed + k) ~app_name app platform)
    Engines.names

let probe_drain spans checks p ~iters ~sources =
  let submitted = List.mapi (fun i source -> (source, (p.seed * 7) + i)) sources in
  let spool = Spool_bench.fill (Filename.concat p.out "spool-probe") submitted ~iters ~warmup:50 in
  let d =
    Spool_bench.drain_and_check ~spans checks ~target:infinity ~reproduce_every:4 ~iters
      ~warmup:50 spool submitted
  in
  let texts =
    List.map (fun (source, seed) -> Spool_bench.job_text source ~iters ~warmup:50 ~seed) submitted
  in
  rm_rf spool.Repro_serve.Spool.root;
  (d, texts)

(* The full per-layer suite: SA layers on [chains] (replayed traced),
   the per-kind replay on the first annealed state, the engine and
   solution-primitive layers on [cells]/[instances], the service layers
   on [drains]/[texts]. *)
let layer_suite spans checks p ~tracer ~cells ~instances ~drains ~texts =
  let sa_metrics = Sa.traced_layers tracer checks in
  let annealed = Option.get tracer.Sa.annealed in
  let size = Solution.size annealed in
  let draws = if p.smoke then 10 else max 100 (200_000 / size) in
  let calls = if p.smoke then 3 else max 50 (100_000 / size) in
  sa_metrics
  @ Sa.replay_layers spans checks ~seed:p.seed ~draws ~calls annealed
  @ Engines.layers spans checks ~calls:(if p.smoke then 2 else max 5 (2_000 / size)) cells instances
  @ Spool_bench.layers spans checks ~dir:(Filename.concat p.out "spool-replay") drains texts

let failed_restarts checks ~targeted cells =
  List.fold_left (fun n c -> n + Engines.check_cell checks ~targeted c) 0 cells

let n_restarts cells = List.length cells * Engines.restarts

(* ---- md28_sa ----------------------------------------------------- *)

let md28 p checks spans =
  let iterations = if p.smoke then 300 else 20_000 in
  let target = Sa.Cost (if p.smoke then 1e9 else 26.0) in
  let (app, platform), setups, setup_again =
    timed_setup (fun () ->
        let app = Md.app () and platform = Md.platform ~n_clb:2_000 () in
        let s = Solution.random (Rng.create p.seed) app platform in
        ignore (Solution.evaluate s : Repro_sched.Searchgraph.eval option);
        (app, platform))
  in
  let instances = [| (app, platform) |] in
  let on_round () =
    setup_again ();
    sample_heap ()
  in
  if not p.trace then begin
    let chains =
      run_chains ~round_size:10 ~on_round p ~stop:(deadline p 1.0) ~min_chains:2 ~iterations
        ~target instances
    in
    let loop, missed =
      chains_loop checks ~round_size:10 ~setup_s:(median !setups) chains
    in
    {
      metrics = end_to_end loop;
      attempted = List.length chains;
      failed = missed;
      notes = [ ("chains", Json.num_int (List.length chains)); rounds_note loop ];
    }
  end
  else begin
    let tracer = Sa.tracer spans in
    let chains =
      run_chains ~tracer ~checks p ~stop:(deadline p 0.3) ~min_chains:2 ~iterations ~target instances
    in
    let _, missed = chains_loop checks ~round_size:1 ~setup_s:(median !setups) chains in
    let cells =
      probe_cells spans p ~max_evaluations:(if p.smoke then 50 else 2_000)
        ~app_name:"motion_detection" app platform
    in
    let d, texts =
      probe_drain spans checks p ~iters:(if p.smoke then 50 else 200)
        ~sources:(List.init (if p.smoke then 2 else 16) (fun _ -> Spool_bench.Named "motion_detection"))
    in
    let metrics =
      layer_suite spans checks p ~tracer ~cells ~instances:[ (app, platform) ]
        ~drains:[ d ] ~texts
    in
    {
      metrics;
      attempted = List.length chains + n_restarts cells + d.Spool_bench.jobs;
      failed = missed + failed_restarts checks ~targeted:false cells + d.Spool_bench.failed;
      notes = [ ("chains", Json.num_int (List.length chains)) ];
    }
  end

(* ---- g512_sa ----------------------------------------------------- *)

(* A wide, shallow layered graph of 510-530 tasks.  Generator seeds
   derived from the workload seed are tried in order until the size
   falls in the band.  That search selects the input, so it runs once
   and untimed; the timed set-up regenerates the graphs from the seeds
   it found, and costs the same on every seed. *)
let layered_shape p = if p.smoke then (3, 8, 4, 40) else (10, 100, 510, 530)

let layered_graph p index gen_seed =
  let layers, width, _, _ = layered_shape p in
  Repro_taskgraph.Generators.layered ~name:(Printf.sprintf "g512-%d" index)
    (Rng.create gen_seed) Repro_taskgraph.Generators.default_impl_model ~layers ~width
    ~edge_probability:0.05 ~mean_sw_time:2.0 ~mean_kbytes:8.0

let layered_seed p index =
  let _, _, lo, hi = layered_shape p in
  let rec attempt k =
    let gen_seed = (p.seed * 7_919) + (index * 104_729) + k in
    let n = Repro_taskgraph.App.size (layered_graph p index gen_seed) in
    if n >= lo && n <= hi then gen_seed else attempt (k + 1)
  in
  attempt 0

let g512 p checks spans =
  let iterations = if p.smoke then 300 else 12_000 in
  let graphs = if p.smoke then 2 else 4 in
  let gen_seeds = Array.init graphs (layered_seed p) in
  let instances, setups, setup_again =
    timed_setup (fun () ->
        let platform = Md.platform ~n_clb:1_200 () in
        Array.mapi
          (fun k gen_seed ->
            let app = layered_graph p k gen_seed in
            let s = Solution.random (Rng.create p.seed) app platform in
            ignore (Solution.evaluate s : Repro_sched.Searchgraph.eval option);
            (app, platform))
          gen_seeds)
  in
  let on_round () =
    setup_again ();
    sample_heap ()
  in
  if not p.trace then begin
    let chains =
      run_chains ~round_size:graphs ~on_round p ~stop:(deadline p 1.0) ~min_chains:graphs
        ~iterations ~target:Sa.Full_budget instances
    in
    let loop, missed =
      chains_loop checks ~round_size:1 ~setup_s:(median !setups) chains
    in
    {
      metrics = end_to_end loop;
      attempted = List.length chains;
      failed = missed;
      notes =
        [
          ("chains", Json.num_int (List.length chains));
          rounds_note loop;
          ( "tasks",
            Json.Arr
              (Array.to_list
                 (Array.map (fun (a, _) -> Json.num_int (Repro_taskgraph.App.size a)) instances)) );
        ];
    }
  end
  else begin
    let app, platform = instances.(0) in
    let tracer = Sa.tracer spans in
    let chains =
      run_chains ~tracer ~checks p ~stop:(deadline p 0.1) ~min_chains:2 ~iterations ~target:Sa.Full_budget
        [| (app, platform) |]
    in
    let _, missed = chains_loop checks ~round_size:1 ~setup_s:(median !setups) chains in
    let cells =
      probe_cells spans p ~max_evaluations:(if p.smoke then 50 else 300)
        ~app_name:"g512" app platform
    in
    let tg = Filename.concat p.out "g512.tg" in
    mkdir_p p.out;
    Repro_taskgraph.App_io.save tg app;
    let d, texts =
      probe_drain spans checks p ~iters:(if p.smoke then 50 else 200)
        ~sources:(List.init (if p.smoke then 2 else 4) (fun _ -> Spool_bench.File tg))
    in
    let metrics =
      layer_suite spans checks p ~tracer ~cells ~instances:[ (app, platform) ]
        ~drains:[ d ] ~texts
    in
    {
      metrics;
      attempted = List.length chains + n_restarts cells + d.Spool_bench.jobs;
      failed = missed + failed_restarts checks ~targeted:false cells + d.Spool_bench.failed;
      notes = [ ("chains", Json.num_int (List.length chains)) ];
    }
  end

(* ---- engines_mix ------------------------------------------------- *)

let mix_apps = [ "sobel"; "ofdm"; "jpeg"; "motion_detection" ]

(* Target cost per application (ms): every engine reaches it within its
   budget. *)
let mix_target = function
  | "sobel" -> 17.8
  | "ofdm" -> 11.5
  | "jpeg" -> 33.0
  | _ -> 38.0

let mix_budget p = function
  | "ga" -> if p.smoke then 2 else 10
  | "random" -> if p.smoke then 50 else 5_000
  | "tabu" -> if p.smoke then 10 else 1_000
  | _ -> if p.smoke then 100 else 20_000

(* One pass runs every (engine, application) cell once. *)
let mix_pass ?spans p ~pass apps =
  List.concat
    (List.mapi
       (fun e engine_name ->
         List.mapi
           (fun a (app_name, app, platform) ->
             Engines.run_cell ?spans
               ~target:(if p.smoke then 1e9 else mix_target app_name)
               ~engine_name ~iterations:(mix_budget p engine_name)
               ~seed:((p.seed * 1_009) + (pass * 16) + (e * 4) + a)
               ~app_name app platform)
           apps)
       Engines.names)

(* Per restart: engine, application, best cost and time to target. *)
let restarts_json cells =
  Json.Arr
    (List.concat_map
       (fun c ->
         List.map
           (fun r ->
             Json.Obj
               [
                 ("engine", Json.Str r.Engines.engine);
                 ("app", Json.Str c.Engines.app_name);
                 ("best_cost", num r.Engines.outcome.Engine.best_cost);
                 ("evaluations", Json.num_int r.Engines.outcome.Engine.evaluations);
                 ("ttt_s", match r.Engines.ttt_s with Some t -> num t | None -> Json.Null);
               ])
           c.Engines.restarts)
       cells)

let engines_mix p checks spans =
  let apps, setups, setup_again =
    timed_setup (fun () ->
        ignore (Engines.engine "ga" : Engine.t);
        List.map
          (fun name ->
            let app = (List.assoc name Suite.named) () in
            let platform = Suite.platform_for app in
            let s = Solution.random (Rng.create p.seed) app platform in
            ignore (Solution.evaluate s : Repro_sched.Searchgraph.eval option);
            (name, app, platform))
          mix_apps)
  in
  (* Passes until [stop]: each pass's cells and wall time. *)
  let run_passes ?spans stop =
    let rec go pass acc =
      if pass >= 1 && stop () then List.rev acc
      else begin
        let t0 = now_ns () in
        let cells = mix_pass ?spans p ~pass apps in
        let wall_s = since_s t0 in
        setup_again ();
        sample_heap ();
        go (pass + 1) ((cells, wall_s) :: acc)
      end
    in
    go 0 []
  in
  let summarize passes =
    let cells = List.concat_map fst passes in
    let failed = failed_restarts checks ~targeted:true cells in
    let round (cells, wall_s) =
      let restarts = List.concat_map (fun c -> c.Engines.restarts) cells in
      let sum f = List.fold_left (fun n r -> n + f r.Engines.outcome) 0 restarts in
      {
        wall_s;
        iterations = sum (fun o -> o.Engine.iterations_run);
        evaluations = sum (fun o -> o.Engine.evaluations);
        completed = List.length restarts;
      }
    in
    ( {
        rounds = List.map round passes;
        ttts =
          [
            List.concat_map
              (fun c -> List.filter_map (fun r -> r.Engines.ttt_s) c.Engines.restarts)
              cells;
          ];
        best_cost_ms =
          geomean
            (List.filter_map
               (fun c ->
                 Option.map (fun r -> r.Explorer.best_cost) c.Engines.report.Explorer.best_result)
               cells);
        setup_s = median !setups;
      },
      failed,
      cells )
  in
  if not p.trace then begin
    let loop, failed, cells = summarize (run_passes (deadline p 1.0)) in
    {
      metrics = end_to_end loop;
      attempted = n_restarts cells;
      failed;
      notes =
        [
          ("cells", Json.num_int (List.length cells));
          rounds_note loop;
          ("restarts", restarts_json cells);
        ];
    }
  end
  else begin
    let _, failed, cells = summarize (run_passes ~spans (deadline p 0.4)) in
    let _, app, platform = List.nth apps 3 in
    let tracer = Sa.tracer spans in
    let chains =
      run_chains ~tracer ~checks p ~stop:(deadline p 0.0) ~min_chains:(if p.smoke then 1 else 8)
        ~iterations:(if p.smoke then 300 else 20_000)
        ~target:(Sa.Cost (if p.smoke then 1e9 else 26.0))
        [| (app, platform) |]
    in
    let d, texts =
      probe_drain spans checks p ~iters:(if p.smoke then 50 else 200)
        ~sources:
          (List.concat
             (List.init (if p.smoke then 1 else 4) (fun _ ->
                  List.map (fun n -> Spool_bench.Named n) mix_apps)))
    in
    let metrics =
      layer_suite spans checks p ~tracer ~cells
        ~instances:(List.map (fun (_, a, pl) -> (a, pl)) apps)
        ~drains:[ d ] ~texts
    in
    {
      metrics;
      attempted = n_restarts cells + List.length chains + d.Spool_bench.jobs;
      failed = failed + d.Spool_bench.failed;
      notes = [ ("cells", Json.num_int (List.length cells)) ];
    }
  end

(* ---- spool_drain ------------------------------------------------- *)

let spool_drain p checks spans =
  let batch = if p.smoke then 4 else 150 in
  let iters = if p.smoke then 50 else 200 in
  let target = infinity in
  let dir = Filename.concat p.out "spool" in
  let run_batches ?spans stop =
    let rec go k setups drains =
      if k >= 1 && stop () then (List.rev setups, List.rev drains)
      else begin
        let submitted =
          List.init batch (fun i ->
              (Spool_bench.Named "motion_detection", (p.seed * 100_003) + (k * batch) + i))
        in
        let t0 = now_ns () in
        let spool = Spool_bench.fill dir submitted ~iters ~warmup:50 in
        let setup = since_s t0 in
        let d =
          Spool_bench.drain_and_check ?spans checks ~target ~reproduce_every:10 ~iters
            ~warmup:50 spool submitted
        in
        rm_rf dir;
        sample_heap ();
        go (k + 1) (setup :: setups) (d :: drains)
      end
    in
    go 0 [] []
  in
  let summarize setups drains =
    let results = List.concat_map (fun d -> d.Spool_bench.results) drains in
    let round d =
      let sum f = List.fold_left (fun n r -> n + f r) 0 d.Spool_bench.results in
      {
        wall_s = d.Spool_bench.wall_s;
        iterations = sum (fun r -> r.Spool_bench.iterations);
        evaluations = sum (fun r -> r.Spool_bench.iterations - r.Spool_bench.infeasible);
        completed = List.length d.Spool_bench.results;
      }
    in
    ( {
        rounds = List.map round drains;
        ttts =
          List.map
            (fun d ->
              List.filter_map
                (fun r ->
                  if r.Spool_bench.best_cost <= target then Some r.Spool_bench.service_s
                  else None)
                d.Spool_bench.results)
            drains;
        best_cost_ms = mean (List.map (fun r -> r.Spool_bench.best_cost) results);
        setup_s = median setups;
      },
      List.fold_left (fun n d -> n + d.Spool_bench.failed) 0 drains,
      List.fold_left (fun n d -> n + d.Spool_bench.jobs) 0 drains )
  in
  if not p.trace then begin
    let setups, drains = run_batches (deadline p 1.0) in
    let loop, failed, jobs = summarize setups drains in
    {
      metrics = end_to_end loop;
      attempted = jobs;
      failed;
      notes =
        [
          ("batches", Json.num_int (List.length drains)); rounds_note loop;
        ];
    }
  end
  else begin
    let _, drains = run_batches ~spans (deadline p 0.4) in
    let _, failed, jobs = summarize [ 0.0 ] drains in
    let app = Md.app () and platform = Md.platform ~n_clb:2_000 () in
    let tracer = Sa.tracer spans in
    let chains =
      run_chains ~tracer ~checks p ~stop:(deadline p 0.0) ~min_chains:(if p.smoke then 1 else 8)
        ~iterations:(if p.smoke then 300 else 20_000)
        ~target:(Sa.Cost (if p.smoke then 1e9 else 26.0))
        [| (app, platform) |]
    in
    let cells =
      probe_cells spans p ~max_evaluations:(if p.smoke then 50 else 2_000)
        ~app_name:"motion_detection" app platform
    in
    let texts =
      List.init batch (fun i ->
          Spool_bench.job_text (Spool_bench.Named "motion_detection") ~iters ~warmup:50
            ~seed:((p.seed * 100_003) + i))
    in
    let metrics =
      layer_suite spans checks p ~tracer ~cells ~instances:[ (app, platform) ]
        ~drains ~texts
    in
    {
      metrics;
      attempted = jobs + List.length chains + n_restarts cells;
      failed = failed + failed_restarts checks ~targeted:false cells;
      notes = [ ("batches", Json.num_int (List.length drains)) ];
    }
  end

let all =
  [
    ("md28_sa", md28);
    ("g512_sa", g512);
    ("engines_mix", engines_mix);
    ("spool_drain", spool_drain);
  ]
