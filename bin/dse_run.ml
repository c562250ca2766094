(* Run one exploration of a workload and report the solution.

     dse-run --app motion_detection --clbs 2000 --iters 50000 --seed 7
     dse-run --app-file my_design.tg --gantt --dot mapping.dot
     dse-run --restarts 8 -j 4        # 8 chains over 4 domains
     dse-run --checkpoint run.ckpt --checkpoint-every 5000
     dse-run --resume run.ckpt       # continue bit-identically

   Exit codes: 0 complete, 2 bad input or usage, 3 interrupted
   (SIGINT or --time-budget exhausted; best-so-far is still printed
   and a final checkpoint is flushed when --checkpoint is given).
*)

open Cmdliner
module Explorer = Repro_dse.Explorer
module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module App = Repro_taskgraph.App
module Run_spec = Repro_dse.Run_spec

(* The schedule the flags ask for instead of the spec's Lam at quality
   150 / iters; [None] keeps that one. *)
let schedule_override name quality =
  match (name, quality) with
  | "lam", None -> None
  | "lam", Some quality -> Some (Schedule.lam ~quality ())
  | "swartz", _ -> Some (Schedule.swartz ())
  | "geometric", _ -> Some (Schedule.geometric ())
  | "infinite", _ -> Some (Schedule.infinite ())
  | other, _ -> invalid_arg (Printf.sprintf "unknown schedule %S" other)

let run app_name app_file platform_file clbs engine_name iters warmup seed
    schedule lam_quality serialized trace_path gantt dot_path save_app
    restarts jobs checkpoint_path checkpoint_every resume_path time_budget
    restart_timeout result_path race chain target_cost seed_from =
  Cli_common.guard @@ fun () ->
  (* --race/--chain/--target-cost compose onto a portfolio spec; the
     spec grammar accepts the same tokens inline, the flags just read
     better in a shell line. *)
  if race && chain then Cli_common.fail "--race and --chain conflict";
  let engine_name =
    let extras =
      (if race then [ ":race" ] else [])
      @ (if chain then [ ":chain" ] else [])
      @
      match target_cost with
      | Some c -> [ Printf.sprintf ":target=%.12g" c ]
      | None -> []
    in
    if extras = [] then engine_name
    else if not (Repro_dse.Portfolio.is_spec engine_name) then
      Cli_common.fail
        "--race/--chain/--target-cost shape a portfolio; pass --engine \
         portfolio:e1+e2+..."
    else String.concat "" (engine_name :: extras)
  in
  let source =
    match app_file with
    | Some path -> Run_spec.From_file path
    | None -> Run_spec.Named app_name
  in
  let spec =
    Cli_common.or_fail
      (Run_spec.validate
         { (Run_spec.default source) with platform_file; clbs; iters; warmup;
           seed; restarts; serialized; engine = Some engine_name })
  in
  let app, platform = Cli_common.or_fail (Run_spec.load_inputs spec) in
  let lanes_seen = ref None in
  let engine =
    Cli_common.or_fail
      (Explorer.resolve_engine
         ~report:(fun lanes -> lanes_seen := Some lanes)
         engine_name)
  in
  let warm_start =
    match seed_from with
    | None -> None
    | Some path ->
      if resume_path <> None then
        Cli_common.fail
          "--seed-from conflicts with --resume: a resumed run already \
           carries its state, the warm start is baked in";
      Some (Cli_common.or_fail (Explorer.read_incumbent path app platform))
  in
  let supervised = restarts > 1 || restart_timeout <> None in
  if restarts > 1 && resume_path <> None then
    Cli_common.fail
      "--resume names a single chain's checkpoint; multi-restart runs \
       resume opportunistically from their per-chain files (rerun with \
       the same --checkpoint PATH, which keeps PATH.r<i> per chain)";
  (match restart_timeout with
   | Some s when s <= 0.0 ->
     Cli_common.fail "--restart-timeout wants a positive number of seconds"
   | _ -> ());
  if checkpoint_every <= 0 then
    Cli_common.fail "--checkpoint-every wants a positive iteration count";
  let config =
    let config = Run_spec.explorer_config spec in
    match schedule_override schedule lam_quality with
    | None -> config
    | Some schedule ->
      { config with anneal = { config.anneal with Annealer.schedule } }
  in
  (* One checkpoint file per chain, read and written alike: --resume
     makes loading it mandatory, --checkpoint alone starts fresh.  A
     multi-restart run keeps PATH.r<i> per chain and resumes each one
     opportunistically on rerun. *)
  let checkpoint =
    let file =
      match (checkpoint_path, resume_path) with
      | Some p, Some r when p <> r ->
        Cli_common.fail
          "a run reads and writes one checkpoint file; pass the same path \
           to --checkpoint and --resume (or drop one)"
      | Some p, _ | None, Some p -> Some p
      | None, None -> None
    in
    Option.map
      (fun path ->
        {
          Engine.path;
          every = checkpoint_every;
          resume =
            (if resume_path <> None then Engine.Resume_required
             else Engine.Resume_never);
        })
      file
  in
  let restart_checkpoint =
    Option.map
      (fun (ck : Engine.checkpoint) index ->
        if restarts <= 1 then ck
        else
          {
            ck with
            path = Printf.sprintf "%s.r%d" ck.path index;
            resume = Engine.Resume_if_exists;
          })
      checkpoint
  in
  let should_stop = Cli_common.should_stop ~time_budget in
  let trace = Repro_dse.Trace.create ~every:10 () in
  (match engine with
   | Some e ->
     Format.printf "engine: %s — %s@." (Engine.name e) (Engine.describe e)
   | None -> ());
  let result, restart_statuses, degraded =
    if not supervised then
      ( Explorer.explore ?engine ~trace ?initial:warm_start ?checkpoint
          ~should_stop config app platform,
        [],
        0 )
    else begin
      let report =
        Explorer.explore_restarts_supervised ~trace ~jobs ?engine
          ?restart_timeout ?restart_checkpoint ?warm_start ~should_stop
          ~restarts config app platform
      in
      let statuses =
        Array.to_list report.Explorer.restart_statuses
        |> List.map Explorer.item_status_name
      in
      Format.printf "restart best costs (%d chains, %d job(s)): %s@." restarts
        jobs
        (String.concat " "
           (List.map
              (fun (i, c) -> Printf.sprintf "%d:%.2f" i c)
              report.Explorer.restart_costs));
      Format.printf "restart statuses: %s@." (String.concat " " statuses);
      if report.Explorer.degraded > 0 then
        Repro_util.Log.warn
          "%d of %d restart(s) lost or cut short; reporting the best \
           surviving chain"
          report.Explorer.degraded restarts;
      match report.Explorer.best_result with
      | Some best -> (best, statuses, report.Explorer.degraded)
      | None -> (
        (* Surface the actual failure (e.g. a --resume checkpoint that
           does not load) instead of a generic count. *)
        match
          Array.to_list report.Explorer.restart_statuses
          |> List.find_map (function
               | Explorer.Item_failed msg -> Some msg
               | _ -> None)
        with
        | Some msg ->
          (* Supervision stringifies exceptions; unwrap the Failure
             constructor so the diagnostic reads like our own. *)
          let msg =
            match Scanf.sscanf_opt msg "Failure(%S)" (fun s -> s) with
            | Some inner -> inner
            | None -> msg
          in
          Cli_common.fail "%s" msg
        | None ->
          Cli_common.fail "all %d restart(s) failed; no result to report"
            restarts)
    end
  in
  (* Portfolio runs also show the per-lane verdicts: who won the race,
     who was cancelled, who faulted and was salvaged. *)
  (match !lanes_seen with
   | None -> ()
   | Some lanes ->
     Format.printf "portfolio lanes:@.";
     Array.iter
       (fun l ->
         Format.printf "  %-12s %-10s %7d iters %9d evals  best %s@."
           l.Repro_dse.Portfolio.member l.Repro_dse.Portfolio.state
           l.Repro_dse.Portfolio.iterations l.Repro_dse.Portfolio.evaluations
           (if Float.is_finite l.Repro_dse.Portfolio.best then
              Printf.sprintf "%.2f" l.Repro_dse.Portfolio.best
            else "-"))
       lanes);
  let eval = result.Explorer.best_eval in
  Format.printf "%a@." App.pp_summary app;
  Format.printf
    "@[<v>run: %d iterations in %.2f s (%d accepted, %d infeasible)@,\
     initial %.2f ms -> best %.2f ms, %d context(s)@,\
     reconfiguration %.2f + %.2f ms, communication %.2f ms@,\
     deadline: %s@]@."
    result.Explorer.iterations_run result.Explorer.wall_seconds
    result.Explorer.accepted result.Explorer.infeasible
    result.Explorer.initial_cost result.Explorer.best_cost
    eval.Repro_sched.Searchgraph.n_contexts
    eval.Repro_sched.Searchgraph.initial_reconfig
    eval.Repro_sched.Searchgraph.dynamic_reconfig
    eval.Repro_sched.Searchgraph.comm
    (match app.App.deadline with
     | Some d ->
       if Explorer.meets_deadline app eval then Printf.sprintf "%.0f ms MET" d
       else Printf.sprintf "%.0f ms MISSED" d
     | None -> "none");
  (match result.Explorer.status with
   | Engine.Complete -> ()
   | Engine.Interrupted ->
     Format.printf
       "interrupted at iteration %d — reporting best-so-far%s@."
       result.Explorer.iterations_run
       (match checkpoint_path with
        | Some path -> Printf.sprintf " (checkpoint flushed to %s)" path
        | None -> ""));
  let periodic = Repro_sched.Periodic.analyze (Solution.spec result.Explorer.best) in
  Format.printf
    "steady-state initiation interval >= %.2f ms (bottleneck: %s)@."
    periodic.Repro_sched.Periodic.min_initiation_interval
    periodic.Repro_sched.Periodic.bottleneck;
  Format.printf "%a@." Solution.pp result.Explorer.best;
  if gantt then begin
    match Repro_sched.Gantt.render (Solution.spec result.Explorer.best) with
    | Some text -> print_string text
    | None -> ()
  end;
  (match dot_path with
   | Some path ->
     let binding v =
       match Solution.binding result.Explorer.best v with
       | Repro_sched.Searchgraph.Sw | Repro_sched.Searchgraph.On_asic _ -> `Sw
       | Repro_sched.Searchgraph.Hw j -> `Hw j
     in
     Repro_taskgraph.Dot.write_file path
       (Repro_taskgraph.Dot.of_app_partitioned app ~binding);
     Format.printf "partitioned DOT written to %s@." path
   | None -> ());
  (match save_app with
   | Some path ->
     Repro_taskgraph.App_io.save path app;
     Format.printf "application saved to %s@." path
   | None -> ());
  (match trace_path with
   | Some path ->
     Repro_dse.Trace.to_csv trace path;
     Format.printf "trace written to %s@." path
   | None -> ());
  let overall_status =
    if supervised && should_stop () then "interrupted"
    else if degraded > 0 then "degraded"
    else Engine.status_name result.Explorer.status
  in
  (match result_path with
   | Some path ->
     Cli_common.write_result ~restart_statuses ~degraded path
       ~status:overall_status ~result;
     Format.printf "result summary written to %s@." path
   | None -> ());
  if overall_status = "interrupted" then Cli_common.exit_interrupted
  else Cli_common.exit_ok

(* Every knob a job can set defaults to the job's value, except the
   budget: a command-line run anneals 50,000 iterations. *)
let defaults = Run_spec.default (Run_spec.Named "motion_detection")

let app_arg =
  Arg.(value & opt string "motion_detection"
       & info [ "app" ] ~doc:"Built-in workload name")

let app_file_arg =
  Arg.(value & opt (some string) None
       & info [ "app-file" ] ~doc:"Load the application from a .tg file"
           ~docv:"FILE")

let platform_file_arg =
  Arg.(value & opt (some string) None
       & info [ "platform-file" ]
           ~doc:"Load the platform from a .plat file (overrides --clbs)"
           ~docv:"FILE")

let clbs_arg =
  Arg.(value & opt int defaults.clbs & info [ "clbs" ] ~doc:"FPGA size in CLBs")

let engine_arg =
  Arg.(value & opt string "sa"
       & info [ "engine" ]
           ~doc:"Search engine, by registry name: sa (default) | greedy | \
                 random | hill | tabu | ga | ga-spatial | \
                 portfolio[:rr|race|chain][:e1+e2+...][:slice=N][:target=C].  \
                 Non-sa engines take --iters as their iteration budget (see \
                 dse-compare --list-engines for what one iteration means per \
                 engine); --warmup/--schedule/--lam-quality apply to sa only")

let iters_arg =
  Arg.(value & opt int 50_000 & info [ "iters" ] ~doc:"Cooling iterations")

let warmup_arg =
  Arg.(value & opt int defaults.warmup & info [ "warmup" ]
       ~doc:"Infinite-temperature iterations")

let seed_arg =
  Arg.(value & opt int defaults.seed & info [ "seed" ] ~doc:"Random seed")

let schedule_arg =
  Arg.(value & opt string "lam"
       & info [ "schedule" ] ~doc:"lam | swartz | geometric | infinite")

let quality_arg =
  Arg.(value & opt (some float) None & info [ "lam-quality" ]
       ~doc:"Lam schedule quality parameter (default: 150 / --iters, \
             the same schedule a job or a dse-sweep cell anneals with)")

let serialized_arg =
  Arg.(value & flag
       & info [ "serialized-bus" ]
           ~doc:"Optimize under the serialized bus-transaction model")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ]
       ~doc:"Write per-iteration CSV trace to $(docv)" ~docv:"FILE")

let gantt_arg = Arg.(value & flag & info [ "gantt" ] ~doc:"Print a text Gantt")

let dot_arg =
  Arg.(value & opt (some string) None
       & info [ "dot" ] ~doc:"Write the partitioned task graph as DOT to $(docv)"
           ~docv:"FILE")

let save_app_arg =
  Arg.(value & opt (some string) None
       & info [ "save-app" ] ~doc:"Save the application in .tg format to $(docv)"
           ~docv:"FILE")

let restarts_arg =
  Arg.(value & opt int defaults.restarts
       & info [ "restarts" ]
           ~doc:"Independent annealing chains (seeds derived per chain); \
                 the best one is reported")

let jobs_arg =
  Arg.(value & opt int (Repro_util.Parallel.default_jobs ())
       & info [ "jobs"; "j" ]
           ~doc:"Domains used to run restart chains in parallel (default: \
                 the machine's recommended domain count); results are \
                 identical for every value")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ]
           ~doc:"Write a crash-safe engine checkpoint to $(docv) every \
                 --checkpoint-every iterations (and once more on \
                 interruption).  Works with every --engine; a \
                 multi-restart run keeps $(docv).r<i> per chain and a \
                 rerun resumes each chain opportunistically"
           ~docv:"FILE")

let checkpoint_every_arg =
  Arg.(value & opt int 5_000
       & info [ "checkpoint-every" ]
           ~doc:"Iterations between periodic checkpoints" ~docv:"N")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ]
           ~doc:"Resume from a checkpoint written by --checkpoint; the \
                 application, platform, engine and budget flags must match \
                 the checkpointed run, which then replays bit-identically.  \
                 The same file keeps receiving the periodic checkpoints"
           ~docv:"FILE")

let time_budget_arg =
  Arg.(value & opt (some float) None
       & info [ "time-budget" ]
           ~doc:"Stop at the next iteration boundary once $(docv) wall-clock \
                 seconds have elapsed and report best-so-far (exit code 3)"
           ~docv:"SECS")

let restart_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "restart-timeout" ]
           ~doc:"Per-restart wall-clock budget in $(docv) seconds: a chain \
                 that overruns is cut at the next iteration boundary and \
                 contributes its best-so-far (status timed-out); the run \
                 completes degraded instead of hanging"
           ~docv:"SECS")

let result_arg =
  Arg.(value & opt (some string) None
       & info [ "result" ]
           ~doc:"Write a one-line JSON result summary (with an explicit \
                 \"status\" of complete, degraded or interrupted, plus \
                 per-restart statuses under supervision) to $(docv)"
           ~docv:"FILE")

let race_arg =
  Arg.(value & flag
       & info [ "race" ]
           ~doc:"Run the portfolio's members as concurrent racing lanes, \
                 each with the full --iters budget (shorthand for the :race \
                 spec token).  With --target-cost the race is hedged: the \
                 first lane to reach the target wins and the others are \
                 cancelled at their next iteration boundary")

let chain_arg =
  Arg.(value & flag
       & info [ "chain" ]
           ~doc:"Run the portfolio's members in order, each warm-started \
                 from the best incumbent of the stages before it (shorthand \
                 for the :chain spec token) — e.g. \
                 portfolio:greedy+sa seeds the annealer with the greedy \
                 mapping")

let target_cost_arg =
  Arg.(value & opt (some float) None
       & info [ "target-cost" ]
           ~doc:"Portfolio target: stop as soon as some lane's best reaches \
                 $(docv) (milliseconds of makespan); losing lanes are \
                 cancelled within one member iteration"
           ~docv:"COST")

let seed_from_arg =
  Arg.(value & opt (some string) None
       & info [ "seed-from" ]
           ~doc:"Warm-start the search from the best solution stored in \
                 checkpoint $(docv) — any engine's file works (only the \
                 application and platform must match; seed, budget and \
                 donor engine are free), so a greedy incumbent can seed sa \
                 or a whole portfolio"
           ~docv:"CKPT")

let cmd =
  let doc = "explore a workload mapping on a reconfigurable platform" in
  Cmd.v (Cmd.info "dse-run" ~doc ~exits:Cli_common.exits)
    Term.(const run $ app_arg $ app_file_arg $ platform_file_arg $ clbs_arg
          $ engine_arg $ iters_arg $ warmup_arg $ seed_arg $ schedule_arg
          $ quality_arg
          $ serialized_arg $ trace_arg $ gantt_arg $ dot_arg $ save_app_arg
          $ restarts_arg $ jobs_arg $ checkpoint_arg $ checkpoint_every_arg
          $ resume_arg $ time_budget_arg $ restart_timeout_arg $ result_arg
          $ race_arg $ chain_arg $ target_cost_arg $ seed_from_arg)

let () = exit (Cmd.eval' cmd)
