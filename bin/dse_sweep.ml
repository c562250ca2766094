(* Device-size sweep (the paper's Fig. 3): for each FPGA size, average
   execution time, reconfiguration times and number of contexts over
   several exploration runs.

     dse-sweep --runs 100 --iters 50000 -j 8

   The (FPGA size x run) grid is embarrassingly parallel: every cell's
   seed is a function of its coordinates and the per-size averages are
   folded in a fixed order, so the output is identical for any --jobs.
*)

open Cmdliner
module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Run_spec = Repro_dse.Run_spec
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Parallel = Repro_util.Parallel

type point = {
  n_clb : int;
  exec : float;
  exec_dev : float;
  init_reconfig : float;
  dyn_reconfig : float;
  contexts : float;
  met : int;
  runs : int;
}

(* One cell of the sweep grid: size x run index -> the per-run
   measurements.  The seed depends only on the cell's coordinates.
   [stop] is the supervisor's probe (global stop or this cell's
   deadline): an over-budget cell flushes best-so-far at an iteration
   boundary instead of hanging the sweep. *)
let sweep_cell ?engine app ~n_clb ~iters ~base_seed ~run ~stop =
  let platform = Md.platform ~n_clb () in
  let seed = base_seed + (run * 7919) + n_clb in
  let config =
    Run_spec.explorer_config
      { (Run_spec.default (Run_spec.Named "motion_detection")) with
        clbs = n_clb; iters; seed }
  in
  let result = Explorer.explore ?engine ~should_stop:stop config app platform in
  let eval = result.Explorer.best_eval in
  ( eval.Repro_sched.Searchgraph.makespan,
    eval.Repro_sched.Searchgraph.initial_reconfig,
    eval.Repro_sched.Searchgraph.dynamic_reconfig,
    eval.Repro_sched.Searchgraph.n_contexts,
    Explorer.meets_deadline app eval )

(* Fold one size's cells, in run order, into a sweep point. *)
let point_of_cells ~n_clb ~runs cells =
  let exec = Stats.Running.create () in
  let init_r = Stats.Running.create () in
  let dyn_r = Stats.Running.create () in
  let ctx = Stats.Running.create () in
  let met = ref 0 in
  Array.iter
    (fun (makespan, init, dyn, n_contexts, meets) ->
      Stats.Running.add exec makespan;
      Stats.Running.add init_r init;
      Stats.Running.add dyn_r dyn;
      Stats.Running.add ctx (float_of_int n_contexts);
      if meets then incr met)
    cells;
  {
    n_clb;
    exec = Stats.Running.mean exec;
    exec_dev = Stats.Running.stddev exec;
    init_reconfig = Stats.Running.mean init_r;
    dyn_reconfig = Stats.Running.mean dyn_r;
    contexts = Stats.Running.mean ctx;
    met = !met;
    runs;
  }

let render_points points =
  let table =
    Table.create
      [
        ("CLBs", Table.Right); ("exec ms", Table.Right); ("±", Table.Right);
        ("init rcfg", Table.Right); ("dyn rcfg", Table.Right);
        ("contexts", Table.Right); ("deadline met", Table.Right);
      ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Table.cell_int p.n_clb;
          Table.cell_float p.exec;
          Table.cell_float p.exec_dev;
          Table.cell_float p.init_reconfig;
          Table.cell_float p.dyn_reconfig;
          Table.cell_float ~decimals:1 p.contexts;
          Printf.sprintf "%d/%d" p.met p.runs;
        ])
    points;
  Table.render table

(* Cell results as one checkpoint line: floats in hex so a resumed
   sweep averages exactly the numbers the interrupted one computed. *)
let encode_cell (makespan, init, dyn, n_contexts, meets) =
  Printf.sprintf "%h %h %h %d %b" makespan init dyn n_contexts meets

let decode_cell line =
  match String.split_on_char ' ' line with
  | [ makespan; init; dyn; n_contexts; meets ] ->
    ( float_of_string makespan, float_of_string init, float_of_string dyn,
      int_of_string n_contexts, bool_of_string meets )
  | _ -> Cli_common.fail "malformed sweep checkpoint cell %S" line

let run runs iters base_seed sizes engine_name csv_path jobs checkpoint_path
    time_budget restart_timeout =
  Cli_common.guard @@ fun () ->
  let app = Md.app () in
  let sizes = match sizes with [] -> Md.fig3_sizes | s -> s in
  (match restart_timeout with
   | Some s when s <= 0.0 ->
     Cli_common.fail "--restart-timeout wants a positive number of seconds"
   | _ -> ());
  let engine = Cli_common.or_fail (Explorer.resolve_engine engine_name) in
  Printf.printf
    "Fig. 3 sweep: %d run(s) per size, %d iterations each, %d job(s), \
     engine %s (paper: 100 runs)\n%!"
    runs iters jobs engine_name;
  (* Flatten the (size x run) grid into one supervised parallel map;
     cell i is size i/runs, run i mod runs, so the work distribution
     does not affect which seed any cell uses — and a checkpointed
     sweep can resume any subset of cells with identical output.  A
     raising or over-budget cell is dropped with a warning instead of
     aborting the campaign. *)
  let size_arr = Array.of_list sizes in
  let n_cells = Array.length size_arr * runs in
  let cell i ~stop =
    sweep_cell ?engine app ~n_clb:size_arr.(i / runs) ~iters ~base_seed
      ~run:(i mod runs) ~stop
  in
  let checkpoint =
    Option.map
      (fun path ->
        {
          Cli_common.ckpt_path = path;
          kind = "dse-sweep";
          fingerprint =
            Printf.sprintf "sweep runs=%d iters=%d seed=%d engine=%s sizes=%s"
              runs iters base_seed engine_name
              (String.concat "," (List.map string_of_int sizes));
          encode = encode_cell;
          decode = decode_cell;
        })
      checkpoint_path
  in
  let outcome =
    Cli_common.run_cells ?checkpoint ?cell_timeout:restart_timeout ~jobs
      ~should_stop:(Cli_common.should_stop ~time_budget)
      n_cells cell
  in
  match outcome with
  | `Interrupted (done_cells, total) ->
    Printf.printf
      "interrupted: %d/%d cell(s) completed%s\n" done_cells total
      (match checkpoint_path with
       | Some path ->
         Printf.sprintf
           "; persisted to %s — rerun with the same flags to resume" path
       | None -> "");
    Cli_common.exit_interrupted
  | `Complete (cells, warnings) ->
  Cli_common.report_warnings ~what:"sweep cell" warnings;
  let lost = Array.fold_left
      (fun n c -> if c = None then n + 1 else n) 0 cells
  in
  let points =
    List.mapi (fun s n_clb -> (s, n_clb)) sizes
    |> List.filter_map (fun (s, n_clb) ->
           let survivors =
             Array.to_list (Array.sub cells (s * runs) runs)
             |> List.filter_map Fun.id |> Array.of_list
           in
           if Array.length survivors = 0 then begin
             Repro_util.Log.warn
               "size %d CLBs: every run lost; row omitted" n_clb;
             None
           end
           else begin
             let p =
               point_of_cells ~n_clb ~runs:(Array.length survivors) survivors
             in
             Printf.printf "  %5d CLBs: exec %.1f ms, %.1f context(s)%s\n%!"
               n_clb p.exec p.contexts
               (if Array.length survivors < runs then
                  Printf.sprintf " (%d/%d run(s) survived)"
                    (Array.length survivors) runs
                else "");
             Some p
           end)
  in
  if lost > 0 then
    Repro_util.Log.warn
      "%d of %d sweep cell(s) lost; averages cover the survivors" lost
      n_cells;
  print_newline ();
  print_string (render_points points);
  (match csv_path with
  | None -> ()
  | Some path ->
    Repro_util.Csv_out.write path
      ~header:
        [ "n_clb"; "exec_ms"; "exec_stddev"; "initial_reconfig_ms";
          "dynamic_reconfig_ms"; "contexts"; "met"; "runs" ]
      (List.map
         (fun p ->
           [
             string_of_int p.n_clb; Printf.sprintf "%g" p.exec;
             Printf.sprintf "%g" p.exec_dev;
             Printf.sprintf "%g" p.init_reconfig;
             Printf.sprintf "%g" p.dyn_reconfig;
             Printf.sprintf "%g" p.contexts; string_of_int p.met;
             string_of_int p.runs;
           ])
         points);
    Printf.printf "\nCSV written to %s\n" path);
  Cli_common.exit_ok

let runs_arg =
  Arg.(value & opt int 10 & info [ "runs" ] ~doc:"Runs per device size")

let iters_arg =
  Arg.(value & opt int 20_000 & info [ "iters" ] ~doc:"Iterations per run")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed")

let sizes_arg =
  Arg.(value & opt (list int) [] & info [ "sizes" ]
       ~doc:"Comma-separated CLB sizes (default: the paper's sweep)")

let engine_arg =
  Arg.(value & opt string "sa"
       & info [ "engine" ]
           ~doc:"Search engine per sweep cell, by registry name (default \
                 sa, the native annealer; see dse-compare --list-engines); \
                 every cell keeps its coordinate-derived seed, so the sweep \
                 stays reproducible per engine")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Write CSV to $(docv)"
       ~docv:"FILE")

let jobs_arg =
  Arg.(value & opt int (Parallel.default_jobs ())
       & info [ "jobs"; "j" ]
           ~doc:"Domains used to run sweep cells in parallel (default: the \
                 machine's recommended domain count); results are identical \
                 for every value")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ]
           ~doc:"Persist completed sweep cells to $(docv) after every chunk; \
                 if the file already exists (same flags), those cells are \
                 skipped — interrupt with SIGINT and rerun to resume"
           ~docv:"FILE")

let time_budget_arg =
  Arg.(value & opt (some float) None
       & info [ "time-budget" ]
           ~doc:"Stop at the next chunk boundary once $(docv) wall-clock \
                 seconds have elapsed (exit code 3)"
           ~docv:"SECS")

let restart_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "restart-timeout" ]
           ~doc:"Per-cell wall-clock budget in $(docv) seconds: a cell that \
                 overruns contributes its best-so-far measurements and is \
                 flagged with a warning; the sweep completes degraded \
                 instead of hanging"
           ~docv:"SECS")

let cmd =
  let doc = "sweep the FPGA size (reproduces Fig. 3)" in
  Cmd.v (Cmd.info "dse-sweep" ~doc ~exits:Cli_common.exits)
    Term.(const run $ runs_arg $ iters_arg $ seed_arg $ sizes_arg $ engine_arg
          $ csv_arg $ jobs_arg $ checkpoint_arg $ time_budget_arg
          $ restart_timeout_arg)

let () = exit (Cmd.eval' cmd)
