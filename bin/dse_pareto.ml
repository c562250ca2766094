(* Cost vs. performance frontier over a catalogue of FPGA sizes: the
   designer-facing output of the paper's "minimize system cost subject
   to the performance constraint" story.

     dse-pareto --sizes 100,200,400,800,2000,5000
*)

open Cmdliner
module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Table = Repro_util.Table

let run sizes iterations seed engine_name jobs device_timeout =
  Cli_common.guard @@ fun () ->
  let app = Md.app () in
  let sizes = match sizes with [] -> Md.fig3_sizes | s -> s in
  (match device_timeout with
   | Some s when s <= 0.0 ->
     Cli_common.fail "--device-timeout wants a positive number of seconds"
   | _ -> ());
  let engine = Cli_common.or_fail (Explorer.resolve_engine engine_name) in
  let catalogue = List.map (fun n_clb -> Md.platform ~n_clb ()) sizes in
  let report =
    Explorer.cost_performance_frontier_supervised ~seed ~iterations ~jobs
      ?device_timeout ?engine
      ~should_stop:(Cli_common.should_stop ~time_budget:None)
      app catalogue
  in
  let frontier = report.Explorer.frontier in
  Array.iteri
    (fun i status ->
      match status with
      | Explorer.Item_done -> ()
      | Explorer.Item_timed_out ->
        Repro_util.Log.warn
          "device %d CLBs: timed out; its best-so-far point was used"
          (List.nth sizes i)
      | status ->
        Repro_util.Log.warn "device %d CLBs: %s; excluded from the frontier"
          (List.nth sizes i)
          (Explorer.item_status_name status))
    report.Explorer.device_statuses;
  if report.Explorer.devices_lost > 0 then
    Repro_util.Log.warn
      "%d of %d device(s) lost; the frontier covers the surviving \
       sub-catalogue"
      report.Explorer.devices_lost (List.length catalogue);
  Printf.printf
    "Pareto-dominant platforms for motion detection (%d candidate(s), %d kept)\n\n"
    (List.length catalogue) (List.length frontier);
  let table =
    Table.create
      [ ("CLBs", Table.Right); ("platform cost", Table.Right);
        ("makespan ms", Table.Right); ("contexts", Table.Right);
        ("40 ms", Table.Left) ]
  in
  List.iter
    (fun { Explorer.platform; eval; cost; meets } ->
      Table.add_row table
        [
          Table.cell_int (Repro_arch.Platform.n_clb platform);
          Table.cell_float cost;
          Table.cell_float eval.Repro_sched.Searchgraph.makespan;
          Table.cell_int eval.Repro_sched.Searchgraph.n_contexts;
          (if meets then "met" else "missed");
        ])
    frontier;
  print_string (Table.render table);
  Cli_common.exit_ok

let sizes_arg =
  Arg.(value & opt (list int) [] & info [ "sizes" ]
       ~doc:"Comma-separated CLB sizes (default: the paper's Fig. 3 sweep)")

let iters_arg =
  Arg.(value & opt int 20_000 & info [ "iters" ]
       ~doc:"Iterations per platform")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed")

let engine_arg =
  Arg.(value & opt string "sa"
       & info [ "engine" ]
           ~doc:"Search engine per catalogue device, by registry name \
                 (default sa, the native annealer; see dse-compare \
                 --list-engines); every device keeps the same seed and \
                 iteration budget")

let jobs_arg =
  Arg.(value & opt int (Repro_util.Parallel.default_jobs ())
       & info [ "jobs"; "j" ]
           ~doc:"Domains used to explore catalogue devices in parallel; \
                 results are identical for every value")

let device_timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "device-timeout" ]
           ~doc:"Per-device wall-clock budget in $(docv) seconds: an \
                 over-budget device contributes its best-so-far point and \
                 is flagged; a raising device is excluded with a warning"
           ~docv:"SECS")

let cmd =
  let doc = "cost/performance Pareto frontier over a device catalogue" in
  Cmd.v (Cmd.info "dse-pareto" ~doc ~exits:Cli_common.exits)
    Term.(const run $ sizes_arg $ iters_arg $ seed_arg $ engine_arg $ jobs_arg
          $ device_timeout_arg)

let () = exit (Cmd.eval' cmd)
