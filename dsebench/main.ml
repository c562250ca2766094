(* The DSE benchmark's command line.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe --smoke

   A run prints every metric by name and unit, one per line, then a
   last line holding one JSON object: {"correct", "attempted",
   "failed", "metrics"}.  It also writes a result file (host facts,
   commit, seed, run length, checks, metrics) and, when traced, a span
   file, both under the output directory.  It exits 1 when an output
   check failed, 2 on bad usage or a crash. *)

open Bench_util

let end_to_end_names =
  [
    "iters_per_s"; "evals_per_s"; "jobs_per_s"; "ttt_p50_s"; "ttt_p90_s";
    "best_cost_ms"; "setup_s"; "top_heap_mb";
  ]

let per_layer_names =
  let ns_words n = [ n ^ ".ns"; n ^ ".words" ] in
  ns_words "moves.propose"
  @ [ "moves.propose.not_performed_ratio" ]
  @ ns_words "solution.undo" @ ns_words "solution.snapshot"
  @ ns_words "solution.makespan"
  @ [
      "annealer.self_ns_per_iter"; "longest_path.nodes_per_refresh";
      "searchgraph.pairs_per_move"; "searchgraph.comm_patched_per_move";
      "solution.edges_per_move"; "searchgraph.pair_regens"; "trace.overhead_ratio";
    ]
  @ List.concat_map
      (fun (k, _) ->
        let n = "moves." ^ k in
        ns_words n @ [ n ^ ".performed_ratio" ])
      Sa.kinds
  @ ns_words "longest_path.refresh" @ ns_words "longest_path.recompute"
  @ ns_words "searchgraph.evaluate"
  @ List.map (fun e -> Printf.sprintf "engine.%s.evals_per_s" e) Engines.names
  @ ns_words "solution.random" @ ns_words "solution.encode"
  @ ns_words "solution.decode" @ ns_words "solution.copy"
  @ [ "parallel.efficiency" ]
  @ [
      "spool.enqueue.us"; "spool.claim.us"; "spool.finish_fenced.us";
      "job.of_json.us"; "lease.refresh.us"; "fsck.run.ms";
      "daemon.overhead_ms_per_job";
    ]

type run = {
  workload : string;
  params : Workloads.params;
  outcome : Workloads.outcome;
  checks : Checks.t;
  spans : Spans.t;
}

let execute workload (params : Workloads.params) =
  let f = List.assoc workload Workloads.all in
  let checks = Checks.create () and spans = Spans.create () in
  Workloads.heap_samples := [];
  let outcome = f params checks spans in
  List.iter
    (fun m ->
      Checks.check checks "metric-finite" (Float.is_finite m.value) (fun () ->
          Printf.sprintf "%s = %g" m.name m.value))
    outcome.Workloads.metrics;
  { workload; params; outcome; checks; spans }

let correct r = Checks.ok r.checks

let failed_ratio o =
  float_of_int o.Workloads.failed /. float_of_int (max 1 o.Workloads.attempted)

let result_json r ~span_file =
  let o = r.outcome and p = r.params in
  let open Json in
  Obj
    ([
       ("workload", Str r.workload);
       ("seed", num_int p.Workloads.seed);
       ("seconds", num p.Workloads.seconds);
       ("trace", Bool p.Workloads.trace);
       ("smoke", Bool p.Workloads.smoke);
       ( "host",
         Obj
           [
             ("nproc", num_int (nproc ()));
             ("ocaml", Str Sys.ocaml_version);
             ("os_type", Str Sys.os_type);
             ("word_size", num_int Sys.word_size);
           ] );
       ("commit", Str (commit ()));
       ("correct", Bool (correct r));
       ("attempted", num_int o.Workloads.attempted);
       ("failed", num_int o.Workloads.failed);
       ("failed_ratio", num (failed_ratio o));
       ("checks_passed", num_int r.checks.Checks.passed);
       ( "check_failures",
         Arr
           (List.map
              (fun (name, detail) -> Obj [ ("check", Str name); ("detail", Str detail) ])
              (Checks.failures r.checks)) );
       ("metrics", metrics_json o.Workloads.metrics);
     ]
    @ o.Workloads.notes
    @
    if p.Workloads.trace then
      [ ("span_file", Str span_file); ("layers", Spans.layers_json r.spans) ]
    else [])

let report r =
  let p = r.params and o = r.outcome in
  let stem =
    Printf.sprintf "%s-seed%d-trace%d" r.workload p.Workloads.seed
      (if p.Workloads.trace then 1 else 0)
  in
  let span_file = Filename.concat p.Workloads.out (stem ^ ".spans.jsonl") in
  let result_file = Filename.concat p.Workloads.out (stem ^ ".json") in
  write_file result_file (Json.to_string (result_json r ~span_file) ^ "\n");
  if p.Workloads.trace then
    Spans.write r.spans span_file
      (Json.obj [ ("workload", Json.Str r.workload); ("seed", Json.num_int p.Workloads.seed) ]);
  Printf.printf "workload %s  seed %d  seconds %g  trace %b  nproc %d  ocaml %s\n"
    r.workload p.Workloads.seed p.Workloads.seconds p.Workloads.trace (nproc ())
    Sys.ocaml_version;
  List.iter
    (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.name m.value m.unit_)
    o.Workloads.metrics;
  Printf.printf "  %-40s %16.6g ratio (%d of %d operations)\n" "failed_ratio"
    (failed_ratio o) o.Workloads.failed o.Workloads.attempted;
  if p.Workloads.trace then begin
    Printf.printf "  self time by layer (ms):\n";
    List.iter
      (fun l ->
        Printf.printf "    %-38s %12.3f self %12.3f total %10d calls\n" l.Spans.layer
          l.Spans.self_ms l.Spans.total_ms l.Spans.calls)
      (Spans.layers r.spans)
  end;
  Printf.printf "  checks: %d passed, %d failed\n" r.checks.Checks.passed
    (List.length (Checks.failures r.checks));
  List.iter
    (fun (name, detail) -> Printf.printf "  CHECK FAILED %s: %s\n" name detail)
    (Checks.failures r.checks);
  Printf.printf "  result file %s\n" result_file;
  Printf.printf "%s\n%!"
    (Json.obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.num_int o.Workloads.attempted);
         ("failed", Json.num_int o.Workloads.failed);
         ("metrics", metrics_json o.Workloads.metrics);
       ])

(* ---- smoke ------------------------------------------------------- *)

(* Every workload, untraced and traced, at tiny sizes through the same
   code: every metric is emitted, finite and carries its unit, and every
   check passes.  Then each deliberate corruption must trip its
   check. *)
let smoke out =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let params trace =
    { Workloads.seed = 3; seconds = 0.05; trace; smoke = true; out }
  in
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun trace ->
          let r = execute workload (params trace) in
          let expected = if trace then per_layer_names else end_to_end_names in
          let got = List.map (fun m -> m.name) r.outcome.Workloads.metrics in
          if List.sort compare got <> List.sort compare expected then
            fail "%s trace=%b: metric names differ from the declared set" workload trace;
          List.iter
            (fun m ->
              if not (Float.is_finite m.value) then
                fail "%s trace=%b: %s is not finite" workload trace m.name;
              if m.unit_ = "" then fail "%s trace=%b: %s has no unit" workload trace m.name)
            r.outcome.Workloads.metrics;
          List.iter
            (fun (c, d) -> fail "%s trace=%b: check %s failed: %s" workload trace c d)
            (Checks.failures r.checks);
          if r.outcome.Workloads.attempted < 1 then
            fail "%s trace=%b: no operation attempted" workload trace)
        [ false; true ])
    Workloads.all;
  List.iter
    (fun (kind, workload, trace, expected) ->
      Checks.corrupt := Some kind;
      let r = execute workload (params trace) in
      Checks.corrupt := None;
      if not (List.mem_assoc expected (Checks.failures r.checks)) then
        fail "corrupting %s on %s did not trip check %s" kind workload expected)
    [
      ("cost", "md28_sa", false, "fresh-eval");
      ("schedule", "engines_mix", false, "validate");
      ("trace", "g512_sa", true, "trace-bit-identical");
      ("spool", "spool_drain", false, "exactly-one-outcome");
    ];
  rm_rf out;
  match List.rev !problems with
  | [] ->
    print_endline "smoke OK";
    exit 0
  | ps ->
    List.iter (fun s -> prerr_endline ("smoke: " ^ s)) ps;
    exit 1

(* ---- command line ------------------------------------------------ *)

let () =
  Repro_util.Log.set_level Repro_util.Log.Warn;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0
  and out = ref "dsebench/_out" and smoke_mode = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  one of the workloads");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  untraced end-to-end run, or traced per-layer run");
      ("--out", Arg.Set_string out, "DIR  result and scratch directory");
      ("--smoke", Arg.Set smoke_mode, " run the benchmark's self-test");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke_mode then smoke (Filename.concat !out "smoke")
  else if not (List.mem_assoc !workload Workloads.all) then begin
    Printf.eprintf "unknown workload %S; one of: %s\n" !workload
      (String.concat ", " (List.map fst Workloads.all));
    exit 2
  end
  else if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end
  else begin
    let params =
      { Workloads.seed = !seed; seconds = !seconds; trace = !trace = 1; smoke = false; out = !out }
    in
    let r = execute !workload params in
    report r;
    exit (if correct r then 0 else 1)
  end
