(* The job-queue subsystem: Json_lite round-trips and parse errors,
   job-file parsing (poison detection), the spool's atomic claim /
   finish / quarantine / recover protocol, and the daemon's drain loop
   with timeouts and the crash drill around an armed job fault. *)

module Json = Repro_util.Json_lite
module Fault = Repro_util.Fault
module Log = Repro_util.Log
module Atomic_io = Repro_util.Atomic_io
module Job = Repro_serve.Job
module Run_spec = Repro_dse.Run_spec
module Spool = Repro_serve.Spool
module Daemon = Repro_serve.Daemon
module Lease = Repro_serve.Lease

let () = Log.set_level Log.Error

let with_spool f =
  let root = Filename.temp_dir "repro_spool" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f (Spool.create root))

let enqueue spool name text =
  Atomic_io.write_string (Spool.job_path spool name) text

(* A short lease ttl: the crash drills below simulate a dead daemon
   inside this live test process, so the dead-pid shortcut never
   applies — staleness has to come from ttl expiry. *)
let quiet_config =
  {
    Daemon.default_config with
    Daemon.once = true;
    retries = 0;
    backoff = None;
    poll_interval = 0.01;
    lease_ttl = 0.05;
  }

let tiny_job ?(seed = 2) () =
  Printf.sprintf
    "{\"app\": \"motion_detection\", \"iters\": 150, \"warmup\": 50, \
     \"seed\": %d}"
    seed

(* ---- Json_lite ---------------------------------------------------- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 1.5);
        ("i", Json.num_int 42);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.num_int 1; Json.Str "x"; Json.Bool false ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = v)
  | Error msg -> Alcotest.fail msg

let test_json_errors_are_one_line () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" text)
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "one line for %S" text)
          false
          (String.contains msg '\n'))
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "12extra"; "" ]

(* ---- Job ---------------------------------------------------------- *)

let test_job_defaults () =
  match Job.of_json ~name:"j1" "{\"app\": \"motion_detection\"}" with
  | Error msg -> Alcotest.fail msg
  | Ok job ->
    let spec = job.Job.spec in
    Alcotest.(check int) "clbs" 2000 spec.Run_spec.clbs;
    Alcotest.(check int) "iters" 20_000 spec.Run_spec.iters;
    Alcotest.(check int) "restarts" 1 spec.Run_spec.restarts;
    Alcotest.(check bool) "no timeout" true (job.Job.timeout = None);
    (* Round-trip through to_json. *)
    (match Job.of_json ~name:"j1" (Job.to_json job) with
     | Ok again -> Alcotest.(check bool) "re-parses equal" true (again = job)
     | Error msg -> Alcotest.fail msg)

let test_job_poison_messages () =
  let expect_error text fragment =
    match Job.of_json ~name:"p" text with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" text)
    | Error msg ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S names the problem" fragment)
        true (contains msg fragment);
      Alcotest.(check bool) "one line" false (String.contains msg '\n')
  in
  expect_error "{\"app\": \"md\", \"bogus\": 1}" "unknown job field \"bogus\"";
  expect_error "{\"app\": \"a\", \"app_file\": \"b\"}" "both";
  expect_error "{}" "neither";
  expect_error "{\"app\": \"md\", \"iters\": \"many\"}" "wants an integer";
  expect_error "{\"app\": \"md\", \"restarts\": 0}" "restarts >= 1";
  expect_error "{\"app\": \"md\", \"timeout\": -1}" "positive seconds";
  expect_error "not json at all" ""

(* ---- Spool -------------------------------------------------------- *)

let test_spool_claim_and_finish () =
  with_spool @@ fun spool ->
  enqueue spool "a.json" "{}";
  enqueue spool "b.json" "{}";
  Alcotest.(check (list string)) "sorted queue" [ "a.json"; "b.json" ]
    (Spool.pending spool);
  Alcotest.(check bool) "claim wins" true (Spool.claim spool "a.json");
  Alcotest.(check bool) "second claim loses" false (Spool.claim spool "a.json");
  Alcotest.(check (list string)) "claimed visible" [ "a.json" ]
    (Spool.in_work spool);
  Spool.finish spool "a.json" ~result_json:"{\"ok\": true}";
  Alcotest.(check bool) "result filed" true
    (Sys.file_exists (Spool.result_path spool "a.json"));
  Alcotest.(check (list string)) "claim gone" [] (Spool.in_work spool);
  Alcotest.(check int) "one job left" 1 (Spool.queue_depth spool)

let test_spool_quarantine () =
  with_spool @@ fun spool ->
  enqueue spool "bad.json" "nonsense";
  Alcotest.(check bool) "claimed" true (Spool.claim spool "bad.json");
  Spool.quarantine spool "bad.json" ~reason:"does not parse";
  Alcotest.(check bool) "job preserved in failed/" true
    (Sys.file_exists (Spool.failed_path spool "bad.json"));
  match Atomic_io.read_file (Spool.failed_path spool "bad.reason.json") with
  | Error msg -> Alcotest.fail msg
  | Ok text ->
    (match Json.parse_obj text with
     | Error msg -> Alcotest.fail msg
     | Ok fields ->
       Alcotest.(check (option string)) "reason recorded"
         (Some "does not parse")
         (Json.str_field fields "reason"))

let test_spool_recover () =
  with_spool @@ fun spool ->
  (* One claim finished its result but lost the cleanup; one was
     interrupted mid-run with a checkpoint on disk. *)
  enqueue spool "done.json" "{}";
  enqueue spool "cut.json" "{}";
  Alcotest.(check bool) "claim done" true (Spool.claim spool "done.json");
  Alcotest.(check bool) "claim cut" true (Spool.claim spool "cut.json");
  Atomic_io.write_string (Spool.result_path spool "done.json") "{}\n";
  Atomic_io.write_string (Spool.checkpoint_path spool "cut.json") "ckpt";
  let requeued = Spool.recover spool in
  Alcotest.(check (list string)) "interrupted job re-queued" [ "cut.json" ]
    requeued;
  Alcotest.(check (list string)) "back in the queue" [ "cut.json" ]
    (Spool.pending spool);
  Alcotest.(check (list string)) "work/ swept of claims" []
    (Spool.in_work spool);
  Alcotest.(check bool) "checkpoint survives for the resume" true
    (Sys.file_exists (Spool.checkpoint_path spool "cut.json"))

(* ---- Daemon ------------------------------------------------------- *)

let read_result spool name =
  match Atomic_io.read_file (Spool.result_path spool name) with
  | Error msg -> Alcotest.fail msg
  | Ok text -> (
    match Json.parse_obj text with
    | Error msg -> Alcotest.fail msg
    | Ok fields -> fields)

let test_daemon_drains_and_quarantines () =
  with_spool @@ fun spool ->
  enqueue spool "good1.json" (tiny_job ~seed:3 ());
  enqueue spool "good2.json" (tiny_job ~seed:4 ());
  enqueue spool "poison.json" "{\"app\": \"motion_detection\", \"bogus\": 1}";
  let outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check string) "drained" "drained" (Daemon.outcome_name outcome);
  Alcotest.(check int) "three claimed" 3 stats.Daemon.claimed;
  Alcotest.(check int) "two completed" 2 stats.Daemon.completed;
  Alcotest.(check int) "one quarantined" 1 stats.Daemon.quarantined;
  Alcotest.(check (option string)) "good1 complete" (Some "complete")
    (Json.str_field (read_result spool "good1.json") "status");
  Alcotest.(check (option string)) "good2 complete" (Some "complete")
    (Json.str_field (read_result spool "good2.json") "status");
  Alcotest.(check bool) "poison quarantined" true
    (Sys.file_exists (Spool.failed_path spool "poison.json"));
  Alcotest.(check int) "queue empty" 0 (Spool.queue_depth spool);
  Alcotest.(check (list string)) "no stale claims" [] (Spool.in_work spool);
  (* The daemon's lease, its heartbeat, reflects the final state. *)
  match Lease.list ~dir:spool.Spool.daemons_dir with
  | [ (_file, Ok view) ] ->
    Alcotest.(check (option string)) "heartbeat state" (Some "drained")
      (Json.str_field view.Lease.fields "state")
  | [ (_file, Error msg) ] -> Alcotest.fail msg
  | leases ->
    Alcotest.failf "expected one daemon lease, found %d" (List.length leases)

let test_daemon_timeout_salvages_best_so_far () =
  with_spool @@ fun spool ->
  (* An oversized budget with a tiny wall-clock timeout: the deadline
     reaches the annealer as its stop probe, so the job files a
     timed-out result carrying best-so-far instead of hanging. *)
  enqueue spool "big.json"
    "{\"app\": \"motion_detection\", \"iters\": 50000000, \
     \"timeout\": 0.05}";
  let outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check string) "drained" "drained" (Daemon.outcome_name outcome);
  Alcotest.(check int) "counted as timed out" 1 stats.Daemon.timed_out;
  let fields = read_result spool "big.json" in
  Alcotest.(check (option string)) "status timed-out" (Some "timed-out")
    (Json.str_field fields "status");
  match Json.num_field fields "best_cost" with
  | Some cost -> Alcotest.(check bool) "best-so-far is finite" true
                   (Float.is_finite cost && cost > 0.0)
  | None -> Alcotest.fail "timed-out result lost its best_cost"

let test_daemon_multi_restart_statuses () =
  with_spool @@ fun spool ->
  enqueue spool "multi.json"
    "{\"app\": \"motion_detection\", \"iters\": 150, \"warmup\": 50, \
     \"restarts\": 3}";
  let _outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check int) "completed" 1 stats.Daemon.completed;
  let fields = read_result spool "multi.json" in
  Alcotest.(check (option string)) "complete" (Some "complete")
    (Json.str_field fields "status");
  match Json.find fields "restart_statuses" with
  | Some (Json.Arr statuses) ->
    Alcotest.(check int) "one status per restart" 3 (List.length statuses);
    List.iter
      (fun s ->
        Alcotest.(check (option string)) "all done" (Some "done")
          (Json.get_str s))
      statuses
  | _ -> Alcotest.fail "multi-restart result lists no restart statuses"

let test_daemon_crash_drill_loses_nothing () =
  with_spool @@ fun spool ->
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  enqueue spool "a.json" (tiny_job ~seed:5 ());
  enqueue spool "b.json" (tiny_job ~seed:6 ());
  enqueue spool "c.json" (tiny_job ~seed:7 ());
  (* The armed job point kills the daemon right after it claims its
     second job — claimed but unprocessed, the worst-case window. *)
  Fault.arm_point ~site:Fault.Job ~index:1 ~transient:false;
  (match Daemon.run quiet_config spool with
   | _ -> Alcotest.fail "armed job fault did not fire"
   | exception Fault.Injected _ -> ());
  Alcotest.(check (list string)) "crash left a stale claim" [ "b.json" ]
    (Spool.in_work spool);
  Fault.disarm ();
  (* Wait out the dead daemon's lease ttl (its simulated crash left a
     lease naming this very process, so the pid check says alive), then
     restart: the claim is reclaimed and the queue finishes — every job
     ends in exactly one of results/ or failed/. *)
  Unix.sleepf 0.1;
  let outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check string) "drained after restart" "drained"
    (Daemon.outcome_name outcome);
  Alcotest.(check int) "stale claim recovered" 1 stats.Daemon.recovered;
  List.iter
    (fun name ->
      let filed = Sys.file_exists (Spool.result_path spool name) in
      let failed = Sys.file_exists (Spool.failed_path spool name) in
      Alcotest.(check bool)
        (Printf.sprintf "%s in exactly one outcome dir" name)
        true (filed <> failed))
    [ "a.json"; "b.json"; "c.json" ];
  Alcotest.(check int) "queue empty" 0 (Spool.queue_depth spool);
  Alcotest.(check (list string)) "no stale claims" [] (Spool.in_work spool)

(* ---- engine jobs -------------------------------------------------- *)

let () = Repro_baseline.Engines.register_all ()

let test_job_engine_field () =
  (match Job.of_json ~name:"e" "{\"app\": \"sobel\", \"engine\": \"greedy\"}" with
   | Error msg -> Alcotest.fail msg
   | Ok job ->
     Alcotest.(check (option string)) "engine parsed" (Some "greedy")
       job.Job.spec.Run_spec.engine;
     (match Job.of_json ~name:"e" (Job.to_json job) with
      | Ok again ->
        Alcotest.(check bool) "re-parses equal" true (again = job)
      | Error msg -> Alcotest.fail msg));
  let expect_error text =
    match Job.of_json ~name:"e" text with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" text)
    | Error msg ->
      Alcotest.(check bool) "one line" false (String.contains msg '\n')
  in
  expect_error "{\"app\": \"sobel\", \"engine\": \"\"}";
  expect_error "{\"app\": \"sobel\", \"engine\": 3}";
  expect_error "{\"app\": \"sobel\", \"engine\": \"greedy\", \"serialized\": true}"

let test_daemon_engine_job () =
  with_spool @@ fun spool ->
  enqueue spool "gj.json"
    "{\"app\": \"sobel\", \"engine\": \"greedy\", \"iters\": 300, \"seed\": 4}";
  let _outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check int) "completed" 1 stats.Daemon.completed;
  let fields = read_result spool "gj.json" in
  Alcotest.(check (option string)) "status complete" (Some "complete")
    (Json.str_field fields "status");
  Alcotest.(check (option string)) "engine recorded" (Some "greedy")
    (Json.str_field fields "engine");
  (* The result matches an in-process run of the same engine under the
     same inputs, seed and budget. *)
  let module Engine = Repro_dse.Engine in
  let app = (List.assoc "sobel" Repro_workloads.Suite.named) () in
  let platform = Repro_workloads.Suite.platform_for app in
  let engine =
    match Repro_dse.Engine_registry.find "greedy" with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let o =
    Engine.run engine
      (Engine.context ~app ~platform ~seed:4 ~iterations:300 ())
  in
  (* Result JSON prints floats with the shortest round-tripping
     decimal — the bit-exact state still lives in checkpoints. *)
  match Json.num_field fields "best_cost" with
  | Some cost ->
    Alcotest.(check (float 1e-3)) "same best cost as a direct run"
      o.Engine.best_cost cost
  | None -> Alcotest.fail "engine result lost its best_cost"

let test_daemon_unknown_engine_quarantined () =
  with_spool @@ fun spool ->
  enqueue spool "ue.json" "{\"app\": \"sobel\", \"engine\": \"bogus\"}";
  let _outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check int) "quarantined" 1 stats.Daemon.quarantined;
  Alcotest.(check bool) "job preserved in failed/" true
    (Sys.file_exists (Spool.failed_path spool "ue.json"))

let test_daemon_engine_timeout_resumes_on_retry () =
  with_spool @@ fun spool ->
  (* First pass: a budget far beyond the wall-clock timeout.  The job
     files a timed-out best-so-far result AND keeps its checkpoint in
     work/, which is the retry contract. *)
  enqueue spool "rz.json"
    "{\"app\": \"sobel\", \"engine\": \"greedy\", \"iters\": 5000, \
     \"seed\": 6, \"timeout\": 0.01}";
  let config = { quiet_config with Daemon.checkpoint_every = 25 } in
  let _outcome, stats = Daemon.run config spool in
  Alcotest.(check int) "counted as timed out" 1 stats.Daemon.timed_out;
  Alcotest.(check (option string)) "first pass timed out" (Some "timed-out")
    (Json.str_field (read_result spool "rz.json") "status");
  Alcotest.(check bool) "checkpoint kept for the retry" true
    (Sys.file_exists (Spool.checkpoint_path spool "rz.json"));
  (* Retry: the same job name without the timeout resumes from the
     kept checkpoint and completes with the clean-run outcome. *)
  enqueue spool "rz.json"
    "{\"app\": \"sobel\", \"engine\": \"greedy\", \"iters\": 5000, \
     \"seed\": 6}";
  let _outcome, _stats = Daemon.run config spool in
  let fields = read_result spool "rz.json" in
  Alcotest.(check (option string)) "retry completes" (Some "complete")
    (Json.str_field fields "status");
  Alcotest.(check bool) "checkpoint cleaned up after completion" false
    (Sys.file_exists (Spool.checkpoint_path spool "rz.json"));
  let module Engine = Repro_dse.Engine in
  let app = (List.assoc "sobel" Repro_workloads.Suite.named) () in
  let platform = Repro_workloads.Suite.platform_for app in
  let engine =
    match Repro_dse.Engine_registry.find "greedy" with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let clean =
    Engine.run engine
      (Engine.context ~app ~platform ~seed:6 ~iterations:5000 ())
  in
  (match Json.num_field fields "best_cost" with
   | Some cost ->
     Alcotest.(check (float 1e-3)) "resumed run equals the clean run"
       clean.Engine.best_cost cost
   | None -> Alcotest.fail "retry result lost its best_cost");
  match Json.num_field fields "iterations_run" with
  | Some n ->
    Alcotest.(check (float 0.0)) "full budget accounted across the kill"
      5000.0 n
  | None -> Alcotest.fail "retry result lost its iterations_run"

let test_daemon_engine_multi_restart () =
  with_spool @@ fun spool ->
  enqueue spool "mr.json"
    "{\"app\": \"sobel\", \"engine\": \"hill\", \"iters\": 200, \
     \"restarts\": 2, \"seed\": 3}";
  let _outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check int) "completed" 1 stats.Daemon.completed;
  let fields = read_result spool "mr.json" in
  Alcotest.(check (option string)) "complete" (Some "complete")
    (Json.str_field fields "status");
  Alcotest.(check (option string)) "engine recorded" (Some "hill")
    (Json.str_field fields "engine");
  (match Json.find fields "restart_statuses" with
   | Some (Json.Arr statuses) ->
     Alcotest.(check int) "one status per restart" 2 (List.length statuses)
   | _ -> Alcotest.fail "engine multi-restart result lists no statuses");
  (* Per-restart checkpoints do not outlive a completed job. *)
  Alcotest.(check bool) "restart checkpoints cleaned" false
    (Sys.file_exists (Spool.restart_checkpoint_path spool "mr.json" 0))

let test_daemon_shutdown_mid_multi_restart_requeues () =
  with_spool @@ fun spool ->
  (* A shutdown while the first of two chains runs: the job goes back
     to the queue with chain 0's checkpoint instead of filing the
     partial run as a degraded result. *)
  enqueue spool "mid.json"
    "{\"app\": \"motion_detection\", \"iters\": 400000, \"warmup\": 50, \
     \"restarts\": 2}";
  let should_stop = Repro_util.Clock.deadline ~seconds:0.3 in
  let outcome, stats = Daemon.run ~should_stop quiet_config spool in
  Alcotest.(check string) "interrupted" "interrupted"
    (Daemon.outcome_name outcome);
  Alcotest.(check int) "re-queued" 1 stats.Daemon.requeued;
  Alcotest.(check int) "nothing filed" 0 stats.Daemon.completed;
  Alcotest.(check bool) "no result file" false
    (Sys.file_exists (Spool.result_path spool "mid.json"));
  Alcotest.(check int) "job back in the queue" 1 (Spool.queue_depth spool);
  Alcotest.(check bool) "chain 0 checkpoint kept" true
    (Sys.file_exists (Spool.restart_checkpoint_path spool "mid.json" 0))

let test_daemon_sa_engine_is_native () =
  with_spool @@ fun spool ->
  (* Naming "sa" is the same as naming no engine: the native annealer
     on the job's own warmup and schedule. *)
  let job engine =
    Printf.sprintf
      "{\"app\": \"motion_detection\",%s \"iters\": 3000, \"warmup\": 300, \
       \"seed\": 4}"
      engine
  in
  enqueue spool "native.json" (job "");
  enqueue spool "named.json" (job " \"engine\": \"sa\",");
  let _outcome, stats = Daemon.run quiet_config spool in
  Alcotest.(check int) "both completed" 2 stats.Daemon.completed;
  let native = read_result spool "native.json" in
  let named = read_result spool "named.json" in
  Alcotest.(check (option string)) "same solution CRC"
    (Json.str_field native "solution")
    (Json.str_field named "solution");
  Alcotest.(check (option (float 0.0))) "same best cost"
    (Json.num_field native "best_cost")
    (Json.num_field named "best_cost");
  Alcotest.(check (option string)) "engine recorded" (Some "sa")
    (Json.str_field named "engine")

let test_daemon_shutdown_requeues () =
  with_spool @@ fun spool ->
  enqueue spool "a.json" (tiny_job ());
  let outcome, stats =
    Daemon.run ~should_stop:(fun () -> true) quiet_config spool
  in
  Alcotest.(check string) "interrupted" "interrupted"
    (Daemon.outcome_name outcome);
  Alcotest.(check int) "nothing claimed" 0 stats.Daemon.claimed;
  Alcotest.(check int) "job still queued" 1 (Spool.queue_depth spool)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json errors are one-line" `Quick
      test_json_errors_are_one_line;
    Alcotest.test_case "job defaults and re-encoding" `Quick test_job_defaults;
    Alcotest.test_case "poison jobs name their problem" `Quick
      test_job_poison_messages;
    Alcotest.test_case "spool claim is atomic, finish files results" `Quick
      test_spool_claim_and_finish;
    Alcotest.test_case "quarantine records the reason" `Quick
      test_spool_quarantine;
    Alcotest.test_case "recover distinguishes finished from interrupted"
      `Quick test_spool_recover;
    Alcotest.test_case "daemon drains and quarantines" `Quick
      test_daemon_drains_and_quarantines;
    Alcotest.test_case "per-job timeout salvages best-so-far" `Quick
      test_daemon_timeout_salvages_best_so_far;
    Alcotest.test_case "multi-restart job reports statuses" `Quick
      test_daemon_multi_restart_statuses;
    Alcotest.test_case "crash drill loses no job" `Quick
      test_daemon_crash_drill_loses_nothing;
    Alcotest.test_case "shutdown before claiming re-queues" `Quick
      test_daemon_shutdown_requeues;
    Alcotest.test_case "shutdown mid multi-restart job re-queues" `Quick
      test_daemon_shutdown_mid_multi_restart_requeues;
    Alcotest.test_case "engine sa is the native annealer" `Quick
      test_daemon_sa_engine_is_native;
    Alcotest.test_case "job engine field parses and round-trips" `Quick
      test_job_engine_field;
    Alcotest.test_case "engine job runs through the registry" `Quick
      test_daemon_engine_job;
    Alcotest.test_case "unknown engine is quarantined" `Quick
      test_daemon_unknown_engine_quarantined;
    Alcotest.test_case "timed-out engine job resumes on retry" `Quick
      test_daemon_engine_timeout_resumes_on_retry;
    Alcotest.test_case "engine multi-restart job" `Quick
      test_daemon_engine_multi_restart;
  ]
