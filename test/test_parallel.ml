(* The domain pool: ordered collection, per-index seeding, exception
   propagation, and the end-to-end determinism contract of
   Explorer.explore_restarts_supervised (jobs=1 and jobs=4 must agree
   bitwise). *)

module Parallel = Repro_util.Parallel
module Rng = Repro_util.Rng
module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Trace = Repro_dse.Trace
module Annealer = Repro_anneal.Annealer

let test_map_matches_sequential () =
  let f i = (i * i) + 1 in
  let expected = Array.init 100 f in
  Alcotest.(check (array int)) "jobs 1" expected (Parallel.map ~jobs:1 100 f);
  Alcotest.(check (array int)) "jobs 4" expected (Parallel.map ~jobs:4 100 f);
  Alcotest.(check (array int)) "more jobs than items" (Array.init 3 f)
    (Parallel.map ~jobs:16 3 f)

let test_map_empty () =
  Alcotest.(check (array int)) "empty" [||]
    (Parallel.map ~jobs:4 0 (fun i -> i))

let test_per_index_rng () =
  (* Seeds derived from the item index, never from scheduling order. *)
  let f i =
    let rng = Rng.create (1_000 + i) in
    Rng.float rng 1.0
  in
  let sequential = Parallel.map ~jobs:1 64 f in
  let parallel = Parallel.map ~jobs:4 64 f in
  Alcotest.(check (array (float 0.0))) "identical streams" sequential parallel

let test_exception_propagates () =
  Alcotest.check_raises "worker failure resurfaces" (Failure "boom")
    (fun () ->
      ignore (Parallel.map ~jobs:4 32 (fun i -> if i = 17 then failwith "boom" else i)))

let test_invalid_jobs () =
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Parallel: jobs < 1")
    (fun () -> ignore (Parallel.map ~jobs:0 4 (fun i -> i)))

let test_lowest_index_failure_wins () =
  (* Two items fail; whatever the scheduling, the re-raised exception
     is the lowest-index one — items are claimed in index order, so
     index 9 has always started (and recorded its failure) by the time
     index 17 runs. *)
  let f i =
    if i = 9 then failwith "low" else if i = 17 then failwith "high" else i
  in
  for _round = 1 to 20 do
    Alcotest.check_raises "lowest index deterministically" (Failure "low")
      (fun () -> ignore (Parallel.map ~jobs:4 32 f))
  done;
  Alcotest.check_raises "jobs=1 agrees" (Failure "low") (fun () ->
      ignore (Parallel.map ~jobs:1 32 f))

let test_lowest_index_with_armed_faults () =
  let module Fault = Repro_util.Fault in
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  (* Same contract with two armed worker faults under jobs=4: the
     injected exception of index 9 wins over index 17's. *)
  Fault.arm "worker:9, worker:17";
  for _round = 1 to 10 do
    match Parallel.map ~jobs:4 32 Fun.id with
    | _ -> Alcotest.fail "armed faults did not fire"
    | exception Fault.Injected msg ->
      Alcotest.(check string) "lower armed point wins"
        "injected fault at worker:9" msg
  done

let test_map_outcomes_classification () =
  let module Fault = Repro_util.Fault in
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  (* One faulted item: its slot is Failed, every other item is Done —
     the supervised pool never aborts. *)
  Fault.arm_point ~site:Fault.Worker ~index:5 ~transient:false;
  let outcomes = Parallel.map_outcomes ~jobs:4 16 (fun i ~stop:_ -> i * 2) in
  Array.iteri
    (fun i outcome ->
      match (i, outcome) with
      | 5, Parallel.Failed { attempts; _ } ->
        Alcotest.(check int) "single attempt" 1 attempts
      | 5, _ -> Alcotest.fail "faulted item not Failed"
      | i, Parallel.Done v ->
        Alcotest.(check int) (Printf.sprintf "item %d done" i) (i * 2) v
      | _, _ -> Alcotest.fail "healthy item not Done")
    outcomes;
  Alcotest.(check (option int)) "outcome_value of Failed" None
    (Parallel.outcome_value outcomes.(5));
  Alcotest.(check string) "outcome_name" "failed"
    (Parallel.outcome_name outcomes.(5))

let test_map_outcomes_retry_absorbs_transient () =
  let module Fault = Repro_util.Fault in
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  Fault.arm_point ~site:Fault.Worker ~index:3 ~transient:true;
  let outcomes =
    Parallel.map_outcomes ~jobs:2 ~retries:1 8 (fun i ~stop:_ -> i)
  in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Parallel.Done v ->
        Alcotest.(check int) (Printf.sprintf "item %d" i) i v
      | _ -> Alcotest.fail "transient fault not absorbed")
    outcomes

let test_map_outcomes_skips_on_stop () =
  (* A latched stop before the run starts: every slot resolves to
     Skipped, nothing runs, nothing hangs. *)
  let outcomes =
    Parallel.map_outcomes ~jobs:2 ~should_stop:(fun () -> true) 6
      (fun _ ~stop:_ -> Alcotest.fail "body ran despite the stop")
  in
  Array.iter
    (fun outcome ->
      Alcotest.(check string) "skipped" "skipped"
        (Parallel.outcome_name outcome))
    outcomes

let test_map_outcomes_timeout_salvages () =
  (* A cooperative body under an already-expired deadline returns its
     best-so-far; the slot must classify as Timed_out (Some _), never
     lose the value. *)
  let outcomes =
    Parallel.map_outcomes ~jobs:2 ~timeout:0.000001 4
      (fun i ~stop ->
        (* Spin until the per-item deadline trips the probe, like the
           annealer polling at iteration boundaries. *)
        while not (stop ()) do ignore (Sys.opaque_identity i) done;
        i + 100)
  in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Parallel.Timed_out (Some v) ->
        Alcotest.(check int) (Printf.sprintf "item %d salvaged" i) (i + 100) v
      | _ ->
        Alcotest.fail
          (Printf.sprintf "item %d: expected Timed_out (Some _), got %s" i
             (Parallel.outcome_name outcome)))
    outcomes

let test_map_outcomes_validates () =
  (match Parallel.map_outcomes ~retries:(-1) 2 (fun i ~stop:_ -> i) with
   | _ -> Alcotest.fail "negative retries accepted"
   | exception Invalid_argument _ -> ());
  match Parallel.map_outcomes ~timeout:(-1.0) 2 (fun i ~stop:_ -> i) with
  | _ -> Alcotest.fail "negative timeout accepted"
  | exception Invalid_argument _ -> ()

let small_config ~seed =
  let base = Explorer.default_config ~seed () in
  {
    base with
    Explorer.anneal =
      { base.Explorer.anneal with Annealer.iterations = 800;
        warmup_iterations = 200 };
  }

let test_restarts_deterministic () =
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let run jobs =
    let trace = Trace.create () in
    let report =
      Explorer.explore_restarts_supervised ~trace ~jobs ~restarts:3
        (small_config ~seed:5) app platform
    in
    match report.Explorer.best_result with
    | Some best when report.Explorer.degraded = 0 ->
      (best, report.Explorer.restart_costs, Trace.entries trace)
    | Some _ | None -> Alcotest.failf "jobs=%d: a restart was lost" jobs
  in
  let best1, costs1, trace1 = run 1 in
  let best4, costs4, trace4 = run 4 in
  Alcotest.(check (list (pair int (float 0.0)))) "per-chain costs identical"
    costs1 costs4;
  Alcotest.(check (float 0.0)) "winner cost identical"
    best1.Explorer.best_cost best4.Explorer.best_cost;
  Alcotest.(check string) "winning solution identical"
    (Format.asprintf "%a" Solution.pp best1.Explorer.best)
    (Format.asprintf "%a" Solution.pp best4.Explorer.best);
  Alcotest.(check bool) "trace identical" true (trace1 = trace4);
  Alcotest.(check bool) "trace not empty" true (trace1 <> [])

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "map on empty range" `Quick test_map_empty;
    Alcotest.test_case "per-index rng streams" `Quick test_per_index_rng;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "invalid jobs rejected" `Quick test_invalid_jobs;
    Alcotest.test_case "lowest-index failure wins" `Quick
      test_lowest_index_failure_wins;
    Alcotest.test_case "lowest-index wins with armed faults" `Quick
      test_lowest_index_with_armed_faults;
    Alcotest.test_case "map_outcomes isolates a failure" `Quick
      test_map_outcomes_classification;
    Alcotest.test_case "map_outcomes retry absorbs a transient" `Quick
      test_map_outcomes_retry_absorbs_transient;
    Alcotest.test_case "map_outcomes skips on latched stop" `Quick
      test_map_outcomes_skips_on_stop;
    Alcotest.test_case "map_outcomes timeout salvages best-so-far" `Quick
      test_map_outcomes_timeout_salvages;
    Alcotest.test_case "map_outcomes validates inputs" `Quick
      test_map_outcomes_validates;
    Alcotest.test_case "explore_restarts jobs-invariant" `Quick
      test_restarts_deterministic;
  ]
