(* Deterministic fault injection: armed faults fire at exactly the
   chosen points, the domain pool survives a worker death (all domains
   joined, first exception propagated, no deadlock), and supervised
   retries absorb transient faults. *)

module Fault = Repro_util.Fault
module Parallel = Repro_util.Parallel
module Md = Repro_workloads.Motion_detection
module Explorer = Repro_dse.Explorer
module Annealer = Repro_anneal.Annealer

let with_faults f = Fun.protect ~finally:Fault.disarm f

let injected site index =
  Fault.Injected (Printf.sprintf "injected fault at %s:%d" site index)

let test_disarmed_is_silent () =
  Fault.disarm ();
  Alcotest.(check bool) "not armed" false (Fault.armed ());
  Fault.check Fault.Worker 5;
  Fault.tick_eval ();
  Alcotest.(check bool) "still not armed" false (Fault.armed ())

let test_worker_fault_propagates_pool_survives () =
  with_faults @@ fun () ->
  Fault.arm_point ~site:Fault.Worker ~index:5 ~transient:false;
  Alcotest.check_raises "worker 5 dies" (injected "worker" 5) (fun () ->
      ignore (Parallel.map ~jobs:4 32 (fun i -> i * i)));
  (* The pool joined all its domains and is reusable: the next map on
     the healed plan must complete normally — a deadlock here hangs the
     test suite, which is the regression this guards against. *)
  Fault.disarm ();
  Alcotest.(check (array int)) "pool reusable" (Array.init 32 (fun i -> i * i))
    (Parallel.map ~jobs:4 32 (fun i -> i * i))

let test_worker_fault_sequential () =
  with_faults @@ fun () ->
  Fault.arm_point ~site:Fault.Worker ~index:2 ~transient:false;
  Alcotest.check_raises "jobs=1 too" (injected "worker" 2) (fun () ->
      ignore (Parallel.map ~jobs:1 8 Fun.id))

(* The values of a supervised map in which every item completed. *)
let done_values outcomes =
  Array.map
    (fun o ->
      match o with
      | Parallel.Done v -> v
      | _ ->
        Alcotest.failf "item resolved to %s, not done"
          (Parallel.outcome_name o))
    outcomes

let test_retry_absorbs_transient () =
  with_faults @@ fun () ->
  Fault.arm_point ~site:Fault.Worker ~index:3 ~transient:true;
  let result =
    Parallel.map_outcomes ~jobs:4 ~retries:2 16 (fun i ~stop:_ -> i + 100)
  in
  Alcotest.(check (array int)) "recovered" (Array.init 16 (fun i -> i + 100))
    (done_values result);
  Alcotest.(check bool) "transient point healed" false (Fault.armed ())

let test_retry_exhausts_on_persistent () =
  with_faults @@ fun () ->
  Fault.arm_point ~site:Fault.Worker ~index:2 ~transient:false;
  let result = Parallel.map_outcomes ~jobs:2 ~retries:3 8 (fun i ~stop:_ -> i) in
  Array.iteri
    (fun i o ->
      match o with
      | Parallel.Failed { error; attempts; _ } when i = 2 ->
        Alcotest.(check string) "persistent fault wins"
          (Printexc.to_string (injected "worker" 2))
          error;
        Alcotest.(check int) "every attempt spent" 4 attempts
      | Parallel.Done v when i <> 2 -> Alcotest.(check int) "healthy item" i v
      | o ->
        Alcotest.failf "item %d resolved to %s" i (Parallel.outcome_name o))
    result

let test_eval_site_counts_evaluations () =
  with_faults @@ fun () ->
  Fault.arm_point ~site:Fault.Eval ~index:2 ~transient:false;
  (* Ticks 0 and 1 pass, tick 2 fires. *)
  Fault.tick_eval ();
  Fault.tick_eval ();
  Alcotest.check_raises "third evaluation dies" (injected "eval" 2)
    Fault.tick_eval

let test_eval_fault_reaches_explorer () =
  with_faults @@ fun () ->
  (* Solution evaluations tick the Eval site, so an armed point aborts
     an exploration deep inside the annealing loop. *)
  Fault.arm_point ~site:Fault.Eval ~index:40 ~transient:false;
  let cfg =
    let base = Explorer.default_config ~seed:2 () in
    {
      base with
      Explorer.anneal =
        { base.Explorer.anneal with Annealer.iterations = 500;
          warmup_iterations = 100 };
    }
  in
  match Explorer.explore cfg (Md.app ()) (Md.platform ~n_clb:2000 ()) with
  | _ -> Alcotest.fail "armed eval fault did not fire"
  | exception Fault.Injected _ -> ()

let test_spec_parsing () =
  with_faults @@ fun () ->
  Fault.arm "worker:3, eval:120:transient";
  Alcotest.(check bool) "armed" true (Fault.armed ());
  Alcotest.check_raises "worker point live" (injected "worker" 3) (fun () ->
      Fault.check Fault.Worker 3);
  Fault.disarm ();
  (match Fault.arm "nonsense" with
   | () -> Alcotest.fail "malformed spec accepted"
   | exception Invalid_argument _ -> ());
  match Fault.arm_point ~site:Fault.Worker ~index:(-1) ~transient:false with
  | () -> Alcotest.fail "negative index accepted"
  | exception Invalid_argument _ -> ()

let test_retry_attempt_count () =
  (* Exhaustion is exact: a persistently failing item runs retries + 1
     times, healthy items exactly once. *)
  let attempts = Array.init 8 (fun _ -> Atomic.make 0) in
  let body i ~stop:_ =
    Atomic.incr attempts.(i);
    if i = 2 then failwith "persistent" else i
  in
  (match (Parallel.map_outcomes ~jobs:2 ~retries:3 8 body).(2) with
   | Parallel.Failed { attempts = n; _ } ->
     Alcotest.(check int) "reported attempts" 4 n
   | o -> Alcotest.failf "persistent failure resolved to %s"
            (Parallel.outcome_name o));
  Alcotest.(check int) "failing item ran retries+1 times" 4
    (Atomic.get attempts.(2));
  Array.iteri
    (fun i a ->
      if i <> 2 then
        Alcotest.(check int) (Printf.sprintf "item %d ran once" i) 1
          (Atomic.get a))
    attempts

let test_retries_do_not_perturb_rng_streams () =
  with_faults @@ fun () ->
  (* Each item derives its randomness from its own index, so a retried
     item replays the same draws: the healed run must be bit-identical
     to a run that never faulted. *)
  let body i =
    let rng = Repro_util.Rng.create (500 + i) in
    (Repro_util.Rng.float rng 1.0, Repro_util.Rng.int rng 1_000_000)
  in
  Fault.disarm ();
  let clean = Parallel.map ~jobs:4 32 body in
  Fault.arm_point ~site:Fault.Worker ~index:3 ~transient:true;
  let retried =
    Parallel.map_outcomes ~jobs:4 ~retries:2 32 (fun i ~stop:_ -> body i)
  in
  Alcotest.(check bool) "retried map bit-identical" true
    (clean = done_values retried);
  (* Same contract with backoff pacing: the jitter draws come from a
     separate per-index stream, never from the body's. *)
  Fault.arm_point ~site:Fault.Worker ~index:7 ~transient:true;
  let policy =
    { Repro_util.Backoff.base = 1e-6; factor = 2.0; max_delay = 1e-5;
      jitter = 0.5 }
  in
  let supervised =
    Parallel.map_outcomes ~jobs:4 ~retries:2 ~backoff:policy 32
      (fun i ~stop:_ -> body i)
  in
  Alcotest.(check bool) "backoff map bit-identical" true
    (clean = done_values supervised)

let test_spec_error_fixtures () =
  (* Malformed $REPRO_FAULTS entries produce one-line messages naming
     the offending entry — fixture-style exact assertions. *)
  List.iter
    (fun (spec, message) ->
      Alcotest.check_raises spec (Invalid_argument message) (fun () ->
          Fault.arm spec))
    [
      ( "bogus:3",
        "Fault.arm: bad fault point \"bogus:3\": unknown site \"bogus\" \
         (want eval|worker|job|lease|fsck)" );
      ( "worker:-2",
        "Fault.arm: bad fault point \"worker:-2\": negative index -2" );
      ( "worker:soon",
        "Fault.arm: bad fault point \"worker:soon\": bad index \"soon\" \
         (want a non-negative integer)" );
      ( "worker:1:often",
        "Fault.arm: bad fault point \"worker:1:often\": unknown flag \
         \"often\" (want transient)" );
      ( "worker",
        "Fault.arm: bad fault point \"worker\": want site:index[:transient]" );
      ( "worker:1,",
        "Fault.arm: empty fault point in \"worker:1,\" (stray comma?)" );
      ( "eval:1,,worker:2",
        "Fault.arm: empty fault point in \"eval:1,,worker:2\" (stray \
         comma?)" );
    ];
  (* A malformed tail entry must not leave the head armed as a side
     effect... the whole spec is rejected before any point arms. *)
  Fault.disarm ();
  (match Fault.arm "worker:1, bogus:2" with
   | () -> Alcotest.fail "malformed spec accepted"
   | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "nothing armed by a rejected spec" false
    (Fault.armed ())

let test_many_jobs_no_deadlock () =
  with_faults @@ fun () ->
  (* Several armed points, a wide pool and repeated rounds: every round
     must terminate with the first failure propagated. *)
  for round = 0 to 3 do
    Fault.disarm ();
    Fault.arm_point ~site:Fault.Worker ~index:(10 + round) ~transient:false;
    match Parallel.map ~jobs:8 64 Fun.id with
    | _ -> Alcotest.fail "fault did not fire"
    | exception Fault.Injected _ -> ()
  done

let suite =
  [
    Alcotest.test_case "disarmed probes are silent" `Quick
      test_disarmed_is_silent;
    Alcotest.test_case "worker fault propagates, pool survives" `Quick
      test_worker_fault_propagates_pool_survives;
    Alcotest.test_case "worker fault at jobs=1" `Quick
      test_worker_fault_sequential;
    Alcotest.test_case "retry absorbs a transient fault" `Quick
      test_retry_absorbs_transient;
    Alcotest.test_case "retry exhausts on persistent fault" `Quick
      test_retry_exhausts_on_persistent;
    Alcotest.test_case "retry attempt count is exact" `Quick
      test_retry_attempt_count;
    Alcotest.test_case "retries never perturb rng streams" `Quick
      test_retries_do_not_perturb_rng_streams;
    Alcotest.test_case "spec error fixtures" `Quick test_spec_error_fixtures;
    Alcotest.test_case "eval site counts evaluations" `Quick
      test_eval_site_counts_evaluations;
    Alcotest.test_case "eval fault reaches the explorer" `Quick
      test_eval_fault_reaches_explorer;
    Alcotest.test_case "fault spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "repeated faults never deadlock the pool" `Quick
      test_many_jobs_no_deadlock;
  ]
