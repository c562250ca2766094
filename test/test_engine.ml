(* Engine-conformance suite: every engine in the registry honours the
   same contract — deterministic per-seed streams, iteration budgets,
   cooperative stop probes, and a returned best that is a private
   snapshot consistent with the reported cost.  The suite is
   parameterized over the registry, so a newly registered engine is
   held to the contract automatically. *)

open Repro_taskgraph
open Repro_arch
module Engine = Repro_dse.Engine
module Explorer = Repro_dse.Explorer
module Registry = Repro_dse.Engine_registry
module Solution = Repro_dse.Solution
module Moves = Repro_dse.Moves
module Rng = Repro_util.Rng

let impl clbs hw_time = { Task.clbs; hw_time }

let app () =
  let t id sw_time clbs =
    Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F" ~sw_time
      ~impls:[ impl clbs (sw_time /. 3.0) ]
  in
  App.make ~name:"chain4" ~deadline:20.0
    ~tasks:[ t 0 2.0 40; t 1 3.0 50; t 2 4.0 60; t 3 1.0 30 ]
    ~edges:
      [
        { App.src = 0; dst = 1; kbytes = 2.0 };
        { App.src = 1; dst = 2; kbytes = 2.0 };
        { App.src = 2; dst = 3; kbytes = 2.0 };
      ]
    ()

let platform () =
  Platform.make ~name:"p"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.005 "rc")
    ~bus:Platform.default_bus ()

(* Small but non-trivial per-engine budget; every engine accepts it
   (sa needs at least 2). *)
let budget = 40

let context ?should_stop ?max_evaluations ~seed ~iterations () =
  Engine.context ?should_stop ?max_evaluations ~app:(app ())
    ~platform:(platform ()) ~seed ~iterations ()

let check_valid what solution =
  match Solution.check_invariants solution with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invalid best solution: %s" what msg

(* The outcome, flattened to a comparable value; costs go through
   [Int64.bits_of_float] so "bit-identical" means exactly that. *)
let fingerprint (o : Engine.outcome) =
  ( Solution.encode o.Engine.best,
    ( Int64.bits_of_float o.Engine.best_cost,
      Int64.bits_of_float o.Engine.initial_cost ),
    (o.Engine.iterations_run, o.Engine.evaluations, o.Engine.accepted),
    o.Engine.status = Engine.Complete )

let conformance_tests engine =
  let name = Engine.name engine in
  let run ?should_stop ?(seed = 11) ?(iterations = budget) () =
    Engine.run engine (context ?should_stop ~seed ~iterations ())
  in
  [
    Alcotest.test_case (name ^ ": same seed, bit-identical outcome") `Quick
      (fun () ->
        let a = run () and b = run () in
        check_valid name a.Engine.best;
        Alcotest.(check bool) "fingerprints equal" true
          (fingerprint a = fingerprint b));
    Alcotest.test_case (name ^ ": iteration budget never exceeded") `Quick
      (fun () ->
        List.iter
          (fun iterations ->
            let o = run ~iterations () in
            Alcotest.(check bool) "within budget" true
              (o.Engine.iterations_run <= iterations);
            Alcotest.(check bool) "complete" true
              (o.Engine.status = Engine.Complete);
            check_valid name o.Engine.best)
          [ 2; 7; budget ]);
    Alcotest.test_case (name ^ ": immediate stop probe") `Quick (fun () ->
        let o = run ~should_stop:(fun () -> true) () in
        Alcotest.(check bool) "interrupted" true
          (o.Engine.status = Engine.Interrupted);
        Alcotest.(check int) "stopped before the first iteration" 0
          o.Engine.iterations_run;
        check_valid name o.Engine.best);
    Alcotest.test_case (name ^ ": stop honoured within one boundary") `Quick
      (fun () ->
        let polls = ref 0 in
        let stop () =
          incr polls;
          !polls > 3
        in
        let o = run ~should_stop:stop () in
        Alcotest.(check bool) "interrupted" true
          (o.Engine.status = Engine.Interrupted);
        Alcotest.(check bool)
          (Printf.sprintf "ran %d iteration(s), stop allowed 3"
             o.Engine.iterations_run)
          true
          (o.Engine.iterations_run <= 3);
        check_valid name o.Engine.best);
    Alcotest.test_case (name ^ ": evaluation budget honoured") `Quick
      (fun () ->
        let unlimited = run () in
        let m = max 1 (unlimited.Engine.evaluations / 2) in
        if unlimited.Engine.evaluations > m then begin
          let limited () =
            Engine.run engine
              (context ~max_evaluations:m ~seed:11 ~iterations:budget ())
          in
          let a = limited () and b = limited () in
          Alcotest.(check bool) "same budget, bit-identical" true
            (fingerprint a = fingerprint b);
          Alcotest.(check bool) "completes (not interrupted)" true
            (a.Engine.status = Engine.Complete);
          Alcotest.(check bool) "spends no more than the unlimited run" true
            (a.Engine.evaluations <= unlimited.Engine.evaluations);
          Alcotest.(check bool) "stops in fewer iterations" true
            (a.Engine.iterations_run < unlimited.Engine.iterations_run);
          check_valid name a.Engine.best
        end);
    Alcotest.test_case (name ^ ": best is consistent with its cost") `Quick
      (fun () ->
        let o = run () in
        if Float.is_finite o.Engine.best_cost then
          Alcotest.(check bool) "makespan(best) = best_cost" true
            (abs_float (Solution.makespan o.Engine.best -. o.Engine.best_cost)
             < 1e-9));
    Alcotest.test_case (name ^ ": best is a private snapshot") `Quick
      (fun () ->
        let a = run () in
        let before = Solution.encode a.Engine.best in
        (* Scribble over the first outcome's best; a rerun must not see
           it through any shared or cached state. *)
        let rng = Rng.create 99 in
        for _ = 1 to 5 do
          ignore (Moves.propose rng Moves.fixed_architecture a.Engine.best)
        done;
        let b = run () in
        Alcotest.(check string) "rerun unaffected by mutating a prior best"
          before
          (Solution.encode b.Engine.best));
    Alcotest.test_case (name ^ ": Explorer.explore ~engine equals Engine.run")
      `Quick (fun () ->
        let o = run () in
        let config = Explorer.default_config ~seed:11 () in
        let config =
          {
            config with
            Explorer.anneal =
              { config.Explorer.anneal with
                Repro_anneal.Annealer.iterations = budget };
          }
        in
        let r = Explorer.explore ~engine config (app ()) (platform ()) in
        Alcotest.(check int64) "same best cost"
          (Int64.bits_of_float o.Engine.best_cost)
          (Int64.bits_of_float r.Explorer.best_cost);
        Alcotest.(check string) "same solution CRC"
          (Repro_util.Checkpoint.crc32_hex (Solution.encode o.Engine.best))
          (Repro_util.Checkpoint.crc32_hex (Solution.encode r.Explorer.best));
        Alcotest.(check int) "same iterations" o.Engine.iterations_run
          r.Explorer.iterations_run)
  ]

let suite =
  Repro_baseline.Engines.register_all ();
  Alcotest.test_case "registry: all engines registered by name" `Quick
    (fun () ->
      Alcotest.(check (list string)) "names in presentation order"
        [ "sa"; "greedy"; "random"; "hill"; "tabu"; "ga"; "ga-spatial";
          "portfolio" ]
        (Registry.names ());
      List.iter
        (fun name ->
          match Registry.find name with
          | Ok engine ->
            Alcotest.(check string) "find returns the named engine" name
              (Engine.name engine)
          | Error msg -> Alcotest.fail msg)
        (Registry.names ());
      match Registry.find "annealer" with
      | Ok _ -> Alcotest.fail "unknown name resolved"
      | Error msg ->
        Alcotest.(check bool) "error lists the known names" true
          (String.length msg > 0
           && String.index_opt msg ',' <> None))
  :: List.concat_map conformance_tests (Registry.all ())
