open Repro_taskgraph
open Repro_arch
module Clustering = Repro_sched.Clustering
module Ga = Repro_baseline.Ga
module Greedy = Repro_baseline.Greedy
module Random_search = Repro_baseline.Random_search
module Hill_climb = Repro_baseline.Hill_climb
module Tabu = Repro_baseline.Tabu
module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution
module Searchgraph = Repro_sched.Searchgraph
module Md = Repro_workloads.Motion_detection

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

let platform ?(n_clb = 100) () =
  Platform.make ~name:"p"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb ~reconfig_ms_per_clb:0.005 "rc")
    ~bus:Platform.default_bus ()

(* --- clustering --- *)

let test_clustering_capacity () =
  let app = app () in
  let contexts =
    Clustering.contexts app (platform ~n_clb:100 ())
      ~is_hw:(fun _ -> true)
      ~impl_choice:(fun _ -> 0)
  in
  (* Areas 40,50,60,30 against 100: [40+50]; [60+30]. *)
  Alcotest.(check (list (list int))) "packed in topo order" [ [ 0; 1 ]; [ 2; 3 ] ]
    contexts

let test_clustering_skips_oversized () =
  let app = app () in
  let platform = platform ~n_clb:45 () in
  let contexts =
    Clustering.contexts app platform
      ~is_hw:(fun _ -> true)
      ~impl_choice:(fun _ -> 0)
  in
  List.iter
    (fun members ->
      Alcotest.(check bool) "only tasks that fit" true
        (List.for_all (fun v -> v = 0 || v = 3) members))
    contexts;
  Alcotest.(check (list int)) "oversized reported" [ 1; 2 ]
    (Clustering.oversized_tasks app platform
       ~is_hw:(fun _ -> true)
       ~impl_choice:(fun _ -> 0))

let test_clustering_respects_is_hw () =
  let app = app () in
  let contexts =
    Clustering.contexts app (platform ())
      ~is_hw:(fun v -> v = 2)
      ~impl_choice:(fun _ -> 0)
  in
  Alcotest.(check (list (list int))) "only task 2" [ [ 2 ] ] contexts

(* --- GA --- *)

(* Every baseline runs through the uniform engine contract. *)
let run ?observe engine ~seed ~iterations app platform =
  Engine.run engine
    (Engine.context ?observe ~app ~platform ~seed ~iterations ())

let test_ga_decode_feasible () =
  let app = app () in
  let platform = platform () in
  let individual =
    { Ga.hw = [| true; false; true; false |]; impl = [| 0; 0; 0; 0 |] }
  in
  let spec = Ga.decode app platform individual in
  match Searchgraph.evaluate spec with
  | None -> Alcotest.fail "decoded spec should be feasible"
  | Some eval ->
    Alcotest.(check bool) "uses hardware" true
      (eval.Searchgraph.n_contexts >= 1)

let test_ga_decode_oversized_to_sw () =
  let app = app () in
  let platform = platform ~n_clb:45 () in
  let individual =
    { Ga.hw = [| false; true; true; false |]; impl = [| 0; 0; 0; 0 |] }
  in
  let spec = Ga.decode app platform individual in
  (* Tasks 1 (50) and 2 (60) cannot fit a 45-CLB device. *)
  Alcotest.(check int) "nothing in hardware" 0 (List.length spec.Searchgraph.contexts);
  Alcotest.(check int) "all software" 4 (List.length spec.Searchgraph.sw_order)

let test_ga_improves () =
  let app = app () in
  let platform = platform () in
  let generations = 15 in
  let bests = ref [] in
  let observe (p : Engine.probe) = bests := p.Engine.cost :: !bests in
  let outcome =
    run ~observe (Ga.engine ~population:30 ()) ~seed:3 ~iterations:generations
      app platform
  in
  let history = outcome.Engine.initial_cost :: List.rev !bests in
  let all_sw = App.total_sw_time app in
  Alcotest.(check bool) "beats all-software" true
    (outcome.Engine.best_cost < all_sw);
  Alcotest.(check bool) "history is monotone" true
    (let rec monotone = function
       | a :: (b :: _ as rest) -> a >= b -. 1e-12 && monotone rest
       | [ _ ] | [] -> true
     in
     monotone history);
  Alcotest.(check int) "history has one entry per generation + initial"
    (generations + 1) (List.length history)

let test_ga_on_motion_detection () =
  let outcome =
    run (Ga.engine ~population:60 ()) ~seed:1 ~iterations:25 (Md.app ())
      (Md.platform ())
  in
  Alcotest.(check bool) "meets the 40 ms constraint" true
    (outcome.Engine.best_cost < 40.0)

let test_ga_spatial_only () =
  let app = app () in
  let outcome =
    run
      (Ga.engine ~population:30 ~explore_impls:false ())
      ~seed:3 ~iterations:15 app (platform ())
  in
  (* Every implementation gene stays at the smallest variant. *)
  Alcotest.(check bool) "impl genes untouched" true
    (List.for_all
       (fun v -> Solution.impl_index outcome.Engine.best v = 0)
       (List.init (App.size app) Fun.id))

(* --- greedy --- *)

let test_greedy_fraction () =
  let app = app () in
  let spec = Greedy.with_fraction app (platform ()) 0.5 in
  (* Heaviest half = tasks 2 (4.0) and 1 (3.0). *)
  let hw_tasks =
    List.filter
      (fun v -> spec.Searchgraph.binding v <> Searchgraph.Sw)
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "two heaviest in hw" [ 1; 2 ] hw_tasks

let test_greedy_run () =
  let app = app () in
  let outcome = run Greedy.engine ~seed:0 ~iterations:11 app (platform ()) in
  Alcotest.(check bool) "beats or ties all-software" true
    (outcome.Engine.best_cost <= App.total_sw_time app);
  Alcotest.(check int) "one sweep point per iteration" 11
    outcome.Engine.iterations_run

(* --- random search --- *)

let test_random_search () =
  let app = app () in
  let outcome =
    run Random_search.engine ~seed:1 ~iterations:200 app (platform ())
  in
  Alcotest.(check bool) "no worse than all-software" true
    (outcome.Engine.best_cost <= App.total_sw_time app);
  Alcotest.(check int) "samples counted" 200 outcome.Engine.iterations_run

(* --- tabu search --- *)

let test_tabu () =
  let app = app () in
  let outcome =
    run
      (Tabu.engine_with ~neighbourhood:12 ~tenure:15 ())
      ~seed:4 ~iterations:300 app (platform ())
  in
  Alcotest.(check bool) "beats all-software" true
    (outcome.Engine.best_cost < App.total_sw_time app);
  Alcotest.(check bool) "applied moves" true (outcome.Engine.accepted > 0);
  Alcotest.(check bool) "best solution consistent" true
    (abs_float
       (Solution.makespan outcome.Engine.best -. outcome.Engine.best_cost)
     < 1e-9)

(* Regression for the tenure-eviction bug: remembering the same state
   hash twice within one tenure window, then evicting the *older*
   occurrence, must keep the newer occurrence tabu.  (The original
   Hashtbl.replace-based list collapsed the duplicate, so the eviction
   un-tabooed a state that was still within tenure.) *)
let test_tabu_tenure_eviction () =
  let module Tenure = Tabu.Tenure in
  let t = Tenure.create 3 in
  Tenure.remember t 1;
  Tenure.remember t 2;
  Tenure.remember t 1;
  (* Window is [1; 2; 1]; the next remember evicts the older 1. *)
  Tenure.remember t 3;
  Alcotest.(check bool) "newer occurrence of 1 still tabu" true
    (Tenure.is_tabu t 1);
  Tenure.remember t 4;
  Alcotest.(check bool) "2 aged out" false (Tenure.is_tabu t 2);
  Tenure.remember t 5;
  Alcotest.(check bool) "1 fully aged out" false (Tenure.is_tabu t 1);
  Alcotest.(check bool) "3 still within tenure" true (Tenure.is_tabu t 3)

let test_tabu_deterministic () =
  let app = app () in
  let best () =
    (run
       (Tabu.engine_with ~neighbourhood:8 ~tenure:10 ())
       ~seed:9 ~iterations:100 app (platform ()))
      .Engine.best_cost
  in
  Alcotest.(check (float 1e-12)) "same seed same result" (best ()) (best ())

(* Aspiration regression: with everything else fixed, switching the
   aspiration criterion on strictly improves the best cost on this
   seed (sobel, neighbourhood 4, tenure 8, 30 iterations, seed 12:
   18.71 ms off vs 16.84 ms on).  A tabu candidate that strictly
   improves on the current working cost is re-admitted, letting the
   search backtrack out of a stalled window it is otherwise forbidden
   to re-enter. *)
let test_tabu_aspiration_improves () =
  let app = (List.assoc "sobel" Repro_workloads.Suite.named) () in
  let platform = Repro_workloads.Suite.platform_for app in
  let best aspiration =
    let engine =
      Tabu.engine_with ~neighbourhood:4 ~tenure:8 ~aspiration ()
    in
    let ctx = Engine.context ~app ~platform ~seed:12 ~iterations:30 () in
    (Engine.run engine ctx).Engine.best_cost
  in
  let off = best false and on_ = best true in
  Alcotest.(check bool)
    (Printf.sprintf "aspiration strictly improves best cost (%.4f vs %.4f)"
       on_ off)
    true (on_ < off);
  (* The knob defaults to off: the registry engine and the explicit
     aspiration-off engine produce the same stream. *)
  let default_best =
    let ctx = Engine.context ~app ~platform ~seed:12 ~iterations:30 () in
    (Engine.run
       (Tabu.engine_with ~neighbourhood:4 ~tenure:8 ())
       ctx)
      .Engine.best_cost
  in
  Alcotest.(check (float 0.0)) "off is the default" off default_best

(* --- hill climbing --- *)

let test_hill_climb () =
  let app = app () in
  let outcome =
    run
      (Hill_climb.engine_with ~moves_per_climb:500 ())
      ~seed:2 ~iterations:1000 app (platform ())
  in
  Alcotest.(check bool) "no worse than all-software" true
    (outcome.Engine.best_cost <= App.total_sw_time app);
  Alcotest.(check int) "moves counted" 1000 outcome.Engine.iterations_run;
  Alcotest.(check bool) "result solution evaluates to the reported makespan"
    true
    (abs_float
       (Solution.makespan outcome.Engine.best -. outcome.Engine.best_cost)
     < 1e-9)

let suite =
  [
    Alcotest.test_case "clustering capacity" `Quick test_clustering_capacity;
    Alcotest.test_case "clustering skips oversized" `Quick
      test_clustering_skips_oversized;
    Alcotest.test_case "clustering respects is_hw" `Quick
      test_clustering_respects_is_hw;
    Alcotest.test_case "ga decode feasible" `Quick test_ga_decode_feasible;
    Alcotest.test_case "ga decode oversized to sw" `Quick
      test_ga_decode_oversized_to_sw;
    Alcotest.test_case "ga improves" `Quick test_ga_improves;
    Alcotest.test_case "ga spatial only" `Quick test_ga_spatial_only;
    Alcotest.test_case "ga on motion detection" `Slow test_ga_on_motion_detection;
    Alcotest.test_case "greedy fraction" `Quick test_greedy_fraction;
    Alcotest.test_case "greedy run" `Quick test_greedy_run;
    Alcotest.test_case "random search" `Quick test_random_search;
    Alcotest.test_case "tabu search" `Quick test_tabu;
    Alcotest.test_case "tabu tenure eviction" `Quick test_tabu_tenure_eviction;
    Alcotest.test_case "tabu deterministic" `Quick test_tabu_deterministic;
    Alcotest.test_case "tabu aspiration improves this seed" `Quick
      test_tabu_aspiration_improves;
    Alcotest.test_case "hill climb" `Quick test_hill_climb;
  ]
