open Repro_taskgraph
module List_sched = Repro_sched.List_sched

let impl = { Task.clbs = 10; hw_time = 0.5 }

let task id sw_time =
  Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F" ~sw_time
    ~impls:[ impl ]

let edge src dst = { App.src; dst; kbytes = 0.0 }

let chain_app () =
  App.make ~name:"chain"
    ~tasks:[ task 0 1.0; task 1 2.0; task 2 3.0 ]
    ~edges:[ edge 0 1; edge 1 2 ]
    ()

let test_upward_rank_chain () =
  let app = chain_app () in
  let rank =
    List_sched.upward_rank app
      ~time:(fun v -> (App.task app v).Task.sw_time)
      ~comm:(fun _ _ -> 0.0)
  in
  (* Suffix sums along the chain. *)
  Alcotest.(check (float 1e-9)) "rank 2" 3.0 rank.(2);
  Alcotest.(check (float 1e-9)) "rank 1" 5.0 rank.(1);
  Alcotest.(check (float 1e-9)) "rank 0" 6.0 rank.(0)

let test_upward_rank_comm () =
  let app = chain_app () in
  let rank =
    List_sched.upward_rank app
      ~time:(fun _ -> 1.0)
      ~comm:(fun _ _ -> 10.0)
  in
  Alcotest.(check (float 1e-9)) "comm counted" 23.0 rank.(0)

let fork_app () =
  (* 0 -> {1, 2} -> 3, with 2 much heavier than 1. *)
  App.make ~name:"fork"
    ~tasks:[ task 0 1.0; task 1 1.0; task 2 9.0; task 3 1.0 ]
    ~edges:[ edge 0 1; edge 0 2; edge 1 3; edge 2 3 ]
    ()

let test_prioritized_topo_order () =
  let app = fork_app () in
  let rank =
    List_sched.upward_rank app
      ~time:(fun v -> (App.task app v).Task.sw_time)
      ~comm:(fun _ _ -> 0.0)
  in
  let order =
    List_sched.prioritized_topological_order app ~priority:(fun v -> rank.(v))
  in
  (* The heavy branch (2) must be scheduled before the light one (1). *)
  Alcotest.(check (list int)) "heavy first" [ 0; 2; 1; 3 ] order

let test_order_is_topological () =
  let app = fork_app () in
  let order =
    List_sched.prioritized_topological_order app ~priority:(fun _ -> 0.0)
  in
  let position = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.add position v i) order;
  List.iter
    (fun { App.src; dst; kbytes = _ } ->
      Alcotest.(check bool) "edge respected" true
        (Hashtbl.find position src < Hashtbl.find position dst))
    (App.edges app);
  Alcotest.(check int) "complete" 4 (List.length order)

let test_sw_order_filters () =
  let app = fork_app () in
  let order =
    List_sched.sw_order app
      ~is_sw:(fun v -> v <> 2)
      ~priority:(fun _ -> 0.0)
  in
  Alcotest.(check bool) "2 excluded" true (not (List.mem 2 order));
  Alcotest.(check int) "three software tasks" 3 (List.length order)

let test_determinism () =
  let app = fork_app () in
  let order () =
    List_sched.prioritized_topological_order app ~priority:(fun v ->
        float_of_int v)
  in
  Alcotest.(check (list int)) "stable across calls" (order ()) (order ())

(* The ready set pops the largest priority first and, among equal
   priorities, the task that became ready first; a direct scan of an
   insertion-ordered ready list states that rule literally. *)
let reference_order app ~priority =
  let g = app.App.graph in
  let n = App.size app in
  let indegree = Array.init n (fun v -> Graph.in_degree g v) in
  let rec drain ready acc =
    match ready with
    | [] -> List.rev acc
    | first :: _ ->
      let v =
        List.fold_left
          (fun best w -> if priority w > priority best then w else best)
          first ready
      in
      let released =
        List.filter
          (fun w ->
            indegree.(w) <- indegree.(w) - 1;
            indegree.(w) = 0)
          (List.sort compare (Graph.succs g v))
      in
      drain (List.filter (( <> ) v) ready @ released) (v :: acc)
  in
  drain (List.filter (fun v -> indegree.(v) = 0) (List.init n Fun.id)) []

let qcheck_matches_reference =
  QCheck.Test.make ~name:"prioritized order matches the reference scan"
    ~count:200
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, levels) ->
      let rng = Repro_util.Rng.create seed in
      let app =
        Generators.layered rng Generators.default_impl_model ~layers:5
          ~width:6 ~edge_probability:0.3 ~mean_sw_time:2.0 ~mean_kbytes:1.0
      in
      (* Few distinct levels, so ties are the common case. *)
      let levels =
        Array.init (App.size app) (fun _ ->
            float_of_int (Repro_util.Rng.int rng levels))
      in
      let priority v = levels.(v) in
      List_sched.prioritized_topological_order app ~priority
      = reference_order app ~priority)

let suite =
  [
    Alcotest.test_case "upward rank chain" `Quick test_upward_rank_chain;
    Alcotest.test_case "upward rank comm" `Quick test_upward_rank_comm;
    Alcotest.test_case "prioritized topo order" `Quick test_prioritized_topo_order;
    Alcotest.test_case "order is topological" `Quick test_order_is_topological;
    Alcotest.test_case "sw_order filters" `Quick test_sw_order_filters;
    Alcotest.test_case "determinism" `Quick test_determinism;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
  ]
