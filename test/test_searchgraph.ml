open Repro_taskgraph
open Repro_arch
open Repro_sched

let impl clbs hw_time = { Task.clbs; hw_time }

(* A(2ms) -> B(4ms) -> C(1ms), 8 kB on each edge.  Bus 80 kB/ms with
   0.05 ms latency => each crossing costs 0.15 ms.  DRLC: 100 CLBs,
   0.01 ms/CLB. *)
let app () =
  let t id name sw_time impls =
    Task.make ~id ~name ~functionality:"F" ~sw_time ~impls
  in
  App.make ~name:"abc" ~deadline:10.0
    ~tasks:
      [
        t 0 "A" 2.0 [ impl 10 1.0 ];
        t 1 "B" 4.0 [ impl 50 1.0; impl 80 0.5 ];
        t 2 "C" 1.0 [ impl 10 1.0 ];
      ]
    ~edges:[ { App.src = 0; dst = 1; kbytes = 8.0 };
             { App.src = 1; dst = 2; kbytes = 8.0 } ]
    ()

let platform () =
  Platform.make ~name:"test"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb:100 ~reconfig_ms_per_clb:0.01 "rc")
    ~bus:{ Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
    ()

let spec ?(impl_choice = fun _ -> 0) ~binding ~sw_order ~contexts () =
  Searchgraph.single_processor_spec ~app:(app ()) ~platform:(platform ())
    ~binding ~impl_choice ~sw_order ~contexts

let checkf = Alcotest.(check (float 1e-9))

let test_all_software () =
  let s =
    spec
      ~binding:(fun _ -> Searchgraph.Sw)
      ~sw_order:[ 0; 1; 2 ] ~contexts:[] ()
  in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    checkf "makespan = sum of sw times" 7.0 e.Searchgraph.makespan;
    checkf "no reconfig" 0.0 e.Searchgraph.initial_reconfig;
    checkf "no comm" 0.0 e.Searchgraph.comm;
    Alcotest.(check int) "no context" 0 e.Searchgraph.n_contexts

let test_sw_order_gaps () =
  (* Independent sw tasks serialized by Esw: makespan = sum, not CP. *)
  let tasks =
    [
      Task.make ~id:0 ~name:"x" ~functionality:"F" ~sw_time:3.0
        ~impls:[ impl 1 1.0 ];
      Task.make ~id:1 ~name:"y" ~functionality:"F" ~sw_time:5.0
        ~impls:[ impl 1 1.0 ];
    ]
  in
  let independent = App.make ~name:"ind" ~tasks ~edges:[] () in
  let s =
    Searchgraph.single_processor_spec ~app:independent ~platform:(platform ())
      ~binding:(fun _ -> Searchgraph.Sw)
      ~impl_choice:(fun _ -> 0)
      ~sw_order:[ 1; 0 ] ~contexts:[]
  in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e -> checkf "processor serializes" 8.0 e.Searchgraph.makespan

let test_hw_middle_task () =
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s = spec ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] () in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    (* A: 0..2; comm 0.15; cfg: 0..0.5; B: 2.15..3.15; comm 0.15;
       C: 3.3..4.3 *)
    checkf "makespan" 4.3 e.Searchgraph.makespan;
    checkf "initial reconfig (50 CLB x 0.01)" 0.5 e.Searchgraph.initial_reconfig;
    checkf "dynamic reconfig" 0.0 e.Searchgraph.dynamic_reconfig;
    checkf "comm both crossings" 0.3 e.Searchgraph.comm;
    Alcotest.(check int) "one context" 1 e.Searchgraph.n_contexts

let test_hw_impl_choice () =
  (* The faster implementation costs more area, hence more reconfig:
     cfg = 0.8, B runs 0.5.  B start = max(2.15, 0.8) = 2.15. *)
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s =
    spec
      ~impl_choice:(fun v -> if v = 1 then 1 else 0)
      ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] ()
  in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    checkf "makespan with fast impl" 3.8 e.Searchgraph.makespan;
    checkf "bigger reconfig" 0.8 e.Searchgraph.initial_reconfig

let test_two_contexts () =
  (* A in context 1, C in context 2, B on the processor. *)
  let binding v =
    if v = 0 then Searchgraph.Hw 0
    else if v = 2 then Searchgraph.Hw 1
    else Searchgraph.Sw
  in
  let s = spec ~binding ~sw_order:[ 1 ] ~contexts:[ [ 0 ]; [ 2 ] ] () in
  match Searchgraph.evaluate s with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    (* cfg1 0.1; A 0.1..1.1; comm 0.15; B 1.25..5.25; comm 0.15; cfg2
       after A and cfg1: 1.1..1.2; C max(5.4, 1.2)..6.4 *)
    checkf "makespan" 6.4 e.Searchgraph.makespan;
    checkf "initial" 0.1 e.Searchgraph.initial_reconfig;
    checkf "dynamic" 0.1 e.Searchgraph.dynamic_reconfig;
    Alcotest.(check int) "two contexts" 2 e.Searchgraph.n_contexts

let test_reversed_contexts_infeasible () =
  (* C's context before A's while A precedes C: cyclic. *)
  let binding v =
    if v = 0 then Searchgraph.Hw 1
    else if v = 2 then Searchgraph.Hw 0
    else Searchgraph.Sw
  in
  let s = spec ~binding ~sw_order:[ 1 ] ~contexts:[ [ 2 ]; [ 0 ] ] () in
  Alcotest.(check bool) "infeasible" true (Searchgraph.evaluate s = None)

let test_bad_sw_order_infeasible () =
  let s =
    spec
      ~binding:(fun _ -> Searchgraph.Sw)
      ~sw_order:[ 2; 0; 1 ] ~contexts:[] ()
  in
  Alcotest.(check bool) "C before A contradicts precedence" true
    (Searchgraph.evaluate s = None)

let test_exec_time_and_clbs () =
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s = spec ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] () in
  checkf "sw exec" 2.0 (Searchgraph.exec_time s 0);
  checkf "hw exec" 1.0 (Searchgraph.exec_time s 1);
  Alcotest.(check int) "context clbs" 50 (Searchgraph.context_clbs s [ 1 ]);
  Alcotest.(check int) "clbs of empty" 0 (Searchgraph.context_clbs s [])

let test_schedule_extraction () =
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s = spec ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] () in
  match Searchgraph.schedule s with
  | None -> Alcotest.fail "feasible"
  | Some windows ->
    let start v = fst windows.(v) and stop v = snd windows.(v) in
    checkf "A starts at 0" 0.0 (start 0);
    checkf "A stops at 2" 2.0 (stop 0);
    checkf "B starts after comm" 2.15 (start 1);
    checkf "C stops at makespan" 4.3 (stop 2)

let test_build_exposes_cfg_nodes () =
  let binding v = if v = 1 then Searchgraph.Hw 0 else Searchgraph.Sw in
  let s = spec ~binding ~sw_order:[ 0; 2 ] ~contexts:[ [ 1 ] ] () in
  let g, node_weight, _ = Searchgraph.build s in
  Alcotest.(check int) "3 tasks + 1 cfg node" 4 (Graph.size g);
  checkf "cfg weight is the reconfiguration" 0.5 (node_weight 3);
  Alcotest.(check bool) "cfg precedes its member" true (Graph.has_edge g 3 1)

(* --- sequentialization-pair emitters ------------------------------ *)

let ipair = Alcotest.(pair int int)

(* The pairs an emitter hands to its callback, in emission order. *)
let emitted iter =
  let acc = ref [] in
  iter (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

(* The per-class emitters, concatenated per the ownership contract,
   must reproduce [ehw_pairs] exactly — order included — for every
   context-list shape a mutator can leave behind. *)
let test_emitters_compose () =
  let cfg j = 100 + j in
  let compose ctxs =
    match ctxs with
    | [] -> []
    | first :: _ ->
      let rec walk j prev = function
        | [] -> []
        | members :: rest ->
          emitted
            (Searchgraph.gtlp_pairs ~prev_cfg:(cfg (j - 1)) ~prev_members:prev
               ~cfg:(cfg j))
          @ emitted (fun emit ->
                Searchgraph.ehw_intra_pairs ~cfg:(cfg j) emit members)
          @ walk (j + 1) members rest
      in
      emitted (fun emit -> Searchgraph.ehw_intra_pairs ~cfg:(cfg 0) emit first)
      @ walk 1 first (List.tl ctxs)
  in
  List.iter
    (fun ctxs ->
      Alcotest.(check (list ipair))
        "composition matches ehw_pairs"
        (Searchgraph.ehw_pairs ~cfg ctxs)
        (compose ctxs))
    [ []; [ [ 5 ] ]; [ [ 0 ]; [ 1; 2 ] ]; [ [ 1 ]; [ 2 ]; [ 3; 4 ] ];
      [ [ 7; 8; 9 ]; [ 2 ]; [ 0; 3 ]; [ 6 ] ] ]

let test_chain_pairs_near () =
  let order = [ 4; 1; 7; 2; 9 ] in
  let near mem =
    emitted (fun emit -> Searchgraph.chain_pairs_near mem emit order)
  in
  (* Selecting everything recovers the full chain, in chain order. *)
  Alcotest.(check (list ipair))
    "total selection = chain_pairs"
    (Searchgraph.chain_pairs order)
    (near (fun _ -> true));
  (* A single selected task owns exactly its incident chain pairs. *)
  Alcotest.(check (list ipair))
    "pairs around one task"
    [ (1, 7); (7, 2) ]
    (near (fun v -> v = 7));
  Alcotest.(check (list ipair)) "nothing selected" [] (near (fun _ -> false));
  (* The emitters run in build order: chains, then the Ehw pairs. *)
  let cfg j = 100 + j in
  Alcotest.(check (list ipair))
    "sequencing order"
    [ (4, 1); (1, 7); (7, 2); (2, 9); (0, 8); (100, 3); (100, 101); (3, 101);
      (101, 5); (101, 6) ]
    (Searchgraph.sequencing_pairs ~cfg ~sw_order:order
       ~extra_sw_orders:[ [ 0; 8 ] ] ~contexts:[ [ 3 ]; [ 5; 6 ] ])

(* Updating sum-tree leaves must land on exactly the bits a fresh tree
   over the mutated terms produces — the invariant that keeps patched
   comm totals bit-identical to a rebuild. *)
let test_comm_tree_bit_identity () =
  List.iter
    (fun m ->
      let terms = Array.init m (fun i -> (0.1 *. float_of_int i) +. 0.7) in
      let tree = Searchgraph.Comm.create (Array.copy terms) in
      let mutate i = terms.(i) <- (0.3 *. float_of_int i) +. 0.11 in
      Array.iteri (fun i _ -> if i mod 3 = 0 then mutate i) terms;
      Array.iteri
        (fun i x ->
          if i mod 3 = 0 then Searchgraph.Comm.set tree i x)
        terms;
      let fresh = Searchgraph.Comm.create terms in
      Alcotest.(check int64)
        (Printf.sprintf "total bits, %d terms" m)
        (Int64.bits_of_float (Searchgraph.Comm.total fresh))
        (Int64.bits_of_float (Searchgraph.Comm.total tree));
      Array.iteri
        (fun i x ->
          Alcotest.(check int64) "leaf bits" (Int64.bits_of_float x)
            (Int64.bits_of_float (Searchgraph.Comm.get tree i)))
        terms)
    [ 0; 1; 2; 3; 5; 8; 13 ]

let suite =
  [
    Alcotest.test_case "all software" `Quick test_all_software;
    Alcotest.test_case "sw order serializes" `Quick test_sw_order_gaps;
    Alcotest.test_case "hw middle task" `Quick test_hw_middle_task;
    Alcotest.test_case "hw impl choice" `Quick test_hw_impl_choice;
    Alcotest.test_case "two contexts" `Quick test_two_contexts;
    Alcotest.test_case "reversed contexts infeasible" `Quick
      test_reversed_contexts_infeasible;
    Alcotest.test_case "bad sw order infeasible" `Quick
      test_bad_sw_order_infeasible;
    Alcotest.test_case "exec time and clbs" `Quick test_exec_time_and_clbs;
    Alcotest.test_case "schedule extraction" `Quick test_schedule_extraction;
    Alcotest.test_case "build exposes cfg nodes" `Quick
      test_build_exposes_cfg_nodes;
    Alcotest.test_case "emitters compose to ehw_pairs" `Quick
      test_emitters_compose;
    Alcotest.test_case "chain_pairs_near ownership" `Quick
      test_chain_pairs_near;
    Alcotest.test_case "comm tree bit identity" `Quick
      test_comm_tree_bit_identity;
  ]
