open Repro_taskgraph
open Repro_arch
module Solution = Repro_dse.Solution
module Searchgraph = Repro_sched.Searchgraph
module Rng = Repro_util.Rng

let impl clbs hw_time = { Task.clbs; hw_time }

let app () =
  let t id sw_time impls =
    Task.make ~id ~name:(Printf.sprintf "t%d" id) ~functionality:"F" ~sw_time
      ~impls
  in
  App.make ~name:"pipe" ~deadline:50.0
    ~tasks:
      [
        t 0 2.0 [ impl 30 0.8 ];
        t 1 4.0 [ impl 40 1.0; impl 80 0.6 ];
        t 2 3.0 [ impl 40 0.9 ];
        t 3 5.0 [ impl 60 1.2; impl 90 0.8 ];
        t 4 1.0 [ impl 20 0.5 ];
      ]
    ~edges:
      [
        { App.src = 0; dst = 1; kbytes = 5.0 };
        { App.src = 0; dst = 2; kbytes = 5.0 };
        { App.src = 1; dst = 3; kbytes = 5.0 };
        { App.src = 2; dst = 3; kbytes = 5.0 };
        { App.src = 3; dst = 4; kbytes = 5.0 };
      ]
    ()

let platform ?(n_clb = 100) () =
  Platform.make ~name:"p"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb ~reconfig_ms_per_clb:0.01 "rc")
    ~bus:Platform.default_bus ()

let ok = function
  | Ok () -> true
  | Error msg -> Alcotest.failf "invariant violation: %s" msg

let test_all_software () =
  let s = Solution.all_software (app ()) (platform ()) in
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check int) "no contexts" 0 (Solution.n_contexts s);
  Alcotest.(check (list int)) "no hw" [] (Solution.hw_tasks s);
  Alcotest.(check (float 1e-9)) "makespan = total sw" 15.0 (Solution.makespan s)

let test_random_valid () =
  for seed = 1 to 30 do
    let rng = Rng.create seed in
    let s = Solution.random rng (app ()) (platform ()) in
    Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
    Alcotest.(check bool) "feasible" true (Solution.evaluate s <> None)
  done

let test_random_respects_capacity () =
  (* A 35-CLB device can only host task 0 (30) and task 4 (20),
     one per context. *)
  for seed = 1 to 20 do
    let rng = Rng.create seed in
    let s = Solution.random rng (app ()) (platform ~n_clb:35 ()) in
    Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
    List.iter
      (fun members ->
        Alcotest.(check bool) "context fits" true
          (List.length members = 1
           && List.for_all (fun v -> v = 0 || v = 4) members))
      (Solution.contexts s)
  done

let test_move_to_context_and_back () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check (list int)) "hw tasks" [ 1 ] (Solution.hw_tasks s);
  Alcotest.(check bool) "binding is hw" true
    (Solution.binding s 1 = Searchgraph.Hw 0);
  Alcotest.(check int) "context area" 40 (Solution.context_clbs s 0);
  Solution.move_to_sw s ~task:1 ~before:(Some 3);
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check int) "context dropped" 0 (Solution.n_contexts s);
  Alcotest.(check bool) "back to software" true
    (Solution.binding s 1 = Searchgraph.Sw)

let test_capacity_spawns_context () =
  let s = Solution.all_software (app ()) (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:1 (* 40 CLBs *);
  Solution.move_to_context s ~task:2 ~dest:1 (* +40 fits *);
  Alcotest.(check int) "one context" 1 (Solution.n_contexts s);
  Solution.move_to_context s ~task:3 ~dest:1 (* +60 overflows: spawn *);
  Alcotest.(check int) "spawned" 2 (Solution.n_contexts s);
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  (* Task 3 sits alone in the new context, after the destination. *)
  Alcotest.(check (list (list int))) "membership" [ [ 2; 1 ]; [ 3 ] ]
    (Solution.contexts s)

let test_insert_context_positions () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  Solution.insert_context s ~task:0 ~at:0;
  Alcotest.(check (list (list int))) "0 inserted first" [ [ 0 ]; [ 1 ] ]
    (Solution.contexts s);
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check bool) "feasible order" true (Solution.evaluate s <> None)

let test_swap_contexts () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:0;
  Solution.append_context s ~task:1;
  Solution.swap_contexts s ~at:0;
  Alcotest.(check (list (list int))) "swapped" [ [ 1 ]; [ 0 ] ]
    (Solution.contexts s);
  Alcotest.(check bool) "invariants hold" true (ok (Solution.check_invariants s));
  (* 0 precedes 1, so context(1) before context(0) is infeasible. *)
  Alcotest.(check bool) "infeasible order detected" true
    (Solution.evaluate s = None)

let test_set_impl () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  Solution.set_impl s 1 1;
  Alcotest.(check int) "impl selected" 1 (Solution.impl_index s 1);
  Alcotest.(check int) "area follows impl" 80 (Solution.context_clbs s 0);
  Alcotest.check_raises "bad index"
    (Invalid_argument "Solution.set_impl: implementation index out of range")
    (fun () -> Solution.set_impl s 1 7)

let test_capacity_violation_infeasible () =
  let s = Solution.all_software (app ()) (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:1;
  Solution.move_to_context s ~task:2 ~dest:1;
  (* 40 + 40 fits; upgrading task 1 to 80 CLBs overflows. *)
  Solution.set_impl s 1 1;
  Alcotest.(check bool) "evaluate reports infeasible" true
    (Solution.evaluate s = None);
  Alcotest.(check bool) "makespan infinite" true
    (Solution.makespan s = infinity)

let test_save_restore () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  Solution.set_impl s 1 1;
  let before_makespan = Solution.makespan s in
  let restore = Solution.save s in
  Solution.move_to_context s ~task:3 ~dest:1;
  Solution.move_to_sw s ~task:1 ~before:None;
  Solution.set_impl s 0 0;
  restore ();
  Alcotest.(check bool) "invariants" true (ok (Solution.check_invariants s));
  Alcotest.(check (list (list int))) "contexts restored" [ [ 1 ] ]
    (Solution.contexts s);
  Alcotest.(check int) "impl restored" 1 (Solution.impl_index s 1);
  Alcotest.(check (float 1e-9)) "makespan restored" before_makespan
    (Solution.makespan s)

let test_copy_independent () =
  let s = Solution.all_software (app ()) (platform ()) in
  Solution.append_context s ~task:1;
  let snap = Solution.snapshot s in
  Solution.move_to_sw s ~task:1 ~before:None;
  Alcotest.(check (list int)) "snapshot keeps hw" [ 1 ] (Solution.hw_tasks snap);
  Alcotest.(check (list int)) "original changed" [] (Solution.hw_tasks s)

let test_evaluation_caching () =
  let s = Solution.all_software (app ()) (platform ()) in
  let e1 = Solution.evaluate s in
  let e2 = Solution.evaluate s in
  Alcotest.(check bool) "same cached value" true (e1 == e2);
  Solution.append_context s ~task:1;
  let e3 = Solution.evaluate s in
  Alcotest.(check bool) "invalidated on mutation" true (not (e2 == e3))

(* A 16-task chain whose sink has two implementations: a weight-only
   move at the sink has a two-node cone (config node + sink) while a
   full rebuild evaluates all 17 search-graph nodes. *)
let chain_app () =
  let t id sw_time impls =
    Task.make ~id ~name:(Printf.sprintf "c%d" id) ~functionality:"F" ~sw_time
      ~impls
  in
  let n = 16 in
  let tasks =
    List.init n (fun id ->
        if id = n - 1 then t id 3.0 [ impl 40 1.0; impl 80 0.5 ]
        else t id 1.0 [ impl 20 0.4 ])
  in
  let edges =
    List.init (n - 1) (fun i -> { App.src = i; dst = i + 1; kbytes = 2.0 })
  in
  App.make ~name:"chain16" ~tasks ~edges ()

let test_incremental_locality () =
  let s = Solution.all_software (chain_app ()) (platform ~n_clb:200 ()) in
  Solution.append_context s ~task:15;
  Alcotest.(check bool) "feasible" true (Solution.evaluate s <> None);
  let stats = Solution.eval_stats s in
  Alcotest.(check bool) "first evaluation is full" true
    (stats.Solution.full_evals > 0 && stats.Solution.incr_evals = 0);
  let full_nodes_per_eval =
    stats.Solution.full_nodes / stats.Solution.full_evals
  in
  (* Toggle the sink's implementation: structure preserved. *)
  Solution.set_impl s 15 1;
  let incremental = Solution.evaluate s in
  Alcotest.(check int) "served incrementally" 1 stats.Solution.incr_evals;
  Alcotest.(check bool) "counts nodes" true (stats.Solution.incr_nodes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "at least 5x fewer nodes (%d vs %d per eval)"
       stats.Solution.incr_nodes full_nodes_per_eval)
    true
    (stats.Solution.incr_nodes * 5 <= full_nodes_per_eval);
  (* The fast path must agree with a from-scratch evaluation. *)
  match (incremental, Searchgraph.evaluate (Solution.spec s)) with
  | Some got, Some want ->
    Alcotest.(check (float 1e-9)) "makespan matches reference"
      want.Searchgraph.makespan got.Searchgraph.makespan;
    Alcotest.(check (float 1e-9)) "initial reconfig matches"
      want.Searchgraph.initial_reconfig got.Searchgraph.initial_reconfig;
    Alcotest.(check (float 1e-9)) "comm matches" want.Searchgraph.comm
      got.Searchgraph.comm
  | _ -> Alcotest.fail "feasibility mismatch between fast path and reference"

let test_incremental_undo () =
  let s = Solution.all_software (app ()) (platform ~n_clb:200 ()) in
  (* Task 3's implementations trade 0.4 ms of run time for 0.3 ms of
     reconfiguration, so toggling them really moves the makespan. *)
  Solution.append_context s ~task:3;
  let original = Solution.makespan s in
  let restore = Solution.save s in
  Solution.set_impl s 3 1;
  let changed = Solution.makespan s in
  Alcotest.(check bool) "impl move changes the makespan" true
    (changed <> original);
  restore ();
  Alcotest.(check (float 1e-9)) "undo restores the makespan through the \
                                 incremental path"
    original (Solution.makespan s);
  (* A structural mutation after incremental activity is served by the
     dynamic-edge refresh and stays correct (insert before task 4 to
     keep the software order precedence-consistent). *)
  Solution.move_to_sw s ~task:3 ~before:(Some 4);
  match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
  | Some got, Some want ->
    Alcotest.(check (float 1e-9)) "structural fallback matches reference"
      want.Searchgraph.makespan got.Searchgraph.makespan
  | None, None -> Alcotest.fail "structural move should stay feasible"
  | _ -> Alcotest.fail "feasibility mismatch after structural move"

let test_incremental_matches_reference_random () =
  (* Oracle test over random accepted/undone move sequences: the cached
     (possibly incremental) evaluation must always equal a fresh
     Searchgraph.evaluate of the current spec. *)
  let rng = Rng.create 77 in
  let s =
    Solution.random rng
      (Repro_workloads.Motion_detection.app ())
      (Repro_workloads.Motion_detection.platform ~n_clb:800 ())
  in
  for _ = 1 to 400 do
    (match Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s with
     | Some undo -> if Repro_util.Rng.bernoulli rng 0.3 then undo ()
     | None -> ());
    match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
    | None, None -> ()
    | Some got, Some want ->
      if abs_float (got.Searchgraph.makespan -. want.Searchgraph.makespan)
         >= 1e-9
      then
        Alcotest.failf "makespan diverged: %.12f vs %.12f"
          got.Searchgraph.makespan want.Searchgraph.makespan
    | _ -> Alcotest.fail "feasibility diverged from reference"
  done;
  let stats = Solution.eval_stats s in
  Alcotest.(check bool) "incremental path exercised" true
    (stats.Solution.incr_evals > 0)

(* Every structural move kind must be served by the dynamic-edge
   refresh — no full rebuild — and each evaluation must equal a
   from-scratch [Searchgraph.evaluate] of the same spec bitwise. *)
let test_structural_moves_incremental () =
  let s = Solution.all_software (app ()) (platform ~n_clb:200 ()) in
  Alcotest.(check bool) "warm" true (Solution.evaluate s <> None);
  let stats = Solution.eval_stats s in
  let full_before = stats.Solution.full_evals in
  let check_move name kind mutate =
    mutate ();
    (match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
     | Some got, Some want ->
       Alcotest.(check bool)
         (name ^ ": bit-identical to scratch evaluation")
         true
         (got.Searchgraph.makespan = want.Searchgraph.makespan
          && got.Searchgraph.initial_reconfig = want.Searchgraph.initial_reconfig
          && got.Searchgraph.dynamic_reconfig = want.Searchgraph.dynamic_reconfig
          && got.Searchgraph.comm = want.Searchgraph.comm
          && got.Searchgraph.finish = want.Searchgraph.finish)
     | _ -> Alcotest.failf "%s: expected a feasible evaluation" name);
    Alcotest.(check int) (name ^ ": no rebuild") full_before
      stats.Solution.full_evals;
    Alcotest.(check bool) (name ^ ": incremental eval recorded") true
      ((Solution.kind_stats stats kind).Solution.k_incr_evals > 0)
  in
  check_move "sw_reorder" Solution.Sw_reorder (fun () ->
      Solution.reorder_sw s ~task:2 ~before:1);
  check_move "ctx_create" Solution.Ctx_create (fun () ->
      Solution.insert_context s ~task:1 ~at:0);
  check_move "ctx_create2" Solution.Ctx_create (fun () ->
      Solution.insert_context s ~task:2 ~at:1);
  check_move "ctx_swap" Solution.Ctx_swap (fun () ->
      Solution.swap_contexts s ~at:0);
  check_move "ctx_migrate" Solution.Ctx_migrate (fun () ->
      Solution.move_to_context s ~task:2 ~dest:1);
  check_move "sw_migrate" Solution.Sw_migrate (fun () ->
      Solution.move_to_sw s ~task:1 ~before:(Some 3));
  check_move "impl" Solution.Impl (fun () -> Solution.set_impl s 1 1);
  (* Undo of a structural move replays the delta log — still no
     rebuild, still the exact pre-move value. *)
  let before = Solution.makespan s in
  let restore = Solution.save s in
  Solution.append_context s ~task:3;
  ignore (Solution.makespan s);
  restore ();
  Alcotest.(check bool) "undo restores exactly" true
    (Solution.makespan s = before);
  Alcotest.(check int) "undo avoided rebuilds" full_before
    stats.Solution.full_evals

let bits = Int64.bits_of_float

let qcheck_incremental_exact =
  (* Random move sequences with interleaved undo: the incrementally
     maintained evaluation must stay bitwise equal to a from-scratch
     evaluation, and an encode/decode round trip mid-sequence must
     replay bit-identically.  [makespan], read first (so it comes off
     the live state, before any eval record exists), must equal the
     record's makespan bitwise after every step — after an undo, and
     on snapshots, which the sequence sometimes continues from. *)
  QCheck.Test.make ~name:"incremental evaluation bit-identical to scratch"
    ~count:60
    QCheck.(pair small_int (int_range 10 60))
    (fun (seed, steps) ->
      let application = app () in
      let plat = platform ~n_clb:200 () in
      let rng = Rng.create (seed + 3) in
      let s = ref (Solution.random rng application plat) in
      let ok = ref true in
      let makespan_matches_record s =
        let m = Solution.makespan s in
        match Solution.evaluate s with
        | Some e -> bits m = bits e.Searchgraph.makespan
        | None -> m = infinity
      in
      let propose s =
        Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s
      in
      for _ = 1 to steps do
        (* A move kept unread, as in an annealing chain: the next save
           then captures a result known only as a makespan. *)
        if Rng.bernoulli rng 0.3 then
          ignore (propose !s : (unit -> unit) option);
        (match propose !s with
        | Some undo -> if Rng.bernoulli rng 0.4 then undo ()
        | None -> ());
        if Rng.bernoulli rng 0.15 then begin
          let m = Solution.makespan !s in
          let snap = Solution.snapshot !s in
          if bits m <> bits (Solution.makespan snap) then ok := false;
          if not (makespan_matches_record snap) then ok := false;
          s := snap
        end;
        let s = !s in
        if not (makespan_matches_record s) then ok := false;
        (match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
        | None, None -> ()
        | Some got, Some want ->
          if
            not
              (got.Searchgraph.makespan = want.Searchgraph.makespan
               && got.Searchgraph.initial_reconfig
                  = want.Searchgraph.initial_reconfig
               && got.Searchgraph.dynamic_reconfig
                  = want.Searchgraph.dynamic_reconfig
               && got.Searchgraph.comm = want.Searchgraph.comm)
          then ok := false
        | _ -> ok := false);
        if Rng.bernoulli rng 0.2 then begin
          match Solution.decode application plat (Solution.encode s) with
          | Error _ -> ok := false
          | Ok d ->
            if Solution.encode d <> Solution.encode s then ok := false;
            if Solution.makespan d <> Solution.makespan s then ok := false
        end
      done;
      !ok)

(* Native deltas must serve every structural kind without a global
   pair regeneration, while emitting region pairs and patching the
   boundary terms of binding-flipping moves. *)
let test_native_delta_counters () =
  (* Pin the default mode: under REPRO_CHECK_DELTAS the paranoid
     verification itself regenerates the global list, which is exactly
     what the counters are here to prove the mutators never need. *)
  let was = Solution.check_deltas_enabled () in
  Solution.set_check_deltas false;
  Fun.protect ~finally:(fun () -> Solution.set_check_deltas was) @@ fun () ->
  let s = Solution.all_software (app ()) (platform ~n_clb:200 ()) in
  Alcotest.(check bool) "warm" true (Solution.evaluate s <> None);
  Solution.insert_context s ~task:1 ~at:0;
  ignore (Solution.makespan s);
  Solution.reorder_sw s ~task:2 ~before:0;
  ignore (Solution.makespan s);
  Solution.move_to_context s ~task:2 ~dest:1;
  ignore (Solution.makespan s);
  Solution.move_to_sw s ~task:1 ~before:(Some 3);
  ignore (Solution.makespan s);
  let stats = Solution.eval_stats s in
  Alcotest.(check int) "no global pair regeneration" 0
    stats.Solution.pair_regens;
  Alcotest.(check bool) "mutators emitted region pairs" true
    (stats.Solution.pairs_emitted > 0);
  (* ctx_create rebinds task 1 across the Sw/Hw boundary: both of its
     application edges change their crossing status. *)
  let created = Solution.kind_stats stats Solution.Ctx_create in
  Alcotest.(check int) "ctx_create patched both incident terms" 2
    created.Solution.k_comm_patched;
  Alcotest.(check int) "ctx_create regenerated nothing" 0
    created.Solution.k_pair_regens;
  List.iter
    (fun kind ->
      Alcotest.(check int) "per-kind regens stay zero" 0
        (Solution.kind_stats stats kind).Solution.k_pair_regens)
    [ Solution.Sw_reorder; Solution.Sw_migrate; Solution.Ctx_migrate;
      Solution.Ctx_create ]

let qcheck_paranoid_deltas =
  (* The paranoid mode re-derives every move's pair delta from a global
     regenerate-and-diff and faults on any mismatch, so simply driving
     random sequences (with undo and mid-sequence codec round trips)
     under the flag is the property. *)
  QCheck.Test.make ~name:"paranoid delta check over random move sequences"
    ~count:40
    QCheck.(pair small_int (int_range 20 80))
    (fun (seed, steps) ->
      let was = Solution.check_deltas_enabled () in
      Solution.set_check_deltas true;
      Fun.protect ~finally:(fun () -> Solution.set_check_deltas was)
        (fun () ->
          let application = app () in
          let plat = platform ~n_clb:200 () in
          let rng = Rng.create (seed + 11) in
          let s = Solution.random rng application plat in
          let ok = ref true in
          for _ = 1 to steps do
            (match
               Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s
             with
            | Some undo -> if Rng.bernoulli rng 0.35 then undo ()
            | None -> ());
            (match
               (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s))
             with
            | None, None -> ()
            | Some got, Some want ->
              if got.Searchgraph.makespan <> want.Searchgraph.makespan then
                ok := false
            | _ -> ok := false);
            if Rng.bernoulli rng 0.15 then begin
              match Solution.decode application plat (Solution.encode s) with
              | Error _ -> ok := false
              | Ok d -> if Solution.encode d <> Solution.encode s then ok := false
            end
          done;
          !ok))

(* --- larger instances ---------------------------------------------- *)

(* A generated layered graph of 132 tasks. *)
let layered_app () =
  let application =
    Generators.layered ~name:"g128" (Rng.create 4) Generators.default_impl_model
      ~layers:10 ~width:28 ~edge_probability:0.05 ~mean_sw_time:2.0
      ~mean_kbytes:8.0
  in
  Alcotest.(check int) "layered graph size" 132 (App.size application);
  application

let dual_platform () =
  Platform.make ~name:"dual"
    ~processor:(Resource.processor "cpu")
    ~rc:(Resource.reconfigurable ~n_clb:1200 ~reconfig_ms_per_clb:0.01 "rc")
    ~extra:[ Resource.processor ~speed:1.5 "dsp" ]
    ~bus:{ Platform.kb_per_ms = 80.0; latency_ms = 0.05 }
    ()

let same_eval (got : Searchgraph.eval) (want : Searchgraph.eval) =
  Int64.bits_of_float got.makespan = Int64.bits_of_float want.makespan
  && Int64.bits_of_float got.initial_reconfig
     = Int64.bits_of_float want.initial_reconfig
  && Int64.bits_of_float got.dynamic_reconfig
     = Int64.bits_of_float want.dynamic_reconfig
  && Int64.bits_of_float got.comm = Int64.bits_of_float want.comm
  && got.n_contexts = want.n_contexts
  && Array.length got.finish = Array.length want.finish
  && Array.for_all2
       (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
       got.finish want.finish

(* Paranoid mode on a graph large enough that moves between the two
   processors change several chains at once: every structural move's
   emitted delta is asserted against the regenerate-and-diff reference,
   and the incremental evaluation must match a fresh build bit for bit. *)
let test_paranoid_large_dual () =
  let was = Solution.check_deltas_enabled () in
  Solution.set_check_deltas true;
  Fun.protect ~finally:(fun () -> Solution.set_check_deltas was) @@ fun () ->
  let application = layered_app () in
  let rng = Rng.create 5 in
  let s = Solution.random rng application (dual_platform ()) in
  let both_busy = ref false in
  for step = 1 to 1500 do
    (match Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s with
     | Some undo -> if Rng.bernoulli rng 0.3 then undo ()
     | None -> ());
    (match Solution.sw_orders s with
     | [ _ :: _; _ :: _ ] -> both_busy := true
     | _ -> ());
    if step mod 50 = 0 then
      match (Solution.evaluate s, Searchgraph.evaluate (Solution.spec s)) with
      | None, None -> ()
      | Some got, Some want ->
        if not (same_eval got want) then
          Alcotest.failf "step %d: incremental evaluation differs from a \
                          fresh build" step
      | _ -> Alcotest.failf "step %d: feasibility differs" step
  done;
  let stats = Solution.eval_stats s in
  Alcotest.(check bool) "both processors used" true !both_busy;
  Alcotest.(check bool) "deltas cross-checked" true
    (stats.Solution.pair_regens > 100);
  Alcotest.(check bool) "cross-processor moves served incrementally" true
    ((Solution.kind_stats stats Solution.Sw_migrate).Solution.k_incr_evals > 0)

(* The per-kind footprint counters of two fixed-seed annealing chains,
   recorded literally: a change to what any move touches (pairs
   emitted, edges edited, nodes refreshed, boundary terms patched)
   fails here instead of hiding in a timing. *)
let chain_counts application plat ~iterations ~seed =
  let config =
    {
      (Repro_dse.Explorer.default_config ~seed ()) with
      Repro_dse.Explorer.anneal =
        {
          Repro_anneal.Annealer.default_config with
          iterations;
          warmup_iterations = 200;
          seed;
        };
    }
  in
  let result = Repro_dse.Explorer.explore config application plat in
  let stats = Solution.eval_stats result.Repro_dse.Explorer.best in
  List.map
    (fun kind ->
      let k = Solution.kind_stats stats kind in
      ( Solution.move_kind_label kind,
        [ k.Solution.k_pairs_emitted; k.k_edges_edited; k.k_incr_nodes;
          k.k_comm_patched ] ))
    Solution.move_kinds

let test_pinned_move_counts () =
  let counts = Alcotest.(list (pair string (list int))) in
  Alcotest.check counts "motion detection"
    [ ("init", [ 0; 0; 0; 0 ]); ("impl", [ 0; 0; 12513; 0 ]);
      ("sw_reorder", [ 7910; 281; 1009; 0 ]);
      ("sw_migrate", [ 12892; 1276; 9707; 838 ]);
      ("ctx_migrate", [ 10182; 886; 7300; 573 ]);
      ("ctx_create", [ 4305; 181; 515; 49 ]);
      ("ctx_swap", [ 1421; 32; 48; 0 ]); ("platform", [ 0; 0; 0; 0 ]) ]
    (chain_counts
       (Repro_workloads.Motion_detection.app ())
       (Repro_workloads.Motion_detection.platform ~n_clb:2000 ())
       ~iterations:3000 ~seed:11);
  Alcotest.check counts "layered 128"
    [ ("init", [ 0; 0; 0; 0 ]); ("impl", [ 0; 0; 17056; 0 ]);
      ("sw_reorder", [ 13320; 1209; 9349; 0 ]);
      ("sw_migrate", [ 6396; 880; 10855; 479 ]);
      ("ctx_migrate", [ 7517; 369; 5482; 165 ]);
      ("ctx_create", [ 3997; 302; 2321; 70 ]);
      ("ctx_swap", [ 4388; 678; 1520; 0 ]); ("platform", [ 0; 0; 0; 0 ]) ]
    (chain_counts (layered_app ())
       (Repro_workloads.Motion_detection.platform ~n_clb:1200 ())
       ~iterations:2000 ~seed:12)

(* A saved proposal costs the same whatever the solution's size: the
   solution arrays are journaled, not copied, so 1,000
   save/mutate/undo cycles allocate as much on a 512-task solution as
   on a 50-task one.  [Gc.allocated_bytes] counts the major heap too,
   where arrays over 256 words go. *)
let test_save_allocation_flat () =
  let cycles_bytes ~gen_seed ~layers ~width =
    let application =
      Generators.layered ~name:"flat" (Rng.create gen_seed)
        Generators.default_impl_model ~layers ~width ~edge_probability:0.05
        ~mean_sw_time:2.0 ~mean_kbytes:8.0
    in
    let s =
      Solution.all_software application
        (Repro_workloads.Motion_detection.platform ~n_clb:2000 ())
    in
    let v =
      match
        List.find_opt
          (fun v -> Task.impl_count (App.task application v) >= 2)
          (List.init (App.size application) Fun.id)
      with
      | Some v -> v
      | None -> Alcotest.fail "no task with two implementations"
    in
    Solution.append_context s ~task:v;
    Alcotest.(check bool) "feasible" true (Solution.evaluate s <> None);
    let other = 1 - Solution.impl_index s v in
    let cycle () =
      let undo = Solution.save s in
      Solution.set_impl s v other;
      undo ()
    in
    cycle ();
    (* The runtime updates its major-heap counters lazily: read them
       between full collections, where they are settled. *)
    let allocated () =
      Gc.full_major ();
      Gc.allocated_bytes ()
    in
    let before = allocated () in
    for _ = 1 to 1000 do
      cycle ()
    done;
    let bytes = allocated () -. before in
    (App.size application, bytes)
  in
  let small_n, small = cycles_bytes ~gen_seed:15 ~layers:5 ~width:20 in
  let large_n, large = cycles_bytes ~gen_seed:237 ~layers:10 ~width:100 in
  Alcotest.(check (pair int int)) "sizes" (50, 512) (small_n, large_n);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes at %d tasks vs %.0f at %d (within 10%%)"
       large large_n small small_n)
    true
    (Float.abs (large -. small) <= 0.1 *. small)

(* A snapshot keeps its result but not the live evaluation state; its
   first [save] rebuilds that state once, so a propose/undo loop over a
   snapshot of an annealed state stays incremental instead of
   rebuilding on every performed move. *)
let test_snapshot_stays_incremental () =
  let application = Repro_workloads.Motion_detection.app () in
  let plat = Repro_workloads.Motion_detection.platform ~n_clb:2000 () in
  let config =
    {
      (Repro_dse.Explorer.default_config ~seed:5 ()) with
      Repro_dse.Explorer.anneal =
        {
          Repro_anneal.Annealer.default_config with
          iterations = 2000;
          warmup_iterations = 200;
          seed = 5;
        };
    }
  in
  let annealed =
    (Repro_dse.Explorer.explore config application plat).Repro_dse.Explorer.best
  in
  let s = Solution.snapshot annealed in
  let before = Solution.encode s in
  let stats = Solution.eval_stats s in
  let full0 = stats.Solution.full_evals and incr0 = stats.Solution.incr_evals in
  let rng = Rng.create 21 in
  let performed = ref 0 in
  for _ = 1 to 2000 do
    match Repro_dse.Moves.propose rng Repro_dse.Moves.fixed_architecture s with
    | Some undo ->
      incr performed;
      undo ()
    | None -> ()
  done;
  Alcotest.(check string) "undo restored the state" before (Solution.encode s);
  Alcotest.(check bool)
    (Printf.sprintf "%d full rebuilds over %d performed moves"
       (stats.Solution.full_evals - full0) !performed)
    true
    (stats.Solution.full_evals - full0 <= 1);
  Alcotest.(check bool) "performed moves were served incrementally" true
    (!performed > 0 && stats.Solution.incr_evals - incr0 >= !performed)

(* Large-instance bit-identity: a fixed-seed chain on a 512-task
   layered graph files this exact solution and cost. *)
let test_g512_chain_pinned () =
  let application =
    Generators.layered ~name:"g512" (Rng.create 237)
      Generators.default_impl_model ~layers:10 ~width:100
      ~edge_probability:0.05 ~mean_sw_time:2.0 ~mean_kbytes:8.0
  in
  Alcotest.(check int) "graph size" 512 (App.size application);
  let config =
    {
      (Repro_dse.Explorer.default_config ~seed:3 ()) with
      Repro_dse.Explorer.anneal =
        {
          Repro_anneal.Annealer.default_config with
          iterations = 3000;
          warmup_iterations = 200;
          seed = 3;
        };
    }
  in
  let r =
    Repro_dse.Explorer.explore config application
      (Repro_workloads.Motion_detection.platform ~n_clb:1200 ())
  in
  Alcotest.(check string) "solution CRC" "1a88eed0"
    (Repro_util.Checkpoint.crc32_hex (Solution.encode r.Repro_dse.Explorer.best));
  Alcotest.(check string) "best cost" "0x1.2d4ed32b311c1p+10"
    (Printf.sprintf "%h" r.Repro_dse.Explorer.best_cost)

let test_replace_platform () =
  let s = Solution.all_software (app ()) (platform ~n_clb:100 ()) in
  Solution.append_context s ~task:3;
  Solution.set_impl s 3 1 (* 90 CLBs *);
  Alcotest.(check bool) "fits 100" true (Solution.evaluate s <> None);
  Solution.replace_platform s (platform ~n_clb:50 ());
  Alcotest.(check bool) "overflows 50" true (Solution.evaluate s = None);
  Solution.replace_platform s (platform ~n_clb:200 ());
  Alcotest.(check bool) "fits 200" true (Solution.evaluate s <> None)

let suite =
  [
    Alcotest.test_case "all software" `Quick test_all_software;
    Alcotest.test_case "random valid" `Quick test_random_valid;
    Alcotest.test_case "random respects capacity" `Quick
      test_random_respects_capacity;
    Alcotest.test_case "move to context and back" `Quick
      test_move_to_context_and_back;
    Alcotest.test_case "capacity spawns context" `Quick
      test_capacity_spawns_context;
    Alcotest.test_case "insert context positions" `Quick
      test_insert_context_positions;
    Alcotest.test_case "swap contexts" `Quick test_swap_contexts;
    Alcotest.test_case "set impl" `Quick test_set_impl;
    Alcotest.test_case "capacity violation infeasible" `Quick
      test_capacity_violation_infeasible;
    Alcotest.test_case "save/restore" `Quick test_save_restore;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "evaluation caching" `Quick test_evaluation_caching;
    Alcotest.test_case "incremental locality" `Quick test_incremental_locality;
    Alcotest.test_case "incremental undo" `Quick test_incremental_undo;
    Alcotest.test_case "incremental matches reference (random moves)" `Quick
      test_incremental_matches_reference_random;
    Alcotest.test_case "structural moves served incrementally" `Quick
      test_structural_moves_incremental;
    QCheck_alcotest.to_alcotest qcheck_incremental_exact;
    Alcotest.test_case "native delta counters" `Quick
      test_native_delta_counters;
    QCheck_alcotest.to_alcotest qcheck_paranoid_deltas;
    Alcotest.test_case "paranoid deltas on a 2-processor layered graph" `Quick
      test_paranoid_large_dual;
    Alcotest.test_case "pinned move-path counts" `Quick
      test_pinned_move_counts;
    Alcotest.test_case "replace platform" `Quick test_replace_platform;
    Alcotest.test_case "save allocation independent of size" `Quick
      test_save_allocation_flat;
    Alcotest.test_case "propose/undo on a snapshot stays incremental" `Quick
      test_snapshot_stays_incremental;
    Alcotest.test_case "pinned 512-task chain" `Quick test_g512_chain_pinned;
  ]
