(* Simulated-annealing chains: the untraced chain the SA workloads
   time, and the traced replay that times each layer under it. *)

open Repro_dse
open Repro_sched
open Bench_util
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule
module Rng = Repro_util.Rng

(* The paper's configuration: Lam schedule after a 1200-iteration
   infinite-temperature warmup, fixed architecture, makespan
   objective; the Lam quality scales with the budget as in the
   repository's own benches. *)
let config ~iterations ~seed =
  {
    Explorer.anneal =
      {
        Annealer.iterations;
        warmup_iterations = 1_200;
        schedule = Schedule.lam ~quality:(150.0 /. float_of_int iterations) ();
        seed;
        frozen_window = None;
      };
    moves = Moves.fixed_architecture;
    objective = Explorer.Makespan;
  }

(* What a chain's time-to-target means: reaching a fixed cost, or (on
   generated graphs, where no fixed cost fits every graph) returning
   its result at the full budget. *)
type target = Cost of float | Full_budget

type chain = {
  config : Explorer.config;
  result : Explorer.result;
  wall_s : float;
  ttt_s : float option;
}

let run_chain ~target config app platform =
  let t0 = now_ns () in
  let hit = ref (-1) in
  let result =
    match target with
    | Full_budget -> Explorer.explore config app platform
    | Cost c ->
      let on_iteration ~iteration:_ ~cost:_ ~best ~temperature:_ ~accepted:_ =
        if !hit < 0 && best <= c then hit := now_ns ()
      in
      Explorer.explore ~on_iteration config app platform
  in
  let wall_s = since_s t0 in
  let ttt_s =
    match target with
    | Cost _ -> if !hit < 0 then None else Some (float_of_int (!hit - t0) *. 1e-9)
    | Full_budget -> Some wall_s
  in
  { config; result; wall_s; ttt_s }

let check_chain checks ~what c =
  Checks.solution checks ~what c.result.Explorer.best ~cost:c.result.Explorer.best_cost

(* ---- traced replay ------------------------------------------------ *)

type ids = {
  i_run : int;
  i_propose : int;
  i_undo : int;
  i_makespan : int;
  i_snapshot : int;
}

type sa_acc = {
  propose : Probe.acc;
  undo : Probe.acc;
  makespan : Probe.acc;
  snapshot : Probe.acc;
  mutable not_performed : int;
  mutable iterations : int;
  mutable traced_ns : int;
  mutable untraced_s : float;
}

(* Re-run a chain through [Annealer.Make] with every [PROBLEM] callback
   wrapped in a span, starting from the state [Explorer.explore] starts
   from; returns the best solution and the chain's duration. *)
let traced_chain spans ids a (config : Explorer.config) app platform =
  let solution =
    Solution.random (Rng.create config.Explorer.anneal.Annealer.seed) app platform
  in
  ignore (Solution.evaluate solution : Searchgraph.eval option);
  let module P = struct
    type state = Solution.t

    let cost s = Probe.measure spans ids.i_makespan a.makespan (fun () -> Solution.makespan s)
    let snapshot s = Probe.measure spans ids.i_snapshot a.snapshot (fun () -> Solution.snapshot s)

    let propose rng s =
      match
        Probe.measure spans ids.i_propose a.propose (fun () ->
            Moves.propose rng config.Explorer.moves s)
      with
      | None ->
        a.not_performed <- a.not_performed + 1;
        None
      | Some undo -> Some (fun () -> Probe.measure spans ids.i_undo a.undo undo)
  end in
  let module E = Annealer.Make (P) in
  Spans.enter spans ids.i_run;
  let o = E.run config.Explorer.anneal solution in
  let ns = Spans.leave spans in
  a.traced_ns <- a.traced_ns + ns;
  a.iterations <- a.iterations + o.Annealer.iterations_run;
  o.Annealer.best

type tracer = {
  spans : Spans.t;
  ids : ids;
  acc : sa_acc;
  stats : int array;  (* eval_stats counters summed over the chains *)
  mutable annealed : Solution.t option;  (* the first traced best *)
}

let tracer spans =
  {
    spans;
    ids =
      {
        i_run = Spans.id spans "annealer.run";
        i_propose = Spans.id spans "moves.propose";
        i_undo = Spans.id spans "solution.undo";
        i_makespan = Spans.id spans "solution.makespan";
        i_snapshot = Spans.id spans "solution.snapshot";
      };
    acc =
      {
        propose = Probe.acc ();
        undo = Probe.acc ();
        makespan = Probe.acc ();
        snapshot = Probe.acc ();
        not_performed = 0;
        iterations = 0;
        traced_ns = 0;
        untraced_s = 0.0;
      };
    stats = Array.make 6 0;
    annealed = None;
  }

(* Replay one untraced chain traced, right after it ran (so both see the
   same host conditions); the traced best must encode exactly to the
   untraced one. *)
let replay t checks c app platform =
  let a = t.acc in
  let best = traced_chain t.spans t.ids a c.config app platform in
  let traced = Solution.encode best in
  let traced = if Checks.corrupting "trace" then traced ^ "#" else traced in
  Checks.check checks "trace-bit-identical"
    (traced = Solution.encode c.result.Explorer.best) (fun () ->
      Printf.sprintf "chain seed %d: traced best differs from untraced"
        c.config.Explorer.anneal.Annealer.seed);
  a.untraced_s <- a.untraced_s +. c.wall_s;
  let st = Solution.eval_stats best in
  Array.iteri
    (fun i v -> t.stats.(i) <- t.stats.(i) + v)
    [|
      st.Solution.incr_nodes; st.Solution.incr_evals; st.Solution.pairs_emitted;
      st.Solution.comm_patched; st.Solution.edges_edited; st.Solution.pair_regens;
    |];
  if t.annealed = None then t.annealed <- Some best

(* The SA layers' metrics over every replayed chain. *)
let traced_layers t checks =
  let a = t.acc and stats = t.stats in
  let pair_regens = stats.(5) in
  if not (Solution.check_deltas_enabled ()) then
    Checks.check checks "pair-regens-zero" (pair_regens = 0) (fun () ->
        Printf.sprintf "%d global pair regenerations on the move path" pair_regens);
  let performed = a.propose.Probe.calls - a.not_performed in
  let callbacks =
    a.propose.Probe.ns + a.undo.Probe.ns + a.makespan.Probe.ns + a.snapshot.Probe.ns
  in
  Probe.ns_words "moves.propose" a.propose
  @ [
      metric "moves.propose.not_performed_ratio" "ratio"
        (ratio a.not_performed a.propose.Probe.calls);
    ]
  @ Probe.ns_words "solution.undo" a.undo
  @ Probe.ns_words "solution.snapshot" a.snapshot
  @ Probe.ns_words "solution.makespan" a.makespan
  @ [
      metric "annealer.self_ns_per_iter" "ns"
        (float_of_int (a.traced_ns - callbacks) /. float_of_int (max 1 a.iterations));
      metric "longest_path.nodes_per_refresh" "nodes" (ratio stats.(0) stats.(1));
      metric "searchgraph.pairs_per_move" "pairs" (ratio stats.(2) performed);
      metric "searchgraph.comm_patched_per_move" "terms" (ratio stats.(3) performed);
      metric "solution.edges_per_move" "edges" (ratio stats.(4) performed);
      metric "searchgraph.pair_regens" "count" (float_of_int pair_regens);
      metric "trace.overhead_ratio" "ratio"
        (float_of_int a.traced_ns *. 1e-9 /. a.untraced_s);
    ]

(* ---- per-kind replay and direct evaluation calls ------------------ *)

let kinds =
  [
    ("impl", Solution.Impl);
    ("sw_reorder", Solution.Sw_reorder);
    ("sw_migrate", Solution.Sw_migrate);
    ("ctx_migrate", Solution.Ctx_migrate);
    ("ctx_create", Solution.Ctx_create);
    ("ctx_swap", Solution.Ctx_swap);
  ]

(* Each kind is drawn [draws] times on the annealed state through
   [Moves.propose_kind]; a performed move is undone at once, so every
   draw sees the same state.  Then [calls] direct calls each of
   [Longest_path.refresh] (one node's weight bumped, then restored),
   [Longest_path.recompute] and [Searchgraph.evaluate] on its spec. *)
let replay_layers spans checks ~seed ~draws ~calls state =
  let mconfig = Moves.fixed_architecture in
  let before = Solution.encode state in
  let kind_metrics =
    List.concat_map
      (fun (label, kind) ->
        let name = "moves." ^ label in
        let id = Spans.id spans name in
        let a = Probe.acc () in
        let rng = Rng.create seed in
        let performed = ref 0 in
        for _ = 1 to draws do
          Probe.measure spans id a (fun () ->
              match Moves.propose_kind rng mconfig state kind with
              | Some undo ->
                incr performed;
                undo ()
              | None -> ())
        done;
        Probe.ns_words name a
        @ [ metric (name ^ ".performed_ratio") "ratio" (ratio !performed draws) ])
      kinds
  in
  Checks.check checks "undo-restores" (Solution.encode state = before) (fun () ->
      "per-kind replay: undo did not restore the annealed state");
  let spec = Solution.spec state in
  let graph, node_weight, edge_weight = Searchgraph.build spec in
  let n = Repro_taskgraph.Graph.size graph in
  let weights = Array.init n node_weight in
  let lp =
    match
      Longest_path.create graph ~node_weight:(fun v -> weights.(v)) ~edge_weight
    with
    | Some lp -> lp
    | None -> failwith "replay: annealed search graph is cyclic"
  in
  let refresh = Probe.acc () and recompute = Probe.acc () and evaluate = Probe.acc () in
  let id_refresh = Spans.id spans "longest_path.refresh"
  and id_recompute = Spans.id spans "longest_path.recompute"
  and id_evaluate = Spans.id spans "searchgraph.evaluate" in
  let rng = Rng.create (seed + 1) in
  for _ = 1 to calls do
    let v = Rng.int rng n in
    let w = weights.(v) in
    weights.(v) <- w +. 1.0;
    Probe.measure spans id_refresh refresh (fun () -> Longest_path.refresh lp [ v ]);
    weights.(v) <- w;
    Probe.measure spans id_refresh refresh (fun () -> Longest_path.refresh lp [ v ])
  done;
  let incremental = Longest_path.makespan lp in
  for _ = 1 to calls do
    Probe.measure spans id_recompute recompute (fun () -> Longest_path.recompute lp)
  done;
  let fresh = ref None in
  for _ = 1 to calls do
    fresh := Probe.measure spans id_evaluate evaluate (fun () -> Searchgraph.evaluate spec)
  done;
  let evaluated =
    match !fresh with Some e -> e.Searchgraph.makespan | None -> nan
  in
  Checks.check checks "refresh-equals-recompute"
    (incremental = Longest_path.makespan lp && incremental = evaluated)
    (fun () ->
      Printf.sprintf "refreshed %.17g, recomputed %.17g, evaluated %.17g"
        incremental (Longest_path.makespan lp) evaluated);
  kind_metrics
  @ Probe.ns_words "longest_path.refresh" refresh
  @ Probe.ns_words "longest_path.recompute" recompute
  @ Probe.ns_words "searchgraph.evaluate" evaluate
