(* The baseline engines, run the way [dse-run --engine E --restarts 2
   -j 2] runs them, each wrapped from outside to report its timing,
   evaluation count and time to a target cost. *)

open Repro_dse
open Bench_util

let names = [ "ga"; "random"; "tabu"; "hill" ]

let registered =
  lazy
    (Repro_baseline.Engines.register_all ();
     List.map
       (fun n ->
         match Engine_registry.find n with
         | Ok e -> (n, e)
         | Error msg -> failwith msg)
       names)

let engine name = List.assoc name (Lazy.force registered)

type restart = {
  engine : string;
  start : int;
  stop : int;
  ttt_s : float option;
  outcome : Engine.outcome;
}

(* [engine] with the same name and behaviour; each run reports itself
   to [sink] (from whichever domain ran it).  [max_evaluations] caps
   the run's cost evaluations. *)
let instrument ?target ?max_evaluations ~sink (engine : Engine.t) : Engine.t =
  let module E = (val engine : Engine.S) in
  (module struct
    let name = E.name
    let describe = E.describe
    let knobs = E.knobs
    let default_iterations = E.default_iterations

    let run (ctx : Engine.context) =
      let start = now_ns () in
      let hit = ref (-1) in
      let observe =
        match target with
        | None -> ctx.Engine.observe
        | Some c ->
          Some
            (fun (p : Engine.probe) ->
              Option.iter (fun f -> f p) ctx.Engine.observe;
              if !hit < 0 && p.Engine.best <= c then hit := now_ns ())
      in
      let budget =
        match max_evaluations with
        | None -> ctx.Engine.budget
        | Some m -> { ctx.Engine.budget with Engine.max_evaluations = Some m }
      in
      let outcome = E.run { ctx with Engine.observe; budget } in
      let stop = now_ns () in
      let ttt_s =
        if !hit < 0 then None else Some (float_of_int (!hit - start) *. 1e-9)
      in
      sink { engine = E.name; start; stop; ttt_s; outcome };
      outcome
  end)

type cell = {
  engine_name : string;
  app_name : string;
  report : Explorer.restarts_report;
  restarts : restart list;  (* in start order *)
  start_ns : int;
  wall_s : float;
}

let jobs = 2
let restarts = 2

(* With [spans], the cell is a span and its restarts (run on worker
   domains) are recorded as its children. *)
let run_cell ?spans ?target ?max_evaluations ~engine_name ~iterations ~seed
    ~app_name app platform =
  let mutex = Mutex.create () and got = ref [] in
  let sink r = Mutex.protect mutex (fun () -> got := r :: !got) in
  let engine = instrument ?target ?max_evaluations ~sink (engine engine_name) in
  Option.iter
    (fun sp -> Spans.enter sp (Spans.id sp "explorer.restarts_supervised"))
    spans;
  let start_ns = now_ns () in
  let report =
    Explorer.explore_restarts_supervised ~engine ~jobs ~restarts
      (Sa.config ~iterations ~seed) app platform
  in
  let wall_s = since_s start_ns in
  let restarts = List.sort (fun a b -> compare a.start b.start) !got in
  Option.iter
    (fun sp ->
      Spans.children sp
        (Spans.id sp (Printf.sprintf "engine.%s.run" engine_name))
        (List.map (fun r -> (r.start, r.stop)) restarts);
      ignore (Spans.leave sp : int))
    spans;
  { engine_name; app_name; report; restarts; start_ns; wall_s }

(* Every restart must finish [done] (and reach the target when one is
   set); the cell's best must pass the solution checks.  Returns the
   number of failed restarts. *)
let check_cell checks ~targeted c =
  let failed =
    Array.fold_left
      (fun n s -> if s = Explorer.Item_done then n else n + 1)
      0 c.report.Explorer.restart_statuses
  in
  let missed =
    if targeted then List.length (List.filter (fun r -> r.ttt_s = None) c.restarts)
    else 0
  in
  let what = Printf.sprintf "%s on %s" c.engine_name c.app_name in
  (match c.report.Explorer.best_result with
   | Some r -> Checks.solution checks ~what r.Explorer.best ~cost:r.Explorer.best_cost
   | None -> Checks.check checks "restart-survived" false (fun () -> what ^ ": no survivor"));
  max failed missed

(* Per-layer metrics of a set of finished cells plus direct calls of the
   solution primitives on each instance. *)
let layers spans checks ~calls cells instances =
  let by_engine =
    List.map
      (fun name ->
        let rs =
          List.concat_map
            (fun c -> List.filter (fun r -> r.engine = name) c.restarts)
            cells
        in
        let evals = List.fold_left (fun n r -> n + r.outcome.Engine.evaluations) 0 rs in
        let ns = List.fold_left (fun n r -> n + (r.stop - r.start)) 0 rs in
        metric
          (Printf.sprintf "engine.%s.evals_per_s" name)
          "1/s"
          (float_of_int evals /. (float_of_int ns *. 1e-9)))
      names
  in
  let busy =
    List.fold_left
      (fun s c ->
        s +. List.fold_left (fun s r -> s +. (float_of_int (r.stop - r.start) *. 1e-9)) 0.0 c.restarts)
      0.0 cells
  in
  let wall = List.fold_left (fun s c -> s +. c.wall_s) 0.0 cells in
  let random = Probe.acc () and encode = Probe.acc () and decode = Probe.acc ()
  and copy = Probe.acc () in
  let id_random = Spans.id spans "solution.random"
  and id_encode = Spans.id spans "solution.encode"
  and id_decode = Spans.id spans "solution.decode"
  and id_copy = Spans.id spans "solution.copy" in
  List.iteri
    (fun k (app, platform) ->
      let rng = Repro_util.Rng.create (k + 1) in
      for _ = 1 to calls do
        let s =
          Probe.measure spans id_random random (fun () -> Solution.random rng app platform)
        in
        let text = Probe.measure spans id_encode encode (fun () -> Solution.encode s) in
        let back =
          Probe.measure spans id_decode decode (fun () -> Solution.decode app platform text)
        in
        let dup = Probe.measure spans id_copy copy (fun () -> Solution.copy s) in
        Checks.check checks "encode-roundtrip"
          (match back with
           | Ok b -> Solution.encode b = text && Solution.encode dup = text
           | Error _ -> false)
          (fun () -> "decode (encode s) or copy s does not re-encode to s")
      done)
    instances;
  by_engine
  @ Probe.ns_words "solution.random" random
  @ Probe.ns_words "solution.encode" encode
  @ Probe.ns_words "solution.decode" decode
  @ Probe.ns_words "solution.copy" copy
  @ [ metric "parallel.efficiency" "ratio" (busy /. (float_of_int jobs *. wall)) ]
