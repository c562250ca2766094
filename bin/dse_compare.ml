(* Method comparison on the motion-detection case study (the paper's §5
   comparison with the GA of Ben Chehida & Auguin, plus the extra
   baselines of this reproduction).

     dse-compare --clbs 2000 -j 4
     dse-compare --engines sa,ga,tabu --seed 7
     dse-compare --list-engines

   Every method is a registered engine run through the one generic
   driver (Engine.run with a per-method budget); the only non-engine
   row is the all-software reference.  Methods are independent
   computations, so they run concurrently on --jobs domains; rows are
   collected in registration order and every method gets the same
   seed, so the table is identical for any --jobs.
*)

open Cmdliner
module Md = Repro_workloads.Motion_detection
module Engine = Repro_dse.Engine
module Registry = Repro_dse.Engine_registry
module Solution = Repro_dse.Solution
module Ga = Repro_baseline.Ga
module Table = Repro_util.Table
module Parallel = Repro_util.Parallel

type row = {
  method_name : string;
  makespan : float;
  contexts : string;
  evaluations : string;
  seconds : float;
}

(* A row as one checkpoint line (tab-separated; names contain spaces). *)
let encode_row r =
  Printf.sprintf "%s\t%h\t%s\t%s\t%h" r.method_name r.makespan r.contexts
    r.evaluations r.seconds

let decode_row line =
  match String.split_on_char '\t' line with
  | [ method_name; makespan; contexts; evaluations; seconds ] ->
    {
      method_name;
      makespan = float_of_string makespan;
      contexts;
      evaluations;
      seconds = float_of_string seconds;
    }
  | _ -> Cli_common.fail "malformed comparison checkpoint row %S" line

let list_engines () =
  let table =
    Table.create
      [
        ("engine", Table.Left); ("default budget", Table.Right);
        ("what it is", Table.Left); ("knobs", Table.Left);
      ]
  in
  List.iter
    (fun engine ->
      Table.add_row table
        [
          Engine.name engine;
          string_of_int (Engine.default_iterations engine);
          Engine.describe engine;
          Engine.knobs engine;
        ])
    (Registry.all ());
  print_string (Table.render table)

(* The tenure × aspiration grid behind --grid tabu: the bench's
   tenure-sensitivity ablation promoted to a user-facing table (the
   paper's argument that tabu needs the tuning the adaptive schedule
   does not). *)
let tabu_grid () =
  List.concat_map
    (fun tenure ->
      List.map
        (fun aspiration ->
          ( Printf.sprintf "tabu[t=%d%s]" tenure
              (if aspiration then ",asp" else ""),
            Repro_baseline.Tabu.engine_with ~tenure ~aspiration () ))
        [ false; true ])
    [ 5; 10; 20; 40; 80 ]

let run clbs seed sa_iters ga_generations ga_population evals engines_spec
    grid list_only jobs checkpoint_path time_budget =
  Cli_common.guard @@ fun () ->
  (match evals with
   | Some n when n < 1 ->
     Cli_common.fail "--evals wants a positive evaluation count"
   | _ -> ());
  (* The GA engines honour --ga-population; re-registration keeps their
     registry position. *)
  Registry.register (Ga.engine ~population:ga_population ());
  Registry.register
    (Ga.engine ~population:ga_population ~explore_impls:false ());
  if list_only then begin
    list_engines ();
    Cli_common.exit_ok
  end
  else begin
  (* Rows are (label, engine): the label distinguishes grid points that
     share one registry name. *)
  let selected =
    match (grid, engines_spec) with
    | Some _, spec when spec <> "" ->
      Cli_common.fail "--grid and --engines conflict; pick one"
    | Some "tabu", _ -> tabu_grid ()
    | Some other, _ ->
      Cli_common.fail "--grid supports: tabu (got %S)" other
    | None, "" ->
      List.map (fun e -> (Engine.name e, e)) (Registry.all ())
    | None, spec ->
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun name -> name <> "")
      |> List.map (fun name ->
             let e = Cli_common.or_fail (Repro_dse.Portfolio.resolve name) in
             (Engine.name e, e))
  in
  if selected = [] then Cli_common.fail "--engines names no engine";
  let app = Md.app () in
  let platform = Md.platform ~n_clb:clbs () in

  (* Per-engine iteration budgets.  The historical table gave random
     sampling a tenth of the SA move budget and the climbers the full
     one; tabu sweeps a whole neighbourhood per iteration, so its
     budget is scaled down to roughly the SA evaluation count.
     Anything else falls back to the engine's own default.  --evals
     replaces all of this with one engine-neutral currency: every
     engine stops at the first iteration boundary reaching the same
     cost-evaluation budget (the iteration cap is then just a
     backstop, since every engine spends at least one evaluation per
     iteration). *)
  let budget_for engine =
    match evals with
    | Some n -> n
    | None -> (
      match Engine.name engine with
      | "sa" | "hill" -> sa_iters
      | "ga" | "ga-spatial" -> ga_generations
      | "random" -> sa_iters / 10
      | "tabu" -> max 1 (sa_iters / Repro_baseline.Tabu.default_neighbourhood)
      | _ -> Engine.default_iterations engine)
  in

  (* One generic row per engine: same seed, same workload, one call
     into the uniform driver. *)
  let engine_row (label, engine) () =
    let ctx =
      Engine.context ?max_evaluations:evals ~app ~platform ~seed
        ~iterations:(budget_for engine) ()
    in
    let o = Engine.run engine ctx in
    let contexts =
      match Repro_sched.Searchgraph.evaluate (Solution.spec o.Engine.best) with
      | Some eval ->
        string_of_int eval.Repro_sched.Searchgraph.n_contexts
      | None -> "-"
    in
    {
      method_name = label;
      makespan = o.Engine.best_cost;
      contexts;
      evaluations = string_of_int o.Engine.evaluations;
      seconds = o.Engine.wall_seconds;
    }
  in
  let methods : (unit -> row) list =
    (* All-software reference: not a search, kept outside the engines. *)
    (fun () ->
      let all_sw = Solution.all_software app platform in
      {
        method_name = "all-software";
        makespan = Solution.makespan all_sw;
        contexts = "0";
        evaluations = "1";
        seconds = 0.0;
      })
    :: List.map engine_row selected
  in
  let method_arr = Array.of_list methods in
  let checkpoint =
    Option.map
      (fun path ->
        {
          Cli_common.ckpt_path = path;
          kind = "dse-compare";
          fingerprint =
            Printf.sprintf
              "compare clbs=%d seed=%d sa_iters=%d ga_gen=%d ga_pop=%d \
               evals=%s engines=%s"
              clbs seed sa_iters ga_generations ga_population
              (match evals with None -> "-" | Some n -> string_of_int n)
              (String.concat "," (List.map fst selected));
          encode = encode_row;
          decode = decode_row;
        })
      checkpoint_path
  in
  (* The engines do not poll a stop probe mid-method here, so a method
     runs to completion; supervision still isolates a raising method
     to its own row instead of losing the whole table. *)
  let outcome =
    Cli_common.run_cells ?checkpoint ~jobs
      ~should_stop:(Cli_common.should_stop ~time_budget)
      (Array.length method_arr)
      (fun i ~stop:_ -> method_arr.(i) ())
  in
  match outcome with
  | `Interrupted (done_rows, total) ->
    Printf.printf "interrupted: %d/%d method(s) completed%s\n" done_rows total
      (match checkpoint_path with
       | Some path ->
         Printf.sprintf
           "; persisted to %s — rerun with the same flags to resume" path
       | None -> "");
    Cli_common.exit_interrupted
  | `Complete (cells, warnings) ->
  Cli_common.report_warnings ~what:"method" warnings;
  let lost =
    Array.fold_left (fun n c -> if c = None then n + 1 else n) 0 cells
  in
  if lost > 0 then
    Repro_util.Log.warn
      "%d of %d method(s) lost; the table covers the survivors" lost
      (Array.length cells);
  let rows = Array.to_list cells |> List.filter_map Fun.id in

  let table =
    Table.create
      [
        ("method", Table.Left); ("makespan ms", Table.Right);
        ("contexts", Table.Right); ("evaluations", Table.Right);
        ("time s", Table.Right); ("40 ms", Table.Left);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.method_name;
          Table.cell_float r.makespan;
          r.contexts;
          r.evaluations;
          Table.cell_float ~decimals:2 r.seconds;
          (if r.makespan <= Md.deadline_ms then "met" else "missed");
        ])
    rows;
  Printf.printf
    "Method comparison, motion detection, %d CLBs (paper: SA 18.1 ms < GA 28 ms; SA <10 s, GA ~4 min)\n\n"
    clbs;
  print_string (Table.render table);
  Cli_common.exit_ok
  end

let clbs_arg =
  Arg.(value & opt int 2000 & info [ "clbs" ] ~doc:"FPGA size in CLBs")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed")

let sa_iters_arg =
  Arg.(value & opt int 50_000
       & info [ "sa-iters" ]
           ~doc:"Move budget for the sa, hill and tabu engines (random \
                 sampling gets a tenth of it)")

let ga_generations_arg =
  Arg.(value & opt int 120 & info [ "ga-generations" ] ~doc:"GA generations")

let ga_population_arg =
  Arg.(value & opt int 300 & info [ "ga-population" ]
       ~doc:"GA population (paper: 300)")

let evals_arg =
  Arg.(value & opt (some int) None
       & info [ "evals" ]
           ~doc:"Give every engine the same cost-evaluation budget $(docv) \
                 instead of the per-engine iteration heuristics: each run \
                 completes at the first iteration boundary where the count \
                 reaches $(docv) (so it may overshoot by one iteration's \
                 evaluations) — the engine-neutral fairness knob"
           ~docv:"N")

let engines_arg =
  Arg.(value & opt string ""
       & info [ "engines" ]
           ~doc:"Comma-separated engine names to compare, in table order \
                 (default: every registered engine; see --list-engines)"
           ~docv:"NAMES")

let grid_arg =
  Arg.(value & opt (some string) None
       & info [ "grid" ]
           ~doc:"Compare a knob grid of one engine instead of distinct \
                 engines.  $(docv) = tabu sweeps tenure x aspiration \
                 (rows tabu[t=5] .. tabu[t=80,asp]); conflicts with \
                 --engines"
           ~docv:"ENGINE")

let list_engines_arg =
  Arg.(value & flag
       & info [ "list-engines" ]
           ~doc:"Print the registered engines (name, default budget, \
                 description, knobs) and exit")

let jobs_arg =
  Arg.(value & opt int (Parallel.default_jobs ())
       & info [ "jobs"; "j" ]
           ~doc:"Domains used to run the methods concurrently (default: the \
                 machine's recommended domain count); results are identical \
                 for every value")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ]
           ~doc:"Persist completed method rows to $(docv); if the file \
                 already exists (same flags), those methods are skipped — \
                 interrupt with SIGINT and rerun to resume"
           ~docv:"FILE")

let time_budget_arg =
  Arg.(value & opt (some float) None
       & info [ "time-budget" ]
           ~doc:"Stop at the next method boundary once $(docv) wall-clock \
                 seconds have elapsed (exit code 3)"
           ~docv:"SECS")

let cmd =
  let doc = "compare the explorer against the baselines (§5 comparison)" in
  Cmd.v (Cmd.info "dse-compare" ~doc ~exits:Cli_common.exits)
    Term.(const run $ clbs_arg $ seed_arg $ sa_iters_arg $ ga_generations_arg
          $ ga_population_arg $ evals_arg $ engines_arg $ grid_arg
          $ list_engines_arg $ jobs_arg $ checkpoint_arg $ time_budget_arg)

let () = exit (Cmd.eval' cmd)
