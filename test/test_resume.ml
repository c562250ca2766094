(* The determinism contract of checkpoint/resume: a run interrupted at
   iteration k and resumed from its checkpoint must finish bit-identical
   to the run that was never interrupted. *)

module Md = Repro_workloads.Motion_detection
module Engine = Repro_dse.Engine
module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Annealer = Repro_anneal.Annealer
module Interrupt = Repro_util.Interrupt
module Atomic_io = Repro_util.Atomic_io
module Checkpoint = Repro_util.Checkpoint
module Log = Repro_util.Log

let with_temp f =
  let path = Filename.temp_file "repro_resume" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let config ~seed =
  let base = Explorer.default_config ~seed () in
  {
    base with
    Explorer.anneal =
      { base.Explorer.anneal with Annealer.iterations = 1_500;
        warmup_iterations = 300 };
  }

let solution_text s = Format.asprintf "%a" Solution.pp s

let ckpt ?(every = 500) path resume = { Engine.path; every; resume }

(* A required resume that must fail: the diagnostic is one line. *)
let required_fails what cfg app platform path =
  match
    Explorer.explore ~checkpoint:(ckpt path Engine.Resume_required) cfg app
      platform
  with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Failure msg ->
    Alcotest.(check bool) (what ^ ": one-line error") false
      (String.contains msg '\n')

let check_same_outcome label (full : Explorer.result)
    (resumed : Explorer.result) =
  Alcotest.(check (float 0.0)) (label ^ ": best cost") full.Explorer.best_cost
    resumed.Explorer.best_cost;
  Alcotest.(check string) (label ^ ": best solution")
    (solution_text full.Explorer.best)
    (solution_text resumed.Explorer.best);
  Alcotest.(check int) (label ^ ": iterations") full.Explorer.iterations_run
    resumed.Explorer.iterations_run;
  Alcotest.(check int) (label ^ ": accepted") full.Explorer.accepted
    resumed.Explorer.accepted;
  Alcotest.(check int) (label ^ ": infeasible") full.Explorer.infeasible
    resumed.Explorer.infeasible;
  Alcotest.(check (float 0.0)) (label ^ ": initial cost")
    full.Explorer.initial_cost resumed.Explorer.initial_cost

let test_interrupt_then_resume () =
  with_temp @@ fun path ->
  let cfg = config ~seed:11 in
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  let full = Explorer.explore cfg app platform in
  Alcotest.(check string) "full run completes" "complete"
    (Annealer.status_name full.Explorer.status);
  (* Interrupt mid-run: the stop probe fires after 700 boundaries, the
     engine flushes a final checkpoint and reports Interrupted. *)
  let polls = ref 0 in
  let interrupted =
    Explorer.explore
      ~checkpoint:(ckpt ~every:10_000 path Engine.Resume_never)
      ~should_stop:(fun () -> incr polls; !polls > 700)
      cfg app platform
  in
  Alcotest.(check string) "interrupted status" "interrupted"
    (Annealer.status_name interrupted.Explorer.status);
  Alcotest.(check bool) "stopped early" true
    (interrupted.Explorer.iterations_run < full.Explorer.iterations_run);
  Alcotest.(check bool) "checkpoint flushed" true (Sys.file_exists path);
  (* Resume from the flushed checkpoint and finish. *)
  let resumed =
    Explorer.explore
      ~checkpoint:(ckpt ~every:10_000 path Engine.Resume_required)
      cfg app platform
  in
  Alcotest.(check string) "resumed run completes" "complete"
    (Annealer.status_name resumed.Explorer.status);
  check_same_outcome "interrupt+resume" full resumed

let test_periodic_checkpoint_resume () =
  with_temp @@ fun path ->
  let cfg = config ~seed:23 in
  let app = Md.app () in
  let platform = Md.platform ~n_clb:1000 () in
  let full = Explorer.explore cfg app platform in
  (* Same run with a periodic sink: the file ends up holding the last
     periodic snapshot, and the checkpointed run itself is unperturbed. *)
  let checkpointed =
    Explorer.explore
      ~checkpoint:(ckpt ~every:400 path Engine.Resume_never)
      cfg app platform
  in
  check_same_outcome "sink does not perturb" full checkpointed;
  let resumed =
    Explorer.explore
      ~checkpoint:(ckpt ~every:400 path Engine.Resume_required)
      cfg app platform
  in
  check_same_outcome "periodic resume" full resumed

let test_fingerprint_mismatch () =
  with_temp @@ fun path ->
  let cfg = config ~seed:3 in
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  ignore
    (Explorer.explore ~checkpoint:(ckpt path Engine.Resume_never) cfg app
       platform);
  required_fails "wrong seed" (config ~seed:4) app platform path;
  (* Every schedule parameter is bound, not just the schedule's kind: a
     Lam run must not continue under another quality. *)
  required_fails "wrong Lam quality"
    {
      cfg with
      Explorer.anneal =
        {
          cfg.Explorer.anneal with
          Annealer.schedule = Repro_anneal.Schedule.lam ~quality:0.05 ();
        };
    }
    app platform path;
  required_fails "wrong platform" cfg app (Md.platform ~n_clb:999 ()) path

let test_objective_mismatch () =
  (* A serialized-bus checkpoint must not resume under the makespan
     objective: the two cost scales would mix in one run. *)
  with_temp @@ fun path ->
  let cfg = config ~seed:3 in
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  ignore
    (Explorer.explore ~checkpoint:(ckpt path Engine.Resume_never)
       { cfg with Explorer.objective = Explorer.Makespan_serialized }
       app platform);
  required_fails "wrong objective" cfg app platform path

let test_corrupt_checkpoint_rejected () =
  with_temp @@ fun path ->
  let cfg = config ~seed:5 in
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  ignore
    (Explorer.explore ~checkpoint:(ckpt path Engine.Resume_never) cfg app
       platform);
  let contents =
    match Atomic_io.read_file path with
    | Ok c -> c
    | Error msg -> Alcotest.fail msg
  in
  let mangled = Bytes.of_string contents in
  let i = String.length contents / 2 in
  Bytes.set mangled i (Char.chr (Char.code (Bytes.get mangled i) lxor 1));
  Atomic_io.write_string path (Bytes.to_string mangled);
  required_fails "corrupt checkpoint" cfg app platform path

let test_legacy_kind () =
  (* A "dse-run"-kind file (the annealer's former snapshot format, as
     an old spool may still hold) does not resume: a required resume
     fails with one line, an opportunistic one warns and starts fresh —
     bit-identical to a run that never saw the file. *)
  with_temp @@ fun path ->
  let cfg = config ~seed:9 in
  let app = Md.app () in
  let platform = Md.platform ~n_clb:2000 () in
  Checkpoint.save path ~kind:"dse-run" "fingerprint 0\n";
  required_fails "dse-run kind" cfg app platform path;
  let warnings = Filename.temp_file "repro_resume" ".log" in
  let level = List.find Log.enabled Log.[ Debug; Info; Warn; Error ] in
  let fresh =
    Fun.protect
      ~finally:(fun () ->
        Log.set_sink None;
        Log.set_level level)
      (fun () ->
        Log.set_level Log.Warn;
        Log.set_sink (Some warnings);
        Explorer.explore ~checkpoint:(ckpt path Engine.Resume_if_exists) cfg
          app platform)
  in
  let log = In_channel.with_open_bin warnings In_channel.input_all in
  Sys.remove warnings;
  let mentions needle =
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length log
      && (String.sub log i n = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "warned about the unusable file" true
    (mentions "ignoring unusable checkpoint");
  check_same_outcome "fresh start" (Explorer.explore cfg app platform) fresh

let test_interrupt_request_flag () =
  (* The programmatic interruption path used by the CLIs: a pending
     request stops the run at the very first boundary. *)
  Interrupt.clear ();
  Interrupt.request ();
  Alcotest.(check bool) "pending" true (Interrupt.pending ());
  let result =
    Explorer.explore ~should_stop:Interrupt.pending (config ~seed:7) (Md.app ())
      (Md.platform ~n_clb:2000 ())
  in
  Interrupt.clear ();
  Alcotest.(check bool) "cleared" false (Interrupt.pending ());
  Alcotest.(check string) "stopped immediately" "interrupted"
    (Annealer.status_name result.Explorer.status);
  Alcotest.(check int) "zero iterations" 0 result.Explorer.iterations_run

let suite =
  [
    Alcotest.test_case "interrupt at k then resume ≡ uninterrupted" `Quick
      test_interrupt_then_resume;
    Alcotest.test_case "periodic checkpoint resume ≡ uninterrupted" `Quick
      test_periodic_checkpoint_resume;
    Alcotest.test_case "fingerprint mismatch rejected" `Quick
      test_fingerprint_mismatch;
    Alcotest.test_case "objective mismatch rejected" `Quick
      test_objective_mismatch;
    Alcotest.test_case "corrupt checkpoint rejected" `Quick
      test_corrupt_checkpoint_rejected;
    Alcotest.test_case "dse-run kind is not resumed" `Quick test_legacy_kind;
    Alcotest.test_case "interrupt request flag" `Quick
      test_interrupt_request_flag;
  ]
