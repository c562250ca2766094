(* Resume-conformance suite: every engine in the registry survives a
   kill at an arbitrary iteration boundary.  For each engine the run is
   interrupted after k iterations (k = 0, 1, mid, last) with a
   checkpoint flushed on the way out; a second process image (a fresh
   run resuming from the file) must finish with a bit-identical
   outcome: same best solution text, same best and initial cost bits,
   same iteration and evaluation counters.

   Damage handling rides along: corrupted, truncated, foreign-engine
   and foreign-kind checkpoints must fail a Resume_required load with
   a one-line diagnostic, and Resume_if_exists must fall back to a
   fresh (still correct) run. *)

open Repro_taskgraph
open Repro_arch
module Engine = Repro_dse.Engine
module Registry = Repro_dse.Engine_registry
module Solution = Repro_dse.Solution

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

let budget = 40
let seed = 11

let context ?should_stop ?checkpoint () =
  Engine.context ?should_stop ?checkpoint ~app:(app ()) ~platform:(platform ())
    ~seed ~iterations:budget ()

let tmp_ckpt name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "repro-resume-%d-%s.ckpt" (Unix.getpid ()) name)

(* The resume contract's equality: everything in the outcome except
   wall time. *)
let fingerprint (o : Engine.outcome) =
  ( Solution.encode o.Engine.best,
    Int64.bits_of_float o.Engine.best_cost,
    Int64.bits_of_float o.Engine.initial_cost,
    (o.Engine.iterations_run, o.Engine.evaluations, o.Engine.accepted),
    o.Engine.status = Engine.Complete )

let stop_after k =
  let polls = ref 0 in
  fun () ->
    incr polls;
    !polls > k

let ckpt path resume = { Engine.path; every = 1; resume }

let kill_resume_test engine k =
  let name = Engine.name engine in
  Alcotest.test_case
    (Printf.sprintf "%s: kill at %d, resume bit-identical" name k)
    `Quick
    (fun () ->
      let clean = Engine.run engine (context ()) in
      let path = tmp_ckpt (Printf.sprintf "%s-%d" name k) in
      if Sys.file_exists path then Sys.remove path;
      let killed =
        Engine.run engine
          (context ~should_stop:(stop_after k)
             ~checkpoint:(ckpt path Engine.Resume_never)
             ())
      in
      Alcotest.(check bool) "kill run interrupted" true
        (killed.Engine.status = Engine.Interrupted);
      Alcotest.(check bool) "checkpoint flushed" true (Sys.file_exists path);
      let resumed =
        Engine.run engine
          (context ~checkpoint:(ckpt path Engine.Resume_required) ())
      in
      Sys.remove path;
      Alcotest.(check bool) "resumed run complete" true
        (resumed.Engine.status = Engine.Complete);
      if fingerprint clean <> fingerprint resumed then
        Alcotest.failf
          "%s killed at %d: resumed outcome differs from the clean run \
           (best %h vs %h, iters %d vs %d, evals %d vs %d)"
          name k resumed.Engine.best_cost clean.Engine.best_cost
          resumed.Engine.iterations_run clean.Engine.iterations_run
          resumed.Engine.evaluations clean.Engine.evaluations)

(* Full checkpoint written by [engine], returned as the file path. *)
let write_checkpoint engine path =
  if Sys.file_exists path then Sys.remove path;
  ignore
    (Engine.run engine (context ~checkpoint:(ckpt path Engine.Resume_never) ()));
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path)

let one_line what msg =
  Alcotest.(check bool)
    (Printf.sprintf "%s: diagnostic %S is one line" what msg)
    true
    (String.length msg > 0 && not (String.contains msg '\n'))

let required_fails what engine path expect =
  match
    Engine.run engine (context ~checkpoint:(ckpt path Engine.Resume_required) ())
  with
  | _ -> Alcotest.failf "%s: damaged checkpoint resumed silently" what
  | exception Failure msg ->
    one_line what msg;
    List.iter
      (fun needle ->
        let present =
          let n = String.length needle and m = String.length msg in
          let rec scan i =
            i + n <= m && (String.sub msg i n = needle || scan (i + 1))
          in
          scan 0
        in
        if not present then
          Alcotest.failf "%s: diagnostic %S does not mention %S" what msg
            needle)
      expect

let damage_tests =
  let engine () =
    match Registry.find "greedy" with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  [
    Alcotest.test_case "required resume: missing file is a one-line failure"
      `Quick
      (fun () ->
        let path = tmp_ckpt "missing" in
        if Sys.file_exists path then Sys.remove path;
        required_fails "missing" (engine ()) path [ path ]);
    Alcotest.test_case "required resume: truncated file is rejected" `Quick
      (fun () ->
        let path = tmp_ckpt "truncated" in
        write_checkpoint (engine ()) path;
        let full = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (String.sub full 0 (String.length full / 2)));
        required_fails "truncated" (engine ()) path [];
        Sys.remove path);
    Alcotest.test_case "required resume: flipped byte fails the CRC" `Quick
      (fun () ->
        let path = tmp_ckpt "corrupt" in
        write_checkpoint (engine ()) path;
        let full =
          Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
        in
        let i = Bytes.length full - 3 in
        Bytes.set full i
          (Char.chr (Char.code (Bytes.get full i) lxor 0x5a));
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc full);
        required_fails "corrupt" (engine ()) path [];
        Sys.remove path);
    Alcotest.test_case
      "required resume: foreign engine's checkpoint is named in the error"
      `Quick
      (fun () ->
        let path = tmp_ckpt "foreign-engine" in
        write_checkpoint (engine ()) path;
        let hill =
          match Registry.find "hill" with
          | Ok e -> e
          | Error msg -> Alcotest.fail msg
        in
        required_fails "foreign engine" hill path [ "greedy" ];
        Sys.remove path);
    Alcotest.test_case
      "required resume: native sa snapshot is a foreign kind" `Quick
      (fun () ->
        (* The annealer's former "dse-run" snapshot format: engines
           read "dse-engine" files only. *)
        let path = tmp_ckpt "foreign-kind" in
        Repro_util.Checkpoint.save path ~kind:"dse-run" "fingerprint 0\n";
        required_fails "foreign kind" (engine ()) path [ "dse-run" ];
        Sys.remove path);
    Alcotest.test_case
      "required resume: wrong state-line tag is named in the error" `Quick
      (fun () ->
        (* A sound envelope (right kind, engine, version, fingerprint
           and CRC) whose greedy state line carries hill's tag: the
           codec must reject it by name. *)
        let path = tmp_ckpt "wrong-tag" in
        write_checkpoint (engine ()) path;
        let codec tag =
          Repro_baseline.State_codec.solution_plus ~engine:"greedy"
            ~version:1 ~tag (ref 0.0) (app ()) (platform ())
        in
        let fingerprint = Engine.fingerprint (context ()) in
        (match
           Engine.Envelope.load (codec "sweep") ~fingerprint (app ())
             (platform ()) path
         with
         | Error msg -> Alcotest.fail msg
         | Ok envelope ->
           Engine.Envelope.save (codec "climb") ~fingerprint path envelope);
        required_fails "wrong tag" (engine ()) path [ "sweep" ];
        Sys.remove path);
    Alcotest.test_case
      "if-exists resume: unusable checkpoint falls back to a clean run"
      `Quick
      (fun () ->
        let path = tmp_ckpt "fallback" in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc "not a checkpoint\n");
        let e = engine () in
        let clean = Engine.run e (context ()) in
        let fallback =
          Engine.run e (context ~checkpoint:(ckpt path Engine.Resume_if_exists) ())
        in
        Sys.remove path;
        Alcotest.(check bool) "fresh run, identical outcome" true
          (fingerprint clean = fingerprint fallback));
    Alcotest.test_case "checkpointing without a codec is a usage error"
      `Quick
      (fun () ->
        let path = tmp_ckpt "no-codec" in
        match
          Engine.drive
            (context ~checkpoint:(ckpt path Engine.Resume_never) ())
            ~init:(fun _rng ->
              let s =
                Solution.all_software (app ()) (platform ())
              in
              (s, Solution.makespan s, 1))
            ~step:(fun _rng ~iteration:_ s ->
              { Engine.state = s; cost = Solution.makespan s;
                accepted = false; evaluations = 0 })
            ~snapshot:Fun.id
        with
        | _ -> Alcotest.fail "drive accepted a checkpoint without a codec"
        | exception Invalid_argument _ -> ());
  ]

let suite =
  Repro_baseline.Engines.register_all ();
  let kill_points = [ 0; 1; budget / 2; budget - 1 ] in
  List.concat_map
    (fun engine -> List.map (kill_resume_test engine) kill_points)
    (Registry.all ())
  @ damage_tests
