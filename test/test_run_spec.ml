(* The one run spec: its JSON codec, validator, input loader and
   explorer configuration, and a seeded fuzz over every decoder built
   on it (run spec, job, campaign). *)

module Json = Repro_util.Json_lite
module Rng = Repro_util.Rng
module Run_spec = Repro_dse.Run_spec
module Explorer = Repro_dse.Explorer
module Schedule = Repro_anneal.Schedule
module Annealer = Repro_anneal.Annealer
module Job = Repro_serve.Job
module Campaign = Repro_serve.Campaign

let decode text = Result.bind (Json.parse_obj text) Run_spec.of_fields

let one_line what = function
  | Ok _ -> ()
  | Error msg ->
    Alcotest.(check bool) (what ^ ": one-line error") false
      (String.contains msg '\n')

let rejects what result =
  match result with
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error _ -> one_line what result

let test_defaults_round_trip () =
  match decode "{\"app\": \"motion_detection\"}" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    Alcotest.(check bool) "the documented defaults" true
      (spec = Run_spec.default (Run_spec.Named "motion_detection"));
    let full =
      {
        spec with
        Run_spec.app = Run_spec.From_file "x.tg";
        platform_file = Some "y.plat";
        serialized = true;
        engine = Some "sa";
        restarts = 3;
      }
    in
    Alcotest.(check bool) "to_fields reads back equal" true
      (Run_spec.of_fields (Run_spec.to_fields full) = Ok full)

let test_validate () =
  let base = Run_spec.default (Run_spec.Named "motion_detection") in
  let ok what spec =
    Alcotest.(check bool) what true (Run_spec.validate spec = Ok spec)
  in
  ok "serialized on the native annealer" { base with serialized = true };
  ok "serialized with engine sa (the native annealer)"
    { base with serialized = true; engine = Some "sa" };
  rejects "serialized with greedy"
    (Run_spec.validate
       { base with serialized = true; engine = Some "greedy" });
  rejects "iters 0" (Run_spec.validate { base with iters = 0 });
  rejects "negative warmup" (Run_spec.validate { base with warmup = -1 });
  rejects "restarts 0" (Run_spec.validate { base with restarts = 0 });
  rejects "clbs 0" (Run_spec.validate { base with clbs = 0 })

(* Out-of-range numbers and repeated keys were accepted (or misread)
   by the decoders; every one is now a one-line error. *)
let test_decoder_rejections () =
  rejects "seed 1e19" (decode "{\"app\": \"sobel\", \"seed\": 1e19}");
  rejects "iters 1e300" (decode "{\"app\": \"sobel\", \"iters\": 1e300}");
  (match decode "{\"app\": \"sobel\", \"iters\": 1e300}" with
   | Error msg ->
     Alcotest.(check string) "iters 1e300 is not an integer"
       "job field \"iters\" wants an integer" msg
   | Ok _ -> ());
  rejects "repeated app"
    (decode "{\"app\": \"motion_detection\", \"app\": \"sobel\"}");
  rejects "repeated timeout"
    (Job.of_json ~name:"j" "{\"app\": \"sobel\", \"timeout\": 1, \"timeout\": 2}");
  rejects "priority 1e30"
    (Campaign.of_json
       "{\"campaign\": \"c\", \"jobs\": [{\"name\": \"a\", \"app\": \
        \"sobel\", \"priority\": 1e30}]}");
  rejects "repeated campaign key"
    (Campaign.of_json
       "{\"campaign\": \"c\", \"campaign\": \"d\", \"jobs\": [{\"name\": \
        \"a\", \"app\": \"sobel\"}]}");
  rejects "repeated entry key"
    (Campaign.of_json
       "{\"campaign\": \"c\", \"jobs\": [{\"name\": \"a\", \"name\": \"b\", \
        \"app\": \"sobel\"}]}");
  Alcotest.(check (option int)) "2^53 is still an integer"
    (Some (1 lsl 53)) (Json.get_int (Json.Num 0x1p53));
  Alcotest.(check (option int)) "beyond 2^53 is not" None
    (Json.get_int (Json.Num 0x1p54))

let test_explorer_config () =
  let spec =
    { (Run_spec.default (Run_spec.Named "motion_detection")) with
      iters = 3000; warmup = 200; seed = 4 }
  in
  let config = Run_spec.explorer_config spec in
  let anneal = config.Explorer.anneal in
  Alcotest.(check int) "iterations" 3000 anneal.Annealer.iterations;
  Alcotest.(check int) "warmup" 200 anneal.Annealer.warmup_iterations;
  Alcotest.(check int) "seed" 4 anneal.Annealer.seed;
  Alcotest.(check string) "Lam at quality 150 / iters"
    (Schedule.name (Schedule.lam ~quality:0.05 ()))
    (Schedule.name anneal.Annealer.schedule);
  Alcotest.(check bool) "makespan objective" true
    (config.Explorer.objective = Explorer.Makespan);
  Alcotest.(check bool) "serialized objective" true
    ((Run_spec.explorer_config { spec with serialized = true }).Explorer.objective
     = Explorer.Makespan_serialized)

let test_load_inputs () =
  let named name = Run_spec.default (Run_spec.Named name) in
  (match Run_spec.load_inputs { (named "motion_detection") with clbs = 777 } with
   | Ok (_, platform) ->
     Alcotest.(check bool) "motion detection sized by clbs" true
       (platform = Repro_workloads.Motion_detection.platform ~n_clb:777 ())
   | Error msg -> Alcotest.fail msg);
  (match Run_spec.load_inputs (named "sobel") with
   | Ok (app, platform) ->
     Alcotest.(check bool) "a suite app gets its own platform" true
       (platform = Repro_workloads.Suite.platform_for app)
   | Error msg -> Alcotest.fail msg);
  (match Run_spec.load_inputs (named "no_such_app") with
   | Error msg ->
     Alcotest.(check bool) "unknown app lists the names" true
       (String.starts_with ~prefix:"unknown application \"no_such_app\" (try:"
          msg)
   | Ok _ -> Alcotest.fail "unknown app loaded");
  let path = Filename.concat "fixtures" "bad_negative_clbs.tg" in
  match
    Run_spec.load_inputs
      { (named "motion_detection") with app = Run_spec.From_file path }
  with
  | Error msg ->
    Alcotest.(check bool) "file:line: location" true
      (String.starts_with ~prefix:(path ^ ":3: ") msg);
    one_line "bad .tg" (Error msg)
  | Ok _ -> Alcotest.fail "bad .tg loaded"

(* ---- seeded fuzz over the decoders --------------------------------- *)

let job_seed =
  "{\"app\": \"motion_detection\", \"platform_file\": \"p.plat\", \"clbs\": \
   2000, \"iters\": 150, \"warmup\": 50, \"seed\": 3, \"restarts\": 2, \
   \"timeout\": 2.5, \"serialized\": false, \"engine\": \"greedy\"}"

let campaign_seed =
  "{\"campaign\": \"night\", \"complete_when\": \"all-results\", \"jobs\": \
   [{\"name\": \"n1\", \"app\": \"motion_detection\", \"iters\": 150, \
   \"priority\": 2, \"seed\": 3}, {\"name\": \"n2\", \"app_file\": \"x.tg\", \
   \"timeout\": 1.5, \"engine\": \"sa\", \"serialized\": true}]}"

let swaps =
  Json.
    [
      Null; Bool true; Num 0.0; Num (-1.0); Num 0.5; Num 1e19; Num 1e300;
      Num 0x1p53; Str ""; Str "sa"; Arr []; Arr [ Num 1.0 ]; Obj [];
    ]

let pick rng list = List.nth list (Rng.int rng (List.length list))

(* One mutation of a seed text: a byte flip, a truncation, or — on the
   parsed object — one field's value swapped for another JSON type. *)
let mutate rng text =
  let n = String.length text in
  match Rng.int rng 3 with
  | 0 ->
    let b = Bytes.of_string text in
    for _ = 0 to Rng.int rng 3 do
      Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256))
    done;
    Bytes.to_string b
  | 1 -> String.sub text 0 (Rng.int rng n)
  | _ -> (
    let swap_one fields =
      let i = Rng.int rng (List.length fields) in
      List.mapi (fun j (k, v) -> if j = i then (k, pick rng swaps) else (k, v))
        fields
    in
    match Json.parse_obj text with
    | Error _ -> text
    | Ok fields -> (
      match List.assoc_opt "jobs" fields with
      | Some (Json.Arr entries) when Rng.int rng 2 = 0 ->
        let entries =
          List.map
            (function
              | Json.Obj entry when Rng.int rng 2 = 0 -> Json.Obj (swap_one entry)
              | e -> e)
            entries
        in
        Json.obj
          (List.map
             (fun (k, v) -> if k = "jobs" then (k, Json.Arr entries) else (k, v))
             fields)
      | _ -> Json.obj (swap_one fields)))

let test_fuzz_decoders () =
  let rng = Rng.create 20261017 in
  let literals =
    [
      "{\"app\": \"motion_detection\", \"seed\": 1e19}";
      "{\"campaign\": \"c\", \"jobs\": [{\"name\": \"a\", \"app\": \
       \"sobel\", \"priority\": 1e30}]}";
      "{\"app\": \"motion_detection\", \"iters\": 1e300}";
      "{\"app\": \"motion_detection\", \"app\": \"sobel\"}";
    ]
  in
  let inputs =
    literals
    @ List.init 3000 (fun i ->
          mutate rng (if i mod 2 = 0 then job_seed else campaign_seed))
  in
  List.iteri
    (fun i text ->
      let what = Printf.sprintf "input %d %S" i text in
      match
        ( decode text,
          Job.of_json ~name:"fuzz" text,
          Campaign.of_json text )
      with
      | spec, job, campaign ->
        one_line (what ^ " (run spec)") spec;
        one_line (what ^ " (job)") job;
        one_line (what ^ " (campaign)") campaign
      | exception e ->
        Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    inputs;
  List.iter
    (fun text ->
      Alcotest.(check bool) (text ^ " rejected") true
        (Result.is_error (decode text) && Result.is_error (Campaign.of_json text)))
    literals

let suite =
  [
    Alcotest.test_case "defaults and round trip" `Quick test_defaults_round_trip;
    Alcotest.test_case "validator" `Quick test_validate;
    Alcotest.test_case "out-of-range numbers and repeated keys rejected" `Quick
      test_decoder_rejections;
    Alcotest.test_case "explorer config" `Quick test_explorer_config;
    Alcotest.test_case "input loading" `Quick test_load_inputs;
    Alcotest.test_case "seeded decoder fuzz" `Quick test_fuzz_decoders;
  ]
