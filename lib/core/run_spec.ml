module Json = Repro_util.Json_lite
module Annealer = Repro_anneal.Annealer
module Schedule = Repro_anneal.Schedule

type source = Named of string | From_file of string

type t = {
  app : source;
  platform_file : string option;
  clbs : int;
  iters : int;
  warmup : int;
  seed : int;
  restarts : int;
  serialized : bool;
  engine : string option;
}

let default app =
  {
    app;
    platform_file = None;
    clbs = 2000;
    iters = 20_000;
    warmup = 1_200;
    seed = 1;
    restarts = 1;
    serialized = false;
    engine = None;
  }

let keys =
  [
    "app"; "app_file"; "platform_file"; "clbs"; "iters"; "warmup"; "seed";
    "restarts"; "serialized"; "engine";
  ]

(* ["sa"] resolves to the native annealer ({!Explorer.resolve_engine}),
   so it carries the serialized-bus objective like no engine at all. *)
let validate t =
  if t.iters < 1 || t.warmup < 0 then Error "run wants iters >= 1, warmup >= 0"
  else if t.restarts < 1 then Error "run wants restarts >= 1"
  else if t.clbs < 1 then Error "run wants clbs >= 1"
  else if t.serialized && not (t.engine = None || t.engine = Some "sa") then
    Error
      "the serialized bus model needs the native annealer (engine sa or none)"
  else Ok t

(* Unknown keys and ill-typed values are hard errors (the parser
   already rejects repeated ones): a poison job must be quarantined
   with a message naming the problem, not half-run with silently
   dropped fields. *)
let of_fields ?(extra = []) fields =
  let ( let* ) = Result.bind in
  let known = keys @ extra in
  let* () =
    match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
    | Some (k, _) ->
      Error
        (Printf.sprintf "unknown job field %S (want %s)" k
           (String.concat "|" known))
    | None -> Ok ()
  in
  let field key get ~want default =
    match Json.find fields key with
    | None -> Ok default
    | Some v -> (
      match get v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "job field %S wants %s" key want))
  in
  let int_field key default = field key Json.get_int ~want:"an integer" default in
  let* app =
    match (Json.find fields "app", Json.find fields "app_file") with
    | Some _, Some _ -> Error "job declares both \"app\" and \"app_file\""
    | Some (Json.Str name), None -> Ok (Named name)
    | None, Some (Json.Str path) -> Ok (From_file path)
    | Some _, None -> Error "job field \"app\" wants a string"
    | None, Some _ -> Error "job field \"app_file\" wants a string"
    | None, None -> Error "job declares neither \"app\" nor \"app_file\""
  in
  let d = default app in
  let* platform_file =
    field "platform_file"
      (fun v -> Option.map Option.some (Json.get_str v))
      ~want:"a string" d.platform_file
  in
  let* clbs = int_field "clbs" d.clbs in
  let* iters = int_field "iters" d.iters in
  let* warmup = int_field "warmup" d.warmup in
  let* seed = int_field "seed" d.seed in
  let* restarts = int_field "restarts" d.restarts in
  let* serialized =
    field "serialized" Json.get_bool ~want:"a boolean" d.serialized
  in
  let* engine =
    field "engine"
      (function
        | Json.Str "" -> None | v -> Option.map Option.some (Json.get_str v))
      ~want:"a non-empty name" d.engine
  in
  validate
    { app; platform_file; clbs; iters; warmup; seed; restarts; serialized; engine }

let to_fields t =
  let open Json in
  (match t.app with
   | Named n -> [ ("app", Str n) ]
   | From_file p -> [ ("app_file", Str p) ])
  @ (match t.platform_file with
     | Some p -> [ ("platform_file", Str p) ]
     | None -> [])
  @ [
      ("clbs", num_int t.clbs);
      ("iters", num_int t.iters);
      ("warmup", num_int t.warmup);
      ("seed", num_int t.seed);
      ("restarts", num_int t.restarts);
    ]
  @ (if t.serialized then [ ("serialized", Bool true) ] else [])
  @ match t.engine with Some e -> [ ("engine", Str e) ] | None -> []

(* Parser errors come out as "line N: message"; prefix the file so the
   message reads as a clickable "file:N: message" location. *)
let located path msg =
  match Scanf.sscanf_opt msg "line %d: " (fun n -> n) with
  | Some n ->
    let skip = String.length (Printf.sprintf "line %d: " n) in
    Printf.sprintf "%s:%d: %s" path n
      (String.sub msg skip (String.length msg - skip))
  | None -> Printf.sprintf "%s: %s" path msg

let load path loader = Result.map_error (located path) (loader path)

let load_inputs t =
  let ( let* ) = Result.bind in
  let* app =
    match t.app with
    | From_file path -> load path Repro_taskgraph.App_io.load
    | Named name -> (
      match List.assoc_opt name Repro_workloads.Suite.named with
      | Some make -> Ok (make ())
      | None ->
        Error
          (Printf.sprintf "unknown application %S (try: %s)" name
             (String.concat ", " (List.map fst Repro_workloads.Suite.named))))
  in
  let* platform =
    match (t.platform_file, t.app) with
    | Some path, _ -> load path Repro_arch.Platform_io.load
    | None, (Named "motion_detection" | From_file _) ->
      Ok (Repro_workloads.Motion_detection.platform ~n_clb:t.clbs ())
    | None, Named _ -> Ok (Repro_workloads.Suite.platform_for app)
  in
  match
    Repro_sched.Validate.evaluated
      (Solution.spec (Solution.all_software app platform))
  with
  | Ok () -> Ok (app, platform)
  | Error problems ->
    Error ("invalid input model: " ^ String.concat "; " problems)

let explorer_config t =
  {
    Explorer.anneal =
      {
        Annealer.iterations = t.iters;
        warmup_iterations = t.warmup;
        schedule = Schedule.lam ~quality:(150.0 /. float_of_int t.iters) ();
        seed = t.seed;
        frozen_window = None;
      };
    moves = Moves.fixed_architecture;
    objective =
      (if t.serialized then Explorer.Makespan_serialized else Explorer.Makespan);
  }
