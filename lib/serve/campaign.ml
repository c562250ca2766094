module Atomic_io = Repro_util.Atomic_io
module Json = Repro_util.Json_lite

type predicate = All_filed | All_results

type entry = { name : string; job : Job.t; text : string; priority : int }

type t = { name : string; predicate : predicate; entries : entry list }

let known_fields = [ "campaign"; "complete_when"; "jobs" ]

(* A manifest is validated whole before anything touches the spool: a
   campaign never half-enqueues, and every error is one line naming
   the offending entry. *)
let of_json text =
  let ( let* ) = Result.bind in
  let* fields = Json.parse_obj text in
  let* () =
    match
      List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
    with
    | Some (k, _) ->
      Error
        (Printf.sprintf "unknown campaign field %S (want %s)" k
           (String.concat "|" known_fields))
    | None -> Ok ()
  in
  let* name =
    match Json.find fields "campaign" with
    | Some (Json.Str "") -> Error "campaign field \"campaign\" wants a non-empty name"
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error "campaign field \"campaign\" wants a string"
    | None -> Error "campaign declares no \"campaign\" name"
  in
  let* predicate =
    match Json.find fields "complete_when" with
    | None -> Ok All_filed
    | Some (Json.Str "all-filed") -> Ok All_filed
    | Some (Json.Str "all-results") -> Ok All_results
    | Some _ ->
      Error "campaign field \"complete_when\" wants all-filed|all-results"
  in
  let* jobs =
    match Json.find fields "jobs" with
    | Some (Json.Arr (_ :: _ as jobs)) -> Ok jobs
    | Some (Json.Arr []) -> Error "campaign field \"jobs\" wants at least one job"
    | Some _ -> Error "campaign field \"jobs\" wants an array"
    | None -> Error "campaign declares no \"jobs\""
  in
  let* entries =
    let rec build seen acc index = function
      | [] -> Ok (List.rev acc)
      | job :: rest ->
        let* entry_fields =
          match job with
          | Json.Obj fields -> Ok fields
          | _ -> Error (Printf.sprintf "campaign job #%d wants an object" index)
        in
        let* entry_name =
          match Json.find entry_fields "name" with
          | Some (Json.Str s) -> (
            match Lease.validate_id s with
            | Ok s -> Ok s
            | Error msg ->
              Error (Printf.sprintf "campaign job #%d: %s" index msg))
          | Some _ ->
            Error (Printf.sprintf "campaign job #%d field \"name\" wants a string" index)
          | None -> Error (Printf.sprintf "campaign job #%d declares no \"name\"" index)
        in
        let* () =
          if List.mem entry_name seen then
            Error (Printf.sprintf "campaign job name %S appears twice" entry_name)
          else Ok ()
        in
        let* priority =
          match Json.find entry_fields "priority" with
          | None -> Ok 0
          | Some v -> (
            match Json.get_int v with
            | Some k when k >= 0 && k <= 9 -> Ok k
            | _ ->
              Error
                (Printf.sprintf
                   "campaign job #%d field \"priority\" wants an integer 0..9"
                   index))
        in
        (* The job spec is the entry minus its campaign-level fields
           (name, priority band), re-rendered canonically: what submit
           writes is exactly what was validated. *)
        let spec =
          Json.Obj
            (List.filter
               (fun (k, _) -> k <> "name" && k <> "priority")
               entry_fields)
        in
        let text = Json.to_string spec in
        let* job =
          match Job.of_json ~name:entry_name text with
          | Ok job -> Ok job
          | Error msg ->
            Error (Printf.sprintf "campaign job %S: %s" entry_name msg)
        in
        build (entry_name :: seen)
          ({ name = entry_name; job; text; priority } :: acc)
          (index + 1) rest
    in
    build [] [] 0 jobs
  in
  Ok { name; predicate; entries }

let load path =
  match Atomic_io.read_file path with
  | Error msg -> Error msg
  | Ok text -> (
    match of_json text with
    | Ok t -> Ok t
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

(* ---- idempotent submit ------------------------------------------- *)

type submission = { enqueued : string list; skipped : string list }

let file_name (entry : entry) = entry.name ^ ".json"

let submit t spool =
  let enqueued, skipped =
    List.fold_left
      (fun (enq, skip) (entry : entry) ->
        let n = file_name entry in
        let exists path = Sys.file_exists path in
        if
          Spool.find_queued spool n <> None
          || exists (Spool.work_path spool n)
          || exists (Spool.result_path spool n)
          || exists (Spool.failed_path spool n)
        then (enq, entry.name :: skip)
        else begin
          Spool.enqueue ~priority:entry.priority spool ~name:n
            ~text:(entry.text ^ "\n");
          (entry.name :: enq, skip)
        end)
      ([], []) t.entries
  in
  { enqueued = List.rev enqueued; skipped = List.rev skipped }

(* ---- report ------------------------------------------------------- *)

type job_state =
  | Queued
  | Claimed of string option
  | Filed of (string * Json.t) list
  | Damaged of string
  | Quarantined of (string * Json.t) list
  | Missing

(* An in-flight copy wins over a stale earlier result: a timed-out job
   that was re-enqueued is running again, not done. *)
let state_of spool (entry : entry) =
  let n = file_name entry in
  if Sys.file_exists (Spool.work_path spool n) then
    Claimed
      (match Spool.read_claim_stamp spool n with
       | Ok stamp -> Json.str_field stamp "owner"
       | Error _ -> None)
  else if Spool.find_queued spool n <> None then Queued
  else if Sys.file_exists (Spool.result_path spool n) then (
    (* A result that does not parse is damage, not completion: the
       report must say so (and never raise), and the done predicate
       must not count the job finished. *)
    match
      Result.bind (Atomic_io.read_file (Spool.result_path spool n))
        Json.parse_obj
    with
    | Ok fields -> Filed fields
    | Error msg -> Damaged msg)
  else if Sys.file_exists (Spool.failed_path spool n) then
    Quarantined
      (match
         Result.bind
           (Atomic_io.read_file
              (Spool.failed_path spool (entry.name ^ ".reason.json")))
           Json.parse_obj
       with
       | Ok fields -> fields
       | Error _ -> [])
  else Missing

let copy_fields keys fields =
  List.filter_map
    (fun key ->
      Option.map (fun v -> (key, v)) (Json.find fields key))
    keys

let report spool t =
  let states =
    List.map (fun entry -> (entry, state_of spool entry)) t.entries
  in
  let count pred = List.length (List.filter (fun (_, s) -> pred s) states) in
  let filed_status status =
    count (function
      | Filed fields -> Json.str_field fields "status" = Some status
      | _ -> false)
  in
  let queued = count (function Queued -> true | _ -> false) in
  let claimed = count (function Claimed _ -> true | _ -> false) in
  let quarantined = count (function Quarantined _ -> true | _ -> false) in
  let damaged = count (function Damaged _ -> true | _ -> false) in
  let missing = count (function Missing -> true | _ -> false) in
  let done_ =
    List.for_all
      (fun (_, state) ->
        match (t.predicate, state) with
        | _, Filed _ -> true
        | All_filed, Quarantined _ -> true
        | _, _ -> false)
      states
  in
  let job_json ((entry : entry), state) =
    let open Json in
    let base = [ ("job", Str entry.name) ] in
    Obj
      (match state with
       | Queued -> base @ [ ("state", Str "queued") ]
       | Claimed owner ->
         base
         @ [ ("state", Str "claimed") ]
         @ (match owner with
            | Some id -> [ ("owner", Str id) ]
            | None -> [])
       | Filed fields ->
         base
         @ [ ("state", Str "filed") ]
         @ copy_fields
             [
               "status"; "best_cost"; "makespan"; "n_contexts"; "engine";
               "attempts"; "solution"; "degraded_restarts";
             ]
             fields
       | Damaged error ->
         base @ [ ("state", Str "damaged"); ("error", Str error) ]
       | Quarantined fields ->
         base
         @ [ ("state", Str "quarantined") ]
         @ copy_fields [ "reason"; "attempts"; "daemon_id"; "lease_seq" ]
             fields
       | Missing -> base @ [ ("state", Str "missing") ])
  in
  (* Cross-job Pareto set over (device size, makespan): the Fig. 3
     frontier shape, folded across the campaign's filed results. *)
  let points =
    List.filter_map
      (fun ((entry : entry), state) ->
        match state with
        | Filed fields ->
          Option.map
            (fun makespan -> (entry.name, entry.job.Job.spec.clbs, makespan))
            (Json.num_field fields "makespan")
        | _ -> None)
      states
    |> List.sort (fun (_, c1, m1) (_, c2, m2) ->
           match compare c1 c2 with 0 -> compare m1 m2 | n -> n)
  in
  let pareto =
    let rec sweep best acc = function
      | [] -> List.rev acc
      | (name, clbs, makespan) :: rest ->
        if makespan < best then
          sweep makespan ((name, clbs, makespan) :: acc) rest
        else sweep best acc rest
    in
    sweep infinity [] points
  in
  let open Json in
  Obj
    [
      ("campaign", Str t.name);
      ("total", num_int (List.length t.entries));
      ("queued", num_int queued);
      ("claimed", num_int claimed);
      ("completed", num_int (filed_status "complete"));
      ("timed_out", num_int (filed_status "timed-out"));
      ("degraded", num_int (filed_status "degraded"));
      ("quarantined", num_int quarantined);
      ("damaged", num_int damaged);
      ("missing", num_int missing);
      ("done", Bool done_);
      ("jobs", Arr (List.map job_json states));
      ( "pareto",
        Arr
          (List.map
             (fun (name, clbs, makespan) ->
               Obj
                 [
                   ("job", Str name);
                   ("clbs", num_int clbs);
                   ("makespan", Num makespan);
                 ])
             pareto) );
    ]
