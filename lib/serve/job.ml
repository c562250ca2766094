module Json = Repro_util.Json_lite
module Run_spec = Repro_dse.Run_spec

type t = { name : string; timeout : float option; spec : Run_spec.t }

let of_json ~name text =
  let ( let* ) = Result.bind in
  let* fields = Json.parse_obj text in
  let* spec = Run_spec.of_fields ~extra:[ "timeout" ] fields in
  let* timeout =
    match Json.find fields "timeout" with
    | None -> Ok None
    | Some v -> (
      match Json.get_num v with
      | Some s when s > 0.0 -> Ok (Some s)
      | Some _ -> Error "job field \"timeout\" wants positive seconds"
      | None -> Error "job field \"timeout\" wants a number")
  in
  Ok { name; timeout; spec }

let to_json job =
  Json.obj
    (Run_spec.to_fields job.spec
    @ match job.timeout with Some t -> [ ("timeout", Json.Num t) ] | None -> [])

let load_inputs job = Run_spec.load_inputs job.spec
let explorer_config job = Run_spec.explorer_config job.spec
