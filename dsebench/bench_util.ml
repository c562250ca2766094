(* Clocks, summary statistics, metrics and host facts shared by every
   workload. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Minor words allocated so far, as an integer count. *)
let words () = int_of_float (Gc.minor_words ())

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let sorted xs = List.sort compare xs

(* Linear interpolation between closest ranks (type 7). *)
let quantile xs q =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ---- host facts -------------------------------------------------- *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ -> None

(* The checked-out commit, read from the .git directory when there is
   one (no subprocess); "unknown" in an exported tree. *)
let commit () =
  let trim = String.trim in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let head = trim head in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" ref_name) with
      | Some sha -> trim sha
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ sha; r ] when r = ref_name -> Some sha
                 | _ -> None)
          |> Option.value ~default:"unknown")
    else head

let nproc () = Domain.recommended_domain_count ()

(* ---- JSON output ------------------------------------------------- *)

module Json = Repro_util.Json_lite

(* Numbers print with every digit needed to read them back exactly; a
   non-finite value (a failed run) prints as null. *)
let num x = if Float.is_finite x then Json.Num x else Json.Null
let nums xs = Json.Arr (List.map num xs)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", num m.value); ("unit", Json.Str m.unit_) ]))
       ms)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path text =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
