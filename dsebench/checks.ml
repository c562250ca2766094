(* Output checks.  Every workload funnels its outputs through one
   checker; a single failed check makes the run incorrect.  The smoke
   mode sets [corrupt] to damage one kind of output on purpose and
   asserts that the matching check trips. *)

open Repro_dse
open Repro_sched

type t = { mutable passed : int; mutable failures : (string * string) list }

let create () = { passed = 0; failures = [] }

let check t name ok detail =
  if ok then t.passed <- t.passed + 1
  else t.failures <- (name, detail ()) :: t.failures

let ok t = t.failures = []

let failures t = List.rev t.failures

(* Deliberate output damage, for the smoke test only: ["cost"] shifts a
   reported best cost, ["schedule"] stretches one task of a best
   schedule before validation, ["trace"] alters a traced chain's encoding,
   ["spool"] files one finished job in a second outcome directory. *)
let corrupt : string option ref = ref None

let corrupting kind = !corrupt = Some kind

(* A best solution must pass the independent schedule checker, and its
   reported cost must equal a fresh (non-incremental) evaluation of its
   spec, bit for bit. *)
let solution t ~what (s : Solution.t) ~cost =
  let cost = if corrupting "cost" then cost +. 1.0 else cost in
  let spec = Solution.spec s in
  let verdict =
    if corrupting "schedule" then
      (* Stretch the first task's window: its duration check fails. *)
      match Searchgraph.schedule spec with
      | None -> Error [ "infeasible" ]
      | Some windows ->
        let windows = Array.copy windows in
        let start, finish = windows.(0) in
        windows.(0) <- (start, finish +. 1.0);
        Validate.schedule spec windows
    else Validate.evaluated spec
  in
  (match verdict with
   | Ok () -> check t "validate" true (fun () -> "")
   | Error msgs ->
     check t "validate" false (fun () ->
         Printf.sprintf "%s: %s" what (String.concat "; " msgs)));
  match Searchgraph.evaluate spec with
  | None -> check t "fresh-eval" false (fun () -> what ^ ": infeasible")
  | Some e ->
    check t "fresh-eval" (e.Searchgraph.makespan = cost) (fun () ->
        Printf.sprintf "%s: reported %.17g, fresh evaluation %.17g" what cost
          e.Searchgraph.makespan)
