(* The job service: a pre-filled spool drained by one in-process
   [Daemon.run] in once mode (a closed loop with one consumer), the
   drained spool's checks, and a replay of each job's spool operations
   with a fixed result. *)

open Repro_serve
open Bench_util

type source = Named of string | File of string

let job_text source ~iters ~warmup ~seed =
  let app =
    match source with
    | Named n -> ("app", Json.Str n)
    | File f -> ("app_file", Json.Str f)
  in
  Json.obj
    [ app; ("iters", Json.num_int iters); ("warmup", Json.num_int warmup);
      ("seed", Json.num_int seed) ]

let job_name i = Printf.sprintf "job%05d.json" i

(* A fresh spool at [dir] holding one job per (source, seed). *)
let fill dir jobs ~iters ~warmup =
  rm_rf dir;
  let spool = Spool.create dir in
  List.iteri
    (fun i (source, seed) ->
      Spool.enqueue spool ~name:(job_name i) ~text:(job_text source ~iters ~warmup ~seed))
    jobs;
  spool

let daemon_config =
  {
    Daemon.default_config with
    Daemon.once = true;
    daemon_id = Some "dsebench";
    poll_interval = 0.01;
  }

type job_result = {
  name : string;
  status : string;
  best_cost : float;
  iterations : int;
  infeasible : int;
  wall_seconds : float;
  crc : string;
  service_s : float;
      (* when its result appeared minus when the previous one did (the
         first job: minus the drain's start) *)
}

type drain = {
  jobs : int;
  wall_s : float;
  results : job_result list;
  failed : int;  (* quarantined, fenced, lost or not complete *)
  fsck_ms : float;
}

let read_result spool name ~service_s =
  match Option.map Json.parse_obj (read_file (Spool.result_path spool name)) with
  | Some (Ok fields) ->
    let num k = Option.value ~default:nan (Json.num_field fields k) in
    let int k = Option.value ~default:0 (Json.int_field fields k) in
    let str k = Option.value ~default:"" (Json.str_field fields k) in
    Some
      {
        name;
        status = str "status";
        best_cost = num "best_cost";
        iterations = int "iterations_run";
        infeasible = int "infeasible";
        wall_seconds = num "wall_seconds";
        crc = str "solution";
        service_s;
      }
  | _ -> None

(* The client side of the closed loop: a second domain polls for the
   next result file, in claim (name) order, every [poll] seconds and
   stamps when each appears.  File timestamps are too coarse for this
   (one kernel tick).  Returns the stamps in ns, -1 for results that
   never appeared. *)
let poll = 0.000_2

let watch spool names ~finished =
  Domain.spawn (fun () ->
      let names = Array.of_list names in
      let seen = Array.make (Array.length names) (-1) in
      let rec go k =
        if k < Array.length names then
          if Sys.file_exists (Spool.result_path spool names.(k))
             || Sys.file_exists (Spool.failed_path spool names.(k))
          then begin
            seen.(k) <- now_ns ();
            go (k + 1)
          end
          else if Atomic.get finished then go_last k
          else begin
            Unix.sleepf poll;
            go k
          end
      and go_last k =
        (* the drain is over: stamp whatever is left now *)
        if k < Array.length names then begin
          if Sys.file_exists (Spool.result_path spool names.(k)) then seen.(k) <- now_ns ();
          go_last (k + 1)
        end
      in
      go 0;
      seen)

(* Re-run a job's exploration in-process: the result file must carry
   exactly its best cost and solution CRC, and the solution must pass
   the solution checks. *)
let reproduce checks ~iters ~warmup r (source, seed) =
  let fail msg = Checks.check checks "job-reproduces" false (fun () -> r.name ^ ": " ^ msg) in
  match Job.of_json ~name:(Filename.remove_extension r.name) (job_text source ~iters ~warmup ~seed) with
  | Error msg -> fail msg
  | Ok job -> (
    match Job.load_inputs job with
    | Error msg -> fail msg
    | Ok (app, platform) ->
      let res = Repro_dse.Explorer.explore (Job.explorer_config job) app platform in
      let best = res.Repro_dse.Explorer.best in
      let crc = Repro_util.Checkpoint.crc32_hex (Repro_dse.Solution.encode best) in
      Checks.check checks "job-reproduces"
        (crc = r.crc && res.Repro_dse.Explorer.best_cost = r.best_cost)
        (fun () ->
          Printf.sprintf "%s: filed %s at %.17g, rerun gives %s at %.17g" r.name r.crc
            r.best_cost crc res.Repro_dse.Explorer.best_cost);
      Checks.solution checks ~what:r.name best ~cost:r.best_cost)

(* Drain [spool] (filled by [fill] from [submitted]) and check it: every
   job in exactly one outcome directory, nothing left queued or
   claimed, a clean fsck, parsable complete results within [target],
   and every [reproduce_every]-th job reproduced in-process. *)
let drain_and_check ?spans checks ~target ~reproduce_every ~iters ~warmup spool submitted =
  let jobs = List.length submitted in
  let names = List.init jobs job_name in
  let finished = Atomic.make false in
  let watcher = watch spool names ~finished in
  let t0 = now_ns () in
  let drain () =
    Fun.protect
      ~finally:(fun () -> Atomic.set finished true)
      (fun () -> Daemon.run daemon_config spool)
  in
  let _outcome, stats =
    match spans with
    | None -> drain ()
    | Some sp -> Spans.span sp (Spans.id sp "daemon.run") drain
  in
  let wall_s = since_s t0 in
  let seen = Domain.join watcher in
  if Checks.corrupting "spool" then begin
    let name = List.hd names in
    match read_file (Spool.result_path spool name) with
    | Some text -> write_file (Spool.failed_path spool name) text
    | None -> ()
  end;
  let lost = ref 0 and quarantined = ref 0 in
  List.iter
    (fun name ->
      let r = Sys.file_exists (Spool.result_path spool name)
      and f = Sys.file_exists (Spool.failed_path spool name) in
      if f then incr quarantined;
      if not (r || f) then incr lost;
      Checks.check checks "exactly-one-outcome" (r <> f) (fun () ->
          Printf.sprintf "%s: in results/ %b, in failed/ %b" name r f))
    names;
  let queued = Spool.pending spool and working = Spool.in_work spool in
  Checks.check checks "spool-drained" (queued = [] && working = []) (fun () ->
      Printf.sprintf "%d queued, %d in work/ after the drain" (List.length queued)
        (List.length working));
  let t_fsck = now_ns () in
  let audit =
    match spans with
    | None -> Fsck.run spool
    | Some sp -> Spans.span sp (Spans.id sp "fsck.run") (fun () -> Fsck.run spool)
  in
  let fsck_ms = since_s t_fsck *. 1e3 in
  Checks.check checks "fsck-clean" (Fsck.clean audit) (fun () -> Fsck.summary audit);
  let results, _ =
    List.fold_left
      (fun (acc, (k, prev)) name ->
        let at = seen.(k) in
        let next = (k + 1, if at >= 0 then at else prev) in
        if Sys.file_exists (Spool.result_path spool name) then
          let service_s = float_of_int (at - prev) *. 1e-9 in
          match read_result spool name ~service_s with
          | Some r -> (r :: acc, next)
          | None ->
            Checks.check checks "result-parses" false (fun () -> name);
            (acc, next)
        else (acc, next))
      ([], (0, t0)) names
  in
  let results = List.rev results in
  let incomplete =
    List.length (List.filter (fun r -> r.status <> "complete") results)
  in
  let missed = List.length (List.filter (fun r -> not (r.best_cost <= target)) results) in
  List.iteri
    (fun i r ->
      if i mod reproduce_every = 0 then
        let index = Scanf.sscanf r.name "job%d.json" Fun.id in
        reproduce checks ~iters ~warmup r (List.nth submitted index))
    results;
  {
    jobs;
    wall_s;
    results;
    failed =
      !lost + !quarantined + stats.Daemon.fenced + incomplete + missed;
    fsck_ms;
  }

(* Replay each job's spool operations with a fixed result on a fresh
   spool: enqueue all, then per job parse, claim, commit behind the
   fence and refresh the lease — the daemon's own sequence. *)
let replay spans checks dir texts =
  rm_rf dir;
  let spool = Spool.create dir in
  let lease = Lease.acquire ~id:"dsebench-replay" ~dir:spool.Spool.daemons_dir ~ttl:30.0 () in
  let enqueue = Probe.acc () and of_json = Probe.acc () and claim = Probe.acc ()
  and finish = Probe.acc () and refresh = Probe.acc () in
  let id name = Spans.id spans name in
  let id_enqueue = id "spool.enqueue" and id_of_json = id "job.of_json"
  and id_claim = id "spool.claim" and id_finish = id "spool.finish_fenced"
  and id_refresh = id "lease.refresh" in
  List.iteri
    (fun i text ->
      Probe.measure spans id_enqueue enqueue (fun () ->
          Spool.enqueue spool ~name:(job_name i) ~text))
    texts;
  List.iteri
    (fun i text ->
      let name = job_name i in
      let parsed =
        Probe.measure spans id_of_json of_json (fun () ->
            Job.of_json ~name:(Filename.remove_extension name) text)
      in
      let claimed =
        Probe.measure spans id_claim claim (fun () -> Spool.claim ~owner:lease spool name)
      in
      let claim_seq = Lease.seq lease in
      let result_json =
        Json.obj [ ("job", Json.Str name); ("status", Json.Str "complete") ]
      in
      let commit =
        Probe.measure spans id_finish finish (fun () ->
            Spool.finish_fenced spool name ~owner:lease ~claim_seq ~result_json)
      in
      Probe.measure spans id_refresh refresh (fun () -> Lease.refresh lease);
      Checks.check checks "replay-committed"
        (Result.is_ok parsed && claimed && Spool.committed commit)
        (fun () -> name ^ ": replayed claim/commit did not go through"))
    texts;
  Lease.release lease;
  rm_rf dir;
  [
    Probe.us "spool.enqueue" enqueue;
    Probe.us "spool.claim" claim;
    Probe.us "spool.finish_fenced" finish;
    Probe.us "job.of_json" of_json;
    Probe.us "lease.refresh" refresh;
  ]

(* The service layer's per-layer metrics from a set of checked drains
   and the replay of their jobs. *)
let layers spans checks ~dir drains texts =
  let jobs = List.fold_left (fun n d -> n + List.length d.results) 0 drains in
  let drain_s = List.fold_left (fun s d -> s +. d.wall_s) 0.0 drains in
  let search_s =
    List.fold_left
      (fun s d -> List.fold_left (fun s r -> s +. r.wall_seconds) s d.results)
      0.0 drains
  in
  replay spans checks dir texts
  @ [
      metric "fsck.run.ms" "ms" (mean (List.map (fun d -> d.fsck_ms) drains));
      metric "daemon.overhead_ms_per_job" "ms"
        ((drain_s -. search_s) *. 1e3 /. float_of_int (max 1 jobs));
    ]
