module Atomic_io = Repro_util.Atomic_io
module Clock = Repro_util.Clock
module Json = Repro_util.Json_lite

type t = {
  root : string;
  jobs_dir : string;
  work_dir : string;
  results_dir : string;
  failed_dir : string;
  daemons_dir : string;
}

let mkdir_p dir =
  let rec make dir =
    if not (Sys.file_exists dir) then begin
      make (Filename.dirname dir);
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

let layout root =
  {
    root;
    jobs_dir = Filename.concat root "jobs";
    work_dir = Filename.concat root "work";
    results_dir = Filename.concat root "results";
    failed_dir = Filename.concat root "failed";
    daemons_dir = Filename.concat root "daemons";
  }

let create root =
  let t = layout root in
  List.iter mkdir_p
    [ t.jobs_dir; t.work_dir; t.results_dir; t.failed_dir; t.daemons_dir ];
  t

let is_job_file name = Filename.check_suffix name ".json"
let base name = Filename.remove_extension name

let list_jobs dir =
  match Sys.readdir dir with
  | entries ->
    let jobs = Array.to_list entries |> List.filter is_job_file in
    List.sort compare jobs
  | exception Sys_error _ -> []

(* Priority bands.  Band 0 is [jobs/] itself — every pre-band spool is
   a one-band spool — and [jobs/p<k>/] (k >= 1) holds lower-priority
   work.  Claim order is band, then name within a band; [promote_aged]
   keeps low bands from starving. *)
let band_dir t k =
  if k = 0 then t.jobs_dir
  else Filename.concat t.jobs_dir (Printf.sprintf "p%d" k)

let band_of_entry entry =
  let n = String.length entry in
  if n < 2 || entry.[0] <> 'p' then None
  else
    match int_of_string_opt (String.sub entry 1 (n - 1)) with
    | Some k when k >= 1 -> Some k
    | _ -> None

let bands t =
  let extra =
    match Sys.readdir t.jobs_dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.to_list entries
      |> List.filter_map (fun entry ->
             match band_of_entry entry with
             | Some k when Sys.is_directory (Filename.concat t.jobs_dir entry)
               ->
               Some k
             | _ -> None)
      |> List.sort compare
  in
  0 :: extra

(* Highest band first; a name queued in two bands (an fsck finding)
   surfaces once, at its highest priority — exactly the copy [claim]
   would take. *)
let pending_banded t =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun k ->
      List.filter_map
        (fun name ->
          if Hashtbl.mem seen name then None
          else begin
            Hashtbl.replace seen name ();
            Some (k, name)
          end)
        (list_jobs (band_dir t k)))
    (bands t)

let pending t = List.map snd (pending_banded t)
let in_work t = list_jobs t.work_dir

let queue_depths t =
  List.filter_map
    (fun k ->
      match List.length (list_jobs (band_dir t k)) with
      | 0 when k > 0 -> None
      | n -> Some (k, n))
    (bands t)

let job_path t name = Filename.concat t.jobs_dir name
let work_path t name = Filename.concat t.work_dir name
let result_path t name = Filename.concat t.results_dir name
let failed_path t name = Filename.concat t.failed_dir name
let checkpoint_path t name = Filename.concat t.work_dir (base name ^ ".ckpt")

let restart_checkpoint_path t name index =
  Filename.concat t.work_dir (Printf.sprintf "%s.r%d.ckpt" (base name) index)

(* The claim stamp deliberately does not end in ".json": work/ listings
   must see claimed jobs only, never their sidecars. *)
let claim_stamp_path t name = Filename.concat t.work_dir (base name ^ ".claim")

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

(* The claim is one atomic rename: exactly one of several competing
   daemons wins (the losers' renames fail with ENOENT), and a crash
   leaves the job either still queued or visibly claimed in [work/] —
   never duplicated, never half-copied.  The winner then stamps the
   claim with its lease identity; the stamp is what lets a peer's
   reclaim distinguish "owned by a live daemon" from "orphaned by a
   dead one". *)
let claim ?owner t name =
  let stamp band =
    match owner with
    | None -> ()
    | Some lease ->
      let open Json in
      Atomic_io.write_string (claim_stamp_path t name)
        (obj
           [
             ("owner", Str (Lease.id lease));
             ("seq", num_int (Lease.seq lease));
             ("claimed_at", Num (Clock.wall ()));
             (* Recorded so unclaim/reclaim re-queue the job into the
                band it came from; legacy stamps without it mean 0. *)
             ("band", num_int band);
           ]
        ^ "\n")
  in
  let rec try_bands = function
    | [] -> false
    | k :: rest -> (
      match
        Unix.rename (Filename.concat (band_dir t k) name) (work_path t name)
      with
      | () ->
        stamp k;
        true
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> try_bands rest)
  in
  try_bands (bands t)

let read_claim_stamp t name =
  Result.bind (Atomic_io.read_file (claim_stamp_path t name)) Json.parse_obj

(* Return a claim to the queue, into the band its stamp records.
   [stamp] is the stamp's text as the caller judged it ([None]: there
   was none).  Stamp first, rename second, and the stamp is taken with
   one atomic rename: of several reclaimers racing on one orphan
   exactly one wins it and moves the work file, and a stamp that no
   longer reads as judged — a peer re-queued the orphan first and a
   live owner has claimed it since — is put back untouched.  Once the
   job is back in [jobs/] another daemon may claim and stamp it
   instantly; that fresh stamp is never the one removed. *)
let requeue t name ~stamp =
  let stamp_path = claim_stamp_path t name in
  let move band =
    if band > 0 then mkdir_p (band_dir t band);
    match Unix.rename (work_path t name) (Filename.concat (band_dir t band) name) with
    | () -> true
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
  in
  match stamp with
  | None -> (not (Sys.file_exists stamp_path)) && move 0
  | Some judged -> (
    let taken =
      Printf.sprintf "%s.tmp.reclaim.%d.%d" stamp_path (Unix.getpid ())
        (Domain.self () :> int)
    in
    match Unix.rename stamp_path taken with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
    | () -> (
      match Atomic_io.read_file taken with
      | Ok text when text = judged ->
        let band =
          match Json.parse_obj text with
          | Ok fields -> Option.value ~default:0 (Json.int_field fields "band")
          | Error _ -> 0
        in
        let moved = move band in
        remove_if_exists taken;
        moved
      | Ok _ | Error _ ->
        (try Unix.rename taken stamp_path with Unix.Unix_error _ -> ());
        false))

let read_stamp_text t name =
  Result.to_option (Atomic_io.read_file (claim_stamp_path t name))

let unclaim t name = ignore (requeue t name ~stamp:(read_stamp_text t name))

let enqueue ?(priority = 0) t ~name ~text =
  if priority < 0 then invalid_arg "Spool.enqueue: negative priority";
  let dir = band_dir t priority in
  mkdir_p dir;
  Atomic_io.write_string (Filename.concat dir name) text

let find_queued t name =
  List.find_opt (fun k -> Sys.file_exists (Filename.concat (band_dir t k) name))
    (bands t)

(* Aging promotion: a job queued in band k >= 1 for [after] seconds
   moves one band up (p1 promotes into jobs/ itself), and its mtime is
   reset so it queues a full [after] in the new band before moving
   again.  Low bands therefore reach band 0 in bounded time — k *
   [after] — no matter how fast high-priority work arrives. *)
let promote_aged ~now ~after t =
  if not (Float.is_finite after && after > 0.0) then
    invalid_arg "Spool.promote_aged: after wants to be positive";
  List.concat_map
    (fun k ->
      if k = 0 then []
      else
        List.filter_map
          (fun name ->
            let src = Filename.concat (band_dir t k) name in
            let dest = Filename.concat (band_dir t (k - 1)) name in
            match Unix.stat src with
            | exception Unix.Unix_error _ -> None
            | stat ->
              if now -. stat.Unix.st_mtime < after then None
                (* A same-name copy above us wins; fsck reports the
                   duplicate, promotion must not clobber it. *)
              else if Sys.file_exists dest then None
              else begin
                mkdir_p (band_dir t (k - 1));
                match Unix.rename src dest with
                | () ->
                  (try Unix.utimes dest 0.0 0.0
                   with Unix.Unix_error _ -> ());
                  Some name
                | exception Unix.Unix_error _ -> None
              end)
          (list_jobs (band_dir t k)))
    (bands t)

let read_claimed t name = Atomic_io.read_file (work_path t name)

(* Every checkpoint a job may own: the single-chain one, the
   per-restart ones (<base>.r<i>.ckpt) of supervised multi-restart
   runs, and the portfolio member files either may grow
   (<...>.ckpt.m<j>). *)
let remove_checkpoints t name =
  remove_if_exists (checkpoint_path t name);
  let ckpt_prefix = base name ^ ".ckpt" in
  let restart_prefix = base name ^ ".r" in
  let contains_ckpt entry =
    let n = String.length entry in
    let rec scan i =
      i + 5 <= n && (String.sub entry i 5 = ".ckpt" || scan (i + 1))
    in
    scan 0
  in
  match Sys.readdir t.work_dir with
  | entries ->
    Array.iter
      (fun entry ->
        if
          String.starts_with ~prefix:ckpt_prefix entry
          || (String.starts_with ~prefix:restart_prefix entry
              && contains_ckpt entry)
        then remove_if_exists (Filename.concat t.work_dir entry))
      entries
  | exception Sys_error _ -> ()

(* Completion order matters for crash safety: the result file lands
   (atomically) before the claimed job file disappears, so a crash
   between the two leaves both — recovery then sees the result and
   drops the stale claim instead of re-running finished work.
   [keep_checkpoints] is the timed-out contract: the best-so-far
   result is recorded, and the checkpoints stay in [work/] so
   the rerun resumes instead of restarting. *)
let finish ?(keep_checkpoints = false) t name ~result_json =
  Atomic_io.write_string (result_path t name) (result_json ^ "\n");
  if not keep_checkpoints then remove_checkpoints t name;
  remove_if_exists (claim_stamp_path t name);
  remove_if_exists (work_path t name)

(* The fencing token, checked on BOTH sides of the commit point.  A
   daemon that stalled long enough for a peer's [reclaim] to re-queue
   (and a third daemon to re-claim) its job must not disturb that
   fresher run: the claim stamp is re-read immediately before the
   result write and must still name this lease as owner with the
   sequence number captured at claim time — any mismatch (stamp gone,
   different owner, different seq; every lease refresh bumps it, so
   even a reissue to the same daemon id is caught) aborts before
   anything is written ([Fenced]).  The old read-then-rename TOCTOU —
   the stamp changing between that check and the write — is now
   detected and rolled back rather than accepted: after the atomic
   result write the stamp is read AGAIN, and on a mismatch no claim-
   side file (stamp, work copy, checkpoints) is touched, so the new
   owner keeps everything it needs; the already-landed result stays
   (it is byte-identical to what the new owner will produce — jobs are
   pure functions of spec and seed) and the caller counts the event as
   [Fenced_late].  What remains is only the irreducible residue of a
   rename-only protocol: a reclaim that passed its result-existence
   check just before our write can still re-queue the finished job,
   costing one redundant deterministic re-execution — never a lost
   job, never divergent results (see DESIGN.md §5).
   [after_write] is test instrumentation: it runs inside the window,
   between the result write and the re-check. *)
type commit = Committed | Fenced | Fenced_late

let committed = function Committed -> true | Fenced | Fenced_late -> false

let commit_name = function
  | Committed -> "committed"
  | Fenced -> "fenced"
  | Fenced_late -> "fenced-late"

let finish_fenced ?(keep_checkpoints = false) ?(after_write = fun () -> ()) t
    name ~owner ~claim_seq ~result_json =
  let fence_holds () =
    match read_claim_stamp t name with
    | Error _ -> false
    | Ok fields ->
      Json.str_field fields "owner" = Some (Lease.id owner)
      && Json.int_field fields "seq" = Some claim_seq
  in
  if not (fence_holds ()) then Fenced
  else begin
    Atomic_io.write_string (result_path t name) (result_json ^ "\n");
    after_write ();
    if fence_holds () then begin
      if not keep_checkpoints then remove_checkpoints t name;
      remove_if_exists (claim_stamp_path t name);
      remove_if_exists (work_path t name);
      Committed
    end
    else begin
      match read_claim_stamp t name with
      | Error _ ->
        (* The stamp is gone, not replaced: a peer saw the result we
           just filed and ran the finished-claim cleanup (reclaim or
           fsck) concurrently — it completed our commit for us.  The
           claim did not change hands.  Touch nothing: the peer owns
           the cleanup, and any half-done remainder is swept by the
           next reclaim tick (the result is on file). *)
        Committed
      | Ok _ -> Fenced_late
    end
  end

let quarantine ?owner ?attempts t name ~reason =
  let open Json in
  let forensics =
    (match attempts with
     | Some n -> [ ("attempts", num_int n) ]
     | None -> [])
    @
    (* Which daemon gave the job up, and at which lease sequence — the
       poison-job forensics trail. *)
    match owner with
    | Some lease ->
      [
        ("daemon_id", Str (Lease.id lease));
        ("lease_seq", num_int (Lease.seq lease));
      ]
    | None -> []
  in
  (* Rename first: the work file is the claim.  If it is gone, the job
     is no longer ours to give up (a peer finished or re-queued it), and
     a reason or a stamp removal would only damage the peer's outcome.
     A crash after the rename leaves a quarantined job without its
     reason, never a reason without its job. *)
  match Unix.rename (work_path t name) (failed_path t name) with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | () ->
    remove_checkpoints t name;
    remove_if_exists (claim_stamp_path t name);
    Atomic_io.write_string
      (failed_path t (base name ^ ".reason.json"))
      (obj ([ ("job", Str name); ("reason", Str reason) ] @ forensics) ^ "\n")

(* Reclaim: the continuously-runnable sweep of [work/].  Safety rests
   on three rules.  (1) A claim whose result exists is finished
   cleanup, never re-run.  (2) A claim stamped by an owner whose lease
   is alive belongs to a live peer and is never touched; the stamp of
   a dead or missing lease is removed and the job re-queued with its
   checkpoints, so the rerun resumes.  (3) A stamp-less claim (the
   crash window between rename and stamp, or a legacy claimer) is
   re-queued only once its work file is older than [grace] — a live
   claimer stamps within microseconds of winning the rename, so after
   a full lease period of silence the claimer is dead. *)
(* Atomic-write temp files ([<path>.tmp.<pid>.<domain>]) orphaned in
   [work/] by a hard kill mid-checkpoint: a live writer renames within
   milliseconds, so any temp more than a minute old is garbage —
   floored well above any writer's hold time because a zero-grace
   {!recover} must never delete a live peer's in-flight write. *)
let sweep_orphan_temps ~now ~grace t =
  let grace = Float.max grace 60.0 in
  let is_temp name =
    let marker = ".tmp." in
    let nn = String.length name and nm = String.length marker in
    let rec scan i =
      i + nm <= nn && (String.sub name i nm = marker || scan (i + 1))
    in
    scan 0
  in
  match Sys.readdir t.work_dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun entry ->
        if is_temp entry then
          let path = Filename.concat t.work_dir entry in
          match Unix.stat path with
          | stat when now -. stat.Unix.st_mtime >= grace ->
            remove_if_exists path
          | _ -> ()
          | exception Unix.Unix_error _ -> ())
      entries

(* A result only counts as finished work when it parses: a torn or
   zero-byte result (writer killed outside the atomic-write protocol,
   disk damage) must not make reclaim delete the work copy and
   checkpoints — that would lose the job.  Torn results fall through
   to the stamp rules (the rerun's finish atomically replaces them);
   fsck reports and repairs the damage explicitly. *)
let result_ok t name =
  match Atomic_io.read_file (result_path t name) with
  | Error _ -> false
  | Ok text -> Result.is_ok (Json.parse_obj text)

let reclaim ?self ?ledger ?(before_requeue = ignore) ~now ~grace t =
  sweep_orphan_temps ~now ~grace t;
  let leases = Hashtbl.create 7 in
  List.iter
    (fun (_file, view) ->
      match view with
      | Ok (v : Lease.view) -> Hashtbl.replace leases v.Lease.id v
      | Error _ -> ())
    (Lease.list ~dir:t.daemons_dir);
  (* Feed every peer's seq to the ledger each pass, so a skewed remote
     daemon starts its stall window the first time we see it, not the
     first time we examine one of its claims. *)
  (match ledger with
   | None -> ()
   | Some l -> Hashtbl.iter (fun _ v -> Lease.Ledger.observe l ~now v) leases);
  let peer_alive view =
    match ledger with
    | None -> Lease.alive ~now view
    | Some ledger -> Lease.alive_observed ~ledger ~now view
  in
  List.filter_map
    (fun name ->
      if Sys.file_exists (result_path t name) && result_ok t name then begin
        (* Finished before the crash, only the claim cleanup was lost. *)
        remove_checkpoints t name;
        remove_if_exists (claim_stamp_path t name);
        remove_if_exists (work_path t name);
        None
      end
      else
        (* Back to the queue; any checkpoint the run flushed stays in
           work/ so the next claim resumes it. *)
        let orphan stamp =
          before_requeue name;
          if requeue t name ~stamp then Some name else None
        in
        (* Stamp-less (or damaged stamp): age-gate on the work file. *)
        let aged_orphan stamp =
          match Unix.stat (work_path t name) with
          | stat when now -. stat.Unix.st_mtime >= grace -> orphan stamp
          | _ -> None
          | exception Unix.Unix_error _ -> None
        in
        let stamp = read_stamp_text t name in
        match Option.map Json.parse_obj stamp with
        | None | Some (Error _) -> aged_orphan stamp
        | Some (Ok fields) -> (
          match Json.str_field fields "owner" with
          | Some owner when Some owner = self -> None
          | Some owner -> (
            match Hashtbl.find_opt leases owner with
            | Some view when peer_alive view -> None
            | Some _ | None -> orphan stamp)
          | None -> orphan stamp))
    (in_work t)

(* Startup-time recovery, kept for single-daemon callers: an immediate
   sweep (no stamp-less grace) that still honours live peers' stamped
   claims, so it is fleet-safe to call at any time. *)
let recover t = reclaim ~now:(Clock.wall ()) ~grace:0.0 t

let queue_depth t = List.length (pending t)

(* Producer-side rate shaping reads the fleet's health straight from
   the lease heartbeats: the fleet is degraded when at least one
   daemon is alive and EVERY live daemon reports its breaker open.
   An empty fleet is not degraded — submissions queue for daemons yet
   to start — and a single healthy daemon clears the signal. *)
let fleet_breaker_open ~now t =
  let live =
    List.filter_map
      (fun (_file, view) ->
        match view with
        | Ok (v : Lease.view) when Lease.alive ~now v -> Some v
        | Ok _ | Error _ -> None)
      (Lease.list ~dir:t.daemons_dir)
  in
  live <> []
  && List.for_all
       (fun (v : Lease.view) ->
         Json.str_field v.Lease.fields "breaker" = Some "open")
       live
