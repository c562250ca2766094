(** The on-disk job queue: a spool directory with atomic-rename claims
    and lease-fenced ownership.

    Layout under one root:
    {v
    <root>/jobs/     queued job files, .json — priority band 0
    <root>/jobs/p<k>/  optional lower-priority bands (k >= 1)
    <root>/work/     claimed jobs + checkpoints (<base>.ckpt) and
                     claim stamps (<base>.claim)
    <root>/results/  one result JSON per completed job (same name)
    <root>/failed/   quarantined poison jobs + <base>.reason.json
    <root>/daemons/  one lease/heartbeat file per daemon ({!Lease})
    v}

    Claim order is priority band first (band 0 = [jobs/] itself, the
    highest), then name within a band; {!promote_aged} moves a job one
    band up after it has waited [after] seconds, so band k reaches the
    front in at most [k * after] — low bands never starve.

    The claim protocol is a single [rename(2)] from [jobs/] to
    [work/]: atomic on POSIX, so exactly one of several competing
    daemons wins a job and a crash never duplicates or truncates one.
    The winner stamps the claim ([work/<base>.claim]) with its lease
    identity and sequence number; {!reclaim} uses the stamp to
    distinguish a live peer's claim (never touched) from a dead
    daemon's orphan (re-queued, checkpoints kept, so the rerun
    resumes).  Results are written atomically {e before} the claim
    file is removed, which makes reclaim safe: a stale claim with a
    result is finished cleanup, never a re-run.  Producers enqueue by
    writing [jobs/<name>.json] — atomically, or via write-then-rename
    from the same filesystem. *)

type t = {
  root : string;
  jobs_dir : string;
  work_dir : string;
  results_dir : string;
  failed_dir : string;
  daemons_dir : string;
}

val layout : string -> t
(** Paths only, no filesystem access. *)

val create : string -> t
(** {!layout} + [mkdir -p] of the five directories. *)

val bands : t -> int list
(** The priority bands present, ascending; always starts with 0. *)

val band_dir : t -> int -> string
(** [jobs/] for band 0, [jobs/p<k>/] otherwise. *)

val pending : t -> string list
(** Queued job file names in claim order: band, then name.  A name
    queued in two bands (an fsck finding) surfaces once, at its
    highest band. *)

val pending_banded : t -> (int * string) list
(** {!pending} with each name's band. *)

val queue_depths : t -> (int * int) list
(** Per-band queued counts, [(band, n)]; band 0 always present,
    empty higher bands omitted. *)

val enqueue : ?priority:int -> t -> name:string -> text:string -> unit
(** Atomically write a job file into band [priority] (default 0),
    creating the band directory if needed.  Raises [Invalid_argument]
    on a negative priority. *)

val find_queued : t -> string -> int option
(** The band a job name is queued in, if any (lowest wins). *)

val promote_aged : now:float -> after:float -> t -> string list
(** Move every job that has sat in a band k >= 1 for at least [after]
    seconds one band up, resetting its age clock; returns the promoted
    names.  Skips a name whose destination band already holds a copy
    (fsck reports the duplicate).  Raises [Invalid_argument] on a
    non-positive [after]. *)

val in_work : t -> string list
(** Currently claimed job file names, sorted (sidecars excluded). *)

val claim : ?owner:Lease.t -> t -> string -> bool
(** Atomically move a job from [jobs/] to [work/]; [false] when
    another daemon won the race (or the file vanished).  With [owner],
    the winner stamps the claim with its lease id and current sequence
    number — fleet daemons always pass their lease; a stamp-less claim
    is only re-queued by {!reclaim} after a full grace period. *)

val unclaim : t -> string -> unit
(** Return a claimed job to the queue (graceful shutdown mid-job) —
    into the band its claim stamp records; removes the claim stamp
    first. *)

val read_claimed : t -> string -> (string, string) result
(** Contents of a claimed job file. *)

val read_claim_stamp :
  t -> string -> ((string * Repro_util.Json_lite.t) list, string) result
(** The claim stamp of a claimed job: [owner] (lease id), [seq],
    [claimed_at]. *)

val finish : ?keep_checkpoints:bool -> t -> string -> result_json:string -> unit
(** Write [results/<name>] atomically, then drop the claim, its stamp
    and its checkpoints.  [~keep_checkpoints:true] (default false)
    leaves the checkpoints in [work/]: the timed-out contract — the
    best-so-far result is recorded, and re-enqueueing the same job
    name resumes the search from where the deadline cut it. *)

type commit = Committed | Fenced | Fenced_late
(** Outcome of a fenced result commit.  [Committed]: fence held on
    both sides of the write; result filed, claim cleaned up.
    [Fenced]: the pre-write check failed — the job was reclaimed from
    this daemon while it worked (a stall past the lease ttl) and
    someone else owns it now; nothing was written.  [Fenced_late]: the
    stamp changed {e between} the result write and the post-write
    re-check (the old TOCTOU window, now detected): the result stands
    — byte-identical to what the new owner will produce, jobs being
    pure functions of spec and seed — but no claim-side file (stamp,
    work copy, checkpoints) is touched, so the new owner finishes
    undisturbed. *)

val committed : commit -> bool
val commit_name : commit -> string

val finish_fenced :
  ?keep_checkpoints:bool -> ?after_write:(unit -> unit) -> t -> string ->
  owner:Lease.t -> claim_seq:int -> result_json:string -> commit
(** {!finish} behind the fencing token, with detect-and-rollback on
    the write window: the claim stamp must name [owner]'s lease id
    with the sequence number captured at claim time ([claim_seq],
    i.e. {!Lease.seq} right after the winning {!claim}) both
    immediately before the atomic result write and immediately after
    it; see {!commit} for the three outcomes.  [after_write] is test
    instrumentation, called inside the window. *)

val quarantine :
  ?owner:Lease.t -> ?attempts:int -> t -> string -> reason:string -> unit
(** Move a claimed poison job to [failed/<name>] and record a one-line
    [failed/<base>.reason.json] — in that order, and only when the
    claimed file is still in [work/]: a claim a peer took over is left
    alone, with no reason filed.  [owner] and [attempts] add the
    forensics trail: which daemon gave up ([daemon_id], [lease_seq])
    and after how many tries. *)

val reclaim :
  ?self:string -> ?ledger:Lease.Ledger.t -> ?before_requeue:(string -> unit) ->
  now:float -> grace:float -> t -> string list
(** The continuously-runnable sweep of [work/]; safe to call from any
    daemon at any time.  Claims whose result exists {e and parses} are
    finished cleanup (a torn result must not cost the work copy and
    checkpoints — it falls through to the stamp rules and is
    atomically replaced by the rerun); claims stamped by an owner
    whose lease ({!Lease.alive}) is live — or by [self] — are left
    alone; claims of dead or missing owners are re-queued into their
    recorded band (checkpoints kept); stamp-less claims are re-queued
    only once their work file is older than [grace] seconds (use the
    lease ttl).  With [ledger], liveness additionally requires the
    owner's seq to have advanced within one ttl of {e observer} time
    ({!Lease.alive_observed}) — the cross-host death detector, immune
    to the peer's clock skew.  Atomic-write temp files orphaned in
    [work/] by a hard kill are swept too (once older than
    [max grace 60] seconds, so a live peer's in-flight write is never
    deleted).  A requeue takes the stamp it judged with one atomic
    rename and only moves the work file when the stamp still reads as
    judged, so of several reclaimers racing on one orphan exactly one
    re-queues it, and none ever moves a claim re-issued since.
    [before_requeue] is test instrumentation, called with the job name
    between that judgement and the requeue.  Returns the re-queued
    names. *)

val recover : t -> string list
(** Startup-time sweep for single-daemon callers: {!reclaim} with zero
    stamp-less grace.  Still honours live peers' stamped claims. *)

val job_path : t -> string -> string
val work_path : t -> string -> string
val result_path : t -> string -> string
val failed_path : t -> string -> string

val checkpoint_path : t -> string -> string
(** [work/<base>.ckpt] — where a claimed job's engine checkpoint
    lives. *)

val restart_checkpoint_path : t -> string -> int -> string
(** [work/<base>.r<i>.ckpt] — restart [i]'s checkpoint of a
    multi-restart job. *)

val claim_stamp_path : t -> string -> string
(** [work/<base>.claim] — the claim's ownership stamp. *)

val remove_checkpoints : t -> string -> unit
(** Drop every checkpoint a job may own in [work/]: the single-chain
    one, per-restart ones and portfolio member scratch. *)

val queue_depth : t -> int

val result_ok : t -> string -> bool
(** The result file exists and parses as a JSON object — the predicate
    {!reclaim} and fsck use to tell finished work from a torn write. *)

val fleet_breaker_open : now:float -> t -> bool
(** The producer-side degradation signal: at least one daemon's lease
    is alive and {e every} live daemon's heartbeat reports
    ["breaker": "open"].  An empty fleet is healthy (submissions just
    queue); one healthy daemon clears the signal.  [campaign submit]
    backs off (Backoff-paced) while this holds. *)
