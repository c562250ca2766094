(* Fleet-safe batch job-queue service: drain, inspect and aggregate a
   spool directory of exploration jobs.

     dse-serve watch ./spool --once         # drain the queue and exit
     dse-serve watch ./spool --timeout 30   # per-job wall-clock budget
     dse-serve watch ./spool --lease-ttl 10 &  # several daemons, one spool
     dse-serve status ./spool               # live daemons + claims
     dse-serve submit ./spool CAMPAIGN.json # idempotent bulk enqueue
     dse-serve report ./spool CAMPAIGN.json # one aggregate JSON
     dse-serve fsck ./spool                 # audit the spool (dry run)
     dse-serve fsck ./spool --repair        # and enforce the invariants

   Any number of daemons may drain one spool: each owns a lease file
   under <spool>/daemons/ (refreshed with a monotonic sequence number)
   and stamps its claims with it, so peers reclaim a dead daemon's
   jobs — checkpoints kept, reruns resume — without stealing live
   work.  Producers enqueue by dropping one-line JSON job files into
   <spool>/jobs/ (or `dse-serve submit` with a campaign manifest);
   results land in <spool>/results/, poison jobs in <spool>/failed/.
   SIGINT re-queues the in-flight job (checkpoint kept) and exits 3.

   Exit codes: 0 queue drained (--once) or job budget spent, 2 bad
   input or usage, 3 interrupted by SIGINT.
*)

open Cmdliner
module Campaign = Repro_serve.Campaign
module Daemon = Repro_serve.Daemon
module Fsck = Repro_serve.Fsck
module Lease = Repro_serve.Lease
module Spool = Repro_serve.Spool
module Backoff = Repro_util.Backoff
module Clock = Repro_util.Clock
module Interrupt = Repro_util.Interrupt
module Json = Repro_util.Json_lite
module Log = Repro_util.Log
module Rng = Repro_util.Rng

(* ---- watch -------------------------------------------------------- *)

let watch spool_dir timeout retries no_backoff breaker_failures
    breaker_cooldown poll once max_jobs jobs checkpoint_every lease_ttl
    daemon_id no_fsck promote_after log_file =
  Cli_common.guard @@ fun () ->
  if retries < 0 then Cli_common.fail "--retries wants a non-negative count";
  if promote_after < 0.0 then
    Cli_common.fail "--promote-after wants a non-negative number of seconds";
  if jobs <= 0 then Cli_common.fail "--jobs wants a positive domain count";
  if poll <= 0.0 then Cli_common.fail "--poll wants a positive interval";
  if breaker_failures <= 0 then
    Cli_common.fail "--breaker-failures wants a positive count";
  if breaker_cooldown <= 0.0 then
    Cli_common.fail "--breaker-cooldown wants a positive number of seconds";
  if checkpoint_every <= 0 then
    Cli_common.fail "--checkpoint-every wants a positive iteration count";
  if lease_ttl <= 0.0 then
    Cli_common.fail "--lease-ttl wants a positive number of seconds";
  (match daemon_id with
   | Some id -> (
     match Lease.validate_id id with
     | Ok _ -> ()
     | Error msg -> Cli_common.fail "--daemon-id: %s" msg)
   | None -> ());
  (match timeout with
   | Some s when s <= 0.0 ->
     Cli_common.fail "--timeout wants a positive number of seconds"
   | _ -> ());
  Log.set_tag "dse-serve";
  Log.configure_from_env ();
  Log.set_sink log_file;
  let spool = Spool.create spool_dir in
  let config =
    {
      Daemon.timeout;
      retries;
      backoff = (if no_backoff then None else Some Backoff.default);
      breaker_threshold = breaker_failures;
      breaker_cooldown;
      poll_interval = poll;
      once;
      max_jobs;
      jobs;
      checkpoint_every;
      lease_ttl;
      daemon_id;
      fsck = not no_fsck;
      promote_after = (if promote_after = 0.0 then None else Some promote_after);
    }
  in
  Interrupt.install ();
  let outcome, stats = Daemon.run ~should_stop:Interrupt.pending config spool in
  Printf.printf
    "%s: %d claimed, %d completed (%d timed out), %d quarantined, %d \
     re-queued, %d reclaimed, %d repaired, %d fenced\n"
    (Daemon.outcome_name outcome)
    stats.Daemon.claimed stats.Daemon.completed stats.Daemon.timed_out
    stats.Daemon.quarantined stats.Daemon.requeued stats.Daemon.recovered
    stats.Daemon.repaired
    (stats.Daemon.fenced + stats.Daemon.fenced_late);
  match outcome with
  | Daemon.Drained -> Cli_common.exit_ok
  | Daemon.Interrupted -> Cli_common.exit_interrupted

(* ---- status ------------------------------------------------------- *)

let status spool_dir =
  Cli_common.guard @@ fun () ->
  let spool = Spool.layout spool_dir in
  if not (Sys.file_exists spool.Spool.jobs_dir) then
    Cli_common.fail "%s is not a spool (no jobs/ directory)" spool_dir;
  let now = Clock.wall () in
  let pending = Spool.pending spool in
  let claimed = Spool.in_work spool in
  let count dir =
    match Sys.readdir dir with
    | entries ->
      Array.to_list entries
      |> List.filter (fun n ->
             Filename.check_suffix n ".json"
             && not (Filename.check_suffix n ".reason.json"))
      |> List.length
    | exception Sys_error _ -> 0
  in
  let band_note =
    match Spool.queue_depths spool with
    | [] | [ (0, _) ] -> ""
    | depths ->
      Printf.sprintf " (%s)"
        (String.concat ", "
           (List.map (fun (k, n) -> Printf.sprintf "p%d: %d" k n) depths))
  in
  Printf.printf "queue: %d queued%s, %d claimed, %d results, %d failed\n"
    (List.length pending) band_note (List.length claimed)
    (count spool.Spool.results_dir)
    (count spool.Spool.failed_dir);
  let leases = Lease.list ~dir:spool.Spool.daemons_dir in
  Printf.printf "daemons: %d\n" (List.length leases);
  List.iter
    (fun (file, view) ->
      match view with
      | Error msg -> Printf.printf "  %-24s damaged: %s\n" file msg
      | Ok (v : Lease.view) ->
        let verdict =
          if v.Lease.released then "exited"
          else if Lease.alive ~now v then "live"
          else "stale"
        in
        (* The circuit breaker travels in the heartbeat fields: a
           closed breaker is healthy, open means the daemon paused
           draining against consecutive failures, half-open is its
           recovery probe.  Trips count lifetime openings. *)
        let breaker =
          match Json.str_field v.Lease.fields "breaker" with
          | None -> ""
          | Some state ->
            Printf.sprintf "  breaker %s%s" state
              (match Json.int_field v.Lease.fields "breaker_trips" with
               | Some trips when trips > 0 ->
                 Printf.sprintf " (%d trip(s))" trips
               | _ -> "")
        in
        Printf.printf "  %-24s %-6s seq %-6d age %6.1fs  state %s%s\n"
          v.Lease.id verdict v.Lease.seq
          (now -. v.Lease.updated)
          (Option.value ~default:"?" (Json.str_field v.Lease.fields "state"))
          breaker)
    leases;
  let live_ids =
    List.filter_map
      (fun (_, view) ->
        match view with
        | Ok (v : Lease.view) when Lease.alive ~now v -> Some v.Lease.id
        | _ -> None)
      leases
  in
  if claimed <> [] then begin
    Printf.printf "claims:\n";
    List.iter
      (fun name ->
        match Spool.read_claim_stamp spool name with
        | Ok stamp ->
          let owner =
            Option.value ~default:"?" (Json.str_field stamp "owner")
          in
          Printf.printf "  %-24s owner %s (%s)\n" name owner
            (if List.mem owner live_ids then "live" else "stale")
        | Error _ -> Printf.printf "  %-24s unstamped\n" name)
      claimed
  end;
  Cli_common.exit_ok

(* ---- submit / report ---------------------------------------------- *)

let load_campaign path =
  match Campaign.load path with
  | Ok campaign -> campaign
  | Error msg -> Cli_common.fail "%s" msg

(* Producer-side rate shaping: when every live daemon reports its
   breaker open, the fleet is fighting a failing dependency and fresh
   load only deepens the backlog.  Submission pauses, Backoff-paced,
   until a daemon recovers or the deferral budget runs out (then it
   submits anyway — jobs queue fine on a sick fleet, they just wait). *)
let defer_while_degraded spool ~max_defer ~seed_key =
  if max_defer > 0.0 then begin
    let rng = Rng.create (Hashtbl.hash seed_key) in
    let policy =
      { Backoff.base = 0.5; factor = 2.0; max_delay = 10.0; jitter = 0.25 }
    in
    let deadline = Clock.wall () +. max_defer in
    let rec wait attempt =
      if Spool.fleet_breaker_open ~now:(Clock.wall ()) spool then
        if Clock.wall () >= deadline then
          Log.warn "fleet still degraded after %.0fs; submitting anyway"
            max_defer
        else begin
          let pause =
            Float.min
              (Backoff.delay policy rng ~attempt)
              (Float.max 0.0 (deadline -. Clock.wall ()))
          in
          Log.warn
            "fleet degraded (every live daemon's breaker is open); \
             deferring submission %.1fs"
            pause;
          Unix.sleepf pause;
          wait (attempt + 1)
        end
    in
    wait 0
  end

let submit spool_dir campaign_file max_defer =
  Cli_common.guard @@ fun () ->
  let campaign = load_campaign campaign_file in
  let spool = Spool.create spool_dir in
  Log.set_tag "dse-serve";
  Log.configure_from_env ();
  defer_while_degraded spool ~max_defer ~seed_key:campaign.Campaign.name;
  let { Campaign.enqueued; skipped } = Campaign.submit campaign spool in
  Printf.printf
    "campaign %s: enqueued %d, skipped %d (already queued, claimed or \
     filed)\n"
    campaign.Campaign.name (List.length enqueued) (List.length skipped);
  Cli_common.exit_ok

(* ---- fsck --------------------------------------------------------- *)

let fsck spool_dir repair out =
  Cli_common.guard @@ fun () ->
  let spool = Spool.layout spool_dir in
  if not (Sys.file_exists spool.Spool.jobs_dir) then
    Cli_common.fail "%s is not a spool (no jobs/ directory)" spool_dir;
  let audit = Fsck.run ~repair spool in
  let json = Json.to_string (Fsck.to_json audit) in
  (* The audit JSON is the stdout payload (pipeable, CI-archivable);
     the human summary goes to stderr like the daemon's log lines. *)
  (match out with
   | None -> print_endline json
   | Some path -> Repro_util.Atomic_io.write_string path (json ^ "\n"));
  Printf.eprintf "%s\n%!" (Fsck.summary audit);
  Cli_common.exit_ok

let report spool_dir campaign_file out =
  Cli_common.guard @@ fun () ->
  let campaign = load_campaign campaign_file in
  let spool = Spool.layout spool_dir in
  if not (Sys.file_exists spool.Spool.jobs_dir) then
    Cli_common.fail "%s is not a spool (no jobs/ directory)" spool_dir;
  let json = Json.to_string (Campaign.report spool campaign) in
  (match out with
   | None -> print_endline json
   | Some path -> Repro_util.Atomic_io.write_string path (json ^ "\n"));
  Cli_common.exit_ok

(* ---- terms -------------------------------------------------------- *)

let spool_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"SPOOL"
           ~doc:"Spool directory (created if missing): jobs/, work/, \
                 results/, failed/, daemons/")

let campaign_arg =
  Arg.(required & pos 1 (some string) None
       & info [] ~docv:"CAMPAIGN"
           ~doc:"Campaign manifest: {\"campaign\": NAME, \"jobs\": \
                 [{\"name\": ..., job fields...}, ...], optional \
                 \"complete_when\": \"all-filed\"|\"all-results\"}")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ]
           ~doc:"Default per-job wall-clock budget in $(docv) seconds (a \
                 job's own \"timeout\" field wins); an over-budget job \
                 files a timed-out result with its best-so-far solution"
           ~docv:"SECS")

let retries_arg =
  Arg.(value & opt int 1
       & info [ "retries" ]
           ~doc:"Extra attempts per job before it is quarantined as poison")

let no_backoff_arg =
  Arg.(value & flag
       & info [ "no-backoff" ] ~doc:"Retry immediately instead of pacing \
                                     attempts with exponential backoff")

let breaker_failures_arg =
  Arg.(value & opt int 5
       & info [ "breaker-failures" ]
           ~doc:"Consecutive job failures that open the circuit breaker")

let breaker_cooldown_arg =
  Arg.(value & opt float 30.0
       & info [ "breaker-cooldown" ]
           ~doc:"Seconds the open breaker pauses draining before probing \
                 one job (half-open)"
           ~docv:"SECS")

let poll_arg =
  Arg.(value & opt float 1.0
       & info [ "poll" ]
           ~doc:"Idle sleep between queue scans (jittered per daemon so a \
                 fleet never polls in lock-step)"
           ~docv:"SECS")

let once_arg =
  Arg.(value & flag
       & info [ "once" ] ~doc:"Drain the queue (plus anything reclaimed \
                               from dead peers) and exit instead of \
                               watching")

let max_jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "max-jobs" ] ~doc:"Exit 0 after claiming $(docv) jobs"
           ~docv:"N")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ]
           ~doc:"Domains used for a multi-restart job's chains")

let checkpoint_every_arg =
  Arg.(value & opt int 2_000
       & info [ "checkpoint-every" ]
           ~doc:"Iterations between engine checkpoints for single-restart \
                 jobs (work/<base>.ckpt; resumed after a crash)"
           ~docv:"N")

let lease_ttl_arg =
  Arg.(value & opt float 30.0
       & info [ "lease-ttl" ]
           ~doc:"Seconds of freshness each lease refresh buys.  A daemon \
                 silent for $(docv) seconds (or whose pid died, on the \
                 same host) is considered dead and its claims are \
                 reclaimed by any peer; keep well above --poll"
           ~docv:"SECS")

let daemon_id_arg =
  Arg.(value & opt (some string) None
       & info [ "daemon-id" ]
           ~doc:"Explicit lease id (letters, digits, dot, underscore, \
                 dash); default host-pid-nonce, unique per incarnation"
           ~docv:"ID")

let no_fsck_arg =
  Arg.(value & flag
       & info [ "no-fsck" ]
           ~doc:"Skip the spool-integrity repair pass the daemon \
                 otherwise runs at startup and about once per lease \
                 period (see $(b,dse-serve fsck))")

let promote_after_arg =
  Arg.(value & opt float 600.0
       & info [ "promote-after" ]
           ~doc:"Seconds a job waits in a priority band (jobs/p<k>/) \
                 before it is promoted one band up, so low bands never \
                 starve; 0 disables aging promotion"
           ~docv:"SECS")

let max_defer_arg =
  Arg.(value & opt float 60.0
       & info [ "max-defer" ]
           ~doc:"Longest the submission defers (Backoff-paced) while \
                 the fleet is degraded — every live daemon's circuit \
                 breaker open; 0 submits immediately regardless"
           ~docv:"SECS")

let repair_arg =
  Arg.(value & flag
       & info [ "repair" ]
           ~doc:"Enforce the invariants (remove orphans, quarantine \
                 damaged files, clean finished claims) instead of the \
                 default dry run")

let log_arg =
  Arg.(value & opt (some string) None
       & info [ "log" ]
           ~doc:"Append one JSON object per event to $(docv) (line-atomic; \
                 stderr keeps the human-readable lines)"
           ~docv:"FILE")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "out" ]
           ~doc:"Write the report JSON to $(docv) (atomically) instead of \
                 stdout"
           ~docv:"FILE")

let watch_cmd =
  let doc = "drain the spool as one daemon of the fleet" in
  Cmd.v (Cmd.info "watch" ~doc ~exits:Cli_common.exits)
    Term.(const watch $ spool_arg $ timeout_arg $ retries_arg $ no_backoff_arg
          $ breaker_failures_arg $ breaker_cooldown_arg $ poll_arg $ once_arg
          $ max_jobs_arg $ jobs_arg $ checkpoint_every_arg $ lease_ttl_arg
          $ daemon_id_arg $ no_fsck_arg $ promote_after_arg $ log_arg)

let status_cmd =
  let doc = "show the fleet: daemons (live/stale/exited), queue, claims" in
  Cmd.v (Cmd.info "status" ~doc ~exits:Cli_common.exits)
    Term.(const status $ spool_arg)

let submit_cmd =
  let doc = "idempotently enqueue a campaign manifest's jobs" in
  Cmd.v (Cmd.info "submit" ~doc ~exits:Cli_common.exits)
    Term.(const submit $ spool_arg $ campaign_arg $ max_defer_arg)

let fsck_cmd =
  let doc =
    "audit the spool's on-disk invariants (dry run); --repair enforces them"
  in
  Cmd.v (Cmd.info "fsck" ~doc ~exits:Cli_common.exits)
    Term.(const fsck $ spool_arg $ repair_arg $ out_arg)

let report_cmd =
  let doc = "fold a campaign's results into one aggregate report JSON" in
  Cmd.v (Cmd.info "report" ~doc ~exits:Cli_common.exits)
    Term.(const report $ spool_arg $ campaign_arg $ out_arg)

let doc = "fleet-safe spool of exploration jobs with supervision"

let group_cmd =
  Cmd.group
    (Cmd.info "dse-serve" ~doc ~exits:Cli_common.exits)
    [ watch_cmd; status_cmd; submit_cmd; report_cmd; fsck_cmd ]

let () = exit (Cmd.eval' group_cmd)
