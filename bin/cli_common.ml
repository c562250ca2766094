(* Shared plumbing for the dse-* command-line tools: one-line usage
   errors, SIGINT/deadline wiring, result files, cell checkpoints and
   exit codes.  Inputs are loaded and validated by Run_spec. *)

module Explorer = Repro_dse.Explorer
module Solution = Repro_dse.Solution
module Interrupt = Repro_util.Interrupt
module Clock = Repro_util.Clock
module Atomic_io = Repro_util.Atomic_io
module Json = Repro_util.Json_lite
module Log = Repro_util.Log

(* Exit codes, shared by all six dse-* tools: 0 success — including
   degraded completions, which exit 0 with warnings on stderr and an
   explicit status in the result JSON; 2 bad input or usage; 3
   interrupted (SIGINT or exhausted --time-budget) with best-so-far
   results emitted. *)
let exit_ok = 0
let exit_usage = 2
let exit_interrupted = 3

(* Man-page documentation of the convention, shared by every tool. *)
let exits =
  Cmdliner.Cmd.Exit.info exit_usage
    ~doc:"on malformed input files or invalid flag combinations."
  :: Cmdliner.Cmd.Exit.info exit_interrupted
       ~doc:
         "when interrupted by SIGINT or an exhausted time budget; \
          best-so-far results are still emitted."
  :: Cmdliner.Cmd.Exit.defaults

exception Usage_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Usage_error msg)) fmt

(* A library [Error] (unknown engine name, unusable checkpoint) is a
   usage error with the library's one-line message. *)
let or_fail = function Ok v -> v | Error msg -> fail "%s" msg

(* [should_stop ~time_budget] wires SIGINT and the wall-clock budget
   into one boundary probe; pass it to the explorer. *)
let should_stop ~time_budget =
  Interrupt.install ();
  match time_budget with
  | None -> Interrupt.pending
  | Some seconds ->
    let expired = Clock.deadline ~seconds in
    fun () -> Interrupt.pending () || expired ()

(* The evaluation counters of a run, per move kind — the perf
   trajectory of the incremental evaluator, machine-readable across
   PRs.  Kinds that never evaluated are omitted. *)
let eval_stats_json (stats : Solution.eval_stats) =
  let open Json in
  let by_kind =
    List.filter_map
      (fun kind ->
        let ks = Solution.kind_stats stats kind in
        if ks.Solution.k_full_evals = 0 && ks.Solution.k_incr_evals = 0 then
          None
        else
          Some
            ( Solution.move_kind_label kind,
              Obj
                [
                  ("full_evals", num_int ks.Solution.k_full_evals);
                  ("incr_evals", num_int ks.Solution.k_incr_evals);
                  ("incr_nodes", num_int ks.Solution.k_incr_nodes);
                  ("edges_edited", num_int ks.Solution.k_edges_edited);
                  ("pairs_emitted", num_int ks.Solution.k_pairs_emitted);
                  ("comm_edges_patched", num_int ks.Solution.k_comm_patched);
                  ("pair_regens", num_int ks.Solution.k_pair_regens);
                ] ))
      Solution.move_kinds
  in
  Obj
    [
      ("full_evals", num_int stats.Solution.full_evals);
      ("full_nodes", num_int stats.Solution.full_nodes);
      ("incr_evals", num_int stats.Solution.incr_evals);
      ("incr_nodes", num_int stats.Solution.incr_nodes);
      ("edges_edited", num_int stats.Solution.edges_edited);
      ("pairs_emitted", num_int stats.Solution.pairs_emitted);
      ("comm_edges_patched", num_int stats.Solution.comm_patched);
      ("pair_regens", num_int stats.Solution.pair_regens);
      ("by_kind", Obj by_kind);
    ]

(* Machine-readable result file: always written atomically, always
   carries an explicit status ("complete" | "degraded" | "interrupted")
   so a consumer can tell a finished campaign from a partial one.
   Supervised multi-restart runs additionally list the per-restart
   statuses and how many restarts were lost. *)
let write_result ?restart_statuses ?degraded path ~status ~result =
  let fields =
    Explorer.result_fields ?restart_statuses ?degraded ~status result
    (* Keep this the last field: the faultcheck drill strips it (the
       counters are process-local, so a clean run and a kill/resume
       run legitimately differ here). *)
    @ [
        ( "eval_stats",
          eval_stats_json (Solution.eval_stats result.Explorer.best) );
      ]
  in
  Atomic_io.write_string path (Json.obj fields ^ "\n")

(* Restart-level checkpointing for the campaign tools (dse-sweep,
   dse-compare): the unit of work is an indexed cell whose result
   depends only on its index, so a store of completed cells can be
   persisted after every chunk and a rerun with the same flags skips
   them.  The store is a Checkpoint payload: a fingerprint line (the
   campaign parameters) followed by one "<index>\t<encoded>" line per
   completed cell. *)
type 'a cell_checkpoint = {
  ckpt_path : string;
  kind : string;
  fingerprint : string;
  encode : 'a -> string;  (* single line, may contain tabs *)
  decode : string -> 'a;
}

let load_cells ck =
  let table = Hashtbl.create 64 in
  if Sys.file_exists ck.ckpt_path then begin
    match Repro_util.Checkpoint.load ck.ckpt_path ~kind:ck.kind with
    | Error msg -> fail "%s" msg
    | Ok payload ->
      (match String.split_on_char '\n' payload with
       | fp :: lines when fp = ck.fingerprint ->
         List.iter
           (fun line ->
             if line <> "" then
               match String.index_opt line '\t' with
               | Some tab ->
                 let index =
                   match int_of_string_opt (String.sub line 0 tab) with
                   | Some i -> i
                   | None ->
                     fail "%s: malformed checkpoint cell index" ck.ckpt_path
                 in
                 Hashtbl.replace table index
                   (ck.decode
                      (String.sub line (tab + 1)
                         (String.length line - tab - 1)))
               | None -> fail "%s: malformed checkpoint cell" ck.ckpt_path)
           lines
       | _ :: _ | [] ->
         fail
           "%s: checkpoint was produced under different campaign parameters"
           ck.ckpt_path)
  end;
  table

let save_cells ck table =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer ck.fingerprint;
  Buffer.add_char buffer '\n';
  Hashtbl.fold (fun index _ acc -> index :: acc) table []
  |> List.sort compare
  |> List.iter (fun index ->
         Buffer.add_string buffer
           (Printf.sprintf "%d\t%s\n" index (ck.encode (Hashtbl.find table index))));
  Repro_util.Checkpoint.save ck.ckpt_path ~kind:ck.kind (Buffer.contents buffer)

(* Run [n] cells in chunks of [jobs] under the supervised pool: after
   each chunk the completed set is flushed to the checkpoint (when
   given) and the stop probe is polled, so SIGINT or an exhausted time
   budget stops at a restart boundary with all finished work
   persisted.  A cell that raises or exceeds [cell_timeout] no longer
   aborts the campaign: the loss is recorded as a warning and the
   campaign completes degraded over the survivors.  [`Complete] hence
   carries an option per cell (None = lost) plus the warning list;
   cells that timed out but salvaged a best-so-far value are kept
   *and* warned about. *)
let run_cells ?checkpoint ?cell_timeout ?(retries = 0) ~jobs ~should_stop n
    cell =
  let completed = match checkpoint with
    | Some ck -> load_cells ck
    | None -> Hashtbl.create 64
  in
  let warnings = ref [] in
  let warn index msg = warnings := (index, msg) :: !warnings in
  let pending =
    List.filter (fun i -> not (Hashtbl.mem completed i)) (List.init n Fun.id)
  in
  let chunk_size = max 1 jobs in
  let rec go pending =
    match pending with
    | [] ->
      `Complete
        ( Array.init n (fun i -> Hashtbl.find_opt completed i),
          List.sort compare !warnings )
    | _ when should_stop () -> `Interrupted (Hashtbl.length completed, n)
    | _ ->
      let chunk, rest =
        let rec split k acc = function
          | x :: rest when k > 0 -> split (k - 1) (x :: acc) rest
          | rest -> (Array.of_list (List.rev acc), rest)
        in
        split chunk_size [] pending
      in
      let outcomes =
        Repro_util.Parallel.map_outcomes ~jobs ~retries ?timeout:cell_timeout
          ~should_stop (Array.length chunk)
          (fun j ~stop -> cell chunk.(j) ~stop)
      in
      Array.iteri
        (fun j outcome ->
          let index = chunk.(j) in
          match outcome with
          | Repro_util.Parallel.Done r -> Hashtbl.replace completed index r
          | Repro_util.Parallel.Timed_out (Some r) ->
            Hashtbl.replace completed index r;
            warn index "timed out (best-so-far kept)"
          | Repro_util.Parallel.Timed_out None ->
            warn index "timed out with nothing to salvage; dropped"
          | Repro_util.Parallel.Failed { error; attempts; _ } ->
            warn index
              (Printf.sprintf "failed after %d attempt(s): %s" attempts error)
          | Repro_util.Parallel.Skipped ->
            (* Global stop latched before the cell started; the next
               loop iteration reports the interruption. *)
            ())
        outcomes;
      (match checkpoint with Some ck -> save_cells ck completed | None -> ());
      go rest
  in
  go pending

(* Print cell-loss warnings the same way in every campaign tool. *)
let report_warnings ~what warnings =
  List.iter
    (fun (index, msg) -> Log.warn "%s %d: %s" what index msg)
    warnings

(* Wrap a command body: malformed inputs and usage mistakes become a
   one-line error on stderr and exit code 2 — no raw exception ever
   escapes to the user.  Also honours $REPRO_FAULTS so the fault plan
   can be armed on any tool, and registers the search engines so every
   tool resolves the same names. *)
let guard body =
  try
    Repro_util.Fault.arm_from_env ();
    Repro_baseline.Engines.register_all ();
    body ()
  with
  | Usage_error msg | Invalid_argument msg | Failure msg | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit_usage
