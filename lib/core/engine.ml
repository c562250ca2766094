module Rng = Repro_util.Rng
module Clock = Repro_util.Clock
module Checkpoint = Repro_util.Checkpoint
module Log = Repro_util.Log
module App_io = Repro_taskgraph.App_io
module Platform_io = Repro_arch.Platform_io

type budget = {
  iterations : int;
  time_limit : float option;
  max_evaluations : int option;
}

type status = Repro_anneal.Annealer.status = Complete | Interrupted

let status_name = Repro_anneal.Annealer.status_name

type probe = { iteration : int; cost : float; best : float; accepted : bool }

type resume_mode = Resume_never | Resume_if_exists | Resume_required

type checkpoint = { path : string; every : int; resume : resume_mode }

type context = {
  app : Repro_taskgraph.App.t;
  platform : Repro_arch.Platform.t;
  seed : int;
  budget : budget;
  should_stop : (unit -> bool) option;
  observe : (probe -> unit) option;
  checkpoint : checkpoint option;
  warm_start : Solution.t option;
}

let context ?time_limit ?max_evaluations ?should_stop ?observe ?checkpoint
    ?warm_start ~app ~platform ~seed ~iterations () =
  if iterations < 0 then invalid_arg "Engine.context: negative budget";
  (match time_limit with
   | Some s when s <= 0.0 ->
     invalid_arg "Engine.context: non-positive time limit"
   | Some _ | None -> ());
  (match max_evaluations with
   | Some m when m <= 0 ->
     invalid_arg "Engine.context: non-positive evaluation budget"
   | Some _ | None -> ());
  (match checkpoint with
   | Some { path = ""; _ } -> invalid_arg "Engine.context: empty checkpoint path"
   | Some { every; _ } when every <= 0 ->
     invalid_arg "Engine.context: non-positive checkpoint cadence"
   | Some _ | None -> ());
  {
    app;
    platform;
    seed;
    budget = { iterations; time_limit; max_evaluations };
    should_stop;
    observe;
    checkpoint;
    warm_start;
  }

type outcome = {
  best : Solution.t;
  best_cost : float;
  initial_cost : float;
  iterations_run : int;
  evaluations : int;
  accepted : int;
  wall_seconds : float;
  status : status;
}

(* Fold the explicit probe and the wall-clock budget into one boundary
   predicate; the deadline starts when the probe is built, i.e. at the
   top of the engine's run. *)
let stop_probe ctx =
  let deadline =
    Option.map (fun seconds -> Clock.deadline ~seconds) ctx.budget.time_limit
  in
  match (ctx.should_stop, deadline) with
  | None, None -> fun () -> false
  | Some stop, None -> stop
  | None, Some expired -> expired
  | Some stop, Some expired -> fun () -> stop () || expired ()

module type S = sig
  val name : string
  val describe : string
  val knobs : string
  val default_iterations : int
  val run : context -> outcome
end

type t = (module S)

let name (module E : S) = E.name
let describe (module E : S) = E.describe
let knobs (module E : S) = E.knobs
let default_iterations (module E : S) = E.default_iterations
let run (module E : S) ctx = E.run ctx

type 'state step = {
  state : 'state;
  cost : float;
  accepted : bool;
  evaluations : int;
}

type 'state codec = {
  engine : string;
  version : int;
  encode : 'state -> string;
  decode : string -> ('state, string) result;
}

(* ---- checkpoints -------------------------------------------------- *)

let checkpoint_kind = "dse-engine"

(* A checkpoint only resumes against the inputs, seed and budget it was
   taken under; the fingerprint ties the file to them.  The engine name
   and codec version are separate header lines so their mismatches get
   their own (more helpful) diagnostics. *)
let fingerprint ctx =
  Checkpoint.crc32_hex
    (String.concat "\n"
       [
         App_io.to_string ctx.app;
         Platform_io.to_string ctx.platform;
         Printf.sprintf "drive %d %d %s" ctx.seed ctx.budget.iterations
           (match ctx.budget.max_evaluations with
            | None -> "-"
            | Some m -> string_of_int m);
       ])

let resolve_resume ck load =
  match ck.resume with
  | Resume_never -> None
  | Resume_required -> (
    match load ck.path with Ok r -> Some r | Error msg -> failwith msg)
  | Resume_if_exists ->
    if not (Sys.file_exists ck.path) then None
    else (
      match load ck.path with
      | Ok r -> Some r
      | Error msg ->
        Log.warn "ignoring unusable checkpoint: %s" msg;
        None)

module Envelope = struct
  type 'state t = {
    iteration : int;
    evaluations : int;
    accepted : int;
    initial_cost : float;
    best_cost : float;
    elapsed : float;
    rng : Rng.t;
    best : Solution.t;
    state : 'state;
  }

  (* Line-oriented, floats in "%h" so every value round-trips
     bit-exactly.  The best solution and the engine's own state block
     close the file; [best]/[state] marker lines separate them (no line
     of {!Solution.encode} or of a codec in this repo is a bare
     "best"/"state"). *)
  let save codec ~fingerprint path e =
    let b = Buffer.create 1024 in
    Printf.bprintf b "engine %s %d\n" codec.engine codec.version;
    Printf.bprintf b "fingerprint %s\n" fingerprint;
    Printf.bprintf b "driver %d %d %d\n" e.iteration e.evaluations e.accepted;
    Printf.bprintf b "costs %h %h\n" e.initial_cost e.best_cost;
    Printf.bprintf b "wall %h\n" e.elapsed;
    Buffer.add_string b "rng";
    Array.iter (fun w -> Printf.bprintf b " %Lx" w) (Rng.state e.rng);
    Buffer.add_char b '\n';
    Buffer.add_string b "best\n";
    Buffer.add_string b (Solution.encode e.best);
    Buffer.add_string b "state\n";
    Buffer.add_string b (codec.encode e.state);
    Checkpoint.save path ~kind:checkpoint_kind (Buffer.contents b)

  let of_payload codec ~fingerprint app platform payload =
    let ( let* ) = Result.bind in
    let fail fmt = Printf.ksprintf Result.error fmt in
    let field = Checkpoint.field in
    let lines = String.split_on_char '\n' payload in
    let* header, lines = field "engine" Option.some lines in
    let* () =
      match header with
      | [ name; _ ] when name <> codec.engine ->
        fail "written by engine %s, not %s" name codec.engine
      | [ _; version ] when int_of_string_opt version <> Some codec.version ->
        fail "engine %s state codec version %s, this build reads %d"
          codec.engine version codec.version
      | [ _; _ ] -> Ok ()
      | _ -> fail "bad engine line"
    in
    let* fp, lines = field "fingerprint" Option.some lines in
    let* () =
      if fp = [ fingerprint ] then Ok ()
      else
        fail "produced under a different application/platform/seed/configuration"
    in
    let* driver, lines = field "driver" int_of_string_opt lines in
    let* costs, lines = field "costs" float_of_string_opt lines in
    let* wall, lines = field "wall" float_of_string_opt lines in
    let* rng, lines =
      field "rng" (fun w -> Int64.of_string_opt ("0x" ^ w)) lines
    in
    let* best_lines, state_lines =
      match lines with
      | "best" :: rest -> (
        let rec split acc = function
          | "state" :: tail -> Ok (List.rev acc, tail)
          | line :: tail -> split (line :: acc) tail
          | [] -> fail "missing state section"
        in
        split [] rest)
      | _ -> fail "missing best section"
    in
    let* best = Solution.decode app platform (String.concat "\n" best_lines) in
    let* state =
      Result.map_error
        (fun m -> codec.engine ^ " state: " ^ m)
        (codec.decode (String.concat "\n" state_lines))
    in
    match (driver, costs, wall, rng) with
    | [ iteration; evaluations; accepted ], [ initial_cost; best_cost ],
      [ elapsed ], [ _; _; _; _ ] ->
      Ok
        {
          iteration;
          evaluations;
          accepted;
          initial_cost;
          best_cost;
          elapsed;
          rng = Rng.of_state (Array.of_list rng);
          best;
          state;
        }
    | _ -> fail "bad driver, costs, wall or rng line"

  let load codec ~fingerprint app platform path =
    Result.bind (Checkpoint.load path ~kind:checkpoint_kind) (fun payload ->
        Result.map_error
          (fun msg -> path ^ ": checkpoint: " ^ msg)
          (of_payload codec ~fingerprint app platform payload))
end

(* The generic search loop: budget accounting, best-snapshot
   bookkeeping, cooperative interruption, per-iteration observation —
   and now crash safety — live here once, instead of once per
   baseline.  Engines supply the initial state, the single-iteration
   step and (for checkpointing) a state codec; everything the driver
   does is deterministic given the context, so an engine built on it
   inherits the determinism and resume contracts for free. *)
let drive ?codec ctx ~init ~step ~snapshot =
  let start_clock = Clock.wall () in
  let stop = stop_probe ctx in
  let persist =
    match (ctx.checkpoint, codec) with
    | Some _, None ->
      invalid_arg
        "Engine.drive: checkpointing requested but the engine has no state \
         codec"
    | Some ck, Some codec -> Some (ck, codec, fingerprint ctx)
    | None, _ -> None
  in
  let start =
    match
      Option.bind persist (fun (ck, codec, fingerprint) ->
          resolve_resume ck
            (Envelope.load codec ~fingerprint ctx.app ctx.platform))
    with
    | Some e -> e
    | None ->
      (* [init] runs only on a fresh start; a resumed run restores the
         engine's working state through the codec instead. *)
      let rng = Rng.create ctx.seed in
      let state, initial_cost, evaluations = init rng in
      {
        Envelope.iteration = 0;
        evaluations;
        accepted = 0;
        initial_cost;
        best_cost = initial_cost;
        elapsed = 0.0;
        rng;
        best = snapshot state;
        state;
      }
  in
  let { Envelope.rng; iteration = start_iteration; _ } = start in
  let best = ref start.best in
  let best_cost = ref start.best_cost in
  let evaluations = ref start.evaluations in
  let accepted = ref start.accepted in
  let status = ref Complete in
  let state = ref start.state in
  let g = ref start_iteration in
  let elapsed () = start.elapsed +. Clock.wall () -. start_clock in
  let save_checkpoint () =
    Option.iter
      (fun (ck, codec, fingerprint) ->
        Envelope.save codec ~fingerprint ck.path
          {
            start with
            Envelope.iteration = !g;
            evaluations = !evaluations;
            accepted = !accepted;
            best_cost = !best_cost;
            elapsed = elapsed ();
            best = !best;
            state = !state;
          })
      persist
  in
  (try
     while !g < ctx.budget.iterations do
       if stop () then begin
         status := Interrupted;
         (* Flush the boundary state so a kill right after the stop
            probe loses no work. *)
         save_checkpoint ();
         raise Exit
       end;
       (match ctx.budget.max_evaluations with
        | Some m when !evaluations >= m -> raise Exit
        | _ -> ());
       (match ctx.checkpoint with
        | Some ck
          when !g > start_iteration && (!g - start_iteration) mod ck.every = 0
          ->
          save_checkpoint ()
        | _ -> ());
       let r = step rng ~iteration:!g !state in
       state := r.state;
       evaluations := !evaluations + r.evaluations;
       if r.accepted then incr accepted;
       if r.cost < !best_cost then begin
         best_cost := r.cost;
         best := snapshot r.state
       end;
       (match ctx.observe with
        | Some f ->
          f { iteration = !g; cost = r.cost; best = !best_cost;
              accepted = r.accepted }
        | None -> ());
       incr g
     done
   with Exit -> ());
  {
    best = !best;
    best_cost = !best_cost;
    initial_cost = start.initial_cost;
    iterations_run = !g;
    evaluations = !evaluations;
    accepted = !accepted;
    wall_seconds = elapsed ();
    status = !status;
  }
