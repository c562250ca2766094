let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs jobs n =
  let j = match jobs with Some j -> j | None -> default_jobs () in
  if j < 1 then invalid_arg "Parallel: jobs < 1";
  min j n

(* Work stealing off a shared counter: each domain claims the next
   unclaimed index until the list is drained.  Item [i]'s result lands
   in slot [i], so collection order is item order regardless of which
   domain ran what.  [item] is the per-index body (already wrapped with
   fault probes and any retry policy). *)
let run ?jobs n item =
  if n < 0 then invalid_arg "Parallel.map: negative size";
  if n = 0 then [||]
  else begin
    let jobs = resolve_jobs jobs n in
    let results = Array.make n None in
    if jobs <= 1 then
      for i = 0 to n - 1 do
        results.(i) <- Some (item i)
      done
    else begin
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      (* Keep the failure of the lowest-index failing item.  Claims are
         issued in index order, so every item below a failing one has
         already started (and will record its own failure if it has
         one): the minimum over recorded failures is deterministic —
         the same exception surfaces for every jobs count and every
         scheduling. *)
      let record i exn bt =
        let rec loop () =
          match Atomic.get failure with
          | Some (j, _, _) when j <= i -> ()
          | previous ->
            if not (Atomic.compare_and_set failure previous (Some (i, exn, bt)))
            then loop ()
        in
        loop ()
      in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          (* The failure flag also drains the remaining items without
             running them; drained items always have higher indices
             than the failure that set the flag. *)
          if i < n && Atomic.get failure = None then begin
            (match item i with
             | value -> results.(i) <- Some value
             | exception exn ->
               record i exn (Printexc.get_raw_backtrace ()));
            loop ()
          end
        in
        loop ()
      in
      let team = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join team;
      match Atomic.get failure with
      | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
      | None -> ()
    end;
    Array.map
      (function Some v -> v | None -> assert false (* all slots filled *))
      results
  end

let map ?jobs n f =
  run ?jobs n (fun i ->
      Fault.check Fault.Worker i;
      f i)

(* ---- supervised mapping ------------------------------------------ *)

type 'a outcome =
  | Done of 'a
  | Failed of { error : string; trace : string; attempts : int }
  | Timed_out of 'a option
  | Skipped

let outcome_name = function
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Timed_out _ -> "timed-out"
  | Skipped -> "skipped"

let outcome_value = function
  | Done v | Timed_out (Some v) -> Some v
  | Failed _ | Timed_out None | Skipped -> None

(* Per-index jitter stream: a pure function of the item index, so
   retry pacing never perturbs the work's own RNG streams and a rerun
   backs off at the same virtual instants. *)
let jitter_seed = 0x6a1b5eed

let map_outcomes ?jobs ?(retries = 0) ?backoff ?timeout ?should_stop n body =
  if retries < 0 then invalid_arg "Parallel.map_outcomes: negative retries";
  (match timeout with
   | Some seconds when seconds < 0.0 || Float.is_nan seconds ->
     invalid_arg "Parallel.map_outcomes: negative timeout"
   | _ -> ());
  let stop_requested =
    match should_stop with Some probe -> probe | None -> fun () -> false
  in
  let item i =
    (* An item never starts once a global stop is pending: the slot is
       [Skipped], distinguishable from work that ran and failed. *)
    if stop_requested () then Skipped
    else begin
      let expired =
        match timeout with
        | None -> fun () -> false
        | Some seconds -> Clock.deadline ~seconds
      in
      let stop () = stop_requested () || expired () in
      let rng = lazy (Rng.create (jitter_seed + i)) in
      let rec attempt k =
        match
          Fault.check Fault.Worker i;
          body i ~stop
        with
        | value ->
          (* A cooperative body that observed its deadline returns its
             best-so-far; the outcome still says the budget ran out. *)
          if expired () then Timed_out (Some value) else Done value
        | exception exn ->
          let trace =
            Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
          in
          if expired () then Timed_out None
          else if k < retries && not (stop_requested ()) then begin
            (match backoff with
             | None -> ()
             | Some policy ->
               Unix.sleepf (Backoff.delay policy (Lazy.force rng) ~attempt:k));
            attempt (k + 1)
          end
          else
            Failed { error = Printexc.to_string exn; trace; attempts = k + 1 }
      in
      attempt 0
    end
  in
  (* [item] catches everything, so the pool's abort path is never taken:
     one pathological slot cannot cost the others their results. *)
  run ?jobs n item
