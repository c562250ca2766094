(** Dependency-free parallel execution over OCaml 5 domains.

    A fixed-size team of domains drains an indexed work list through a
    shared atomic counter.  Results are collected into a slot per item,
    so the output order is the item order no matter which domain ran
    which item — parallel output is bit-identical to sequential output
    provided each item derives any randomness from its own index (never
    from submission or completion order).

    The work items themselves must not share mutable state; read-only
    sharing (applications, platforms, configurations) is fine. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the machine's useful
    parallelism. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] evaluates [f 0 .. f (n-1)] on up to [jobs] domains
    (default {!default_jobs}; clamped to [n]) and returns the results
    in index order.  With [jobs <= 1] everything runs sequentially in
    the calling domain.  If any item raises, the exception of the
    {e lowest-index} failing item is re-raised after all domains have
    joined — items are claimed in index order, so that choice is
    deterministic across jobs counts and schedulings.  Raises
    [Invalid_argument] when [n < 0] or [jobs < 1]. *)

type 'a outcome =
  | Done of 'a                (** completed within its budget *)
  | Failed of { error : string; trace : string; attempts : int }
      (** raised on every attempt; [error] is the printed exception of
          the last one, [attempts] how many times the body ran *)
  | Timed_out of 'a option
      (** the per-item deadline expired; [Some v] when the cooperative
          body returned a best-so-far value, [None] when it raised *)
  | Skipped                   (** a global stop was pending before the
                                  item started *)

val outcome_name : 'a outcome -> string
(** ["done"] / ["failed"] / ["timed-out"] / ["skipped"], the strings
    used in result files. *)

val outcome_value : 'a outcome -> 'a option
(** The salvaged value: [Done v] and [Timed_out (Some v)] carry one. *)

val map_outcomes :
  ?jobs:int -> ?retries:int -> ?backoff:Backoff.policy -> ?timeout:float ->
  ?should_stop:(unit -> bool) -> int ->
  (int -> stop:(unit -> bool) -> 'a) -> 'a outcome array
(** Supervised {!map}: the pool {e never} aborts — each slot resolves
    to its own {!outcome} and every other item still runs to its own
    conclusion.

    The body receives [~stop], a cooperative probe combining the
    caller's [should_stop] with the per-item [timeout] (seconds,
    measured from the item's first attempt).  Long-running bodies
    should poll it at natural boundaries and return their best-so-far
    early — such a return is classified [Timed_out (Some v)] when the
    deadline had expired, so partial work is kept, never lost.

    Failures are retried up to [retries] extra times (default 0),
    pacing attempts by [backoff] when given ([Backoff.delay] with a
    per-index jitter stream, slept in the worker domain; retries never
    perturb the body's own index-derived RNG).  An exhausted item is
    [Failed] with the last attempt's printed exception and backtrace.
    Items not yet started when [should_stop] turns true resolve to
    [Skipped].  Raises [Invalid_argument] on negative [retries] or
    [timeout]. *)
