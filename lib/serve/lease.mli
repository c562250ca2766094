(** Per-daemon lease files: the fleet's liveness protocol.

    Every daemon owns exactly one lease file
    [<root>/daemons/<id>.json], where [id] is unique per daemon
    incarnation (host + pid + nonce, or an explicit [--daemon-id]).
    The file is atomically rewritten on every {!refresh} with a
    {e monotonic sequence number} and a wall-clock [updated] stamp;
    it doubles as the daemon's heartbeat (the caller's status fields
    ride along).  Because each daemon writes only its own file,
    concurrent daemons never clobber each other, as they would a
    single shared heartbeat file.

    Liveness is judged from the file alone: a lease is {e alive} when
    it has not been {!release}d, its [updated] stamp is younger than
    its [ttl], and — when the lease names the local host — its pid
    still exists (a dead pid short-circuits the ttl wait, so a crashed
    daemon's claims are reclaimable immediately by a same-host peer).
    Claims stamped with an owner whose lease is alive are never
    touched by {!Spool.reclaim}; everything else is fair game.

    An armed [Fault.Lease] point fires on the matching refresh
    sequence number — the die-while-holding-lease drill. *)

type t
(** A held lease (this process's own). *)

type view = {
  id : string;
  host : string;
  pid : int;
  seq : int;           (** monotonic refresh counter *)
  ttl : float;         (** seconds of freshness each refresh buys *)
  updated : float;     (** wall clock of the last refresh *)
  released : bool;     (** daemon exited cleanly *)
  fields : (string * Repro_util.Json_lite.t) list;
      (** the whole lease object, status fields included *)
}
(** A lease file as read back — ours or a peer's. *)

val fresh_id : unit -> string
(** [host-pid-nonce], unique per daemon incarnation. *)

val validate_id : string -> (string, string) result
(** Accepts names of [A-Za-z0-9._-] (no leading dot); everything else
    gets a one-line error — lease ids become file names. *)

val acquire : ?id:string -> dir:string -> ttl:float -> unit -> t
(** Create [dir] if needed and write the seq-0 lease file.  Raises
    [Invalid_argument] on a non-positive ttl or an id that fails
    {!validate_id}. *)

val id : t -> string
val seq : t -> int
val ttl : t -> float
val path : t -> string

val refresh : ?fields:(string * Repro_util.Json_lite.t) list -> t -> unit
(** Bump the sequence number and atomically rewrite the lease file
    with [fields] riding along.  Thread-safe (the mid-job probe and
    the drain loop may race).  An armed [Fault.Lease] point with the
    new sequence number raises {!Repro_util.Fault.Injected} {e before}
    the file is written — the simulated crash leaves the previous
    lease file behind, exactly like a real one. *)

val maybe_refresh :
  ?fields:(unit -> (string * Repro_util.Json_lite.t) list) -> t -> unit
(** {!refresh} only when a third of the ttl has elapsed since the last
    write — cheap enough for a stop probe called at every iteration
    boundary, frequent enough that a live daemon's lease never
    expires mid-job. *)

val release : ?fields:(string * Repro_util.Json_lite.t) list -> t -> unit
(** Final write with [released: true]: the daemon exited cleanly.  The
    file is kept (it is the last heartbeat, [dse-serve status] shows
    the daemon as exited) but the lease no longer protects anything. *)

val view_of_fields :
  (string * Repro_util.Json_lite.t) list -> (view, string) result

val load : string -> (view, string) result
(** Read and parse one lease file. *)

val list : dir:string -> (string * (view, string) result) list
(** Every [*.json] lease file under [dir] (sorted by file name), each
    parsed or carrying its one-line damage report.  An absent dir is
    an empty fleet. *)

val alive : now:float -> view -> bool
(** Not released, [updated] younger than [ttl] and — for a local-host
    lease — the pid still exists. *)

(** Cross-host death detection.  {!alive} trusts the peer's [updated]
    stamp, written with the {e peer's} wall clock: a clock-skewed
    remote daemon can stamp itself into the future and look fresh
    forever, and its pid is unreachable so the dead-pid shortcut never
    applies.  The ledger judges liveness in the {e observer's} clock
    instead: it records when this process first saw each peer's
    current seq.  A live daemon refreshes at ttl/3, so across any
    window of one full ttl of observer time a live peer's seq advances
    at least once; a seq stagnant for a full ttl therefore proves the
    peer stopped writing — dead or partitioned, its lease contract is
    broken either way — without ever reading the peer's clock.  Fresh
    observers conservatively wait out one full window before declaring
    anyone stalled. *)
module Ledger : sig
  type t

  val create : unit -> t

  val observe : t -> now:float -> view -> unit
  (** Record [view.seq]; the [since] stamp resets whenever the seq
      advances (or regresses — any change proves a write). *)

  val stalled : t -> now:float -> view -> bool
  (** The seq recorded for [view.id] equals [view.seq] and was first
      observed at least [view.ttl] seconds ago (observer clock).
      [false] for a never-observed peer. *)

  val observed : t -> string -> (int * float) option
  (** [(seq, since)] recorded for an id, for tests and reports. *)
end

val alive_observed : ledger:Ledger.t -> now:float -> view -> bool
(** {!Ledger.observe}, then [alive ~now v && not (stalled ...)]: the
    liveness predicate {!Spool.reclaim} uses when given a ledger, so a
    skewed remote daemon's claims are reclaimed one ttl window after
    it stops refreshing. *)
