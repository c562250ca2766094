(** One exploration request: the knobs a [dse-run] invocation, a spool
    job and a [dse-sweep] cell all reduce to, and the only code that
    turns them into loaded inputs and an {!Explorer.config}.

    The JSON form is a flat object with these keys (all optional
    except the application):
    - ["app"] — built-in workload name, or ["app_file"] — a [.tg] path
      (exactly one of the two)
    - ["platform_file"] — a [.plat] path; without it a named suite
      application gets {!Repro_workloads.Suite.platform_for} and motion
      detection or a [.tg] file the motion-detection platform sized by
      ["clbs"]
    - ["clbs"] (default 2000), ["iters"] (default 20000), ["warmup"]
      (default 1200), ["seed"] (default 1), ["restarts"] (default 1)
    - ["serialized"] — optimize under the serialized bus model (native
      annealer only)
    - ["engine"] — an engine name, resolved by
      {!Explorer.resolve_engine}: ["sa"] is the native annealer, the
      same run as no engine at all. *)

type source = Named of string | From_file of string

type t = {
  app : source;
  platform_file : string option;
  clbs : int;
  iters : int;
  warmup : int;
  seed : int;
  restarts : int;
  serialized : bool;
  engine : string option;  (** engine name; [None] = native annealer *)
}

val default : source -> t
(** The JSON defaults above, for [app]. *)

val of_fields :
  ?extra:string list -> (string * Repro_util.Json_lite.t) list ->
  (t, string) result
(** Decode and {!validate} a parsed JSON object (the parser rejects
    repeated keys).  Keys in [extra] are the caller's own and are
    skipped; any other unknown key, an ill-typed value or an integer
    beyond ±2{^53} is an [Error] with a one-line message naming the
    field. *)

val to_fields : t -> (string * Repro_util.Json_lite.t) list
(** The JSON form, every numeric knob spelled out; {!of_fields} reads
    it back to an equal spec. *)

val validate : t -> (t, string) result
(** Range checks ([iters >= 1], [warmup >= 0], [restarts >= 1],
    [clbs >= 1]) and the serialized bus rule: it needs the native
    annealer, which an absent engine and ["sa"] both name. *)

val load_inputs :
  t -> (Repro_taskgraph.App.t * Repro_arch.Platform.t, string) result
(** Load the application and platform, then check the model: the
    all-software solution must evaluate and pass the independent
    schedule checker.  A parse error comes back as one
    [file:line: message] line. *)

val explorer_config : t -> Explorer.config
(** Fixed architecture, Lam schedule at quality [150 / iters], the
    spec's warmup and seed; the serialized-bus objective when
    [serialized], the makespan otherwise. *)
