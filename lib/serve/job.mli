(** Batch job description: one exploration request, read from a
    [jobs/*.json] spool file.

    A job is a flat JSON object; unknown keys, ill-typed values and
    inconsistent combinations are hard parse errors so poison jobs are
    quarantined with a message naming the problem.  Fields (all
    optional except the application):

    - ["app"] — built-in workload name, or ["app_file"] — a [.tg] path
      (exactly one of the two)
    - ["platform_file"] — a [.plat] path; defaults to the
      motion-detection platform sized by ["clbs"] (default 2000)
    - ["iters"] (default 20000), ["warmup"] (default 1200),
      ["seed"] (default 1), ["restarts"] (default 1)
    - ["timeout"] — per-job wall seconds, overriding the daemon's
      default
    - ["serialized"] — optimize under the serialized bus model (native
      annealer only; incompatible with ["engine"])
    - ["engine"] — an engine name, resolved by
      {!Repro_dse.Explorer.resolve_engine}: ["sa"] is the native
      annealer, the same run as a job without the field; any other
      registered name or portfolio spec runs through the uniform engine
      interface (budget = ["iters"], makespan objective; ["warmup"] is
      annealer-specific and ignored).  Either way a timed-out job
      records best-so-far {e and} keeps its resume checkpoint for a
      retry. *)

type source = Named of string | From_file of string

type t = {
  name : string;             (** spool file base name; the job id *)
  app : source;
  platform_file : string option;
  clbs : int;
  iters : int;
  warmup : int;
  seed : int;
  restarts : int;
  timeout : float option;
  serialized : bool;
  engine : string option;  (** engine name; [None] = native annealer *)
}

val of_json : name:string -> string -> (t, string) result
(** Parse a job file; every failure is a one-line message. *)

val to_json : t -> string
(** One-line JSON re-encoding (used by tests and the enqueue helper). *)

val load_inputs :
  t -> (Repro_taskgraph.App.t * Repro_arch.Platform.t, string) result
(** Load and validate the job's application and platform with the same
    parsers and model checks as the CLIs; [Error] carries a one-line
    located message. *)

val explorer_config : t -> Repro_dse.Explorer.config
(** The annealing configuration the job requests (Lam schedule with
    the budget-proportional quality, as [dse-sweep] uses). *)
