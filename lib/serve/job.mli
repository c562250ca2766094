(** Batch job description: one exploration request, read from a
    [jobs/*.json] spool file.

    A job is a flat JSON object: the {!Repro_dse.Run_spec} keys — the
    same knobs as the [dse-run] flags, with a 20000-iteration default
    budget — plus ["timeout"], per-job wall seconds overriding the
    daemon's default.  Unknown or repeated keys, ill-typed values and
    inconsistent combinations are hard parse errors, so poison jobs
    are quarantined with a message naming the problem.  A timed-out
    job records best-so-far {e and} keeps its resume checkpoint for a
    retry. *)

type t = {
  name : string;             (** spool file base name; the job id *)
  timeout : float option;
  spec : Repro_dse.Run_spec.t;
}

val of_json : name:string -> string -> (t, string) result
(** Parse a job file; every failure is a one-line message. *)

val to_json : t -> string
(** One-line JSON re-encoding (used by tests and the enqueue helper). *)

val load_inputs :
  t -> (Repro_taskgraph.App.t * Repro_arch.Platform.t, string) result
(** {!Repro_dse.Run_spec.load_inputs} of the job's spec. *)

val explorer_config : t -> Repro_dse.Explorer.config
(** {!Repro_dse.Run_spec.explorer_config} of the job's spec. *)
