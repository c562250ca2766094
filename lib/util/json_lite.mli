(** Minimal dependency-free JSON: enough for job files, result
    summaries, heartbeats and the JSONL log sink.

    Numbers are floats (integral values print without a fractional
    part); strings are treated as byte sequences with standard
    escaping.  This is deliberately not a general-purpose JSON
    library — bit-exact state belongs in {!Checkpoint} payloads, JSON
    is the human- and tooling-facing surface. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num_int : int -> t
(** [Num (float_of_int i)]. *)

val escape : string -> string
(** JSON string escaping, without the surrounding quotes. *)

val quote : string -> string
(** [escape] with the surrounding quotes. *)

val to_string : t -> string
(** One-line rendering (no trailing newline). *)

val obj : (string * t) list -> string
(** [to_string (Obj fields)]. *)

val parse : string -> (t, string) result
(** Parse a complete JSON value; every failure is a one-line message
    with a byte offset.  An object that binds a key twice is a failure:
    {!find} would silently take the first binding. *)

val parse_obj : string -> ((string * t) list, string) result
(** {!parse} restricted to a top-level object. *)

val find : (string * t) list -> string -> t option

val get_str : t -> string option
val get_num : t -> float option
val get_int : t -> int option
(** [None] unless the number is integral and within ±2{^53}, where
    every integer is exact. *)

val get_bool : t -> bool option

val str_field : (string * t) list -> string -> string option
val num_field : (string * t) list -> string -> float option
val int_field : (string * t) list -> string -> int option
val bool_field : (string * t) list -> string -> bool option
