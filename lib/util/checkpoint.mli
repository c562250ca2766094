(** Versioned, integrity-checked snapshot files.

    A checkpoint is a single file written atomically ({!Atomic_io})
    whose first line is a header

    {v REPRO-CKPT <version> <kind> <payload-bytes> <crc32-hex> v}

    followed by the raw payload.  [kind] tags the producer (for
    example ["dse-engine"] or ["dse-sweep"]) so a checkpoint is never
    resumed by the wrong tool; the CRC and length reject corrupt or
    truncated files, and the version gates future format changes.
    Payload encoding is the producer's business — the conventions used
    in this repo are line-oriented text with ["%h"] hexadecimal floats,
    so values round-trip bit-exactly. *)

val save : string -> kind:string -> string -> unit
(** [save path ~kind payload] writes the checkpoint atomically.
    Raises [Invalid_argument] if [kind] contains characters outside
    [[a-z0-9_-]]. *)

val load : string -> kind:string -> (string, string) result
(** [load path ~kind] returns the payload after verifying the magic,
    version, kind, length and CRC; every failure mode is a one-line
    [Error]. *)

val inspect : string -> (string * string, string) result
(** [inspect path] is {!load} without pinning the kind: it returns
    [(kind, payload)] after the same magic/version/length/CRC checks.
    Lets a tool identify which producer wrote a checkpoint — for
    example, to tell a user resuming with the wrong [--engine] which
    flag the file actually matches. *)

val crc32 : string -> int32
(** CRC-32 (IEEE) of a string; exposed for fingerprinting inputs. *)

val crc32_hex : string -> string
(** {!crc32} printed as 8 lowercase hex digits. *)

val field :
  string -> (string -> 'a option) -> string list ->
  ('a list * string list, string) result
(** [field tag conv lines] reads the ["<tag> v1 v2 ..."] line at the
    head of a line-oriented payload: the values converted by [conv]
    and the remaining lines, or a one-line error when the line is
    missing, carries another tag, or a value does not convert. *)
