(* Timing-and-allocation accumulators for calls measured from outside
   the library: each measured call is also a span. *)

open Bench_util

type acc = { mutable calls : int; mutable ns : int; mutable words : int }

let acc () = { calls = 0; ns = 0; words = 0 }

let measure spans id a f =
  Spans.enter spans id;
  let w0 = words () in
  let r = f () in
  let w1 = words () in
  a.ns <- a.ns + Spans.leave spans;
  a.words <- a.words + (w1 - w0);
  a.calls <- a.calls + 1;
  r

let per_call a total = if a.calls = 0 then nan else float_of_int total /. float_of_int a.calls

(* [name.ns] and its allocation partner [name.words], per call. *)
let ns_words name a =
  [
    metric (name ^ ".ns") "ns" (per_call a a.ns);
    metric (name ^ ".words") "words" (per_call a a.words);
  ]

let us name a = metric (name ^ ".us") "us" (per_call a a.ns /. 1e3)
