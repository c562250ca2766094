(* In-memory span recorder for the traced run.

   A span is one call across a layer boundary, timed from outside the
   library: [enter] before the call, [leave] after it.  Every span
   feeds per-name aggregates (calls, total time, time covered by child
   spans), so self time — a span's duration minus the part its
   children cover — is exact for every call.  Individual spans (name,
   start, end, parent, operation) are also kept: the first [per_name]
   of each name, up to [cap] in all, so rare spans (chains, cells,
   drains) are all kept and hot-path spans are sampled from the start.
   Nothing is allocated per span; [write] dumps everything at exit. *)

let max_names = 128
let max_depth = 64
let cap = 60_000
let per_name = 2_000

type t = {
  names : (string, int) Hashtbl.t;
  label : string array;
  mutable n_names : int;
  calls : int array;
  total : int array;
  child : int array;
  kept : int array;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  st_rec : int array;
  mutable depth : int;
  r_name : int array;
  r_start : int array;
  r_end : int array;
  r_parent : int array;
  r_op : int array;
  mutable n_rec : int;
  mutable op : int;  (* index of the current depth-0 span *)
  origin : int;
}

let create () =
  {
    names = Hashtbl.create 64;
    label = Array.make max_names "";
    n_names = 0;
    calls = Array.make max_names 0;
    total = Array.make max_names 0;
    child = Array.make max_names 0;
    kept = Array.make max_names 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_rec = Array.make max_depth (-1);
    depth = 0;
    r_name = Array.make cap 0;
    r_start = Array.make cap 0;
    r_end = Array.make cap 0;
    r_parent = Array.make cap 0;
    r_op = Array.make cap 0;
    n_rec = 0;
    op = -1;
    origin = Bench_util.now_ns ();
  }

(* Intern a span name; look names up once, outside hot loops. *)
let id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    if t.n_names = max_names then failwith "Spans: too many span names";
    let i = t.n_names in
    Hashtbl.add t.names name i;
    t.label.(i) <- name;
    t.n_names <- i + 1;
    i

let enter t name =
  let d = t.depth in
  if d = 0 then t.op <- t.op + 1;
  let start = Bench_util.now_ns () in
  t.st_name.(d) <- name;
  t.st_start.(d) <- start;
  t.st_child.(d) <- 0;
  if t.n_rec < cap && t.kept.(name) < per_name then begin
    let r = t.n_rec in
    t.r_name.(r) <- name;
    t.r_start.(r) <- start;
    t.r_end.(r) <- start;
    t.r_parent.(r) <- (if d = 0 then -1 else t.st_rec.(d - 1));
    t.r_op.(r) <- t.op;
    t.st_rec.(d) <- r;
    t.n_rec <- r + 1;
    t.kept.(name) <- t.kept.(name) + 1
  end
  else t.st_rec.(d) <- -1;
  t.depth <- d + 1

(* Close the innermost span; returns its duration in ns. *)
let leave t =
  let d = t.depth - 1 in
  let stop = Bench_util.now_ns () in
  let name = t.st_name.(d) in
  let dur = stop - t.st_start.(d) in
  t.calls.(name) <- t.calls.(name) + 1;
  t.total.(name) <- t.total.(name) + dur;
  t.child.(name) <- t.child.(name) + t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let r = t.st_rec.(d) in
  if r >= 0 then t.r_end.(r) <- stop;
  t.depth <- d;
  dur

let span t name f =
  enter t name;
  match f () with
  | x ->
    ignore (leave t : int);
    x
  | exception e ->
    ignore (leave t : int);
    raise e

type layer = { layer : string; calls : int; total_ms : float; self_ms : float }

(* Per-name aggregates, largest self time first. *)
let layers t =
  List.init t.n_names (fun i ->
      {
        layer = t.label.(i);
        calls = t.calls.(i);
        total_ms = float_of_int t.total.(i) *. 1e-6;
        self_ms = float_of_int (t.total.(i) - t.child.(i)) *. 1e-6;
      })
  |> List.filter (fun l -> l.calls > 0)
  |> List.sort (fun a b -> compare b.self_ms a.self_ms)

let layer_fields l =
  let open Bench_util in
  [
    ("calls", Json.num_int l.calls);
    ("total_ms", num l.total_ms);
    ("self_ms", num l.self_ms);
  ]

let layers_json t =
  Bench_util.Json.Arr
    (List.map
       (fun l -> Bench_util.Json.Obj (("layer", Bench_util.Json.Str l.layer) :: layer_fields l))
       (layers t))

(* One JSON object per line: the header first, then the per-layer self
   times, then every kept span (times in ns from the recorder's
   creation; [parent] is the [span] index of the enclosing span, -1 at
   depth 0 or when that span was not kept; [op] groups the spans of one
   top-level operation). *)
let write t path header =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  let line fields =
    Buffer.add_string b (Bench_util.Json.obj fields);
    Buffer.add_char b '\n'
  in
  let open Bench_util.Json in
  List.iter (fun l -> line (("self", Str l.layer) :: layer_fields l)) (layers t);
  for r = 0 to t.n_rec - 1 do
    line
      [
        ("span", num_int r);
        ("name", Str t.label.(t.r_name.(r)));
        ("start", num_int (t.r_start.(r) - t.origin));
        ("end", num_int (t.r_end.(r) - t.origin));
        ("parent", num_int t.r_parent.(r));
        ("op", num_int t.r_op.(r));
      ]
  done;
  Bench_util.write_file path (Buffer.contents b)

(* Spans measured on other domains, recorded after the fact as children
   of the innermost open span.  They may overlap each other, so the
   parent's covered time grows by the union of their intervals. *)
let children t name intervals =
  let d = t.depth in
  List.iter
    (fun (start, stop) ->
      t.calls.(name) <- t.calls.(name) + 1;
      t.total.(name) <- t.total.(name) + (stop - start);
      if t.n_rec < cap && t.kept.(name) < per_name then begin
        let r = t.n_rec in
        t.kept.(name) <- t.kept.(name) + 1;
        t.r_name.(r) <- name;
        t.r_start.(r) <- start;
        t.r_end.(r) <- stop;
        t.r_parent.(r) <- (if d = 0 then -1 else t.st_rec.(d - 1));
        t.r_op.(r) <- t.op;
        t.n_rec <- r + 1
      end)
    intervals;
  let covered, _ =
    List.fold_left
      (fun (covered, reach) (start, stop) ->
        let start = max start reach in
        if stop > start then (covered + (stop - start), stop) else (covered, reach))
      (0, min_int)
      (List.sort compare intervals)
  in
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + covered
