module Bitset = Repro_util.Bitset

(* Only the descendant rows are kept: ancestor queries are rare (edge
   registration, which only tests use), and every application keeps
   its closure alive, so a second n x n matrix would double the
   resident footprint for nothing. *)
type t = {
  size : int;
  reach : Bitset.t array;    (* reach.(u) = strict descendants of u *)
}

let of_graph g = { size = Graph.size g; reach = Graph.transitive_closure g }

let size t = t.size

let reaches t u v =
  if u < 0 || u >= t.size || v < 0 || v >= t.size then
    invalid_arg "Closure.reaches: node out of range";
  Bitset.mem t.reach.(u) v

let would_close_cycle t u v = u = v || reaches t v u

let add_edge t u v =
  if would_close_cycle t u v then invalid_arg "Closure.add_edge: closes a cycle";
  (* Every ancestor of u (and u itself) now reaches every descendant of
     v (and v itself).  The ancestors are the rows holding u; since u is
     not among v's descendants, growing those rows never changes which
     of them hold u, so the scan can update in place. *)
  for s = 0 to t.size - 1 do
    if s = u || Bitset.mem t.reach.(s) u then begin
      Bitset.union_into t.reach.(s) t.reach.(v);
      Bitset.add t.reach.(s) v
    end
  done

let descendants t u =
  if u < 0 || u >= t.size then invalid_arg "Closure.descendants";
  t.reach.(u)
