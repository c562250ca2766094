open Repro_taskgraph

let upward_rank app ~time ~comm =
  let g = app.App.graph in
  let n = App.size app in
  let rank = Array.make n 0.0 in
  (match Graph.topological_order g with
   | None -> assert false (* App.make guarantees a DAG *)
   | Some order ->
     for i = n - 1 downto 0 do
       let v = order.(i) in
       let tail =
         List.fold_left
           (fun acc w -> Float.max acc (comm v w +. rank.(w)))
           0.0 (Graph.succs g v)
       in
       rank.(v) <- time v +. tail
     done);
  rank

let prioritized_topological_order app ~priority =
  let g = app.App.graph in
  let n = App.size app in
  let indegree = Array.init n (fun v -> Graph.in_degree g v) in
  (* A binary min-heap of insertion stamps ordered by (priority
     descending, stamp): the largest priority pops first, ties in
     insertion order, which follows increasing task id.  Plain int
     arrays — no per-push allocation on the GA's fitness path. *)
  let task = Array.make n 0 and prio = Array.make n 0.0 in
  let heap = Array.make n 0 and size = ref 0 and stamps = ref 0 in
  let before a b = prio.(a) > prio.(b) || (prio.(a) = prio.(b) && a < b) in
  let push v =
    let s = !stamps in
    incr stamps;
    task.(s) <- v;
    prio.(s) <- priority v;
    let i = ref !size in
    incr size;
    while !i > 0 && before s heap.((!i - 1) / 2) do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- s
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) and i = ref 0 and sifting = ref true in
    while !sifting do
      let c = (2 * !i) + 1 in
      let c = if c + 1 < !size && before heap.(c + 1) heap.(c) then c + 1 else c in
      if c < !size && before heap.(c) last then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    done;
    heap.(!i) <- last;
    task.(top)
  in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then push v
  done;
  let rec drain acc =
    if !size = 0 then List.rev acc
    else begin
      let v = pop () in
      List.iter
        (fun w ->
          indegree.(w) <- indegree.(w) - 1;
          if indegree.(w) = 0 then push w)
        (List.sort compare (Graph.succs g v));
      drain (v :: acc)
    end
  in
  let order = drain [] in
  assert (List.length order = n);
  order

let sw_order app ~is_sw ~priority =
  List.filter is_sw (prioritized_topological_order app ~priority)
