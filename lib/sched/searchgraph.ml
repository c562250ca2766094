open Repro_taskgraph
open Repro_arch

type binding = Sw | Hw of int | On_asic of int

type spec = {
  app : App.t;
  platform : Platform.t;
  binding : int -> binding;
  impl_choice : int -> int;
  sw_order : int list;
  contexts : int list list;
  proc_of : int -> int;
  extra_sw_orders : int list list;
}

let single_processor_spec ~app ~platform ~binding ~impl_choice ~sw_order
    ~contexts =
  {
    app;
    platform;
    binding;
    impl_choice;
    sw_order;
    contexts;
    proc_of = (fun _ -> 0);
    extra_sw_orders = [];
  }

type eval = {
  makespan : float;
  initial_reconfig : float;
  dynamic_reconfig : float;
  comm : float;
  n_contexts : int;
  finish : float array;
}

let exec_time spec v =
  let task = App.task spec.app v in
  match spec.binding v with
  | Sw -> task.Task.sw_time /. Platform.processor_speed spec.platform (spec.proc_of v)
  | Hw _ | On_asic _ -> (Task.impl task (spec.impl_choice v)).Task.hw_time

let context_clbs spec members =
  List.fold_left
    (fun acc v ->
      let task = App.task spec.app v in
      acc + (Task.impl task (spec.impl_choice v)).Task.clbs)
    0 members

(* A transfer goes through the shared memory whenever the two tasks run
   on different resources: processor vs circuit vs ASIC, two distinct
   processors, or two distinct ASICs.  The resources collapse into one
   integer code — software on processor p is -(p+1), the (single)
   reconfigurable circuit is 0, the a-th ASIC is a+1 — and a transfer
   crosses exactly when the codes differ.  [Solution] mirrors the same
   coding on its assignment array, so the two crossing predicates can
   never drift. *)
let resource_code binding proc_of v =
  match binding v with
  | Sw -> -(proc_of v + 1)
  | Hw _ -> 0
  | On_asic a -> a + 1

let crossing spec u v =
  resource_code spec.binding spec.proc_of u
  <> resource_code spec.binding spec.proc_of v

(* The boundary-traffic total as a balanced (segment-tree) pairwise
   sum.  A left fold would be cheaper to write, but its value could not
   be patched incrementally without losing bit-identity: float addition
   is not associative, so adding and subtracting a changed term leaves
   different low bits than a recomputed fold.  The tree makes the total
   a pure function of the current per-edge terms under one fixed
   association — updating a leaf and recomputing its ancestors yields
   exactly the bits a from-scratch build over the same terms would. *)
module Comm = struct
  type t = { m : int; tree : float array }

  let create terms =
    let m = Array.length terms in
    let tree = Array.make (2 * max m 1) 0.0 in
    Array.blit terms 0 tree m m;
    for i = m - 1 downto 1 do
      tree.(i) <- tree.(2 * i) +. tree.((2 * i) + 1)
    done;
    { m; tree }

  let get t i = t.tree.(t.m + i)

  let set t i v =
    if t.tree.(t.m + i) <> v then begin
      t.tree.(t.m + i) <- v;
      let j = ref ((t.m + i) / 2) in
      while !j >= 1 do
        t.tree.(!j) <- t.tree.(2 * !j) +. t.tree.((2 * !j) + 1);
        j := !j / 2
      done
    end

  let total t = if t.m = 0 then 0.0 else t.tree.(1)
end

(* Per-application-edge boundary terms, in [App.edges] order: the
   transfer time when the edge crosses the HW/SW boundary, 0 otherwise.
   Shared by the one-shot [comm_cost] below and by [Solution]'s
   incrementally patched total (which flips individual terms as
   bindings change) — one implementation, one association, identical
   bits. *)
let comm_terms ~platform ~app ~crossing =
  Array.of_list
    (List.map
       (fun { App.src; dst; kbytes } ->
         if crossing src dst then Platform.transfer_time platform kbytes
         else 0.0)
       (App.edges app))

let comm_cost spec =
  Comm.total
    (Comm.create
       (comm_terms ~platform:spec.platform ~app:spec.app
          ~crossing:(crossing spec)))

(* The sequentialization edge families, emitted pair by pair through a
   callback in the exact order [build] inserts them.  [Solution]'s
   incremental path derives per-move edge deltas from these same
   emitters (with a slot-based [cfg] labelling), so the edited live
   graph and a fresh build can never disagree on the edge set.

   Ownership contract: every Esw/Ehw pair has exactly one emitter.

   - An Esw pair (a, b) is owned by the adjacency of a and b in one
     processor's execution order ([chain_pairs_near]; a task sits in at
     most one order, so chains never share pairs).
   - An Ehw pair (c_j, v) — configuration node before member — is owned
     by context j alone ([ehw_intra_pairs]).
   - An Ehw pair into c_j from the previous context — (c_{j-1}, c_j)
     and (v, c_j) for v a member of context j-1 — is owned by the
     adjacent context pair (j-1, j) ([gtlp_pairs]: the globally-total,
     locally-partial order of the DRLC).

   Configuration nodes are distinct from tasks and each other, so the
   three families are mutually disjoint and the concatenated list is
   duplicate-free.  A mutator can therefore emit the exact pair delta
   of a move by running the emitters of only the chains, contexts and
   adjacencies its footprint touches, before and after the mutation:
   pairs owned by an untouched emitter are untouched.  The emitters
   allocate nothing per pair; the list forms below are collected from
   them. *)

(* Consecutive pairs of a chain with an endpoint satisfying [mem], in
   chain order: the Esw pairs a move around the selected software
   positions can have disturbed. *)
let chain_pairs_near mem emit order =
  (* [mem] runs once per task: [near_a] carries it along the walk. *)
  let rec walk a near_a = function
    | [] -> ()
    | b :: rest ->
      let near_b = mem b in
      if near_a || near_b then emit a b;
      walk b near_b rest
  in
  match order with [] -> () | a :: rest -> walk a (mem a) rest

let rec ehw_intra_pairs ~cfg emit = function
  | [] -> ()
  | v :: rest ->
    emit cfg v;
    ehw_intra_pairs ~cfg emit rest

let gtlp_pairs ~prev_cfg ~prev_members ~cfg emit =
  emit prev_cfg cfg;
  List.iter (fun v -> emit v cfg) prev_members

let collect iter =
  let acc = ref [] in
  iter (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let everything _ = true

let chain_pairs order =
  collect (fun emit -> chain_pairs_near everything emit order)

(* The canonical Ehw order: intra pairs of context 0, then for each
   j >= 1 the GTLP pairs of the adjacency (j-1, j) followed by the
   intra pairs of j — the per-class emitters run in sequence, so the
   global list and the per-move deltas cannot drift apart. *)
let iter_ehw_pairs ~cfg emit contexts =
  let rec walk j prev_cfg prev_members = function
    | [] -> ()
    | members :: rest ->
      let c = cfg j in
      if j > 0 then gtlp_pairs ~prev_cfg ~prev_members ~cfg:c emit;
      ehw_intra_pairs ~cfg:c emit members;
      walk (j + 1) c members rest
  in
  walk 0 0 [] contexts

let ehw_pairs ~cfg contexts =
  collect (fun emit -> iter_ehw_pairs ~cfg emit contexts)

let iter_sequencing_pairs ~cfg ~sw_order ~extra_sw_orders ~contexts emit =
  chain_pairs_near everything emit sw_order;
  List.iter (chain_pairs_near everything emit) extra_sw_orders;
  iter_ehw_pairs ~cfg emit contexts

let sequencing_pairs ~cfg ~sw_order ~extra_sw_orders ~contexts =
  collect (iter_sequencing_pairs ~cfg ~sw_order ~extra_sw_orders ~contexts)

let build ?reuse spec =
  let n = App.size spec.app in
  let contexts = Array.of_list spec.contexts in
  let k = Array.length contexts in
  let g =
    match reuse with
    | Some g when Graph.size g = n + k ->
      Graph.clear g;
      g
    | Some _ | None -> Graph.create (n + k)
  in
  (* Application edges. *)
  List.iter (fun { App.src; dst; kbytes = _ } -> Graph.add_edge g src dst)
    (App.edges spec.app);
  (* Software sequentialization edges (Esw, one chain per processor)
     followed by the context sequentialization (Ehw): configuration
     node n+j waits for all members of context j-1 (and the previous
     configuration) and precedes all members of context j. *)
  iter_sequencing_pairs
    ~cfg:(fun j -> n + j)
    ~sw_order:spec.sw_order ~extra_sw_orders:spec.extra_sw_orders
    ~contexts:spec.contexts (Graph.add_edge g);
  let node_weight v =
    if v < n then exec_time spec v
    else
      Platform.reconfiguration_time spec.platform
        (context_clbs spec contexts.(v - n))
  in
  let edge_weight u v =
    if u < n && v < n && crossing spec u v then
      Platform.transfer_time spec.platform (App.kbytes spec.app u v)
    else 0.0
  in
  (g, node_weight, edge_weight)

let evaluate spec =
  let g, node_weight, edge_weight = build spec in
  match Graph.topological_order g with
  | None -> None
  | Some order ->
    let n = App.size spec.app in
    let total = Graph.size g in
    let finish = Array.make total 0.0 in
    Array.iter
      (fun v ->
        let start =
          List.fold_left
            (fun acc u -> Float.max acc (finish.(u) +. edge_weight u v))
            0.0 (Graph.preds g v)
        in
        finish.(v) <- start +. node_weight v)
      order;
    let makespan = Array.fold_left Float.max 0.0 finish in
    let initial_reconfig = if total > n then node_weight n else 0.0 in
    let dynamic_reconfig = ref 0.0 in
    for j = n + 1 to total - 1 do
      dynamic_reconfig := !dynamic_reconfig +. node_weight j
    done;
    let comm = comm_cost spec in
    Some
      {
        makespan;
        initial_reconfig;
        dynamic_reconfig = !dynamic_reconfig;
        comm;
        n_contexts = total - n;
        finish;
      }

(* §3.3 transaction model: each boundary-crossing transfer occupies the
   shared bus exclusively; the transactions execute under a total order
   consistent with the task execution order.  We realize it by adding
   one node per transaction (weight = transfer time) between producer
   and consumer, chained in the order of the producers' positions in a
   topological order of the base search graph — forward edges in a
   topological order can never create a cycle. *)
let evaluate_serialized spec =
  let base, base_node_weight, _ = build spec in
  match Graph.topological_order base with
  | None -> None
  | Some order ->
    let n = App.size spec.app in
    let base_size = Graph.size base in
    let position = Array.make base_size 0 in
    Array.iteri (fun i v -> position.(v) <- i) order;
    let transactions =
      List.filter (fun { App.src; dst; kbytes = _ } -> crossing spec src dst)
        (App.edges spec.app)
    in
    let transactions =
      List.sort
        (fun a b ->
          compare
            (position.(a.App.src), position.(a.App.dst))
            (position.(b.App.src), position.(b.App.dst)))
        transactions
    in
    let m = List.length transactions in
    let g = Graph.create (base_size + m) in
    (* Base structure minus the crossing edges, which route through
       their transaction node instead. *)
    Graph.iter_edges
      (fun u v ->
        if not (u < n && v < n && crossing spec u v) then Graph.add_edge g u v)
      base;
    let transfer = Array.make m 0.0 in
    List.iteri
      (fun i { App.src; dst; kbytes } ->
        let txn = base_size + i in
        transfer.(i) <- Platform.transfer_time spec.platform kbytes;
        Graph.add_edge g src txn;
        Graph.add_edge g txn dst;
        if i > 0 then Graph.add_edge g (txn - 1) txn)
      transactions;
    let node_weight v =
      if v < base_size then base_node_weight v else transfer.(v - base_size)
    in
    (match Graph.topological_order g with
     | None -> None (* unreachable: all added edges are forward *)
     | Some order ->
       let finish = Array.make (Graph.size g) 0.0 in
       Array.iter
         (fun v ->
           let start =
             List.fold_left (fun acc u -> Float.max acc finish.(u)) 0.0
               (Graph.preds g v)
           in
           finish.(v) <- start +. node_weight v)
         order;
       let makespan = Array.fold_left Float.max 0.0 finish in
       let initial_reconfig =
         if base_size > n then base_node_weight n else 0.0
       in
       let dynamic_reconfig = ref 0.0 in
       for j = n + 1 to base_size - 1 do
         dynamic_reconfig := !dynamic_reconfig +. base_node_weight j
       done;
       let comm = Array.fold_left ( +. ) 0.0 transfer in
       Some
         {
           makespan;
           initial_reconfig;
           dynamic_reconfig = !dynamic_reconfig;
           comm;
           n_contexts = base_size - n;
           finish = Array.sub finish 0 base_size;
         })

let schedule spec =
  match evaluate spec with
  | None -> None
  | Some eval ->
    let n = App.size spec.app in
    Some
      (Array.init n (fun v ->
           let f = eval.finish.(v) in
           (f -. exec_time spec v, f)))
