open Repro_taskgraph
open Repro_arch
open Repro_sched
module Rng = Repro_util.Rng

type config = {
  p_impl : float;
  p_new_context : float;
  p_swap_contexts : float;
  p_to_sw : float;
  p_device : float;
  device_catalogue : Platform.t list;
}

let fixed_architecture =
  {
    p_impl = 0.2;
    p_new_context = 0.05;
    p_swap_contexts = 0.05;
    p_to_sw = 0.1;
    p_device = 0.0;
    device_catalogue = [];
  }

let exploration catalogue =
  {
    p_impl = 0.15;
    p_new_context = 0.05;
    p_swap_contexts = 0.05;
    p_to_sw = 0.1;
    p_device = 0.1;
    device_catalogue = catalogue;
  }

let spatial_only =
  {
    p_impl = 0.0;
    p_new_context = 0.0;
    p_swap_contexts = 0.0;
    p_to_sw = 0.1;
    p_device = 0.0;
    device_catalogue = [];
  }

(* Validate a realized move: keep it when the search graph is acyclic
   and capacities hold, otherwise undo and report infeasibility.  The
   makespan is all a feasibility test needs: no eval record is built. *)
let validated solution undo =
  if Solution.makespan solution < infinity then Some undo
  else begin
    undo ();
    None
  end

(* A uniformly drawn hardware task: the single draw
   [Rng.choice_list rng (Solution.hw_tasks solution)] makes, without
   building the list. *)
let draw_hw_task rng solution =
  match Solution.hw_task_count solution with
  | 0 -> None
  | count -> Some (Solution.nth_hw_task solution (Rng.int rng count))

let impl_move rng solution =
  match draw_hw_task rng solution with
  | None -> None
  | Some v ->
    let task = App.task (Solution.app solution) v in
    let count = Task.impl_count task in
    if count < 2 then None
    else begin
      let current = Solution.impl_index solution v in
      let pick = Rng.int rng (count - 1) in
      let next = if pick >= current then pick + 1 else pick in
      let undo = Solution.save solution in
      Solution.set_impl solution v next;
      validated solution undo
    end

let new_context_move rng solution =
  let n = Solution.size solution in
  let v = Rng.int rng n in
  (* A task alone in its own context gains nothing from a fresh one. *)
  let alone_in_context =
    match Solution.binding solution v with
    | Searchgraph.Hw j -> Solution.context_size solution j = 1
    | Searchgraph.Sw | Searchgraph.On_asic _ -> false
  in
  if alone_in_context then None
  else begin
    let undo = Solution.save solution in
    let at = Rng.int rng (Solution.n_contexts solution + 1) in
    Solution.insert_context solution ~task:v ~at;
    validated solution undo
  end

(* Explore the globally total context order directly: exchange two
   adjacent contexts. *)
let swap_contexts_move rng solution =
  let k = Solution.n_contexts solution in
  if k < 2 then None
  else begin
    let undo = Solution.save solution in
    Solution.swap_contexts solution ~at:(Rng.int rng (k - 1));
    validated solution undo
  end

let device_move rng config solution =
  match config.device_catalogue with
  | [] -> None
  | catalogue ->
    let current = Solution.platform solution in
    (* Swappable platforms only: a different processor count would
       strand tasks, which replace_platform refuses. *)
    let others =
      List.filter
        (fun p ->
          p != current
          && Platform.processor_count p = Platform.processor_count current)
        catalogue
    in
    (match others with
     | [] -> None
     | _ :: _ ->
       let platform = Rng.choice_list rng others in
       let undo = Solution.save solution in
       Solution.replace_platform solution platform;
       validated solution undo)

(* m1: reposition [vs] immediately before [vd] in the software order.
   Statically impossible orders (vd is an ancestor of vs) are rejected
   in O(1) on the closure matrix; dynamic conflicts through hardware
   contexts are caught by validation. *)
let reorder_move solution vs vd =
  let clo = Solution.closure solution in
  if Closure.reaches clo vd vs then None
  else begin
    let undo = Solution.save solution in
    Solution.reorder_sw solution ~task:vs ~before:vd;
    validated solution undo
  end

(* Statically consistent insertion point for a task entering a
   processor's order: right before the first software task of that
   processor that must follow it (closure query), at the end
   otherwise. *)
let sw_insertion_point solution ~proc vs =
  let clo = Solution.closure solution in
  match List.nth_opt (Solution.sw_orders solution) proc with
  | Some order -> List.find_opt (fun w -> Closure.reaches clo vs w) order
  | None -> invalid_arg "Moves: no such processor"

(* m2 with a software destination: migrate [vs] to the processor
   holding [vd]. *)
let to_software_move ~proc solution vs =
  let undo = Solution.save solution in
  let before = sw_insertion_point solution ~proc vs in
  Solution.move_to_sw ~proc solution ~task:vs ~before;
  validated solution undo

(* Escape move keeping the chain ergodic: when no task runs on some
   processor, no draw of [vd] can designate it, so migration to it
   would be impossible through m2 alone.  With a small probability we
   therefore move a random task to a random processor directly. *)
let hw_to_sw_move rng solution =
  let n = Solution.size solution in
  let processors =
    Repro_arch.Platform.processor_count (Solution.platform solution)
  in
  let proc = Rng.int rng processors in
  let v = Rng.int rng n in
  match Solution.binding solution v with
  | Searchgraph.Sw when Solution.processor_index solution v = proc -> None
  | Searchgraph.Sw | Searchgraph.Hw _ | Searchgraph.On_asic _ ->
    to_software_move ~proc solution v

let to_context_move solution vs vd =
  let undo = Solution.save solution in
  Solution.move_to_context solution ~task:vs ~dest:vd;
  validated solution undo

let main_move rng solution =
  let n = Solution.size solution in
  let vs = Rng.int rng n and vd = Rng.int rng n in
  if vs = vd then None
  else
    match (Solution.binding solution vs, Solution.binding solution vd) with
    | Searchgraph.Sw, Searchgraph.Sw ->
      let p = Solution.processor_index solution vs in
      let q = Solution.processor_index solution vd in
      if p = q then reorder_move solution vs vd
      else to_software_move ~proc:q solution vs
    | Searchgraph.Hw a, Searchgraph.Hw b when a = b ->
      (* Same RC context: the paper performs no move. *)
      None
    | (Searchgraph.Sw | Searchgraph.Hw _), Searchgraph.Hw _ ->
      to_context_move solution vs vd
    | Searchgraph.Hw _, Searchgraph.Sw ->
      to_software_move ~proc:(Solution.processor_index solution vd) solution vs
    | Searchgraph.On_asic _, _ | _, Searchgraph.On_asic _ ->
      (* Solutions never bind tasks to an ASIC (exploration over ASIC
         assignment is future work, as in the paper). *)
      None

(* One generator per move kind, for the per-kind benchmark matrix:
   the same draws and validation as [propose], minus the lottery.
   [Sw_reorder] and [Ctx_migrate] re-draw the (vs, vd) pair of
   [main_move] conditioned on landing in the requested kind. *)
let propose_kind rng config solution (kind : Solution.move_kind) =
  match kind with
  | Solution.Init -> None
  | Solution.Impl -> impl_move rng solution
  | Solution.Ctx_create -> new_context_move rng solution
  | Solution.Ctx_swap -> swap_contexts_move rng solution
  | Solution.Platform_swap -> device_move rng config solution
  | Solution.Sw_migrate -> hw_to_sw_move rng solution
  | Solution.Sw_reorder -> (
    match Solution.sw_orders solution with
    | [] -> None
    | orders ->
      let proc = Rng.int rng (List.length orders) in
      let order = Array.of_list (List.nth orders proc) in
      if Array.length order < 2 then None
      else
        let vs = order.(Rng.int rng (Array.length order)) in
        let vd = order.(Rng.int rng (Array.length order)) in
        if vs = vd then None else reorder_move solution vs vd)
  | Solution.Ctx_migrate -> (
    match draw_hw_task rng solution with
    | None -> None
    | Some vd ->
      let vs = Rng.int rng (Solution.size solution) in
      if vs = vd then None
      else
        match (Solution.binding solution vs, Solution.binding solution vd) with
        | Searchgraph.Hw a, Searchgraph.Hw b when a = b -> None
        | _, Searchgraph.Hw _ -> to_context_move solution vs vd
        | _, (Searchgraph.Sw | Searchgraph.On_asic _) -> None)

let propose rng config solution =
  let draw = Rng.float rng 1.0 in
  let threshold1 = config.p_device in
  let threshold2 = threshold1 +. config.p_impl in
  let threshold3 = threshold2 +. config.p_new_context in
  let threshold4 = threshold3 +. config.p_swap_contexts in
  let threshold5 = threshold4 +. config.p_to_sw in
  if draw < threshold1 then device_move rng config solution
  else if draw < threshold2 then impl_move rng solution
  else if draw < threshold3 then new_context_move rng solution
  else if draw < threshold4 then swap_contexts_move rng solution
  else if draw < threshold5 then hw_to_sw_move rng solution
  else main_move rng solution
