open Repro_taskgraph
open Repro_arch

let clbs_of app impl_choice v =
  (Task.impl (App.task app v) (impl_choice v)).Task.clbs

let oversized_tasks app platform ~is_hw ~impl_choice =
  let limit = Platform.n_clb platform in
  List.filter
    (fun v -> is_hw v && clbs_of app impl_choice v > limit)
    (List.init (App.size app) Fun.id)

let contexts app platform ~is_hw ~impl_choice =
  let limit = Platform.n_clb platform in
  let topo = App.topological_order app in
  let finished = ref [] in
  let current = ref [] in
  let current_clbs = ref 0 in
  Array.iter
    (fun v ->
      if is_hw v then begin
        let area = clbs_of app impl_choice v in
        if area <= limit then begin
          if !current_clbs + area > limit && !current <> [] then begin
            finished := List.rev !current :: !finished;
            current := [];
            current_clbs := 0
          end;
          current := v :: !current;
          current_clbs := !current_clbs + area
        end
      end)
    topo;
  if !current <> [] then finished := List.rev !current :: !finished;
  List.rev !finished

let plan app platform ~is_hw ~impl_choice =
  let limit = Platform.n_clb platform in
  let is_hw v = is_hw v && clbs_of app impl_choice v <= limit in
  let contexts = contexts app platform ~is_hw ~impl_choice in
  (* Positional context of each hardware task. *)
  let position = Hashtbl.create 32 in
  List.iteri
    (fun j members -> List.iter (fun v -> Hashtbl.add position v j) members)
    contexts;
  let binding v =
    match Hashtbl.find_opt position v with
    | Some j -> Searchgraph.Hw j
    | None -> Searchgraph.Sw
  in
  let time v =
    match binding v with
    | Searchgraph.Sw -> (App.task app v).Task.sw_time
    | Searchgraph.Hw _ | Searchgraph.On_asic _ ->
      (Task.impl (App.task app v) (impl_choice v)).Task.hw_time
  in
  (* [binding] never yields [On_asic]: a transfer is paid exactly when
     one end runs in software and the other in a context. *)
  let comm u v =
    match (binding u, binding v) with
    | Searchgraph.Sw, Searchgraph.Sw -> 0.0
    | Searchgraph.Sw, _ | _, Searchgraph.Sw ->
      Platform.transfer_time platform (App.kbytes app u v)
    | (Searchgraph.Hw _ | Searchgraph.On_asic _),
      (Searchgraph.Hw _ | Searchgraph.On_asic _) -> 0.0
  in
  let rank = List_sched.upward_rank app ~time ~comm in
  let sw_order =
    List_sched.sw_order app
      ~is_sw:(fun v -> binding v = Searchgraph.Sw)
      ~priority:(fun v -> rank.(v))
  in
  (contexts, sw_order, binding)
