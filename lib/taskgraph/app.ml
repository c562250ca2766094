type edge = { src : int; dst : int; kbytes : float }

type t = {
  name : string;
  tasks : Task.t array;
  graph : Graph.t;
  closure : Closure.t;
  edge_data : (int * int, float) Hashtbl.t;
  deadline : float option;
}

let make ~name ?deadline ~tasks ~edges () =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  Array.iteri
    (fun i (task : Task.t) ->
      if task.Task.id <> i then
        invalid_arg
          (Printf.sprintf "App.make: task at position %d has id %d" i
             task.Task.id))
    tasks;
  (match deadline with
   | Some d when d <= 0.0 -> invalid_arg "App.make: non-positive deadline"
   | Some _ | None -> ());
  let graph = Graph.create n in
  let edge_data = Hashtbl.create (2 * List.length edges) in
  List.iter
    (fun { src; dst; kbytes } ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "App.make: edge endpoint out of range";
      if kbytes < 0.0 then invalid_arg "App.make: negative data amount";
      if Hashtbl.mem edge_data (src, dst) then
        invalid_arg "App.make: duplicate edge";
      Graph.add_edge graph src dst;
      Hashtbl.add edge_data (src, dst) kbytes)
    edges;
  if not (Graph.is_dag graph) then
    invalid_arg "App.make: precedence graph has a cycle";
  { name; tasks; graph; closure = Closure.of_graph graph; edge_data; deadline }

let size t = Array.length t.tasks

let task t i =
  if i < 0 || i >= size t then invalid_arg "App.task: index out of range";
  t.tasks.(i)

let kbytes t src dst =
  match Hashtbl.find_opt t.edge_data (src, dst) with
  | Some q -> q
  | None -> 0.0

let edges t =
  List.map
    (fun (src, dst) -> { src; dst; kbytes = kbytes t src dst })
    (Graph.edges t.graph)

let topological_order t =
  match Graph.topological_order t.graph with
  | Some order -> order
  | None -> assert false (* acyclicity established at construction *)

let total_sw_time t =
  Array.fold_left (fun acc (task : Task.t) -> acc +. task.Task.sw_time) 0.0 t.tasks

let critical_path_with t time_of =
  if size t = 0 then 0.0
  else begin
    let finish =
      Graph.longest_path t.graph
        ~node_weight:(fun v -> time_of t.tasks.(v))
        ~edge_weight:(fun _ _ -> 0.0)
    in
    Array.fold_left Float.max 0.0 finish
  end

let sw_critical_path t = critical_path_with t (fun task -> task.Task.sw_time)

let hw_critical_path t =
  critical_path_with t (fun task -> (Task.fastest_impl task).Task.hw_time)

let parallelism t =
  let cp = sw_critical_path t in
  if cp = 0.0 then 1.0 else total_sw_time t /. cp

let validate t =
  let n = size t in
  let problems = ref [] in
  let note msg = problems := msg :: !problems in
  Array.iteri
    (fun i (task : Task.t) ->
      if task.Task.id <> i then note (Printf.sprintf "task %d: wrong id" i);
      if task.Task.sw_time <= 0.0 then
        note (Printf.sprintf "task %d: sw_time <= 0" i);
      if Array.length task.Task.impls = 0 then
        note (Printf.sprintf "task %d: no implementation" i))
    t.tasks;
  Hashtbl.iter
    (fun (src, dst) q ->
      if not (Graph.has_edge t.graph src dst) then
        note (Printf.sprintf "edge data (%d,%d) without graph edge" src dst);
      if q < 0.0 then note (Printf.sprintf "edge (%d,%d): negative data" src dst))
    t.edge_data;
  if not (Graph.is_dag t.graph) then note "graph has a cycle";
  if n > 0 && Graph.size t.graph <> n then note "graph size mismatch";
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " ps)

let pp_summary fmt t =
  Format.fprintf fmt
    "@[<v>application %s: %d tasks, %d edges@,\
     total SW time %.1f ms, SW critical path %.1f ms, parallelism %.2f%a@]"
    t.name (size t)
    (Graph.edge_count t.graph)
    (total_sw_time t) (sw_critical_path t) (parallelism t)
    (fun fmt -> function
      | Some d -> Format.fprintf fmt "@,deadline %.1f ms" d
      | None -> ())
    t.deadline
