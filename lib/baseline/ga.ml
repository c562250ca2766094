open Repro_taskgraph
open Repro_arch
open Repro_sched
module Rng = Repro_util.Rng
module Engine = Repro_dse.Engine
module Solution = Repro_dse.Solution

(* The fixed knobs of [6]'s GA; population and implementation genes
   are the engine's only settings, the seed and the generation budget
   come from the engine context. *)
let default_population = 300
let crossover_rate = 0.9
let mutation_rate = 0.02
let tournament = 3
let elite = 2

type individual = { hw : bool array; impl : int array }

(* The deterministic realization of a chromosome, shared by the spec
   decoder and the Solution builder. *)
let plan app platform individual =
  let impl_choice v = individual.impl.(v) in
  let contexts, sw_order, binding =
    Clustering.plan app platform ~is_hw:(fun v -> individual.hw.(v))
      ~impl_choice
  in
  (contexts, sw_order, binding, impl_choice)

let decode app platform individual =
  let contexts, sw_order, binding, impl_choice = plan app platform individual in
  Searchgraph.single_processor_spec ~app ~platform ~binding ~impl_choice
    ~sw_order ~contexts

let solution_of ?scratch app platform individual =
  let contexts, sw_order, _binding, impl_choice = plan app platform individual in
  let sw_orders =
    sw_order
    :: List.init (Platform.processor_count platform - 1) (fun _ -> [])
  in
  let impl = List.init (App.size app) impl_choice in
  Solution.of_mapping ?scratch app platform ~sw_orders ~contexts ~impl

let solution_of_exn app platform individual =
  match solution_of app platform individual with
  | Ok s -> s
  | Error msg -> invalid_arg ("Ga.solution_of: " ^ msg)

let fitness app platform individual =
  (* One scored individual = one evaluation, same as Solution.evaluate's
     accounting — keeps fault injection (REPRO_FAULTS=eval:N) able to
     kill a GA run mid-campaign like any other engine. *)
  Repro_util.Fault.tick_eval ();
  match Searchgraph.evaluate (decode app platform individual) with
  | Some eval -> eval.Searchgraph.makespan
  | None -> infinity

let random_individual rng ~explore_impls app =
  let n = App.size app in
  {
    hw = Array.init n (fun _ -> Rng.bool rng);
    impl =
      Array.init n (fun v ->
          if explore_impls then
            Rng.int rng (Task.impl_count (App.task app v))
          else 0);
  }

let crossover rng a b =
  (* Uniform crossover, gene by gene. *)
  let n = Array.length a.hw in
  let pick x y = if Rng.bool rng then x else y in
  {
    hw = Array.init n (fun v -> pick a.hw.(v) b.hw.(v));
    impl = Array.init n (fun v -> pick a.impl.(v) b.impl.(v));
  }

let mutate rng ~explore_impls app individual =
  let n = Array.length individual.hw in
  for v = 0 to n - 1 do
    if Rng.bernoulli rng mutation_rate then
      individual.hw.(v) <- not individual.hw.(v);
    if explore_impls && Rng.bernoulli rng mutation_rate then
      individual.impl.(v) <- Rng.int rng (Task.impl_count (App.task app v))
  done

let copy_individual i = { hw = Array.copy i.hw; impl = Array.copy i.impl }

(* Evolution through the generic driver: one iteration = one
   generation; the elite slots make population.(0) the best ever
   seen. *)
let evolve ~population:size ~explore_impls (ctx : Engine.context) =
  if size < 2 then invalid_arg "Ga: population < 2";
  if elite >= size then invalid_arg "Ga: elite too big";
  let app = ctx.Engine.app and platform = ctx.Engine.platform in
  let score individual = fitness app platform individual in
  let by_fitness (fa, _) (fb, _) = compare fa fb in
  let previous_best = ref infinity in
  (* The full scored population crosses the checkpoint: one header
     line per run plus one "ind <fitness> <hw-genes> <impl-genes>"
     line per individual, fitness in %h so the sort order (and hence
     every later tournament) is reproduced bit-exactly. *)
  let codec =
    let name = if explore_impls then "ga" else "ga-spatial" in
    {
      Engine.engine = name;
      version = 1;
      encode =
        (fun population ->
          let b = Buffer.create 4096 in
          Printf.bprintf b "ga %d %h\n" size !previous_best;
          Array.iter
            (fun (fit, i) ->
              Printf.bprintf b "ind %h " fit;
              Array.iter
                (fun g -> Buffer.add_char b (if g then '1' else '0'))
                i.hw;
              Array.iter (fun g -> Printf.bprintf b " %d" g) i.impl;
              Buffer.add_char b '\n')
            population;
          Buffer.contents b);
      decode =
        (fun text ->
          let ( let* ) = Result.bind in
          let field = Repro_util.Checkpoint.field in
          let n = App.size app in
          let* header, lines =
            field "ga" Option.some (String.split_on_char '\n' text)
          in
          let* prev =
            match header with
            | [ pop; prev ] -> (
              match (int_of_string_opt pop, float_of_string_opt prev) with
              | Some p, _ when p <> size ->
                Error
                  (Printf.sprintf
                     "taken with population %d — this engine is configured \
                      with %d"
                     p size)
              | Some _, Some prev -> Ok prev
              | _ -> Error "bad ga line")
            | _ -> Error "bad ga line"
          in
          let individual = function
            | fit :: genes :: impls
              when String.length genes = n && List.length impls = n -> (
              let impl_opt = List.map int_of_string_opt impls in
              match (float_of_string_opt fit, String.for_all (fun c -> c = '0' || c = '1') genes,
                     List.for_all Option.is_some impl_opt) with
              | Some fit, true, true ->
                Ok
                  ( fit,
                    {
                      hw = Array.init n (fun v -> genes.[v] = '1');
                      impl = Array.of_list (List.map Option.get impl_opt);
                    } )
              | _ -> Error "bad ind line")
            | _ -> Error "bad ind line"
          in
          let rec individuals k acc lines =
            if k = size then
              if List.for_all (( = ) "") lines then Ok (List.rev acc)
              else Error "wrong number of individuals"
            else
              let* fields, lines = field "ind" Option.some lines in
              let* i = individual fields in
              individuals (k + 1) (i :: acc) lines
          in
          let* population = individuals 0 [] lines in
          previous_best := prev;
          Ok (Array.of_list population));
    }
  in
  Engine.drive ~codec ctx
    ~init:(fun rng ->
      let population =
        Array.init size (fun _ ->
            let i = random_individual rng ~explore_impls app in
            (score i, i))
      in
      (* Seed one all-software individual: always feasible, so the
         final best is finite even if every random spatial partition
         decodes to a cyclic search graph. *)
      let n = App.size app in
      let all_sw = { hw = Array.make n false; impl = Array.make n 0 } in
      population.(size - 1) <- (score all_sw, all_sw);
      (* A warm start enters the gene pool as one more seeded
         individual (never displacing the all-software safety net),
         so the evolved best can only match or beat the donor. *)
      let warm_evals =
        match ctx.Engine.warm_start with
        | None -> 0
        | Some w ->
          let genome =
            {
              hw =
                Array.init n (fun v -> Solution.binding w v <> Searchgraph.Sw);
              impl = Array.init n (fun v -> Solution.impl_index w v);
            }
          in
          population.(0) <- (score genome, genome);
          1
      in
      Array.sort by_fitness population;
      previous_best := fst population.(0);
      (population, fst population.(0), size + 1 + warm_evals))
    ~step:(fun rng ~iteration:_ population ->
      let tournament_pick () =
        let best = ref (Rng.int rng size) in
        for _ = 2 to tournament do
          let candidate = Rng.int rng size in
          if fst population.(candidate) < fst population.(!best) then
            best := candidate
        done;
        snd population.(!best)
      in
      let next =
        Array.init size (fun slot ->
            if slot < elite then
              let f, i = population.(slot) in
              (f, copy_individual i)
            else begin
              let parent_a = tournament_pick () in
              let child =
                if Rng.bernoulli rng crossover_rate then
                  crossover rng parent_a (tournament_pick ())
                else copy_individual parent_a
              in
              mutate rng ~explore_impls app child;
              (score child, child)
            end)
      in
      Array.sort by_fitness next;
      Array.blit next 0 population 0 size;
      let cost = fst population.(0) in
      let accepted = cost < !previous_best in
      if accepted then previous_best := cost;
      { Engine.state = population; cost; accepted;
        evaluations = size - elite })
    ~snapshot:(fun population ->
      solution_of_exn app platform (snd population.(0)))

let engine ?(population = default_population) ?(explore_impls = true) () :
    Engine.t =
  (module struct
    let name = if explore_impls then "ga" else "ga-spatial"

    let describe =
      if explore_impls then
        "genetic algorithm over spatial partitioning and implementation \
         selection (Ben Chehida & Auguin, CASES'02)"
      else
        "genetic algorithm over spatial partitioning only, \
         implementation genes frozen at the smallest variant"

    let knobs =
      Printf.sprintf
        "population %d, crossover %g, mutation %g, tournament %d, elite %d; \
         one iteration = one generation"
        population crossover_rate mutation_rate tournament elite

    let default_iterations = 120
    let run ctx = evolve ~population ~explore_impls ctx
  end : Engine.S)
