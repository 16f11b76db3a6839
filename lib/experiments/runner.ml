module Algorithm = Dia_core.Algorithm
module Problem = Dia_core.Problem
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Placement = Dia_placement.Placement
module Pool = Dia_parallel.Pool

(* -- Observability ------------------------------------------------------- *)

let src = Logs.Src.create "dia.experiments" ~doc:"DIA experiment runners"

module Log = (val Logs.src_log src)

let verbose = lazy (Sys.getenv_opt "DIA_VERBOSE" <> None)

(* Install a stderr reporter the first time a timed section runs with
   DIA_VERBOSE set; without it the logs dependency stays silent. *)
let ensure_reporter =
  lazy
    (if Lazy.force verbose then begin
       Logs.Src.set_level src (Some Logs.Info);
       Logs.set_reporter (Logs.format_reporter ~dst:Format.err_formatter ())
     end)

let with_timing ~label ~jobs f =
  Lazy.force ensure_reporter;
  if Lazy.force verbose then begin
    let t0 = Unix.gettimeofday () in
    let result = f () in
    Log.info (fun m ->
        m "%s: %.3f s wall (jobs=%d)" label (Unix.gettimeofday () -. t0) jobs);
    result
  end
  else f ()

(* -- Per-instance evaluation --------------------------------------------- *)

type evaluation = {
  servers : int array;
  lower_bound : float;
  results : (Algorithm.t * float) list;
}

let algorithms = Algorithm.heuristics

let evaluate ?capacity ?(algorithms = algorithms) matrix ~servers =
  let p = Problem.all_nodes_clients ?capacity matrix ~servers in
  let results =
    List.map
      (fun algorithm ->
        let a = Algorithm.run algorithm p in
        (algorithm, Objective.max_interaction_path p a))
      algorithms
  in
  { servers; lower_bound = Lower_bound.compute p; results }

let normalized evaluation =
  List.map
    (fun (algorithm, d) -> (algorithm, d /. evaluation.lower_bound))
    evaluation.results

let place_and_evaluate ?capacity ?(seed = 0) matrix ~strategy ~k =
  let servers = Placement.place strategy ~seed matrix ~k in
  evaluate ?capacity matrix ~servers

let average_normalized ?capacity ?pool matrix ~runs ~k =
  (* Each seed is an independent (placement, evaluation) cell; fan the
     seed range out and aggregate in seed order, exactly as the
     sequential loop does. *)
  let evaluate_seed seed =
    place_and_evaluate ?capacity ~seed matrix
      ~strategy:Placement.Random_placement ~k
  in
  let evaluations =
    match pool with
    | None -> Array.init runs evaluate_seed
    | Some pool -> Pool.run_seeds pool ~seeds:runs evaluate_seed
  in
  let per_algorithm = Hashtbl.create 8 in
  Array.iter
    (fun evaluation ->
      List.iter
        (fun (algorithm, value) ->
          let previous =
            Option.value ~default:[] (Hashtbl.find_opt per_algorithm algorithm)
          in
          Hashtbl.replace per_algorithm algorithm (value :: previous))
        (normalized evaluation))
    evaluations;
  List.map
    (fun algorithm ->
      let values = Option.value ~default:[] (Hashtbl.find_opt per_algorithm algorithm) in
      (algorithm, Dia_stats.Summary.of_list values))
    algorithms
