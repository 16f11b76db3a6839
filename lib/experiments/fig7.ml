module Algorithm = Dia_core.Algorithm
module Placement = Dia_placement.Placement
module Pool = Dia_parallel.Pool

type point = {
  servers : int;
  algorithm : Algorithm.t;
  normalized : float;
  stddev : float;
}

type panel = { strategy : Placement.strategy; points : point list }

type result = {
  dataset : Config.dataset;
  profile : Config.profile;
  panels : panel list;
}

(* One placement strategy on a prepared matrix. The k-sweep is the
   fan-out; [average_normalized]'s seed fan-out nested inside it runs
   inline on the worker that owns the k. *)
let run_panel ~profile ~pool matrix strategy =
  let points_for k =
    match strategy with
    | Placement.Random_placement ->
        List.map
          (fun (algorithm, summary) ->
            {
              servers = k;
              algorithm;
              normalized = summary.Dia_stats.Summary.mean;
              stddev = summary.Dia_stats.Summary.stddev;
            })
          (Runner.average_normalized ~pool matrix ~runs:profile.Config.runs ~k)
    | Placement.K_center_a | Placement.K_center_b ->
        let evaluation = Runner.place_and_evaluate matrix ~strategy ~k in
        List.map
          (fun (algorithm, normalized) ->
            { servers = k; algorithm; normalized; stddev = 0. })
          (Runner.normalized evaluation)
  in
  (* Concatenating per-k results in k order matches the sequential
     List.concat_map exactly. *)
  let per_k =
    Runner.with_timing
      ~label:(Printf.sprintf "fig7 panel (%s)" (Placement.strategy_name strategy))
      ~jobs:(Pool.jobs pool)
      (fun () ->
        Pool.map_array pool points_for (Array.of_list profile.Config.server_counts))
  in
  { strategy; points = List.concat (Array.to_list per_k) }

let run ?(dataset = Config.Meridian_like) ?(profile = Config.default) ?jobs () =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  Pool.with_pool ~jobs (fun pool ->
      let matrix = Config.load_dataset dataset profile in
      let panels =
        Runner.with_timing ~label:"fig7" ~jobs (fun () ->
            List.map (run_panel ~profile ~pool matrix) Placement.all_strategies)
      in
      { dataset; profile; panels })

let panel_table panel =
  let columns =
    "servers" :: List.map Algorithm.name Runner.algorithms
  in
  let table = Dia_stats.Table.make ~columns in
  let server_counts =
    List.sort_uniq compare (List.map (fun point -> point.servers) panel.points)
  in
  List.iter
    (fun k ->
      let value algorithm =
        List.find
          (fun point -> point.servers = k && point.algorithm = algorithm)
          panel.points
      in
      Dia_stats.Table.add_row table
        (string_of_int k
        :: List.map
             (fun algorithm -> Printf.sprintf "%.3f" (value algorithm).normalized)
             Runner.algorithms))
    server_counts;
  Dia_stats.Table.render table

let panel_plot panel =
  let series =
    List.map
      (fun algorithm ->
        ( Algorithm.name algorithm,
          List.filter_map
            (fun point ->
              if point.algorithm = algorithm then
                Some (float_of_int point.servers, point.normalized)
              else None)
            panel.points ))
      Runner.algorithms
  in
  Dia_stats.Ascii_plot.render ~x_label:"servers" ~y_label:"normalized interactivity"
    series

let render result =
  String.concat "\n"
    (List.map
       (fun panel ->
         Printf.sprintf "Fig. 7 (%s placement, %s dataset, %s profile)\n%s\n%s"
           (Placement.strategy_name panel.strategy)
           (Config.dataset_name result.dataset)
           result.profile.Config.label (panel_table panel) (panel_plot panel))
       result.panels)

let csv result =
  let rows =
    List.concat_map
      (fun panel ->
        List.map
          (fun point ->
            [
              Placement.strategy_name panel.strategy;
              string_of_int point.servers;
              Algorithm.key point.algorithm;
              Printf.sprintf "%.6f" point.normalized;
              Printf.sprintf "%.6f" point.stddev;
            ])
          panel.points)
      result.panels
  in
  Dia_stats.Csv.render
    ~header:[ "placement"; "servers"; "algorithm"; "normalized"; "stddev" ]
    rows
