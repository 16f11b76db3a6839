module Problem = Dia_core.Problem
module Greedy = Dia_core.Greedy
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Delay = Dia_core.Delay
module Placement = Dia_placement.Placement

type point = {
  utilization : float;
  clients : int;
  d_blind : float;
  d_load_blind : float;
  d_load_aware : float;
  lb : float;
  lb_load : float;
}

type result = {
  dataset : Config.dataset;
  profile : Config.profile;
  servers : int;
  capacity : int;
  delay : Delay.t;
  points : point list;
}

let default_steps = [ 0.; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ]

let run ?(dataset = Config.Meridian_like) ?(profile = Config.default)
    ?(capacity = 25) ?delay ?(steps = default_steps) () =
  let matrix = Config.load_dataset dataset profile in
  let nodes = Dia_latency.Matrix.dim matrix in
  let k = profile.Config.fixed_servers in
  let servers = Placement.place Placement.Random_placement ~seed:0 matrix ~k in
  (* Default model: a server drains its full capacity per unit time, so
     per-server utilization load/capacity is exactly the M/M/1 rho and
     the sweep shows the whole hockey stick without leaving the
     unsaturated regime at low utilization. *)
  let delay =
    match delay with
    | Some dl -> dl
    | None -> Delay.Queueing { mu = float_of_int capacity }
  in
  Delay.validate delay;
  let points =
    List.map
      (fun utilization ->
        let n =
          max 1
            (int_of_float
               (Float.round (utilization *. float_of_int (k * capacity))))
        in
        (* Deterministic client population cycling over the nodes: the
           sweep varies only the utilization, never the geometry. *)
        let clients = Array.init n (fun i -> i mod nodes) in
        let p = Problem.make ~capacity ~latency:matrix ~servers ~clients () in
        let lb = Lower_bound.compute p in
        let lb_load = lb +. (2. *. Delay.eval delay 1) in
        let blind = Greedy.assign p in
        let aware = Greedy.assign ~delay p in
        {
          utilization;
          clients = n;
          d_blind = Objective.max_interaction_path p blind;
          d_load_blind = Objective.max_interaction_path ~delay p blind;
          d_load_aware = Objective.max_interaction_path ~delay p aware;
          lb;
          lb_load;
        })
      steps
  in
  { dataset; profile; servers = k; capacity; delay; points }

let render result =
  let table =
    Dia_stats.Table.make
      ~columns:
        [ "utilization"; "clients"; "D (greedy)"; "D_load (blind)";
          "D_load (aware)"; "D_load/LB_load" ]
  in
  List.iter
    (fun pt ->
      Dia_stats.Table.add_row table
        [
          Printf.sprintf "%.2f" pt.utilization;
          string_of_int pt.clients;
          Printf.sprintf "%.2f" pt.d_blind;
          Printf.sprintf "%.2f" pt.d_load_blind;
          Printf.sprintf "%.2f" pt.d_load_aware;
          Printf.sprintf "%.3f" (pt.d_load_aware /. pt.lb_load);
        ])
    result.points;
  let series =
    [
      ( "D (greedy)",
        List.map (fun pt -> (pt.utilization, pt.d_blind)) result.points );
      ( "D_load (aware)",
        List.map (fun pt -> (pt.utilization, pt.d_load_aware)) result.points );
    ]
  in
  Printf.sprintf
    "Load sweep (D vs D_load as utilization ramps, %d servers x capacity %d, \
     delay %s, %s dataset, %s profile)\n%s\n%s"
    result.servers result.capacity
    (Delay.to_string result.delay)
    (Config.dataset_name result.dataset)
    result.profile.Config.label
    (Dia_stats.Table.render table)
    (Dia_stats.Ascii_plot.render ~x_label:"utilization (clients / total capacity)"
       ~y_label:"objective (ms)" series)

let csv result =
  let rows =
    List.map
      (fun pt ->
        [
          Printf.sprintf "%.2f" pt.utilization;
          string_of_int pt.clients;
          Printf.sprintf "%.6f" pt.d_blind;
          Printf.sprintf "%.6f" pt.d_load_blind;
          Printf.sprintf "%.6f" pt.d_load_aware;
          Printf.sprintf "%.6f" pt.lb;
          Printf.sprintf "%.6f" pt.lb_load;
        ])
      result.points
  in
  Dia_stats.Csv.render
    ~header:
      [ "utilization"; "clients"; "d"; "d_load_blind"; "d_load_aware"; "lb";
        "lb_load" ]
    rows
