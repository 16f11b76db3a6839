(* dia — command-line interface to the client assignment library.

   Subcommands:
     dia experiment {fig7,fig8,fig9,fig10}   reproduce a paper figure
     dia assign                              run one assignment end to end
     dia dataset                             generate synthetic latency data
     dia simulate                            protocol-level simulation
     dia soak                                SLO-guarded chaos soak run
     dia vivaldi                             coordinate embedding / completion
     dia topology                            transit-stub topology generation
     dia npc                                 NP-completeness reduction demo *)

open Cmdliner

module Algorithm = Dia_core.Algorithm
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Clock = Dia_core.Clock
module Placement = Dia_placement.Placement
module Config = Dia_experiments.Config
module Pool = Dia_parallel.Pool

(* Shared argument converters. *)

let dataset_conv =
  let parse s =
    match Config.dataset_of_string s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown dataset %S (meridian|mit)" s))
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Config.dataset_name d))

let profile_conv =
  let parse s =
    match Config.profile_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown profile %S (quick|default|full)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf p.Config.label)

let algorithm_conv =
  let parse s =
    match Algorithm.of_key s with
    | Some a -> Ok a
    | None ->
        Error (`Msg (Printf.sprintf "unknown algorithm %S (nearest|lfb|greedy|dgreedy|single|random)" s))
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Algorithm.key a))

let strategy_conv =
  let parse s =
    match Placement.strategy_of_string s with
    | Some p -> Ok p
    | None ->
        Error (`Msg (Printf.sprintf "unknown placement %S (random|kcenter-a|kcenter-b)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Placement.strategy_name s))

let dataset_arg =
  Arg.(value & opt dataset_conv Config.Meridian_like
       & info [ "dataset" ] ~docv:"NAME" ~doc:"Data set: meridian or mit.")

let profile_arg =
  Arg.(value & opt profile_conv Config.default
       & info [ "profile" ] ~docv:"PROFILE"
           ~doc:"Experiment scale: quick, default, or full (paper scale).")

let matrix_file_arg =
  Arg.(value & opt (some string) None
       & info [ "matrix" ] ~docv:"FILE"
           ~doc:"Load the latency matrix from $(docv) instead of generating it.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let fault_conv =
  let parse s =
    match Dia_sim.Fault.of_string s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, Dia_sim.Fault.pp_plan)

let fault_arg =
  Arg.(value & opt fault_conv Dia_sim.Fault.reliable
       & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Fault plan for protocol-level runs, e.g. \
                 $(b,loss:0.15+crash:3@2.0~5.0) (see the fault mini-DSL; \
                 $(b,reliable) disables).")

let delay_conv =
  let parse s =
    match Dia_core.Delay.of_string s with
    | Ok d -> Ok d
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, Dia_core.Delay.pp)

(* A protocol-level Distributed-Greedy run under a fault plan, reported
   against the instance's lower bound. *)
let protocol_under_faults ~seed ~lb fault p =
  let res =
    Dia_sim.Dgreedy_protocol.run
      ~fault:(Dia_sim.Fault.instantiate ~seed fault)
      p
  in
  let f = res.Dia_sim.Dgreedy_protocol.faults in
  Printf.printf
    "protocol under faults (%s):\n\
    \  D = %.2f ms (normalized %.3f), %d modifications, %d messages, stalled: %b\n\
    \  dropped=%d duplicated=%d retransmissions=%d give-ups=%d regenerations=%d failovers=%d\n"
    (Dia_sim.Fault.to_string fault)
    res.Dia_sim.Dgreedy_protocol.objective
    (res.Dia_sim.Dgreedy_protocol.objective /. lb)
    res.Dia_sim.Dgreedy_protocol.modifications
    res.Dia_sim.Dgreedy_protocol.messages res.Dia_sim.Dgreedy_protocol.stalled
    f.Dia_sim.Dgreedy_protocol.dropped f.Dia_sim.Dgreedy_protocol.duplicated
    f.Dia_sim.Dgreedy_protocol.retransmissions
    f.Dia_sim.Dgreedy_protocol.give_ups
    f.Dia_sim.Dgreedy_protocol.regenerations
    f.Dia_sim.Dgreedy_protocol.failovers

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 1 && j <= Pool.max_jobs -> Ok j
    | _ ->
        Error (`Msg (Printf.sprintf "invalid value %S, expected an integer in 1..%d" s Pool.max_jobs))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(value & opt (some jobs_conv) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:(Printf.sprintf
                   "Worker domains: $(b,experiment) fig7/fig8 fan their sweeps \
                    out over them, $(b,assign) runs its lower bound on them, and \
                    $(b,oracle) fans its seeds out over them. $(docv) is in 1..%d \
                    (default: the $(b,DIA_JOBS) environment variable, then 1). \
                    Results are identical for any value."
                   Pool.max_jobs))

let resolve_jobs = function Some j -> j | None -> Pool.default_jobs ()

let load_matrix ~matrix_file ~dataset ~profile ~seed =
  match matrix_file with
  | Some path -> Dia_latency.Loader.load path
  | None -> Config.load_dataset ~seed dataset profile

(* dia experiment *)

let experiment_cmd =
  let figure_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FIGURE"
             ~doc:"One of fig7, fig8, fig9, fig10, all, or load-sweep (D vs \
                   D_load as utilization ramps; not a paper figure).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Also write the figure's data series as CSV to $(docv).")
  in
  let run figure dataset profile csv_path jobs fault =
    let jobs = resolve_jobs jobs in
    let faulty = not (Dia_sim.Fault.equal fault Dia_sim.Fault.reliable) in
    let fig9_fault_appendix () =
      (* Fig. 9 studies Distributed-Greedy convergence; the fault
         extension replays it protocol-level on a capped instance so the
         run stays interactive at any profile. *)
      let matrix = Dia_latency.Synthetic.internet_like ~seed:0 150 in
      let servers = Placement.place Placement.Random_placement ~seed:0 matrix ~k:12 in
      let p = Problem.all_nodes_clients matrix ~servers in
      let lb = Lower_bound.compute p in
      print_endline "fig9 fault extension (capped 150-node instance, 12 servers):";
      protocol_under_faults ~seed:0 ~lb fault p
    in
    let dispatch = function
      | "fig7" ->
          let r = Dia_experiments.Fig7.run ~dataset ~profile ~jobs () in
          Ok (Dia_experiments.Fig7.render r, Dia_experiments.Fig7.csv r)
      | "fig8" ->
          let r = Dia_experiments.Fig8.run ~dataset ~profile ~jobs () in
          Ok (Dia_experiments.Fig8.render r, Dia_experiments.Fig8.csv r)
      | "fig9" ->
          let r = Dia_experiments.Fig9.run ~dataset ~profile () in
          Ok (Dia_experiments.Fig9.render r, Dia_experiments.Fig9.csv r)
      | "fig10" ->
          let r = Dia_experiments.Fig10.run ~dataset ~profile () in
          Ok (Dia_experiments.Fig10.render r, Dia_experiments.Fig10.csv r)
      | "load-sweep" ->
          let r = Dia_experiments.Load_sweep.run ~dataset ~profile () in
          Ok (Dia_experiments.Load_sweep.render r, Dia_experiments.Load_sweep.csv r)
      | other -> Error (Printf.sprintf "unknown figure %S" other)
    in
    let figures =
      if figure = "all" then [ "fig7"; "fig8"; "fig9"; "fig10" ] else [ figure ]
    in
    if faulty && figure <> "fig9" then
      `Error
        ( false,
          "--fault applies to fig9 only (the Distributed-Greedy figure has a \
           protocol-level fault extension)" )
    else
      let rec render = function
        | [] ->
            if faulty then fig9_fault_appendix ();
            `Ok ()
        | f :: rest -> (
            match dispatch f with
            | Ok (text, csv) ->
                print_endline text;
                (match csv_path with
                | Some path when rest = [] && figure <> "all" ->
                    let oc = open_out path in
                    output_string oc csv;
                    close_out oc;
                    Printf.printf "(series written to %s)\n" path
                | _ -> ());
                render rest
            | Error message -> `Error (false, message))
      in
      render figures
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's figures.")
    Term.(ret (const run $ figure_arg $ dataset_arg $ profile_arg $ csv_arg
               $ jobs_arg $ fault_arg))

(* dia assign *)

let assign_cmd =
  let servers_arg =
    Arg.(value & opt int 40 & info [ "k"; "servers" ] ~docv:"K" ~doc:"Number of servers.")
  in
  let placement_arg =
    Arg.(value & opt strategy_conv Placement.Random_placement
         & info [ "placement" ] ~docv:"STRATEGY" ~doc:"Server placement strategy.")
  in
  let algorithm_arg =
    Arg.(value & opt (some algorithm_conv) None
         & info [ "algorithm" ] ~docv:"ALGO"
             ~doc:"Run only this algorithm (default: all four heuristics).")
  in
  let capacity_arg =
    Arg.(value & opt (some int) None
         & info [ "capacity" ] ~docv:"N" ~doc:"Per-server client capacity.")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Also print the worst interaction paths and per-server contributions for each algorithm.")
  in
  let coreset_eps_arg =
    Arg.(value & opt (some float) None
         & info [ "coreset-eps" ] ~docv:"E"
             ~doc:"Solve on a weighted coreset at resolution $(docv) instead \
                   of the full client set: clients sharing a Vivaldi grid \
                   cell collapse into one representative, the algorithm runs \
                   on the reduced instance, and the expanded assignment is \
                   reported next to the certified additive bound \
                   |D_reduced - D_full| <= 2r. Requires an uncapacitated \
                   instance; $(docv)=0 dedups co-located clients exactly.")
  in
  let delay_arg =
    Arg.(value & opt (some delay_conv) None
         & info [ "delay" ] ~docv:"SPEC"
             ~doc:"Load-latency model: $(b,constant:C), $(b,linear:BASE,COEFF) \
                   or $(b,mm1:MU) (M/M/1-style 1/(mu - load), saturating \
                   smoothly past mu). Runs the load-aware variants of \
                   Nearest, Greedy and Distributed-Greedy and adds \
                   $(b,D_load) columns: each hop pays its server's \
                   load-dependent delay on top of the network path.")
  in
  let run dataset profile matrix_file seed k placement algorithm capacity explain jobs fault coreset_eps delay =
    let matrix = load_matrix ~matrix_file ~dataset ~profile ~seed in
    let faulty = not (Dia_sim.Fault.equal fault Dia_sim.Fault.reliable) in
    if faulty && Dia_latency.Matrix.dim matrix > 600 then
      `Error
        ( false,
          "--fault runs the message-level protocol, which is impractical at \
           this instance size; use --profile quick (or a smaller --matrix)" )
    else if coreset_eps <> None && capacity <> None then
      `Error
        ( false,
          "--coreset-eps requires an uncapacitated instance (a coreset point \
           stands for a whole client population)" )
    else if delay <> None && coreset_eps <> None then
      `Error
        ( false,
          "--delay cannot be combined with --coreset-eps (a coreset point \
           hides the true per-server load from the delay model)" )
    else
    let servers = Placement.place placement ~seed matrix ~k in
    let p = Problem.all_nodes_clients ?capacity matrix ~servers in
    let lb =
      Pool.with_pool ~jobs:(resolve_jobs jobs) (fun pool -> Lower_bound.compute ~pool p)
    in
    let algorithms =
      match algorithm with Some a -> [ a ] | None -> Algorithm.heuristics
    in
    match coreset_eps with
    | Some eps ->
        let module Coreset = Dia_coreset.Coreset in
        let cs =
          Coreset.build ~seed ~eps matrix ~servers ~clients:(Problem.clients p)
        in
        let reduced = Coreset.reduced cs in
        Printf.printf
          "instance: %d clients, %d servers (%s placement)\n\
           coreset:  %d points at eps %g (radius %.2f ms, additive bound \
           %.2f ms)\n\
           lower bound: %.2f ms\n"
          (Problem.num_clients p) (Problem.num_servers p)
          (Placement.strategy_name placement)
          (Coreset.points cs) eps (Coreset.radius cs) (Coreset.bound cs) lb;
        let table =
          Dia_stats.Table.make
            ~columns:
              [ "algorithm"; "D reduced"; "D full"; "|delta|"; "normalized" ]
        in
        List.iter
          (fun algorithm ->
            let a_red = Algorithm.run ~seed algorithm reduced in
            let d_red = Objective.max_interaction_path reduced a_red in
            let d_full =
              Objective.max_interaction_path p (Coreset.expand cs a_red)
            in
            Dia_stats.Table.add_row table
              [
                Algorithm.name algorithm;
                Printf.sprintf "%.2f" d_red;
                Printf.sprintf "%.2f" d_full;
                Printf.sprintf "%.2f" (Float.abs (d_full -. d_red));
                Printf.sprintf "%.3f" (d_full /. lb);
              ])
          algorithms;
        Dia_stats.Table.print table;
        `Ok ()
    | None ->
    let table =
      Dia_stats.Table.make
        ~columns:
          (match delay with
          | None ->
              [ "algorithm"; "D (ms)"; "normalized"; "max load"; "used servers" ]
          | Some _ ->
              [
                "algorithm"; "D (ms)"; "normalized"; "D_load (ms)";
                "D_load/LB_load"; "max load"; "used servers";
              ])
    in
    let explanations = Buffer.create 256 in
    List.iter
      (fun algorithm ->
        let a = Algorithm.run ~seed ?delay algorithm p in
        let d = Objective.max_interaction_path p a in
        let loads = Assignment.loads p a in
        let load_columns =
          match delay with
          | None -> []
          | Some dl ->
              let d_load = Objective.max_interaction_path ~delay:dl p a in
              let lb_load = lb +. (2. *. Dia_core.Delay.eval dl 1) in
              [
                Printf.sprintf "%.2f" d_load;
                Printf.sprintf "%.3f" (d_load /. lb_load);
              ]
        in
        Dia_stats.Table.add_row table
          ([
             Algorithm.name algorithm;
             Printf.sprintf "%.2f" d;
             Printf.sprintf "%.3f" (d /. lb);
           ]
          @ load_columns
          @ [
              string_of_int (Array.fold_left max 0 loads);
              string_of_int (Array.length (Assignment.used_servers p a));
            ]);
        if explain then begin
          Buffer.add_string explanations
            (Printf.sprintf "\n%s — worst interaction paths:\n" (Algorithm.name algorithm));
          List.iter
            (fun (path : Dia_core.Interaction.path) ->
              Buffer.add_string explanations
                (Printf.sprintf
                   "  client %d -[%.1f]-> server %d -[%.1f]-> server %d -[%.1f]-> client %d  (= %.1f ms)\n"
                   path.Dia_core.Interaction.from_client
                   path.Dia_core.Interaction.client_leg
                   path.Dia_core.Interaction.from_server
                   path.Dia_core.Interaction.server_leg
                   path.Dia_core.Interaction.to_server
                   path.Dia_core.Interaction.exit_leg
                   path.Dia_core.Interaction.to_client
                   path.Dia_core.Interaction.length))
            (Dia_core.Interaction.worst_pairs ~count:3 p a);
          let client_legs, server_leg = Dia_core.Interaction.breakdown p a in
          Buffer.add_string explanations
            (Printf.sprintf
               "  worst path split: %.1f ms access legs + %.1f ms inter-server leg\n"
               client_legs server_leg)
        end)
      algorithms;
    Printf.printf
      "instance: %d clients, %d servers (%s placement), capacity %s\nlower bound: %.2f ms\n"
      (Problem.num_clients p) (Problem.num_servers p)
      (Placement.strategy_name placement)
      (match capacity with None -> "unlimited" | Some c -> string_of_int c)
      lb;
    (match delay with
    | None -> ()
    | Some dl ->
        Printf.printf "delay model: %s (LB_load = %.2f ms)\n"
          (Dia_core.Delay.to_string dl)
          (lb +. (2. *. Dia_core.Delay.eval dl 1)));
    Dia_stats.Table.print table;
    print_string (Buffer.contents explanations);
    if faulty then protocol_under_faults ~seed ~lb fault p;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "assign" ~doc:"Assign clients to servers on a data set and report interactivity.")
    Term.(ret (const run $ dataset_arg $ profile_arg $ matrix_file_arg $ seed_arg
               $ servers_arg $ placement_arg $ algorithm_arg $ capacity_arg
               $ explain_arg $ jobs_arg $ fault_arg $ coreset_eps_arg
               $ delay_arg))

(* dia dataset *)

let dataset_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Output file (dense matrix format).")
  in
  let nodes_arg =
    Arg.(value & opt (some int) None
         & info [ "nodes" ] ~docv:"N" ~doc:"Generate an N-node matrix instead of full size.")
  in
  let run dataset seed nodes out =
    let matrix =
      match nodes with
      | Some n -> Dia_latency.Synthetic.internet_like ~seed n
      | None -> (
          match dataset with
          | Config.Meridian_like -> Dia_latency.Synthetic.meridian_like ~seed ()
          | Config.Mit_like -> Dia_latency.Synthetic.mit_like ~seed ())
    in
    Dia_latency.Loader.save_matrix out matrix;
    let stats = Dia_latency.Metric.triangle_violations matrix in
    Printf.printf
      "wrote %d-node matrix to %s (median-ish mean %.1f ms, max %.1f ms, triangle violations %.1f%%)\n"
      (Dia_latency.Matrix.dim matrix) out
      (Dia_latency.Matrix.mean_entry matrix)
      (Dia_latency.Matrix.max_entry matrix)
      (100. *. stats.Dia_latency.Metric.violation_fraction)
  in
  Cmd.v
    (Cmd.info "dataset" ~doc:"Generate a synthetic Internet-like latency matrix.")
    Term.(const run $ dataset_arg $ seed_arg $ nodes_arg $ out_arg)

(* dia simulate *)

let simulate_cmd =
  let nodes_arg =
    Arg.(value & opt int 60 & info [ "nodes" ] ~docv:"N" ~doc:"Network size.")
  in
  let servers_arg =
    Arg.(value & opt int 6 & info [ "k"; "servers" ] ~docv:"K" ~doc:"Number of servers.")
  in
  let algorithm_arg =
    Arg.(value & opt algorithm_conv Algorithm.Greedy
         & info [ "algorithm" ] ~docv:"ALGO" ~doc:"Assignment algorithm.")
  in
  let rounds_arg =
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"R" ~doc:"Workload rounds.")
  in
  let delta_scale_arg =
    Arg.(value & opt float 1.0
         & info [ "delta-scale" ] ~docv:"X"
             ~doc:"Scale the execution lag relative to the minimum D(A); below 1.0 breaches appear.")
  in
  let run nodes k algorithm rounds delta_scale seed =
    let matrix = Dia_latency.Synthetic.internet_like ~seed nodes in
    let servers = Placement.place Placement.K_center_b matrix ~k in
    let p = Problem.all_nodes_clients matrix ~servers in
    let a = Algorithm.run ~seed algorithm p in
    let clock = Clock.synthesize p a in
    let clock = { clock with Clock.delta = clock.Clock.delta *. delta_scale } in
    let workload =
      Dia_sim.Workload.rounds ~clients:(Problem.num_clients p) ~rounds ~period:200.
    in
    let report = Dia_sim.Protocol.run p a clock workload in
    let verdict = Dia_sim.Checker.analyze report in
    Printf.printf
      "simulated %d ops x %d servers x %d clients (delta = %.2f ms, %d messages)\n"
      (List.length report.Dia_sim.Protocol.operations)
      (Problem.num_servers p) (Problem.num_clients p)
      clock.Clock.delta report.Dia_sim.Protocol.messages;
    Printf.printf "consistent: %b  fair: %b\n" verdict.Dia_sim.Checker.consistent
      verdict.Dia_sim.Checker.fair;
    Printf.printf "late executions: %d  late client updates: %d  breach rate: %.2f%%\n"
      verdict.Dia_sim.Checker.late_executions
      verdict.Dia_sim.Checker.late_visibilities
      (100. *. Dia_sim.Checker.breach_rate report);
    Printf.printf "interaction time: mean %.2f ms, max %.2f ms, uniform: %b\n"
      verdict.Dia_sim.Checker.mean_interaction_time
      verdict.Dia_sim.Checker.max_interaction_time
      verdict.Dia_sim.Checker.uniform_interaction
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the message-level DIA protocol simulation.")
    Term.(const run $ nodes_arg $ servers_arg $ algorithm_arg $ rounds_arg
          $ delta_scale_arg $ seed_arg)

(* dia soak *)

let soak_cmd =
  let module Soak = Dia_runtime.Soak in
  let module Checkpoint = Dia_runtime.Checkpoint in
  let d = Soak.default_scenario and dc = Soak.default_config in
  let nodes_arg =
    Arg.(value & opt int d.Soak.nodes
         & info [ "nodes" ] ~docv:"N" ~doc:"Network size.")
  in
  let servers_arg =
    Arg.(value & opt int d.Soak.servers
         & info [ "k"; "servers" ] ~docv:"K" ~doc:"Number of servers.")
  in
  let capacity_arg =
    Arg.(value & opt (some int) d.Soak.capacity
         & info [ "capacity" ] ~docv:"N" ~doc:"Per-server client capacity.")
  in
  let horizon_arg =
    Arg.(value & opt float d.Soak.horizon
         & info [ "horizon" ] ~docv:"T" ~doc:"Trace length in time units.")
  in
  let rate_arg =
    Arg.(value & opt float d.Soak.join_rate
         & info [ "rate" ] ~docv:"R" ~doc:"Poisson join rate per time unit.")
  in
  let lifetime_arg =
    Arg.(value & opt float d.Soak.mean_lifetime
         & info [ "lifetime" ] ~docv:"T" ~doc:"Mean exponential session lifetime.")
  in
  let drift_period_arg =
    Arg.(value & opt float d.Soak.drift_period
         & info [ "drift-period" ] ~docv:"T"
             ~doc:"Latency-drift step period (0 disables drift).")
  in
  let drift_amplitude_arg =
    Arg.(value & opt float d.Soak.drift_amplitude
         & info [ "drift-amplitude" ] ~docv:"A"
             ~doc:"Drift factor spread in [0,1].")
  in
  let soak_fault_arg =
    Arg.(value & opt fault_conv d.Soak.fault
         & info [ "fault" ] ~docv:"SPEC"
             ~doc:"Fault plan: crash rules drive server crash/recovery in the \
                   trace and disk rules corrupt the state dir's writes; \
                   network rules have no effect on a soak. Default \
                   $(b,loss:0.1+crash:2@60~180); $(b,reliable) disables.")
  in
  let budget_arg =
    Arg.(value & opt int dc.Soak.budget
         & info [ "budget" ] ~docv:"M"
             ~doc:"Migration budget per repair epoch.")
  in
  let max_queue_arg =
    Arg.(value & opt int dc.Soak.max_queue
         & info [ "max-queue" ] ~docv:"N" ~doc:"Admission queue bound.")
  in
  let lb_every_arg =
    Arg.(value & opt int dc.Soak.lb_every
         & info [ "lb-every" ] ~docv:"N"
             ~doc:"Events between periodic lower-bound refreshes.")
  in
  let checkpoint_every_arg =
    Arg.(value & opt int dc.Soak.checkpoint_every
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Events between checkpoints (0 disables).")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Continue from $(b,--state-dir) instead of starting \
                   fresh; the final report is bit-identical to an \
                   uninterrupted run.")
  in
  let state_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Durable-recovery state directory: a write-ahead journal \
                   holding the run's history plus numbered checkpoint \
                   generations of its live state ($(b,ckpt.N)), all written \
                   through the storage fault injector (disk atoms in \
                   $(b,--fault) apply). With $(b,--resume), restore lands on \
                   the newest generation that verifies, rolling back over \
                   corrupt ones.")
  in
  let keep_arg =
    Arg.(value & opt int 3
         & info [ "keep" ] ~docv:"G"
             ~doc:"Checkpoint generations retained in $(b,--state-dir).")
  in
  let kill_event_arg =
    Arg.(value & opt (some int) None
         & info [ "kill-event" ] ~docv:"N"
             ~doc:"Stop (exit 137) right after processing trace event $(docv) \
                   — any event index, not just a checkpoint boundary. \
                   Resume from $(b,--state-dir) replays to a bit-identical \
                   report.")
  in
  let verify_recovery_arg =
    Arg.(value & flag
         & info [ "verify-recovery" ]
             ~doc:"Audit the whole durability story: run uninterrupted, \
                   re-run into $(b,--state-dir) with the plan's disk faults \
                   live and a kill at $(b,--kill-event), restore, resume, \
                   and assert the recovered report, event log and journal \
                   are byte-identical to the uninterrupted run. Exits \
                   non-zero on any divergence.")
  in
  let log_arg =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Write the structured event log to $(docv).")
  in
  let baseline_arg =
    Arg.(value & flag
         & info [ "baseline" ]
             ~doc:"Sample an offline Greedy re-solve at every lower-bound \
                   refresh (the competitive-ratio baseline stream).")
  in
  let clients_arg =
    Arg.(value & opt int d.Soak.clients
         & info [ "clients" ] ~docv:"N"
             ~doc:"Pre-populate $(docv) sessions before the trace starts \
                   (uniform random nodes from the seed). They bypass \
                   admission and the event log — the steady base load for \
                   million-client runs.")
  in
  let coreset_eps_arg =
    Arg.(value & opt (some float) d.Soak.coreset_eps
         & info [ "coreset-eps" ] ~docv:"E"
             ~doc:"Weighted mode: bucket sessions into coreset cells of \
                   resolution $(docv) on the Vivaldi embedding, so the \
                   session layer sees one member per occupied cell and \
                   steady-state per-event cost is independent of the client \
                   count. Requires an uncapacitated scenario; $(docv)=0 \
                   still dedups co-located sessions exactly.")
  in
  let soak_csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Write the objective trace (t,objective,ratio per \
                   lower-bound refresh) to $(docv) as CSV.")
  in
  let soak_delay_arg =
    Arg.(value & opt (some delay_conv) d.Soak.delay
         & info [ "delay" ] ~docv:"SPEC"
             ~doc:"Load-latency model ($(b,constant:C), \
                   $(b,linear:BASE,COEFF) or $(b,mm1:MU)): the session \
                   places and repairs against the load-aware $(b,D_load) \
                   objective and the SLO watches $(b,D_load/LB_load). \
                   Incompatible with $(b,--coreset-eps).")
  in
  let run seed nodes servers capacity horizon rate lifetime drift_period
      drift_amplitude fault budget max_queue lb_every checkpoint_every resume state_dir keep kill_event
      verify_recovery log_path baseline clients
      coreset_eps delay csv_path =
    let scenario =
      {
        Soak.seed;
        nodes;
        servers;
        capacity;
        horizon;
        join_rate = rate;
        mean_lifetime = lifetime;
        drift_period;
        drift_amplitude;
        fault;
        clients;
        coreset_eps;
        delay;
      }
    in
    let config =
      {
        dc with
        Soak.budget;
        max_queue;
        lb_every;
        checkpoint_every;
        offline_baseline = baseline;
      }
    in
    let proceed resume_from =
      match
        Soak.run ?state_dir ~keep ?resume_from ?kill_at_event:kill_event scenario config
      with
      | Soak.Completed r ->
          print_string (Soak.render r);
          (* Timing is wall clock — parenthesised so determinism checks
             (which strip '(' lines) ignore it. Printed only for the
             at-scale modes where it is the point. *)
          if r.Soak.weighted || clients > 0 then
            Printf.printf
              "(prepopulated %d sessions in %.3fs; %d trace events in %.3fs = \
               %.2f us/event)\n"
              clients r.Soak.prepop_seconds r.Soak.events r.Soak.loop_seconds
              (1e6 *. r.Soak.loop_seconds /. float_of_int (max 1 r.Soak.events));
          (match csv_path with
          | Some path ->
              let oc = open_out path in
              output_string oc (Soak.csv r);
              close_out oc;
              Printf.printf "(csv written to %s)\n" path
          | None -> ());
          (match log_path with
          | Some path ->
              Dia_runtime.Event_log.save path r.Soak.log;
              Printf.printf "(event log written to %s)\n" path
          | None -> ());
          `Ok ()
      | Soak.Killed st ->
          Printf.printf "killed after checkpoint %d (event %d of the trace)%s\n"
            st.Checkpoint.counters.Checkpoint.checkpoints st.Checkpoint.cursor
            (match state_dir with
            | Some dir ->
                Printf.sprintf "; resume with: dia soak --resume --state-dir %s"
                  dir
            | None -> "");
          exit 137
    in
    (* Every path refuses invalid input the same way, and before it
       reads or writes a state dir. *)
    try
      Soak.validate ~keep ?kill_at_event:kill_event scenario config;
      if verify_recovery then
        match (state_dir, kill_event) with
        | Some dir, Some kill_at_event ->
            let v =
              Dia_runtime.Recovery.verify ~keep ~state_dir:dir ~kill_at_event
                scenario config
            in
            List.iter print_endline v.Dia_runtime.Recovery.lines;
            if v.Dia_runtime.Recovery.ok then begin
              print_endline "recovery verified: bit-identical to the uninterrupted run";
              `Ok ()
            end
            else `Error (false, "recovery verification failed")
        | _ ->
            `Error
              (false, "--verify-recovery requires --state-dir DIR and --kill-event N")
      else if resume then
        match state_dir with
        | Some dir -> (
            let r =
              Dia_runtime.Recovery.restore_for scenario config ~dir
            in
            List.iter
              (fun (g, m) -> Printf.printf "(skipping corrupt ckpt.%d: %s)\n" g m)
              r.Dia_runtime.Recovery.skipped;
            match r.Dia_runtime.Recovery.generation with
            | Some (g, st) ->
                Printf.printf
                  "(restored generation ckpt.%d at event %d; %d journal records \
                   cover the tail)\n"
                  g st.Checkpoint.cursor r.Dia_runtime.Recovery.replayed;
                proceed (Some st)
            | None ->
                print_endline
                  "(no verifying checkpoint generation; restarting from scratch)";
                proceed None)
        | None -> `Error (false, "--resume requires --state-dir DIR")
      else proceed None
    with Invalid_argument m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run the self-healing control plane through a chaos trace: \
             Poisson churn, latency drift and crash/recovery schedules, \
             with SLO-guarded bounded repair, admission control, and \
             durable checkpoint/restore. Deterministic: a kill at any \
             event resumes from $(b,--state-dir) to a bit-identical \
             report and event log.")
    Term.(ret (const run $ seed_arg $ nodes_arg $ servers_arg $ capacity_arg
               $ horizon_arg $ rate_arg $ lifetime_arg $ drift_period_arg
               $ drift_amplitude_arg $ soak_fault_arg $ budget_arg
               $ max_queue_arg $ lb_every_arg $ checkpoint_every_arg $ resume_arg
               $ state_dir_arg $ keep_arg $ kill_event_arg
               $ verify_recovery_arg $ log_arg $ baseline_arg $ clients_arg
               $ coreset_eps_arg $ soak_delay_arg $ soak_csv_arg))

(* dia competitive *)

let competitive_cmd =
  let module Soak = Dia_runtime.Soak in
  let module Competitive = Dia_runtime.Competitive in
  let d = Soak.default_scenario and dc = Soak.default_config in
  let nodes_arg =
    Arg.(value & opt int d.Soak.nodes
         & info [ "nodes" ] ~docv:"N" ~doc:"Network size.")
  in
  let servers_arg =
    Arg.(value & opt int d.Soak.servers
         & info [ "k"; "servers" ] ~docv:"K" ~doc:"Number of servers.")
  in
  let capacity_arg =
    Arg.(value & opt (some int) d.Soak.capacity
         & info [ "capacity" ] ~docv:"N" ~doc:"Per-server client capacity.")
  in
  let horizon_arg =
    Arg.(value & opt float d.Soak.horizon
         & info [ "horizon" ] ~docv:"T" ~doc:"Trace length in time units.")
  in
  let fault_arg =
    Arg.(value & opt fault_conv d.Soak.fault
         & info [ "fault" ] ~docv:"SPEC"
             ~doc:"Fault plan each trace replays (see $(b,dia soak)).")
  in
  let traces_arg =
    Arg.(value & opt int 20
         & info [ "traces" ] ~docv:"N"
             ~doc:"Seeded trace replays (scenario seeds SEED..SEED+N-1).")
  in
  let bound_arg =
    Arg.(value & opt float Competitive.default_bound
         & info [ "bound" ] ~docv:"B"
             ~doc:"Competitive-ratio bound the worst observed online/offline \
                   quotient must stay within.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Write the per-trace ratio table to $(docv) as CSV.")
  in
  let run seed nodes servers capacity horizon fault traces bound csv =
    let scenario = { d with Soak.seed; nodes; servers; capacity; horizon; fault } in
    match Competitive.run ~traces ~bound scenario dc with
    | exception Invalid_argument m -> `Error (false, m)
    | summary ->
        print_string (Competitive.render summary);
        (match csv with
        | Some path ->
            let oc = open_out path in
            output_string oc (Competitive.to_csv summary);
            close_out oc;
            Printf.printf "(per-trace CSV written to %s)\n" path
        | None -> ());
        if summary.Competitive.ok then `Ok () else exit 1
  in
  Cmd.v
    (Cmd.info "competitive"
       ~doc:"Empirical competitive-ratio harness: replay seeded churn/crash \
             traces comparing the online sticky policy (greedy joins, greedy \
             re-homing on crashes, budget-bounded repair) against an offline \
             Greedy re-solve at every lower-bound refresh, and judge the \
             worst observed ratio against the documented bound. Exits 1 on \
             violation.")
    Term.(ret (const run $ seed_arg $ nodes_arg $ servers_arg $ capacity_arg
               $ horizon_arg $ fault_arg $ traces_arg $ bound_arg $ csv_arg))

(* dia vivaldi *)

let vivaldi_cmd =
  let in_arg =
    Arg.(required & opt (some string) None
         & info [ "in" ] ~docv:"FILE" ~doc:"Input latency data (dense or triple format).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the completed matrix here (missing entries filled with coordinate predictions instead of discarding nodes).")
  in
  let rounds_arg =
    Arg.(value & opt int 60 & info [ "rounds" ] ~docv:"N" ~doc:"Embedding iterations.")
  in
  let run input output rounds seed =
    let raw =
      try Dia_latency.Loader.parse_matrix input
      with Failure _ -> Dia_latency.Loader.parse_triples input
    in
    let embedding = Dia_latency.Vivaldi.embed_raw ~seed ~rounds raw in
    let survivors, discarded_matrix = Dia_latency.Loader.complete_subset raw in
    Printf.printf "embedded %d nodes with Vivaldi (%d rounds)\n"
      (Dia_latency.Vivaldi.nodes embedding) rounds;
    Printf.printf
      "discarding-based cleanup would keep %d/%d nodes; completion keeps all\n"
      (Array.length survivors) raw.Dia_latency.Loader.nodes;
    let err =
      Dia_latency.Vivaldi.median_relative_error embedding discarded_matrix
    in
    Printf.printf "median relative prediction error on measured pairs: %.1f%%\n"
      (100. *. err);
    match output with
    | None -> ()
    | Some path ->
        let completed = Dia_latency.Vivaldi.complete ~seed ~rounds raw in
        Dia_latency.Loader.save_matrix path completed;
        Printf.printf "wrote completed %d-node matrix to %s\n"
          (Dia_latency.Matrix.dim completed) path
  in
  Cmd.v
    (Cmd.info "vivaldi"
       ~doc:"Embed a latency data set in Vivaldi coordinates; optionally complete missing entries.")
    Term.(const run $ in_arg $ out_arg $ rounds_arg $ seed_arg)

(* dia topology *)

let topology_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Output matrix file.")
  in
  let run out seed =
    let matrix = Dia_latency.Topology.latency_matrix ~seed () in
    Dia_latency.Loader.save_matrix out matrix;
    Printf.printf
      "wrote %d-node transit-stub matrix to %s (routed shortest paths; mean %.1f ms, max %.1f ms)\n"
      (Dia_latency.Matrix.dim matrix) out
      (Dia_latency.Matrix.mean_entry matrix)
      (Dia_latency.Matrix.max_entry matrix)
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Generate a transit-stub topology and its routed latency matrix.")
    Term.(const run $ out_arg $ seed_arg)

(* dia npc *)

let npc_cmd =
  let run () =
    let sc =
      Dia_setcover.Setcover.make ~universe:4 ~subsets:[| [ 0 ]; [ 1 ]; [ 2; 3 ] |]
    in
    print_endline "Set cover instance (the paper's Fig. 3):";
    print_endline "  P = {p1, p2, p3, p4}, Q1 = {p1}, Q2 = {p2}, Q3 = {p3, p4}";
    let optimal = Dia_setcover.Setcover.optimal sc in
    Printf.printf "  minimum cover size: %d\n" (List.length optimal);
    List.iter
      (fun k ->
        let r = Dia_setcover.Reduction.build sc ~k in
        let p = Dia_setcover.Reduction.problem r in
        let d = Dia_core.Brute_force.optimal_value p in
        Printf.printf
          "  K = %d: reduction instance has %d clients, %d servers; optimal D = %.0f (%s 3) => cover of size <= %d %s\n"
          k (Problem.num_clients p) (Problem.num_servers p) d
          (if d <= 3. then "<=" else ">")
          k
          (if d <= 3. then "EXISTS" else "does NOT exist"))
      [ 1; 2; 3 ];
    print_endline "  (equivalence verified in both directions; see test/test_reduction.ml)"
  in
  Cmd.v
    (Cmd.info "npc" ~doc:"Demonstrate the NP-completeness reduction on the paper's example.")
    Term.(const run $ const ())

(* dia oracle *)

let oracle_cmd =
  let count_arg =
    Arg.(value & opt int 2000
         & info [ "count" ] ~docv:"N"
             ~doc:"Number of generated instances to check.")
  in
  let run seed count jobs =
    let report = Dia_oracle.Oracle.run ~jobs:(resolve_jobs jobs) ~count ~seed () in
    print_string (Dia_oracle.Oracle.render report);
    if not (Dia_oracle.Oracle.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:"Run the conformance harness: differential and metamorphic checks \
             of every assignment algorithm and the simulation stack on \
             seed-generated instances. Instance $(i,N) is a pure function of \
             its absolute seed, so any reported failure replays exactly with \
             $(b,--seed N --count 1), at any $(b,--jobs).")
    Term.(const run $ seed_arg $ count_arg $ jobs_arg)

let main_cmd =
  let doc = "Client assignment for continuous distributed interactive applications" in
  let info = Cmd.info "dia" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ experiment_cmd; assign_cmd; dataset_cmd; simulate_cmd; soak_cmd;
      competitive_cmd; vivaldi_cmd; topology_cmd; npc_cmd; oracle_cmd ]

let () = exit (Cmd.eval main_cmd)
