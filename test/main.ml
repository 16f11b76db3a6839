(* The qcheck suites draw from a PRNG seeded by the QCHECK_SEED
   environment variable (qcheck-alcotest reads it lazily, once). To make
   failures reproducible the runner resolves the seed itself — from
   DIA_QCHECK_SEED (ours), then QCHECK_SEED (qcheck's own), then fresh
   entropy — exports it, and prints it when any test fails. *)
let resolve_seed () =
  let parse name value =
    match int_of_string_opt (String.trim value) with
    | Some seed -> seed
    | None -> failwith (Printf.sprintf "%s must be an integer, got %S" name value)
  in
  match Sys.getenv_opt "DIA_QCHECK_SEED" with
  | Some value -> parse "DIA_QCHECK_SEED" value
  | None -> (
      match Sys.getenv_opt "QCHECK_SEED" with
      | Some value -> parse "QCHECK_SEED" value
      | None ->
          Random.self_init ();
          Random.int 1_000_000_000)

let () =
  let seed = resolve_seed () in
  Unix.putenv "QCHECK_SEED" (string_of_int seed);
  let tests =
    [
      ("matrix", Test_matrix.suite);
      ("graph-paths", Test_graph_paths.suite);
      ("metric", Test_metric.suite);
      ("synthetic", Test_synthetic.suite);
      ("loader", Test_loader.suite);
      ("jitter", Test_jitter.suite);
      ("vivaldi", Test_vivaldi.suite);
      ("topology", Test_topology.suite);
      ("placement", Test_placement.suite);
      ("problem", Test_problem.suite);
      ("objective", Test_objective.suite);
      ("delay", Test_delay.suite);
      ("lower-bound", Test_lower_bound.suite);
      ("algorithms", Test_algorithms.suite);
      ("brute-force", Test_brute_force.suite);
      ("clock", Test_clock.suite);
      ("distributed-greedy", Test_distributed_greedy.suite);
      ("dynamic", Test_dynamic.suite);
      ("local-search", Test_local_search.suite);
      ("zone-based", Test_zone_based.suite);
      ("interaction", Test_interaction.suite);
      ("properties", Test_properties.suite);
      ("engine", Test_engine.suite);
      ("network", Test_network.suite);
      ("workload", Test_workload.suite);
      ("protocol", Test_protocol.suite);
      ("setcover", Test_setcover.suite);
      ("reduction", Test_reduction.suite);
      ("stats", Test_stats.suite);
      ("experiments", Test_experiments.suite);
      ("state", Test_state.suite);
      ("dgreedy-protocol", Test_dgreedy_protocol.suite);
      ("fault", Test_fault.suite);
      ("repair", Test_repair.suite);
      ("bucket", Test_bucket.suite);
      ("parallel", Test_parallel.suite);
      ("runtime", Test_runtime.suite);
      ("durability", Test_durability.suite);
      ("coreset", Test_coreset.suite);
      ("substrate", Test_substrate.suite);
      ("golden", Test_golden.suite);
      ("fig7-golden", Test_fig7_golden.suite);
      ("soak-golden", Test_soak_golden.suite);
    ]
  in
  try Alcotest.run ~and_exit:false "dia" tests
  with exn ->
    Printf.eprintf
      "\nproperty tests ran with qcheck seed %d — rerun with DIA_QCHECK_SEED=%d to reproduce\n"
      seed seed;
    raise exn
