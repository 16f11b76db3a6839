module Pool = Dia_parallel.Pool
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Algorithm = Dia_core.Algorithm

type report = {
  base_seed : int;
  instances : int;
  checks : int;
  failures : (int * string) list;
  brute_checked : int;
  sim_checked : int;
  transport_checked : int;
  mean_normalized : (string * float) list;
  normalized_instances : int;
  greedy_monotonic_violations : int;
  greedy_monotonic_total : int;
  load_greedy_losses : int;
}

(* Relative slack on the aggregate mean ordering: the relations are
   statistical, not per-instance theorems. *)
let aggregate_slack = 0.01
let aggregate_min_sample = 100

let pool_identity_checks pool ~seed =
  let p = Gen.instantiate (Gen.descriptor_of_seed seed) in
  let start = Algorithm.run Algorithm.Nearest_server p in
  let params = Differential.conformance_annealing in
  let a_seq, d_seq = Local_search.anneal_restarts ~params ~restarts:3 p start in
  let a_pool, d_pool =
    Local_search.anneal_restarts ~pool ~params ~restarts:3 p start
  in
  if Assignment.equal a_seq a_pool && d_seq = d_pool then []
  else
    [
      Printf.sprintf
        "pool identity: anneal_restarts diverged (%.17g on the pool, %.17g sequentially)"
        d_pool d_seq;
    ]

(* Self-healing control plane: a soak run killed at a checkpoint,
   restored from its state dir (newest generation plus the history its
   journal holds) and resumed into the same dir must produce a report
   and event log bit-identical to the uninterrupted run. *)
let soak_determinism_checks ~seed =
  let module Soak = Dia_runtime.Soak in
  let module Recovery = Dia_runtime.Recovery in
  let module Event_log = Dia_runtime.Event_log in
  let scenario =
    { Soak.default_scenario with Soak.seed; nodes = 50; servers = 4; horizon = 80. }
  in
  let config = { Soak.default_config with Soak.checkpoint_every = 25 } in
  let state_dir = Filename.temp_dir "dia_oracle_soak" "" in
  let failures =
    match Soak.run scenario config with
    | Soak.Killed _ -> [ "soak determinism: uninterrupted run reported Killed" ]
    | Soak.Completed base -> (
        (* Killed right after the first checkpoint, at event 24. *)
        match Soak.run ~state_dir ~kill_at_event:24 scenario config with
        | Soak.Completed _ ->
            [ "soak determinism: killed run completed without stopping" ]
        | Soak.Killed _ -> (
            let r = Recovery.restore ~dir:state_dir ~digest:(Soak.digest scenario config) in
            match r.Recovery.generation with
            | None ->
                [ "soak determinism: no checkpoint generation restored" ]
            | Some (_, st) -> (
                match Soak.run ~state_dir ~resume_from:st scenario config with
                | Soak.Killed _ -> [ "soak determinism: resumed run reported Killed" ]
                | Soak.Completed resumed ->
                    List.filter_map
                      (fun (same, what) ->
                        if same then None
                        else
                          Some
                            (Printf.sprintf
                               "soak determinism: resumed %s differs from the \
                                uninterrupted run"
                               what))
                      [
                        (Soak.render resumed = Soak.render base, "report");
                        ( Event_log.render resumed.Soak.log
                          = Event_log.render base.Soak.log,
                          "event log" );
                      ])))
  in
  Array.iter (fun f -> Sys.remove (Filename.concat state_dir f)) (Sys.readdir state_dir);
  Sys.rmdir state_dir;
  failures

let aggregate_checks ~normalized_instances means =
  if normalized_instances < aggregate_min_sample then []
  else begin
    let mean k = List.assoc k means in
    let check label a b =
      if mean a <= mean b *. (1. +. aggregate_slack) then None
      else
        Some
          (Printf.sprintf
             "aggregate dominance: mean D/LB of %s (%.4f) exceeds %s (%.4f)"
             label (mean a) b (mean b))
    in
    List.filter_map Fun.id
      [
        check "greedy" "greedy" "nearest";
        check "lfb" "lfb" "nearest";
        check "greedy" "greedy" "lfb";
        check "dgreedy" "dgreedy" "nearest";
      ]
  end

let run ?jobs ?(count = 200) ~seed () =
  if count < 1 then invalid_arg "Oracle.run: count must be >= 1";
  Pool.with_pool ?jobs (fun pool ->
      let outcomes =
        Pool.run_seeds pool ~seeds:count (fun i ->
            Differential.check_instance ~seed:(seed + i))
      in
      let checks = ref 0
      and failures = ref []
      and brute = ref 0
      and sim = ref 0
      and transport = ref 0
      and mono_bad = ref 0
      and mono_total = ref 0
      and load_losses = ref 0
      and norm_n = ref 0 in
      let sums = List.map (fun k -> (k, ref 0.)) Differential.algo_keys in
      Array.iter
        (fun (o : Differential.outcome) ->
          checks := !checks + o.Differential.checks;
          List.iter
            (fun m -> failures := (o.Differential.seed, m) :: !failures)
            o.Differential.failures;
          if o.Differential.opt <> None then incr brute;
          if o.Differential.sim_checked then incr sim;
          if o.Differential.transport_checked then incr transport;
          (match o.Differential.greedy_monotonic with
          | Some ok ->
              incr mono_total;
              if not ok then incr mono_bad
          | None -> ());
          if not o.Differential.load_greedy_better then incr load_losses;
          if o.Differential.lb > 1e-9 && not o.Differential.capacitated then begin
            incr norm_n;
            List.iter
              (fun (k, v) ->
                let sum = List.assoc k sums in
                sum := !sum +. (v /. o.Differential.lb))
              o.Differential.values
          end)
        outcomes;
      let mean_normalized =
        List.map
          (fun (k, sum) ->
            (k, if !norm_n = 0 then Float.nan else !sum /. float_of_int !norm_n))
          sums
      in
      let suite_failures =
        pool_identity_checks pool ~seed
        @ soak_determinism_checks ~seed
        @ aggregate_checks ~normalized_instances:!norm_n mean_normalized
      in
      List.iter (fun m -> failures := (seed, m) :: !failures) suite_failures;
      {
        base_seed = seed;
        instances = count;
        checks = !checks + 3 + (if !norm_n >= aggregate_min_sample then 4 else 0);
        failures = List.rev !failures;
        brute_checked = !brute;
        sim_checked = !sim;
        transport_checked = !transport;
        mean_normalized;
        normalized_instances = !norm_n;
        greedy_monotonic_violations = !mono_bad;
        greedy_monotonic_total = !mono_total;
        load_greedy_losses = !load_losses;
      })

let ok r = r.failures = []

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "oracle: %d instances (seeds %d..%d), %d checks, %d against brute force, %d simulated, %d lossy-protocol\n"
       r.instances r.base_seed
       (r.base_seed + r.instances - 1)
       r.checks r.brute_checked r.sim_checked r.transport_checked);
  Buffer.add_string b
    (Printf.sprintf "mean D/LB over %d instances:" r.normalized_instances);
  List.iter
    (fun (k, m) -> Buffer.add_string b (Printf.sprintf " %s=%.3f" k m))
    r.mean_normalized;
  Buffer.add_char b '\n';
  if r.greedy_monotonic_total > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "diagnostic: adding a server worsened Greedy on %d/%d instances (not a theorem; not enforced)\n"
         r.greedy_monotonic_violations r.greedy_monotonic_total);
  Buffer.add_string b
    (Printf.sprintf
       "diagnostic: load-aware Greedy lost to load-blind Greedy on D_load on %d/%d instances (not a theorem; not enforced)\n"
       r.load_greedy_losses r.instances);
  (match r.failures with
  | [] -> Buffer.add_string b "all checks passed\n"
  | failures ->
      Buffer.add_string b
        (Printf.sprintf "%d FAILURE(S):\n" (List.length failures));
      List.iter
        (fun (seed, m) ->
          Buffer.add_string b
            (Printf.sprintf "  seed %d: %s\n    replay: oracle --seed %d --count 1\n"
               seed m seed))
        failures);
  Buffer.contents b
