module Matrix = Dia_latency.Matrix
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Algorithm = Dia_core.Algorithm
module Objective = Dia_core.Objective
module Lower_bound = Dia_core.Lower_bound
module Brute_force = Dia_core.Brute_force
module Delay = Dia_core.Delay
module Dg = Dia_core.Distributed_greedy
module Clock = Dia_core.Clock
module Workload = Dia_sim.Workload
module Dgreedy_protocol = Dia_sim.Dgreedy_protocol
module Fault = Dia_sim.Fault
module Kcenter = Dia_placement.Kcenter

let algo_keys =
  [
    "nearest"; "lfb"; "greedy"; "dgreedy"; "single"; "random"; "zone"; "hill";
    "anneal";
  ]

(* The default schedule (20k steps) is tuned for one-off experiment
   quality; at thousands of conformance instances it dominates the whole
   suite. The checks here are relational, not quality-sensitive. *)
let conformance_annealing =
  { Local_search.default_annealing with steps = 1_500 }

let nearest_start p = Algorithm.run Algorithm.Nearest_server p

let run_algo ~seed key p =
  match key with
  | "nearest" -> nearest_start p
  | "lfb" -> Algorithm.run Algorithm.Longest_first_batch p
  | "greedy" -> Algorithm.run Algorithm.Greedy p
  | "dgreedy" -> Dg.assign p
  | "single" -> Algorithm.run Algorithm.Single_server p
  | "random" -> Algorithm.run ~seed Algorithm.Random_assignment p
  | "zone" -> Zone_based.assign p
  | "hill" -> fst (Local_search.hill_climb p (nearest_start p))
  | "anneal" ->
      fst (Local_search.anneal ~params:conformance_annealing ~seed p
             (nearest_start p))
  | _ -> invalid_arg ("Differential.run_algo: unknown key " ^ key)

(* Which algorithms commute with the metamorphic transforms. Scaling
   preserves every comparison an algorithm makes (doubling is exact) and
   Random_assignment never consults distances at all, so everything but
   annealing is scale-stable (its temperature is in objective units).
   Relabeling is stricter: per-client argmin algorithms commute on
   tie-free instances, but Greedy, Zone-Based, Distributed-Greedy and
   hill climbing pick among equally-improving moves in index order and
   genuinely land in different local optima under permutation (measured:
   9-29% of tie-free instances each), and Random_assignment's seed
   stream maps indices directly. *)
let scale_stable = function "anneal" -> false | _ -> true
let relabel_stable = function
  | "nearest" | "lfb" | "single" -> true
  | _ -> false

type outcome = {
  seed : int;
  instance : string;
  capacitated : bool;
  checks : int;
  failures : string list;
  values : (string * float) list;
  lb : float;
  opt : float option;
  sim_checked : bool;
  transport_checked : bool;
  greedy_monotonic : bool option;
  load_greedy_better : bool;
}

let strictly_decreasing trace =
  let bad = ref (Ok ()) in
  for i = 1 to Array.length trace - 1 do
    if trace.(i) >= trace.(i - 1) && !bad = Ok () then
      bad :=
        Error
          (Printf.sprintf "trace.(%d) = %.9g >= trace.(%d) = %.9g" i trace.(i)
             (i - 1)
             trace.(i - 1))
  done;
  !bad

let add_server p =
  let servers = Problem.servers p in
  let is_server = Array.to_list servers in
  let nodes = Matrix.dim (Problem.latency p) in
  let extra = ref None in
  for node = nodes - 1 downto 0 do
    if not (List.mem node is_server) then extra := Some node
  done;
  match !extra with
  | None -> None
  | Some node ->
      Some
        (Problem.make
           ?capacity:(Problem.capacity p)
           ~latency:(Problem.latency p)
           ~servers:(Array.append servers [| node |])
           ~clients:(Array.copy (Problem.clients p))
           ())

let check_instance ~seed =
  let d = Gen.descriptor_of_seed seed in
  let p = Gen.instantiate d in
  let capacitated = Problem.capacity p <> None in
  let checks = ref 0 and failures = ref [] in
  let checked name result =
    incr checks;
    match result with
    | Ok () -> ()
    | Error m -> failures := Printf.sprintf "%s: %s" name m :: !failures
  in
  let dg = Dg.run p in
  let assignments =
    List.map
      (fun key ->
        (key, if key = "dgreedy" then dg.Dg.assignment else run_algo ~seed key p))
      algo_keys
  in
  let values =
    List.map
      (fun (k, a) -> (k, Objective.max_interaction_path p a))
      assignments
  in
  let value k = List.assoc k values in
  let lb = Lower_bound.compute p in
  (* Validity: Single-Server is documented to ignore capacity. *)
  List.iter
    (fun (k, a) ->
      let require_capacity = not (capacitated && k = "single") in
      checked (k ^ " valid") (Invariant.assignment_valid ~require_capacity p a))
    assignments;
  (* Every algorithm dominates the super-optimal bound. *)
  List.iter
    (fun (k, v) -> checked (k ^ " >= LB") (Invariant.dominates_lb ~lb ~label:k v))
    values;
  checked "clock tight" (Invariant.clock_tight p (List.assoc "nearest" assignments));
  (* Coreset additive bound, always on: the resolution cycles with the
     seed so every eps — including the exact-equality eps=0 corner —
     gets the full instance mix. *)
  checked "coreset-bound"
    (Invariant.coreset_bound
       ~resolution:[| 0.; 0.05; 0.15; 0.3 |].(seed mod 4)
       ~seed p);
  (* Per-instance dominance relations. *)
  if not capacitated then
    checked "lfb <= nearest"
      (Invariant.no_worse ~label:"lfb" ~than:"nearest" (value "lfb")
         (value "nearest"));
  checked "dgreedy <= nearest"
    (Invariant.no_worse ~label:"dgreedy" ~than:"nearest" (value "dgreedy")
       (value "nearest"));
  checked "hill <= nearest"
    (Invariant.no_worse ~label:"hill" ~than:"its start" (value "hill")
       (value "nearest"));
  checked "anneal <= nearest"
    (Invariant.no_worse ~label:"anneal" ~than:"its start" (value "anneal")
       (value "nearest"));
  (* Distributed-Greedy: strictly decreasing trace, and a fixed point. *)
  checked "dgreedy trace decreasing" (strictly_decreasing dg.Dg.trace);
  let again = Dg.run ~initial:dg.Dg.assignment p in
  let again_stats = again.Dg.stats in
  checked "dgreedy fixed point"
    (if again_stats.Dg.modifications = 0 then Ok ()
     else
       Error
         (Printf.sprintf "%d further modifications from its own output"
            again_stats.Dg.modifications));
  (* The early-exit kernels against the full scans they replaced:
     Distributed-Greedy's bounded target and pair scans, and K-center-B
     placement on the instance's matrix at its server count. *)
  checked "dgreedy fast = reference"
    (let r = Reference.distributed_greedy p in
     if
       Assignment.equal dg.Dg.assignment r.Dg.assignment
       && dg.Dg.trace = r.Dg.trace && dg.Dg.stats = r.Dg.stats
     then Ok ()
     else
       Error
         (Printf.sprintf "D %.17g after %d modifications vs reference %.17g after %d"
            (value "dgreedy") dg.Dg.stats.Dg.modifications
            (Objective.max_interaction_path p r.Dg.assignment)
            r.Dg.stats.Dg.modifications));
  checked "kcenter-b fast = reference"
    (let m = Problem.latency p and k = Problem.num_servers p in
     let fast = Kcenter.greedy m ~k and reference = Reference.kcenter_greedy m ~k in
     if fast = reference then Ok ()
     else
       Error
         (Printf.sprintf "radius %.17g vs reference %.17g" (Kcenter.radius m fast)
            (Kcenter.radius m reference)));
  (* Exact-optimum cross checks on brute-force-sized instances. *)
  let opt = if Gen.brute_sized d then Some (Brute_force.optimal_value p) else None in
  let greedy_monotonic =
    match opt with
    | None -> None
    | Some opt_value ->
        checked "LB <= OPT" (Invariant.lb_at_most_opt ~lb ~opt:opt_value);
        List.iter
          (fun (k, v) ->
            if not (capacitated && k = "single") then
              checked (k ^ " >= OPT")
                (Invariant.at_least_opt ~opt:opt_value ~label:k v))
          values;
        if Gen.is_metric d.kind && not capacitated then begin
          checked "nearest 3-approx"
            (Invariant.within_ratio ~ratio:3. ~opt:opt_value ~label:"nearest"
               (value "nearest"));
          checked "lfb 3-approx"
            (Invariant.within_ratio ~ratio:3. ~opt:opt_value ~label:"lfb"
               (value "lfb"))
        end;
        (match add_server p with
        | None -> None
        | Some plus ->
            let opt_plus = Brute_force.optimal_value plus in
            checked "OPT server-monotone"
              (if opt_plus <= opt_value +. Invariant.eps then Ok ()
               else
                 Error
                   (Printf.sprintf
                      "OPT rose from %.9g to %.9g with an extra server"
                      opt_value opt_plus));
            let lb_plus = Lower_bound.compute plus in
            checked "LB server-monotone"
              (if lb_plus <= lb +. Invariant.eps then Ok ()
               else
                 Error
                   (Printf.sprintf
                      "LB rose from %.9g to %.9g with an extra server" lb
                      lb_plus));
            let greedy_plus =
              Objective.max_interaction_path plus
                (Algorithm.run Algorithm.Greedy plus)
            in
            Some (greedy_plus <= value "greedy" +. Invariant.eps))
  in
  (* Load-aware objective: the delay model family cycles with the seed
     (decorrelated from the brute-force slice, which is [seed mod 4]),
     so every instance shape meets every family — including deep M/M/1
     saturation with mu at a quarter of the population. *)
  let n_clients = Problem.num_clients p in
  let delay =
    match seed / 4 mod 4 with
    | 0 -> Delay.Constant 2.
    | 1 -> Delay.Linear { base = 0.5; coeff = 0.3 }
    | 2 -> Delay.Queueing { mu = float_of_int (n_clients + 1) }
    | _ -> Delay.Queueing { mu = float_of_int (max 1 (n_clients / 4)) }
  in
  checked "delay monotone"
    (Invariant.delay_monotone ~max_load:(n_clients + 2) delay);
  let load_assignments =
    List.map
      (fun (k, algo) -> (k, Algorithm.run ~seed ~delay algo p))
      [
        ("nearest", Algorithm.Nearest_server);
        ("greedy", Algorithm.Greedy);
        ("dgreedy", Algorithm.Distributed_greedy);
      ]
  in
  let load_values =
    List.map
      (fun (k, a) -> (k, Objective.max_interaction_path ~delay p a))
      load_assignments
  in
  (* Every serving server has load >= 1, so both access hops pay at
     least delay(1): LB_load = LB + 2*delay(1) stays super-optimal. *)
  let lb_load = lb +. (2. *. Delay.eval delay 1) in
  List.iter
    (fun (k, a) ->
      checked (k ^ "-load valid") (Invariant.assignment_valid p a);
      checked (k ^ "-load dominates D")
        (Invariant.load_dominates ~delay ~label:k p a);
      checked (k ^ "-load fast = naive")
        (Invariant.load_fast_naive_agree ~delay ~label:k p a))
    load_assignments;
  List.iter
    (fun (k, v) ->
      checked (k ^ "-load >= LB_load")
        (Invariant.dominates_lb ~lb:lb_load ~label:(k ^ "-load") v))
    load_values;
  (* The live-list kernel against the re-sorting reference it replaced:
     same float expressions over the same candidate order, so the same
     assignment bit for bit — including tie-heavy instances. Checked
     under the instance's drawn model and under [Delay.zero], the model
     every load-blind caller (Fig. 7, the soaks) runs the kernel with. *)
  let greedy_matches_reference ~delay fast =
    let reference = Reference.greedy_load ~delay p in
    if Assignment.equal fast reference then Ok ()
    else
      Error
        (Printf.sprintf "D_load %.17g fast vs %.17g reference"
           (Objective.max_interaction_path ~delay p fast)
           (Objective.max_interaction_path ~delay p reference))
  in
  checked "greedy-load fast = reference"
    (greedy_matches_reference ~delay (List.assoc "greedy" load_assignments));
  checked "greedy-load fast = reference (zero delay)"
    (greedy_matches_reference ~delay:Delay.zero (List.assoc "greedy" assignments));
  checked "zero-delay identity"
    (Invariant.load_zero_identity ~label:"greedy"
       p (List.assoc "greedy" assignments));
  (* Folk assumption, measured not enforced (see DESIGN §9): load-aware
     Greedy should beat load-blind Greedy on D_load. *)
  let load_greedy_better =
    let blind =
      Objective.max_interaction_path ~delay p (List.assoc "greedy" assignments)
    in
    List.assoc "greedy" load_values <= blind +. Invariant.eps
  in
  if Gen.brute_sized d then begin
    let opt_load = Brute_force.optimal_value ~delay p in
    checked "LB_load <= OPT_load"
      (Invariant.lb_at_most_opt ~lb:lb_load ~opt:opt_load);
    List.iter
      (fun (k, v) ->
        checked (k ^ "-load >= OPT_load")
          (Invariant.at_least_opt ~opt:opt_load ~label:(k ^ "-load") v))
      load_values
  end;
  (* Metamorphic checks: always on the evaluators, on a seed slice for
     the algorithms themselves. *)
  let nearest = List.assoc "nearest" assignments in
  checked "evaluator relabel-invariant"
    (Invariant.evaluator_relabel_invariant ~seed p nearest);
  checked "evaluator scale-linear" (Invariant.evaluator_scale_invariant p nearest);
  if seed mod 8 = 3 then begin
    let doubled = Invariant.scale p ~factor:2. in
    List.iter
      (fun k ->
        if scale_stable k then begin
          let v' =
            Objective.max_interaction_path doubled (run_algo ~seed k doubled)
          in
          checked (k ^ " scale-stable")
            (if v' = 2. *. value k then Ok ()
             else
               Error
                 (Printf.sprintf "%.17g <> 2 x %.17g after doubling" v'
                    (value k)))
        end)
      algo_keys;
    if Gen.tie_free p && not capacitated then begin
      let r = Invariant.relabel ~seed p in
      List.iter
        (fun k ->
          if relabel_stable k then begin
            let v' =
              Objective.max_interaction_path r.Invariant.problem
                (run_algo ~seed k r.Invariant.problem)
            in
            checked (k ^ " relabel-stable")
              (if Float.abs (v' -. value k) <= 1e-9 then Ok ()
               else
                 Error
                   (Printf.sprintf "%.17g <> %.17g after relabeling" v'
                      (value k)))
          end)
        algo_keys
    end
  end;
  (* Full protocol simulation, checked per event. *)
  let sim_checked =
    seed mod 8 = 1
    &&
    let clock = Clock.synthesize p nearest in
    clock.Clock.delta > 0.
    && begin
         let workload =
           Workload.rounds
             ~clients:(Problem.num_clients p)
             ~rounds:2
             ~period:(0.75 *. clock.Clock.delta)
         in
         let violations = Sim_invariant.check_run p nearest clock workload in
         checked "sim invariants"
           (match violations with
           | [] -> Ok ()
           | first :: _ ->
               Error
                 (Printf.sprintf "%d violation(s), first: %s"
                    (List.length violations) first));
         true
       end
  in
  (* The reliable transport must mask loss bit-identically. Only a
     theorem on tie-free uncapacitated instances: a client equidistant
     from two servers legitimately resolves the tie by message arrival
     order, and under capacity the bootstrap join order decides who gets
     a full server's last slot — both reshuffled by loss. *)
  let transport_checked =
    seed mod 8 = 5
    && Problem.num_clients p <= 16
    && Problem.num_servers p <= 6
    && (not capacitated)
    && Gen.tie_free p
    && begin
         let clean = Dgreedy_protocol.run p in
         let fault = Fault.instantiate ~seed (Fault.loss ~rate:0.15 ()) in
         let faulty = Dgreedy_protocol.run ~fault p in
         checked "transport loss-identity"
           (if
              Assignment.equal clean.Dgreedy_protocol.assignment
                faulty.Dgreedy_protocol.assignment
              && clean.Dgreedy_protocol.objective
                 = faulty.Dgreedy_protocol.objective
            then Ok ()
            else
              Error
                (Printf.sprintf "lossy run diverged: D %.9g vs clean %.9g"
                   faulty.Dgreedy_protocol.objective
                   clean.Dgreedy_protocol.objective));
         true
       end
  in
  (* Layout differentials — the flat-substrate contracts. The boxed
     reference layout must round-trip bit-for-bit, and on a seed slice
     the whole algorithm suite re-runs over the round-tripped matrix
     and must reproduce every assignment and objective bit-for-bit. *)
  (let m0 = Problem.latency p in
   let boxed = Reference.Boxed_matrix.of_matrix m0 in
   checked "layout round-trip"
     (if Reference.Boxed_matrix.bit_equal boxed m0 then Ok ()
      else Error "boxed copy is not bit-identical to the flat store");
   if seed mod 4 = 0 then begin
     let rt = Reference.Boxed_matrix.to_matrix boxed in
     let p' =
       Problem.make
         ?capacity:(Problem.capacity p)
         ~latency:rt ~servers:(Problem.servers p) ~clients:(Problem.clients p)
         ()
     in
     List.iter
       (fun (key, a) ->
         let a' = run_algo ~seed key p' in
         let v' = Objective.max_interaction_path p' a' in
         checked (key ^ " layout-stable")
           (if Assignment.equal a a' && v' = value key then Ok ()
            else
              Error
                (Printf.sprintf "D %.17g on flat vs %.17g on round-tripped"
                   (value key) v')))
       assignments;
     checked "LB layout-stable"
       (let lb' = Lower_bound.compute p' in
        if lb' = lb then Ok ()
        else Error (Printf.sprintf "LB %.17g on flat vs %.17g on round-tripped" lb lb'))
   end);
  {
    seed;
    instance = Format.asprintf "%a" Gen.pp_descriptor d;
    capacitated;
    checks = !checks;
    failures = List.rev !failures;
    values;
    lb;
    opt;
    sim_checked;
    transport_checked;
    greedy_monotonic;
    load_greedy_better;
  }
