(* Tests for lib/coreset: the static weighted coreset and its certified
   additive bound, the dynamic bucket layer, the bit-identity contract
   of Dynamic's incremental objective/lower-bound caches (including
   across a checkpoint-style restore), and the weighted soak's
   kill/resume determinism. *)

module Matrix = Dia_latency.Matrix
module Synthetic = Dia_latency.Synthetic
module Coreset = Dia_coreset.Coreset
module Weighted = Dia_coreset.Weighted
module Dynamic = Dia_core.Dynamic
module Problem = Dia_core.Problem
module Objective = Dia_core.Objective
module Algorithm = Dia_core.Algorithm
module Lower_bound = Dia_core.Lower_bound
module Soak = Dia_runtime.Soak
module Event_log = Dia_runtime.Event_log
module Fault = Dia_sim.Fault

let matrix = Synthetic.internet_like ~seed:21 80
let servers = Dia_placement.Placement.random ~seed:21 ~k:6 ~n:80

(* A population well beyond the node count: many clients per node. *)
let population =
  let rng = Random.State.make [| 77 |] in
  Array.init 400 (fun _ -> Random.State.int rng 80)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* --- static coreset --- *)

let test_partition_canonical () =
  let part = Coreset.node_partition ~eps:0.25 matrix in
  Array.iteri
    (fun v rep ->
      Alcotest.(check int)
        (Printf.sprintf "rep of rep(%d) is itself" v)
        rep part.(rep);
      Alcotest.(check bool)
        (Printf.sprintf "rep(%d) is the lowest node of its cell" v)
        true (rep <= v))
    part;
  let id = Coreset.node_partition ~eps:0. matrix in
  Array.iteri
    (fun v rep -> Alcotest.(check int) "eps=0 is the identity" v rep)
    id

let test_eps_zero_is_exact () =
  let cs = Coreset.build ~eps:0. matrix ~servers ~clients:population in
  Alcotest.(check (float 0.)) "radius collapses" 0. (Coreset.radius cs);
  Alcotest.(check (float 0.)) "bound collapses" 0. (Coreset.bound cs);
  let distinct =
    Array.to_list population |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check int) "one point per occupied node" distinct
    (Coreset.points cs);
  let reduced = Coreset.reduced cs in
  let a = Algorithm.run Algorithm.Greedy reduced in
  let d_red = Objective.max_interaction_path reduced a in
  let d_full =
    Objective.max_interaction_path (Coreset.full cs) (Coreset.expand cs a)
  in
  Alcotest.(check bool) "reduced D equals full D bit-for-bit" true
    (same_bits d_red d_full)

let test_accounting_consistent () =
  let cs = Coreset.build ~eps:0.2 matrix ~servers ~clients:population in
  Alcotest.(check int) "weights sum to the population"
    (Array.length population)
    (Array.fold_left ( + ) 0 (Coreset.weights cs));
  Alcotest.(check int) "clients reports the population"
    (Array.length population) (Coreset.clients cs);
  let reps = Coreset.reps cs in
  let part = Coreset.node_partition ~eps:0.2 matrix in
  Array.iteri
    (fun i node ->
      Alcotest.(check int)
        (Printf.sprintf "client %d sits in its node's cell" i)
        part.(node)
        reps.(Coreset.bucket_of cs i))
    population;
  Alcotest.(check bool) "reduction is real on this population" true
    (Coreset.points cs < Array.length population)

let test_bound_holds_across_algorithms () =
  List.iter
    (fun eps ->
      let cs = Coreset.build ~eps matrix ~servers ~clients:population in
      let reduced = Coreset.reduced cs and full = Coreset.full cs in
      let bound = Coreset.bound cs in
      List.iter
        (fun (name, algo) ->
          let a = Algorithm.run algo reduced in
          let d_red = Objective.max_interaction_path reduced a in
          let d_full =
            Objective.max_interaction_path full (Coreset.expand cs a)
          in
          Alcotest.(check bool)
            (Printf.sprintf "|delta| within bound (%s, eps=%g)" name eps)
            true
            (Float.abs (d_full -. d_red) <= bound +. 1e-9))
        [
          ("nearest", Algorithm.Nearest_server);
          ("lfb", Algorithm.Longest_first_batch);
          ("greedy", Algorithm.Greedy);
          ("single", Algorithm.Single_server);
        ])
    [ 0.05; 0.15; 0.3; 0.6 ]

(* --- dynamic bucket layer --- *)

let test_weighted_agrees_with_static () =
  let cs = Coreset.build ~seed:3 ~eps:0.2 matrix ~servers ~clients:population in
  let w = Weighted.create ~seed:3 ~eps:0.2 matrix ~servers in
  Array.iter (fun node -> Weighted.add w ~node) population;
  Alcotest.(check int) "all sessions carried" (Array.length population)
    (Weighted.sessions w);
  Alcotest.(check int) "same occupied cells as the static build"
    (Coreset.points cs) (Weighted.points w);
  Alcotest.(check int) "Dynamic sees one member per cell" (Coreset.points cs)
    (Dynamic.num_clients (Weighted.dynamic w));
  let reps = Coreset.reps cs and weights = Coreset.weights cs in
  Array.iteri
    (fun i rep ->
      Alcotest.(check int)
        (Printf.sprintf "cell %d weight matches static" i)
        weights.(i)
        (Weighted.weight w ~node:rep);
      let id = Weighted.handle w ~node:rep in
      Alcotest.(check int)
        (Printf.sprintf "cell %d representative seated at rep" i)
        rep
        (let _, node, _ =
           List.find (fun (i', _, _) -> i' = id)
             (Dynamic.members (Weighted.dynamic w))
         in
         node))
    reps;
  let part = Coreset.node_partition ~seed:3 ~eps:0.2 matrix in
  Array.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "rep_of %d matches the static partition" node)
        part.(node) (Weighted.rep_of w node))
    population;
  (* steady-state add/remove keeps the layer and session consistent *)
  Weighted.add w ~node:population.(0);
  Weighted.remove w ~node:population.(0);
  Alcotest.(check int) "steady-state churn is weight-neutral"
    (Array.length population) (Weighted.sessions w);
  Array.iter (fun node -> Weighted.remove w ~node) population;
  Alcotest.(check int) "draining empties the layer" 0 (Weighted.sessions w);
  Alcotest.(check int) "draining empties the Dynamic" 0
    (Dynamic.num_clients (Weighted.dynamic w));
  Alcotest.(check bool) "objective back to empty" true
    (Weighted.objective w = neg_infinity)

let test_weighted_rejects_capacity () =
  let capped = Dynamic.create ~capacity:5 matrix ~servers in
  match Weighted.attach ~eps:0.2 matrix ~counts:[] capped with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacitated Dynamic accepted"

(* --- incremental D(A)/LB bit-identity under random churn --- *)

let prop_incremental_caches_bit_identical =
  (* After ANY op sequence — joins, leaves, moves, rebalances, failures
     (greedy re-homing), recoveries, drift — the incremental
     objective and lower bound must equal their from-scratch recomputes
     bit-for-bit, and survive a checkpoint-style restore round-trip
     bit-for-bit. This is the determinism contract the soak's
     kill/resume and the weighted layer both sit on. *)
  QCheck.Test.make ~name:"incremental D(A)/LB bit-identical to scratch"
    ~count:20
    QCheck.(triple (int_bound 1_000_000) (int_range 20 100) bool)
    (fun (seed, steps, capacitated) ->
      let rng = Random.State.make [| seed |] in
      let capacity = if capacitated then Some 40 else None in
      let t = Dynamic.create ?capacity matrix ~servers in
      let live = ref [] and failed = ref [] in
      let ok = ref true in
      let check_identity () =
        ok :=
          !ok
          && same_bits (Dynamic.objective t) (Dynamic.objective_scratch t)
          && same_bits (Dynamic.lower_bound t) (Dynamic.lower_bound_scratch t)
      in
      for _ = 1 to steps do
        (match Random.State.int rng 12 with
        | 0 | 1 | 2 | 3 | 4 -> (
            try live := Dynamic.join t ~node:(Random.State.int rng 80) :: !live
            with Failure _ -> ())
        | 5 | 6 -> (
            match !live with
            | [] -> ()
            | id :: rest ->
                Dynamic.leave t id;
                live := rest)
        | 7 -> (
            match !live with
            | [] -> ()
            | id :: _ -> (
                try Dynamic.move t id (Random.State.int rng 6)
                with Invalid_argument _ -> ()))
        | 8 -> ignore (Dynamic.rebalance ~max_moves:3 t)
        | 9 ->
            Dynamic.set_drift t
              ~server:(Random.State.int rng 6)
              ~factor:(0.5 +. Random.State.float rng 1.5)
        | 10 ->
            let s = Random.State.int rng 6 in
            if (not (List.mem s !failed)) && List.length !failed < 4 then (
              try
                ignore (Dynamic.fail_server t s);
                failed := s :: !failed;
                live :=
                  List.filter
                    (fun id ->
                      match Dynamic.server_of t id with
                      | _ -> true
                      | exception Invalid_argument _ -> false)
                    !live
              with Invalid_argument _ -> ())
        | _ -> (
            match !failed with
            | [] -> ()
            | s :: rest ->
                Dynamic.recover_server t s;
                failed := rest));
        check_identity ()
      done;
      (* the incremental LB tracks the offline bound up to ulps when no
         server is down (the offline scan includes failed servers) *)
      (if !failed = [] && Dynamic.num_clients t > 0 then
         let p, _ = Dynamic.snapshot t in
         let offline = Lower_bound.compute p in
         let lb = Dynamic.lower_bound t in
         ok :=
           !ok
           && Float.abs (lb -. offline)
              <= 1e-9 *. Float.max 1. (Float.abs offline));
      (* checkpoint-style restore: same state, same cached values,
         bit-for-bit — including the drift-rebuilt matrix *)
      let drift_list =
        List.filter_map
          (fun s ->
            let f = Dynamic.drift t s in
            if f <> 1.0 then Some (s, f) else None)
          (List.init 6 Fun.id)
      in
      let r =
        Dynamic.restore ?capacity matrix ~servers
          ~members:(Dynamic.members t) ~next_id:(Dynamic.next_id t)
          ~failed:(Dynamic.failed_servers t) ~drift:drift_list
          ~stats:(Dynamic.stats t)
      in
      !ok
      && same_bits (Dynamic.objective r) (Dynamic.objective t)
      && same_bits (Dynamic.lower_bound r) (Dynamic.lower_bound t)
      && same_bits (Dynamic.objective r) (Dynamic.objective_scratch r)
      && same_bits (Dynamic.lower_bound r) (Dynamic.lower_bound_scratch r))

(* --- weighted soak determinism --- *)

let plan spec =
  match Fault.of_string spec with Ok p -> p | Error m -> failwith m

let weighted_scenario =
  {
    Soak.default_scenario with
    Soak.seed = 11;
    nodes = 40;
    servers = 4;
    capacity = None;
    horizon = 50.;
    drift_period = 10.;
    fault = plan "loss:0.1+crash:1@15~35";
    clients = 20_000;
    coreset_eps = Some 0.15;
  }

let weighted_config = { Soak.default_config with Soak.checkpoint_every = 20 }

let test_weighted_soak_kill_resume () =
  let base =
    match Soak.run weighted_scenario weighted_config with
    | Soak.Completed r -> r
    | Soak.Killed _ -> Alcotest.fail "run killed without a kill point"
  in
  Alcotest.(check bool) "ran in weighted mode" true base.Soak.weighted;
  Alcotest.(check bool) "coreset collapsed the population" true
    (base.Soak.coreset_points > 0
    && base.Soak.coreset_points < base.Soak.clients);
  Alcotest.(check bool) "csv carries the trace" true
    (String.length (Soak.csv base) > String.length "t,objective,ratio\n"
    && String.sub (Soak.csv base) 0 18 = "t,objective,ratio\n");
  List.iter
    (fun n ->
      (* Killed right after the [n]-th checkpoint. *)
      let kill_at_event = (n * weighted_config.Soak.checkpoint_every) - 1 in
      match Soak.run ~kill_at_event weighted_scenario weighted_config with
      | Soak.Completed _ -> Alcotest.fail "kill_at_event ignored"
      | Soak.Killed st -> (
          match
            Soak.run ~resume_from:st weighted_scenario weighted_config
          with
          | Soak.Killed _ -> Alcotest.fail "resumed run killed"
          | Soak.Completed resumed ->
              Alcotest.(check string)
                (Printf.sprintf "weighted report identical after kill %d" n)
                (Soak.render base) (Soak.render resumed);
              Alcotest.(check string)
                (Printf.sprintf "weighted log identical after kill %d" n)
                (Event_log.render base.Soak.log)
                (Event_log.render resumed.Soak.log)))
    [ 1; 2 ]

let test_weighted_scenario_requires_uncapacitated () =
  let bad = { weighted_scenario with Soak.capacity = Some 50 } in
  match Soak.run bad weighted_config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "weighted + capacity accepted"

let suite =
  [
    Alcotest.test_case "partition is canonical" `Quick test_partition_canonical;
    Alcotest.test_case "eps=0 dedups exactly" `Quick test_eps_zero_is_exact;
    Alcotest.test_case "weights and buckets consistent" `Quick
      test_accounting_consistent;
    Alcotest.test_case "additive bound holds across algorithms" `Quick
      test_bound_holds_across_algorithms;
    Alcotest.test_case "weighted layer agrees with static build" `Quick
      test_weighted_agrees_with_static;
    Alcotest.test_case "weighted layer rejects capacity" `Quick
      test_weighted_rejects_capacity;
    QCheck_alcotest.to_alcotest prop_incremental_caches_bit_identical;
    Alcotest.test_case "weighted soak kill/resume is bit-identical" `Slow
      test_weighted_soak_kill_resume;
    Alcotest.test_case "weighted scenario requires no capacity" `Quick
      test_weighted_scenario_requires_uncapacitated;
  ]
