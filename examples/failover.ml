(* Fault injection end to end: the Distributed-Greedy protocol run over
   an unreliable network — seeded 20% message loss plus one mid-run
   server crash — terminates with a valid assignment onto the surviving
   servers, within a small factor of the fault-free run, and the Dynamic
   session quantifies the same failover against a fresh re-solve.

   Run with: dune exec examples/failover.exe *)

module Placement = Dia_placement.Placement
module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Dynamic = Dia_core.Dynamic
module Fault = Dia_sim.Fault
module Checker = Dia_sim.Checker
module Dgreedy_protocol = Dia_sim.Dgreedy_protocol

let () =
  let n = 40 and k = 4 in
  let matrix = Dia_latency.Synthetic.internet_like ~seed:12 n in
  let servers = Placement.random ~seed:12 ~k ~n in
  let p = Problem.all_nodes_clients matrix ~servers in
  Printf.printf "instance: %d clients, %d servers\n\n" n k;

  (* Baseline: the protocol over a reliable network. *)
  let clean = Dgreedy_protocol.run p in
  Printf.printf "fault-free run:   D = %7.2f ms  (%d messages, %d moves)\n"
    clean.objective clean.messages clean.modifications;

  (* The same protocol under seeded faults: 20% uniform loss, and server
     1 crashes mid-way through the modification rounds (faulty runs
     stretch the bootstrap horizon to 3x the settle time). Same seed =>
     same run. *)
  let crash_at = Dgreedy_protocol.settle_time p *. 4. in
  let plan =
    Fault.all [ Fault.loss ~rate:0.2 (); Fault.crash ~at:crash_at 1 ]
  in
  let fault = Fault.instantiate ~seed:1 plan in
  let faulty = Dgreedy_protocol.run ~fault p in
  Printf.printf "20%% loss + crash: D = %7.2f ms  (%d messages, %d moves)\n\n"
    faulty.objective faulty.messages faulty.modifications;
  let f = faulty.faults in
  Printf.printf
    "fault report: %d dropped, %d duplicated, %d retransmissions,\n\
    \              %d give-ups, %d token regenerations, %d failovers\n\n"
    f.dropped f.duplicated f.retransmissions f.give_ups f.regenerations
    f.failovers;

  let live s = not (Fault.down fault ~now:faulty.wall_duration s) in
  (match Checker.validate_assignment ~live p faulty.assignment with
  | Ok () ->
      Printf.printf
        "surviving assignment is valid: every client on a live server,\n\
         capacity respected\n"
  | Error e -> Printf.printf "INVALID surviving assignment: %s\n" e);
  Printf.printf "degradation vs fault-free protocol run: %.3fx\n\n"
    (faulty.objective /. clean.objective);

  (* The Dynamic (online) view of the same failure: migrate server 1's
     clients greedily and compare against re-solving from scratch. *)
  let t = Dynamic.create matrix ~servers in
  for node = 0 to n - 1 do
    ignore (Dynamic.join t ~node)
  done;
  ignore (Dynamic.rebalance t);
  let before = Dynamic.objective t in
  let r = Dynamic.fail_server t 1 ~greedy:true in
  let after = Dynamic.objective t in
  let survivors =
    Array.of_list (List.map (Array.get servers) (Dynamic.active_servers t))
  in
  let q =
    Problem.make ~latency:matrix ~servers:survivors
      ~clients:(Problem.clients (fst (Dynamic.snapshot t))) ()
  in
  let resolve = Objective.max_interaction_path q (Dia_core.Greedy.assign q) in
  Printf.printf
    "dynamic session failover of server 1:\n\
    \  %d clients migrated; D %.2f -> %.2f ms\n\
    \  fresh Greedy re-solve on survivors: %.2f ms\n\
    \  degradation factor (migrated / re-solved): %.3fx\n"
    (r.Dynamic.rehomed + r.Dynamic.promoted + r.Dynamic.fallback)
    before after resolve (after /. resolve)
