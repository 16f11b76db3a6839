(* Tests for Dia_sim.Fault and the fault tolerance of the hardened
   Dgreedy_protocol: seeded plans must replay identically, the network
   must realise each fault kind faithfully, and the protocol must still
   terminate with a valid locally-optimal assignment under loss and
   mid-run server crashes. *)

module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment
module Objective = Dia_core.Objective
module Dynamic = Dia_core.Dynamic
module Engine = Dia_sim.Engine
module Network = Dia_sim.Network
module Fault = Dia_sim.Fault
module Checker = Dia_sim.Checker
module Dgreedy_protocol = Dia_sim.Dgreedy_protocol
module Matrix = Dia_latency.Matrix

let instance ?capacity seed ~n ~k =
  let matrix = Dia_latency.Synthetic.internet_like ~seed n in
  let servers = Dia_placement.Placement.random ~seed ~k ~n in
  Problem.all_nodes_clients ?capacity matrix ~servers

let test_seeded_replay () =
  (* The same plan and seed must answer the same query sequence with the
     same decisions, bit for bit. *)
  let plan =
    Fault.all
      [
        Fault.loss ~rate:0.3 ();
        Fault.duplication ~rate:0.2 ~copies:2 ();
        Fault.spike ~rate:0.1 ~extra:50. ();
      ]
  in
  let trace plan =
    let t = Fault.instantiate ~seed:42 plan in
    List.init 200 (fun i ->
        Fault.decide t ~now:(float_of_int i) ~src:(i mod 5) ~dst:((i + 1) mod 5))
  in
  Alcotest.(check bool) "identical traces" true (trace plan = trace plan);
  let other = trace plan in
  let t = Fault.instantiate ~seed:43 plan in
  let differs =
    List.exists
      (fun i ->
        Fault.decide t ~now:(float_of_int i) ~src:(i mod 5) ~dst:((i + 1) mod 5)
        <> List.nth other i)
      (List.init 200 Fun.id)
  in
  Alcotest.(check bool) "different seed diverges" true differs

let test_directed_loss_partitions_one_link () =
  (* Loss at rate 1.0 on the directed link 0 -> 1 kills exactly that
     link; 1 -> 0 and everything else still deliver. *)
  let engine = Engine.create () in
  let m = Matrix.create 3 in
  Matrix.set m 0 1 5.;
  Matrix.set m 0 2 5.;
  Matrix.set m 1 2 5.;
  let fault = Fault.instantiate (Fault.loss ~src:0 ~dst:1 ~rate:1.0 ()) in
  let net = Network.of_matrix ~fault engine m in
  let got = Array.make 3 0 in
  for a = 0 to 2 do
    Network.on_receive net a (fun ~src:_ () -> got.(a) <- got.(a) + 1)
  done;
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:1 ~dst:0 ();
  Network.send net ~src:0 ~dst:2 ();
  Network.send net ~src:2 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check (list int)) "only 0->1 lost" [ 1; 1; 1 ] (Array.to_list got);
  Alcotest.(check int) "one drop counted" 1 (Network.messages_dropped net)

let test_crash_window () =
  (* A crashed actor receives nothing during its window — including
     messages in flight when it goes down — and works again after
     recovery. *)
  let engine = Engine.create () in
  let fault = Fault.instantiate (Fault.crash ~at:10. ~recover_at:30. 1) in
  let net =
    Network.create ~fault engine ~actors:2 ~latency:(fun _ _ -> 5.)
  in
  let arrivals = ref [] in
  Network.on_receive net 1 (fun ~src:_ () ->
      arrivals := Engine.now engine :: !arrivals);
  Engine.schedule engine 0. (fun () -> Network.send net ~src:0 ~dst:1 ());
  (* Sent before the crash, arrives inside the window: lost. *)
  Engine.schedule engine 8. (fun () -> Network.send net ~src:0 ~dst:1 ());
  Engine.schedule engine 15. (fun () -> Network.send net ~src:0 ~dst:1 ());
  Engine.schedule engine 40. (fun () -> Network.send net ~src:0 ~dst:1 ());
  Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "before and after only" [ 5.; 45. ]
    (List.rev !arrivals);
  Alcotest.(check int) "window losses counted" 2 (Network.messages_dropped net);
  Alcotest.(check bool) "down during window" true
    (Fault.down fault ~now:20. 1);
  Alcotest.(check bool) "up after recovery" false (Fault.down fault ~now:30. 1)

let test_duplication_copies () =
  let engine = Engine.create () in
  let fault = Fault.instantiate (Fault.duplication ~rate:1.0 ~copies:2 ()) in
  let net = Network.create ~fault engine ~actors:2 ~latency:(fun _ _ -> 1.) in
  let count = ref 0 in
  Network.on_receive net 1 (fun ~src:_ () -> incr count);
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "three deliveries" 3 !count;
  Alcotest.(check int) "two extra copies counted" 2
    (Network.messages_duplicated net);
  Alcotest.(check int) "one send counted" 1 (Network.messages_sent net)

let test_partition_window () =
  (* During the window, messages crossing the cut vanish in both
     directions; within each side they flow, and the cut heals. *)
  let engine = Engine.create () in
  let fault =
    Fault.instantiate (Fault.partition ~at:10. ~until:20. ~side:[ 0; 1 ])
  in
  let net = Network.create ~fault engine ~actors:4 ~latency:(fun _ _ -> 1.) in
  let got = ref [] in
  for a = 0 to 3 do
    Network.on_receive net a (fun ~src tag -> got := (src, a, tag) :: !got)
  done;
  Engine.schedule engine 12. (fun () ->
      Network.send net ~src:0 ~dst:2 "cross";
      Network.send net ~src:2 ~dst:1 "cross";
      Network.send net ~src:0 ~dst:1 "same-side";
      Network.send net ~src:2 ~dst:3 "same-side");
  Engine.schedule engine 25. (fun () -> Network.send net ~src:0 ~dst:2 "healed");
  Engine.run engine;
  let tags = List.sort compare (List.map (fun (_, _, t) -> t) !got) in
  Alcotest.(check (list string)) "cut enforced then healed"
    [ "healed"; "same-side"; "same-side" ] tags;
  Alcotest.(check int) "crossings counted" 2 (Network.messages_dropped net)

let test_undeliverable_counted () =
  let engine = Engine.create () in
  let net = Network.create engine ~actors:2 ~latency:(fun _ _ -> 1.) in
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "handler-less arrival observed" 1
    (Network.undeliverable net)

let check_locally_optimal p (result : Dgreedy_protocol.result) =
  let a = Assignment.to_array result.assignment in
  let d = result.objective in
  let improvable = ref false in
  for c = 0 to Problem.num_clients p - 1 do
    let original = a.(c) in
    for s = 0 to Problem.num_servers p - 1 do
      if s <> original then begin
        a.(c) <- s;
        let d' = Objective.max_interaction_path p (Assignment.unsafe_of_array a) in
        if d' < d -. 1e-6 then improvable := true;
        a.(c) <- original
      end
    done
  done;
  Alcotest.(check bool) "no improving move" false !improvable

let test_dgreedy_under_loss () =
  (* 20% uniform loss: retransmission must mask it completely — the run
     terminates, every client is assigned, and the result is locally
     optimal on the true matrix (NTP-style probing keeps measured
     distances exact under loss). *)
  let p = instance 3 ~n:20 ~k:3 in
  let fault = Fault.instantiate ~seed:7 (Fault.loss ~rate:0.2 ()) in
  let result = Dgreedy_protocol.run ~fault p in
  Alcotest.(check int) "all assigned" 20 (Assignment.num_clients result.assignment);
  Alcotest.(check bool) "losses actually happened" true
    (result.faults.dropped > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (result.faults.retransmissions > 0);
  (match Checker.validate_assignment p result.assignment with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_locally_optimal p result

let test_dgreedy_under_loss_replays () =
  let p = instance 5 ~n:15 ~k:3 in
  let run () =
    let fault = Fault.instantiate ~seed:11 (Fault.loss ~rate:0.15 ()) in
    Dgreedy_protocol.run ~fault p
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check (float 0.)) "same objective" r1.objective r2.objective;
  Alcotest.(check int) "same message count" r1.messages r2.messages;
  Alcotest.(check bool) "same assignment" true
    (Assignment.to_array r1.assignment = Assignment.to_array r2.assignment)

let test_dgreedy_server_crash () =
  (* One server crashes mid-run (after the bootstrap settles): the
     protocol must terminate with every client on a live server. *)
  let p = instance 4 ~n:18 ~k:3 in
  let crash_at = Dgreedy_protocol.settle_time p *. 1.5 in
  let fault =
    Fault.instantiate ~seed:3
      (Fault.all [ Fault.loss ~rate:0.05 (); Fault.crash ~at:crash_at 1 ])
  in
  let result = Dgreedy_protocol.run ~fault p in
  Alcotest.(check int) "all assigned" 18 (Assignment.num_clients result.assignment);
  let live s = not (Fault.down fault ~now:result.wall_duration s) in
  Alcotest.(check bool) "crashed server is down" false (live 1);
  (match Checker.validate_assignment ~live p result.assignment with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

let test_greedy_fail_server () =
  let n = 30 and k = 4 in
  let matrix = Dia_latency.Synthetic.internet_like ~seed:9 n in
  let servers = Dia_placement.Placement.random ~seed:9 ~k ~n in
  let t = Dynamic.create matrix ~servers in
  for node = 0 to n - 1 do
    ignore (Dynamic.join t ~node)
  done;
  let orphans = Dynamic.load t 2 in
  let r = Dynamic.fail_server t 2 in
  (* Uncapacitated, the join rule always finds a live server. *)
  Alcotest.(check int) "every orphan re-homed" orphans r.Dynamic.rehomed;
  Alcotest.(check (list (pair int int))) "none stranded" [] r.Dynamic.stranded;
  (* A fresh Greedy re-solve on the survivors, same clients, is no worse
     than the incrementally repaired session. *)
  let after = Dynamic.objective t in
  let survivors =
    Array.of_list (List.map (Array.get servers) (Dynamic.active_servers t))
  in
  let q =
    Problem.make ~latency:matrix ~servers:survivors
      ~clients:(Problem.clients (fst (Dynamic.snapshot t))) ()
  in
  let resolve = Objective.max_interaction_path q (Dia_core.Greedy.assign q) in
  Alcotest.(check bool) "resolve no better than after" true (resolve <= after +. 1e-9);
  Alcotest.(check (list int)) "server gone from rotation" [ 0; 1; 3 ]
    (Dynamic.active_servers t);
  (* Every migrated client really left the failed server. *)
  let _, a = Dynamic.snapshot t in
  Array.iter
    (fun s -> Alcotest.(check bool) "no client on failed server" true (s <> 2))
    (Assignment.to_array a)

let test_validate_assignment_errors () =
  let p = instance 1 ~n:8 ~k:2 in
  let a = Assignment.unsafe_of_array (Array.make 8 0) in
  (match Checker.validate_assignment p a with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Checker.validate_assignment ~live:(fun s -> s <> 0) p a with
  | Ok () -> Alcotest.fail "dead-server assignment accepted"
  | Error _ -> ());
  match Checker.validate_assignment p (Assignment.unsafe_of_array (Array.make 7 0)) with
  | Ok () -> Alcotest.fail "wrong client count accepted"
  | Error _ -> ()

(* --- the fault mini-DSL --- *)

let test_dsl_roundtrip () =
  List.iter
    (fun spec ->
      match Fault.of_string spec with
      | Error m -> Alcotest.fail (Printf.sprintf "%s: %s" spec m)
      | Ok p -> (
          let canonical = Fault.to_string p in
          match Fault.of_string canonical with
          | Error m -> Alcotest.fail (Printf.sprintf "%s: %s" canonical m)
          | Ok p' ->
              Alcotest.(check bool)
                (Printf.sprintf "%s round-trips" spec)
                true (Fault.equal p p');
              Alcotest.(check string)
                (Printf.sprintf "%s canonical form is stable" spec)
                canonical (Fault.to_string p')))
    [
      "loss:0.15+crash:3@2.0~5.0";
      "loss:0.25@1>4";
      "dup:0.2x3@2>*";
      "spike:0.5~12.5@*>2";
      "part:1.0~2.5@0,1,4";
      "crash:7@0.5";
      "reliable";
      "";
      "none";
      "loss:1+dup:1x2+spike:1~0.125+crash:0@0~0.0009765625";
    ]

let test_dsl_rejects_invalid () =
  List.iter
    (fun spec ->
      match Fault.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" spec))
    [
      "loss:1.5";
      "loss:";
      "bogus:1";
      "crash:0@-1";
      "crash:0@5~2";
      "part:2~1@0";
      "part:1~2@";
      "dup:0.5x0";
      "spike:0.5";
      "loss:0.1@x>y";
      "loss:0.1+";
      "+loss:0.1";
      "loss:0.1++crash:1@2";
      "part:1~2@0,,1";
      "part:1~2@0,1,";
      "part:1~2@,0";
      "loss:0.1@1>2>3";
      "crash:1@2~3~4";
    ]

let test_dsl_errors_name_the_offender () =
  (* Strict parsing is only useful if the message points at the problem:
     every rejection names the atom number and character position. *)
  List.iter
    (fun (spec, fragment) ->
      match Fault.of_string spec with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" spec)
      | Error m ->
          let contains s =
            let n = String.length m and k = String.length s in
            let rec go i = i + k <= n && (String.sub m i k = s || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%S error %S mentions %S" spec m fragment)
            true (contains fragment))
    [
      ("loss:0.1+", "atom 2 at char 9");
      ("+loss:0.1", "atom 1 at char 0");
      ("loss:0.1+bogus:1", "atom 2 at char 9");
      ("part:1~2@0,,1", "empty entry 2");
      ("part:1~2@0,1,", "empty entry 3");
    ]

let test_pp_plan_matches_to_string () =
  let p =
    Fault.all
      [ Fault.loss ~rate:0.125 (); Fault.crash ~recover_at:5. ~at:2. 3 ]
  in
  Alcotest.(check string) "pp_plan renders the canonical form"
    (Fault.to_string p)
    (Format.asprintf "%a" Fault.pp_plan p)

(* Random rules through the smart constructors — shared by the
   round-trip and malformed-input properties. *)
let gen_rule rng =
    let float01 = float_of_int (Random.State.int rng 1000) /. 1000. in
    let actor () = Random.State.int rng 10 in
    let endpoint () = if Random.State.bool rng then None else Some (actor ()) in
    match Random.State.int rng 5 with
    | 0 -> Fault.loss ?src:(endpoint ()) ?dst:(endpoint ()) ~rate:float01 ()
    | 1 ->
        Fault.duplication ?src:(endpoint ()) ?dst:(endpoint ())
          ~copies:(1 + Random.State.int rng 3)
          ~rate:float01 ()
    | 2 ->
        Fault.spike ?src:(endpoint ()) ?dst:(endpoint ()) ~rate:float01
          ~extra:(Random.State.float rng 50.) ()
    | 3 ->
        let at = Random.State.float rng 10. in
        Fault.partition ~at ~until:(at +. 0.5 +. Random.State.float rng 5.)
          ~side:[ actor (); 10 + actor () ]
    | _ ->
        let at = Random.State.float rng 10. in
        let recover_at =
          if Random.State.bool rng then None
          else Some (at +. 0.5 +. Random.State.float rng 5.)
        in
        Fault.crash ?recover_at ~at (actor ())

let prop_dsl_roundtrips_random_plans =
  (* Random plans through the smart constructors: the canonical
     rendering must parse back to a structurally equal plan. *)
  QCheck.Test.make ~name:"fault DSL round-trips random plans" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 0 6))
    (fun (seed, rules) ->
      let rng = Random.State.make [| seed; 0xd51 |] in
      let p = Fault.all (List.init rules (fun _ -> gen_rule rng)) in
      match Fault.of_string (Fault.to_string p) with
      | Ok p' -> Fault.equal p p' && Fault.to_string p' = Fault.to_string p
      | Error _ -> false)

let prop_dsl_rejects_malformed_suffixes =
  (* Appending garbage to any canonical plan string must be rejected —
     the strict parser never silently drops a trailing fragment. The
     suffixes are chosen so no rule can absorb them (no digits — a
     trailing number would extend a float; no "xN" — a dup rule printed
     without an explicit copies count would accept it). *)
  let suffixes = [| "+"; "++"; ","; ",,"; "@"; "~"; ":"; "+junk" |] in
  QCheck.Test.make ~name:"fault DSL rejects any malformed suffix" ~count:200
    QCheck.(triple (int_bound 1_000_000) (int_range 1 6) (int_bound 1_000_000))
    (fun (seed, rules, pick) ->
      let rng = Random.State.make [| seed; 0xfa17 |] in
      let p = Fault.all (List.init rules (fun _ -> gen_rule rng)) in
      let spec = Fault.to_string p ^ suffixes.(pick mod Array.length suffixes) in
      match Fault.of_string spec with Error _ -> true | Ok _ -> false)

let suite =
  [
    Alcotest.test_case "seeded plans replay identically" `Quick test_seeded_replay;
    Alcotest.test_case "fault DSL round-trips" `Quick test_dsl_roundtrip;
    Alcotest.test_case "fault DSL rejects invalid specs" `Quick
      test_dsl_rejects_invalid;
    Alcotest.test_case "fault DSL errors name the offending atom" `Quick
      test_dsl_errors_name_the_offender;
    Alcotest.test_case "pp_plan matches to_string" `Quick
      test_pp_plan_matches_to_string;
    QCheck_alcotest.to_alcotest prop_dsl_roundtrips_random_plans;
    QCheck_alcotest.to_alcotest prop_dsl_rejects_malformed_suffixes;
    Alcotest.test_case "loss 1.0 kills exactly one directed link" `Quick
      test_directed_loss_partitions_one_link;
    Alcotest.test_case "crash window drops in-flight and recovers" `Quick
      test_crash_window;
    Alcotest.test_case "duplication delivers extra copies" `Quick
      test_duplication_copies;
    Alcotest.test_case "partition cuts and heals" `Quick test_partition_window;
    Alcotest.test_case "handler-less arrivals counted" `Quick
      test_undeliverable_counted;
    Alcotest.test_case "dgreedy under 20% loss stays locally optimal" `Quick
      test_dgreedy_under_loss;
    Alcotest.test_case "faulty dgreedy runs replay identically" `Quick
      test_dgreedy_under_loss_replays;
    Alcotest.test_case "dgreedy survives a mid-run server crash" `Quick
      test_dgreedy_server_crash;
    Alcotest.test_case "greedy fail_server is consistent" `Quick
      test_greedy_fail_server;
    Alcotest.test_case "validate_assignment catches bad assignments" `Quick
      test_validate_assignment_errors;
  ]
