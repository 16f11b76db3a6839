(* Soak golden digests: seven soak configurations run in-process, each
   pinned by the MD5 of its rendered report and of its rendered event
   log. The constants are the outputs of the CLI runs

     dia soak --seed 7 --nodes 150 -k 8 --horizon 400 --rate 1.5 \
       --fault 'loss:0.1+crash:2@60~180+crash:5@220~300' \
       --checkpoint-every 100 --budget B [EXTRA]

   for the chaos soaks at budget 8 and 64, the load soak
   (EXTRA = --delay mm1:30, budget 8), the load soak with the offline
   baseline stream (EXTRA = --delay mm1:30 --baseline, budget 8; its
   report's competitive line folds every re-solve of the survivor
   problem under the delay model) and a capacitated soak
   (EXTRA = --capacity 30 --clients 200 --baseline, budget 8), the
   chaos soak without standbys (EXTRA = --no-standby, budget 8: every
   crash takes the full-migration failover path) and the chaos soak in
   weighted mode (EXTRA = --coreset-eps 0.2, budget 8: the one mode that
   builds every pair of the latency matrix). A refactor that leaves the
   control plane's behaviour alone keeps every byte of both; a
   deliberate behaviour change updates the constants and says so. *)

module Soak = Dia_runtime.Soak
module Event_log = Dia_runtime.Event_log

let chaos_scenario =
  {
    Soak.default_scenario with
    seed = 7;
    nodes = 150;
    servers = 8;
    horizon = 400.;
    join_rate = 1.5;
    fault =
      (match Dia_sim.Fault.of_string "loss:0.1+crash:2@60~180+crash:5@220~300" with
      | Ok p -> p
      | Error m -> failwith m);
  }

let config ~budget = { Soak.default_config with budget; checkpoint_every = 100 }

let mm1_30 =
  match Dia_core.Delay.of_string "mm1:30" with Ok d -> d | Error m -> failwith m

let cases =
  [
    ( "chaos budget 8",
      chaos_scenario,
      config ~budget:8,
      "03974d4141734dc75c16161311f5d273",
      "e086cdd400202afd376dfda55d923875" );
    ( "chaos budget 64",
      chaos_scenario,
      config ~budget:64,
      "d2c577b7d05d395166b69a46b0fee916",
      "de411aad5248d298ad0c9b3f3fa41373" );
    ( "load mm1:30",
      { chaos_scenario with delay = Some mm1_30 },
      config ~budget:8,
      "158675fc0654faf0d48277a0a8a3e371",
      "0e2998e9d09169067dea80070923168d" );
    ( "load mm1:30 + baseline",
      { chaos_scenario with delay = Some mm1_30 },
      { (config ~budget:8) with offline_baseline = true },
      "d4dc96261e7bdbee87caa07173b0c992",
      "0e2998e9d09169067dea80070923168d" );
    ( "capacity 30",
      { chaos_scenario with capacity = Some 30; clients = 200 },
      { (config ~budget:8) with offline_baseline = true },
      "68a265ca5ccea85b0a377f9f368173f1",
      "a33d1c6a6bcbbab2c752fd0e21e66ec5" );
    ( "no standby",
      chaos_scenario,
      { (config ~budget:8) with standby = false },
      "cb11812665c00176b16b2bcc69de1da3",
      "5a674a59cfe508e8a1e2267c8a23fcb1" );
    ( "coreset eps 0.2",
      { chaos_scenario with coreset_eps = Some 0.2 },
      config ~budget:8,
      "58903d06e469e8b21ab0268818dba873",
      "9dba943c07fbb24d210c7021f122483c" );
  ]

let run_case (name, scenario, config, report_md5, log_md5) =
  Alcotest.test_case name `Quick (fun () ->
      match Soak.run scenario config with
      | Soak.Killed _ -> Alcotest.fail "soak stopped before the end of its trace"
      | Soak.Completed r ->
          let md5 s = Digest.to_hex (Digest.string s) in
          Alcotest.(check string) "report" report_md5 (md5 (Soak.render r));
          Alcotest.(check string) "event log" log_md5
            (md5 (Event_log.render r.Soak.log)))

(* The newest checkpoint generation of the chaos budget-8 case run with
   a state dir — the MD5 of ckpt.10 after

     dia soak <the chaos arguments above> --budget 8 --state-dir DIR

   A change to the checkpoint codec, or to what a checkpoint captures
   of the controller, changes these bytes. *)
let test_generation_digest () =
  let dir = Filename.temp_dir "dia_soak_golden" "" in
  (match Soak.run ~state_dir:dir chaos_scenario (config ~budget:8) with
  | Soak.Killed _ -> Alcotest.fail "soak stopped before the end of its trace"
  | Soak.Completed _ -> ());
  Alcotest.(check (option int)) "newest generation" (Some 10)
    (Dia_runtime.Generation.latest ~dir);
  Alcotest.(check string) "ckpt.10" "6cde7bf53fb6a108752e17204bdbd5a9"
    (Digest.to_hex (Digest.file (Dia_runtime.Generation.path ~dir 10)))

let suite =
  List.map run_case cases
  @ [
      Alcotest.test_case "chaos budget 8: newest generation" `Quick
        test_generation_digest;
    ]
