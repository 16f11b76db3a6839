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
   chaos soak in weighted mode (EXTRA = --coreset-eps 0.2, budget 8:
   the one mode that builds every pair of the latency matrix), and a
   capacitated soak (EXTRA = --capacity 30 --clients 215, budget 8: its
   first crash re-homes 19 orphans greedily under capacity and strands
   11). A refactor that leaves the
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
      "17ca6593263298452ef1b53592a20650",
      "5a674a59cfe508e8a1e2267c8a23fcb1" );
    ( "chaos budget 64",
      chaos_scenario,
      config ~budget:64,
      "ee511f666d5c4f18c1f88b61b9ce3f6c",
      "2d9f66264671e93d1705228b4bb1886c" );
    ( "load mm1:30",
      { chaos_scenario with delay = Some mm1_30 },
      config ~budget:8,
      "e061b632e1634180899aee24019cfbe4",
      "52ee16db8976c1d63e49080d6e2f7123" );
    ( "load mm1:30 + baseline",
      { chaos_scenario with delay = Some mm1_30 },
      { (config ~budget:8) with offline_baseline = true },
      "3280bf63b69fe326187d8717814df77b",
      "52ee16db8976c1d63e49080d6e2f7123" );
    ( "capacity 30",
      { chaos_scenario with capacity = Some 30; clients = 200 },
      { (config ~budget:8) with offline_baseline = true },
      "2a22bdf8dd2c3fda81c16407ccbe8493",
      "5f36309f92dd6a08a5ab0927878d8933" );
    ( "coreset eps 0.2",
      { chaos_scenario with coreset_eps = Some 0.2 },
      config ~budget:8,
      "cbca728990ceeb1da2b61114c856dd7e",
      "6ddb89337e19e82d7534721e26dec397" );
    ( "capacity 30, 215 clients",
      { chaos_scenario with capacity = Some 30; clients = 215 },
      config ~budget:8,
      "e5b4ff4d74ab6bd34da3a58d0619c7f8",
      "828587c625f17af65282ecd8c91694b9" );
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

(* The state dir of a soak run with one: the MD5 of its newest
   checkpoint generation and of its journal after

     dia soak <the chaos arguments above> --budget 8 [EXTRA] --state-dir DIR

   for the chaos budget-8 case (EXTRA empty) and the load case with the
   offline baseline (EXTRA = --delay mm1:30 --baseline), whose journal
   carries baseline= point lines and d_load transitions. A change to the
   checkpoint or journal codec, or to what either captures of the
   controller, changes these bytes. *)
let generation_case name scenario config ~newest ~ckpt_md5 ~journal_md5 =
  Alcotest.test_case name `Quick (fun () ->
      let dir = Filename.temp_dir "dia_soak_golden" "" in
      (match Soak.run ~state_dir:dir scenario config with
      | Soak.Killed _ -> Alcotest.fail "soak stopped before the end of its trace"
      | Soak.Completed _ -> ());
      Alcotest.(check (option int)) "newest generation" (Some newest)
        (Dia_runtime.Generation.latest ~dir);
      Alcotest.(check string) (Printf.sprintf "ckpt.%d" newest) ckpt_md5
        (Digest.to_hex (Digest.file (Dia_runtime.Generation.path ~dir newest)));
      Alcotest.(check string) "journal" journal_md5
        (Digest.to_hex (Digest.file (Filename.concat dir "journal"))))

let suite =
  List.map run_case cases
  @ [
      generation_case "chaos budget 8: newest generation" chaos_scenario
        (config ~budget:8) ~newest:10 ~ckpt_md5:"eb81e4d9de532a77cc1aba534784ad7e"
        ~journal_md5:"d3de698ec420bad90af5be6b1339d14d";
      generation_case "load mm1:30 + baseline: newest generation"
        { chaos_scenario with delay = Some mm1_30 }
        { (config ~budget:8) with offline_baseline = true }
        ~newest:10 ~ckpt_md5:"3bfc39639bf79a8b5e4f98bd89b156cc"
        ~journal_md5:"c4949aee703a8a1d26c9641dbbe7938e";
    ]
