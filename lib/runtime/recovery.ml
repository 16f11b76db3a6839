let journal_path dir = Filename.concat dir "journal"
let recovery_log_path dir = Filename.concat dir "recovery.log"

type restore = {
  generation : (int * Checkpoint.state) option;
  skipped : (int * string) list;
  journal : Journal.journal option;
  journal_note : string option;
  replayed : int;
}

(* The rollback side-channel: Recovery entries are operator telemetry,
   never part of the canonical soak log (whose bytes must stay identical
   to the uninterrupted run's), so they append to their own file. *)
let append_recovery_entry ~dir entry =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644
      (recovery_log_path dir)
  in
  output_string oc (Event_log.to_line entry ^ "\n");
  close_out oc

let restore ~dir ~digest =
  let journal, journal_note =
    match Journal.read (journal_path dir) with
    | Error m -> (None, Some m)
    | Ok j when j.Journal.digest <> digest ->
        (None, Some "journal digest mismatch (different scenario/config)")
    | Ok j -> (Some j, j.Journal.torn)
  in
  (* A generation is only as good as the history behind it: its cut must
     lie inside the journal's valid prefix, which then rebuilds the
     log and the sampled points. *)
  let accept st =
    let c = st.Checkpoint.history in
    match Option.bind journal (fun j -> Journal.prefix j c) with
    | Some records -> Checkpoint.with_history st records
    | None ->
        Error
          (Printf.sprintf
             "journal does not cover the history cut (%d records, %d bytes, \
              crc %08x)"
             c.Journal.records c.Journal.bytes c.Journal.crc)
  in
  let generation, skipped = Generation.newest_verifying ~accept ~dir ~digest () in
  let cursor =
    match generation with Some (_, st) -> st.Checkpoint.cursor | None -> 0
  in
  let replayed =
    match journal with
    | None -> 0
    | Some j ->
        List.length
          (List.filter (fun r -> r.Journal.cursor >= cursor) j.Journal.records)
  in
  (if skipped <> [] then
     let time =
       match generation with Some (_, st) -> st.Checkpoint.now | None -> 0.
     in
     let generation_n = match generation with Some (g, _) -> g | None -> 0 in
     append_recovery_entry ~dir
       {
         Event_log.time;
         kind =
           Event_log.Recovery
             { generation = generation_n; skipped = List.length skipped; replayed };
       });
  { generation; skipped; journal; journal_note; replayed }

(* --- the byte-level audit --------------------------------------------- *)

let is_prefix ~prefix s =
  String.length prefix <= String.length s
  && String.sub s 0 (String.length prefix) = prefix

let payloads records = String.concat "" (List.map (fun r -> r.Journal.payload) records)

let audit ~journal ~restored ~final_log =
  let final = Event_log.render final_log in
  let cursor, pre =
    match restored with
    | Some st -> (st.Checkpoint.cursor, Event_log.render st.Checkpoint.log)
    | None -> (0, "")
  in
  let head = List.filter (fun r -> r.Journal.cursor < cursor) journal.Journal.records in
  if not (is_prefix ~prefix:pre final) then
    Error "restored checkpoint log is not a byte-prefix of the final log"
  else if payloads head <> pre then
    Error "journal head does not byte-match the restored checkpoint's log"
  else if not (is_prefix ~prefix:(payloads journal.Journal.records) final) then
    Error "journal does not byte-match the log replayed from the start"
  else Ok (List.length journal.Journal.records)

(* --- the end-to-end verification harness ------------------------------ *)

type verdict = { ok : bool; lines : string list }

let verify ?(keep = 3) ~state_dir ~kill_at_event scenario config =
  Soak.validate ~keep ~kill_at_event scenario config;
  let lines = ref [] and failed = ref false in
  let check name ok detail =
    if not ok then failed := true;
    lines :=
      Printf.sprintf "%s %-24s %s" (if ok then "ok  " else "FAIL") name detail
      :: !lines
  in
  let note name detail =
    lines := Printf.sprintf "     %-24s %s" name detail :: !lines
  in
  let verdict () = { ok = not !failed; lines = List.rev !lines } in
  let dg = Soak.digest scenario config in
  match Soak.run scenario config with
  | Soak.Killed _ ->
      check "reference-run" false "uninterrupted run reported Killed";
      verdict ()
  | Soak.Completed base -> (
      let disk = Disk.create scenario.fault in
      let faulted =
        Soak.run ~state_dir ~keep ~disk ~kill_at_event scenario config
      in
      note "disk-faults"
        (Printf.sprintf "%d of the plan's disk rules fired"
           (Disk.faults_fired disk));
      match faulted with
      | Soak.Completed r ->
          (* The kill point lay past the end of the trace: nothing to
             recover, but the run must still match the reference. *)
          check "kill-fires" true
            (Printf.sprintf "kill_at_event %d past the last event; run completed"
               kill_at_event);
          check "report-bit-identical" (Soak.render r = Soak.render base) "";
          check "log-bit-identical"
            (Event_log.render r.Soak.log = Event_log.render base.Soak.log)
            "";
          verdict ()
      | Soak.Killed killed_st -> (
          check "kill-fires" true
            (Printf.sprintf "killed after event %d (cursor %d)" kill_at_event
               killed_st.Checkpoint.cursor);
          let r = restore ~dir:state_dir ~digest:dg in
          (match r.generation with
          | Some (g, st) ->
              check "generation-restored" true
                (Printf.sprintf "ckpt.%d (cursor %d)%s" g st.Checkpoint.cursor
                   (match r.skipped with
                   | [] -> ""
                   | sk ->
                       Printf.sprintf "; rolled back over %d corrupt newer: %s"
                         (List.length sk)
                         (String.concat "; "
                            (List.map
                               (fun (g, m) -> Printf.sprintf "ckpt.%d: %s" g m)
                               sk))))
          | None ->
              check "generation-restored" true
                (Printf.sprintf
                   "no verifying generation (%d corrupt); restarting from \
                    scratch"
                   (List.length r.skipped)));
          (match r.journal_note with
          | Some m -> note "journal" m
          | None -> ());
          (* The resumed process continues the same state dir; its own
             writes are fault-free, so the journal it leaves behind must
             hold exactly the final log. *)
          let resumed =
            Soak.run ~state_dir ~keep ~disk:(Disk.none ())
              ?resume_from:(Option.map snd r.generation)
              scenario config
          in
          match resumed with
          | Soak.Killed _ ->
              check "resume-completes" false "resumed run reported Killed";
              verdict ()
          | Soak.Completed resumed ->
              check "report-bit-identical"
                (Soak.render resumed = Soak.render base)
                "render output matches the uninterrupted run byte-for-byte";
              check "log-bit-identical"
                (Event_log.render resumed.Soak.log
                = Event_log.render base.Soak.log)
                "event log matches the uninterrupted run byte-for-byte";
              (match r.journal with
              | None ->
                  note "journal-audit"
                    "no committed journal to audit (header lost)"
              | Some j -> (
                  match
                    audit ~journal:j
                      ~restored:(Option.map snd r.generation)
                      ~final_log:resumed.Soak.log
                  with
                  | Ok n ->
                      check "journal-audit" true
                        (Printf.sprintf
                           "%d committed records byte-match the replay" n)
                  | Error m -> check "journal-audit" false m));
              check "journal-is-the-history"
                (match Journal.read (journal_path state_dir) with
                | Ok j ->
                    payloads j.Journal.records = Event_log.render resumed.Soak.log
                | Error _ -> false)
                "the continued journal's log payloads equal the final log";
              verdict ()))
