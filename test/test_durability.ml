(* Tests for the durable-recovery layer: the write-ahead journal,
   checkpoint generations, the storage fault injector, the hardened
   checkpoint decoder, and the end-to-end recovery verification harness.
   The centrepiece is the boundary-free determinism property: a run
   killed at ANY event index — not just a checkpoint boundary — and
   recovered (newest verifying generation + journal replay) must be
   bit-identical to the uninterrupted run, even while the scenario's
   disk-fault plan corrupts the very files recovery depends on. *)

module Crc = Dia_runtime.Crc
module Disk = Dia_runtime.Disk
module Journal = Dia_runtime.Journal
module Generation = Dia_runtime.Generation
module Checkpoint = Dia_runtime.Checkpoint
module Event_log = Dia_runtime.Event_log
module Recovery = Dia_runtime.Recovery
module Soak = Dia_runtime.Soak
module Fault = Dia_sim.Fault

let plan spec =
  match Fault.of_string spec with Ok p -> p | Error m -> failwith m

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dia_durability_%d_%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    dir

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let contains s sub =
  let n = String.length s and ls = String.length sub in
  let rec go i = i <= n - ls && (String.sub s i ls = sub || go (i + 1)) in
  go 0

(* Recompute the [crc=] lines of an edited checkpoint, so that a hostile
   edit gets past the section checksums to the field checks. *)
let reseal text =
  let lists = [ "member"; "session"; "drift"; "queue" ] in
  let bodies = List.map (fun name -> (name, Buffer.create 256)) ("scalars" :: lists) in
  match
    List.filter
      (fun l -> l <> "" && l <> "end" && not (String.starts_with ~prefix:"crc=" l))
      (String.split_on_char '\n' text)
  with
  | [] -> text
  | header :: content ->
      List.iter
        (fun l ->
          let key = String.sub l 0 (String.index l '=') in
          let section = if List.mem key lists then key else "scalars" in
          Printf.bprintf (List.assoc section bodies) "%s\n" l)
        content;
      let crcs =
        List.map
          (fun (name, b) -> Printf.sprintf "crc=%s:%s" name (Crc.hex (Buffer.contents b)))
          bodies
      in
      String.concat "\n" ((header :: content) @ crcs @ [ "end"; "" ])

(* Edit a checkpoint's [key=] lines: [f] maps each one to the lines
   that replace it. *)
let edit_key key f text =
  String.split_on_char '\n' text
  |> List.concat_map (fun l ->
         if String.starts_with ~prefix:(key ^ "=") l then f l else [ l ])
  |> String.concat "\n"

let set_key key v = edit_key key (fun _ -> [ key ^ "=" ^ v ])

(* The same small chaos scenario the runtime tests soak: 40 nodes, 4
   servers, one crash mid-run, checkpoints every 20 events. *)
let small_scenario =
  {
    Soak.default_scenario with
    Soak.seed = 9;
    nodes = 40;
    servers = 4;
    horizon = 60.;
    drift_period = 10.;
    fault = plan "loss:0.1+crash:1@20~45";
  }

let small_config = { Soak.default_config with Soak.checkpoint_every = 20 }

(* Killed right after the first checkpoint. *)
let killed scenario config =
  match
    Soak.run ~kill_at_event:(config.Soak.checkpoint_every - 1) scenario config
  with
  | Soak.Completed _ -> Alcotest.fail "kill_at_event ignored"
  | Soak.Killed st -> st

(* --- Crc --- *)

let test_crc_known_values () =
  (* The CRC-32 check value from the specification. *)
  Alcotest.(check string) "empty" "00000000" (Crc.hex "");
  Alcotest.(check string) "check value" "cbf43926" (Crc.hex "123456789");
  Alcotest.(check bool) "flip detected" true (Crc.digest "a" <> Crc.digest "b")

(* --- Disk: the storage fault injector --- *)

let test_disk_injector_targets_named_ops () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "f" in
  let data = String.init 64 (fun i -> Char.chr (65 + (i mod 26))) in
  let d = Disk.create (plan "torn:2@10+flip:3@4") in
  Alcotest.(check bool) "plan carries disk rules" true (Disk.active d);
  (* op 1: clean atomic write *)
  Disk.write_file d ~path data;
  Alcotest.(check string) "op 1 untouched" data (read_file path);
  (* op 2: torn at byte 10 *)
  Disk.write_file d ~path data;
  Alcotest.(check string) "op 2 torn" (String.sub data 0 10) (read_file path);
  (* op 3: bit flip at byte 4 *)
  Disk.write_file d ~path data;
  let got = read_file path in
  Alcotest.(check int) "op 3 full length" (String.length data)
    (String.length got);
  Alcotest.(check bool) "op 3 flipped exactly byte 4" true
    (got <> data
    && String.sub got 0 4 = String.sub data 0 4
    && String.sub got 5 (String.length data - 5)
       = String.sub data 5 (String.length data - 5));
  Alcotest.(check int) "both faults fired" 2 (Disk.faults_fired d)

let test_disk_injector_rename_crash_and_fsync_loss () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "f" in
  let d = Disk.create (plan "rename:1+fsync:2@3") in
  (* op 1: crash between tmp write and rename — only the tmp survives *)
  Disk.write_file d ~path "first";
  Alcotest.(check bool) "target absent after rename crash" false
    (Sys.file_exists path);
  Alcotest.(check bool) "tmp left behind" true (Sys.file_exists (path ^ ".tmp"));
  (* op 2: rename happens but the fsync'd length is lost *)
  Disk.write_file d ~path "second";
  Alcotest.(check string) "fsync loss keeps only the prefix" "sec"
    (read_file path)

(* --- Journal --- *)

let buf s =
  let b = Buffer.create 16 in
  Buffer.add_string b s;
  b

let test_journal_roundtrip () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal" in
  let w = Journal.create ~path ~digest:"cafe" () in
  Journal.append w ~cursor:7 (buf "t=1 join session=1\n");
  Journal.append w ~cursor:8 ~points:(buf "trace=1,2,3\n") (buf "");
  Journal.append w ~cursor:9 (buf "binary \x00 payload\nwith newlines\n");
  Alcotest.(check int) "position counts buffered records" 3
    (Journal.position w).Journal.records;
  Journal.close w;
  Journal.close w (* idempotent *);
  match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check string) "digest" "cafe" j.Journal.digest;
      Alcotest.(check bool) "clean end" true (j.Journal.torn = None);
      Alcotest.(check bool) "records survive byte-exactly" true
        (List.map
           (fun r -> (r.Journal.cursor, r.Journal.payload, r.Journal.points))
           j.Journal.records
        = [
            (7, "t=1 join session=1\n", "");
            (8, "", "trace=1,2,3\n");
            (9, "binary \x00 payload\nwith newlines\n", "");
          ]);
      (* the last record ends the file, with the file's running CRC *)
      let text = read_file path in
      Alcotest.(check bool) "cuts are byte positions with their CRC" true
        ((List.nth j.Journal.records 2).Journal.upto
        = { Journal.records = 3; bytes = String.length text; crc = Crc.digest text })

let test_journal_torn_tail_keeps_prefix () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal" in
  let w = Journal.create ~path ~digest:"d" () in
  Journal.append w ~cursor:0 (buf "alpha\n");
  Journal.append w ~cursor:1 (buf "beta\n");
  Journal.close w;
  let whole = read_file path in
  (* tear mid-way through the second record *)
  write_file path (String.sub whole 0 (String.length whole - 3));
  (match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check int) "valid prefix kept" 1 (List.length j.Journal.records);
      Alcotest.(check bool) "tear reported" true (j.Journal.torn <> None));
  (* corrupt the first record's payload: nothing commits *)
  let flip i s =
    String.mapi (fun k c -> if k = i then Char.chr (Char.code c lxor 1) else c) s
  in
  write_file path (flip (String.length whole - 3) whole);
  (match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check int) "crc catches the flip" 1 (List.length j.Journal.records);
      Alcotest.(check bool) "tear reported" true (j.Journal.torn <> None));
  (* a destroyed header is a hard error, not a torn journal *)
  write_file path "not a journal";
  (match Journal.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage header accepted");
  match Journal.read (Filename.concat dir "absent") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let test_journal_reopen_truncates_at_the_cut () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal" in
  let w = Journal.create ~path ~digest:"d" () in
  Journal.append w ~cursor:0 (buf "alpha\n");
  let cut = Journal.position w in
  Journal.append w ~cursor:1 (buf "beta\n");
  Journal.close w;
  let refused c =
    match Journal.reopen ~path ~digest:"d" c with
    | exception Invalid_argument _ -> true
    | w ->
        Journal.close w;
        false
  in
  Alcotest.(check bool) "a cut before the header" true
    (refused { Journal.records = 0; bytes = 0; crc = 0 });
  Alcotest.(check bool) "a cut with another crc" true
    (refused { cut with Journal.crc = cut.Journal.crc lxor 1 });
  Alcotest.(check bool) "another digest" true
    (match Journal.reopen ~path ~digest:"e" cut with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let w = Journal.reopen ~path ~digest:"d" cut in
  Journal.append w ~cursor:1 (buf "gamma\n");
  Journal.close w;
  match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check (list string)) "the tail past the cut is replaced"
        [ "alpha\n"; "gamma\n" ]
        (List.map (fun r -> r.Journal.payload) j.Journal.records);
      Alcotest.(check bool) "clean end" true (j.Journal.torn = None)

let test_journal_jtorn_plan_wedges_device () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal" in
  let disk = Disk.create (plan "jtorn:2@5") in
  (* flush_every:1 — the header is flush op 1, the first record op 2 *)
  let w = Journal.create ~disk ~flush_every:1 ~path ~digest:"d" () in
  Journal.append w ~cursor:0 (buf "alpha\n");
  Journal.append w ~cursor:1 (buf "beta\n");
  Journal.close w;
  Alcotest.(check int) "the tear fired" 1 (Disk.faults_fired disk);
  match Journal.read path with
  | Error m -> Alcotest.fail m
  | Ok j ->
      Alcotest.(check int) "nothing committed past the tear" 0
        (List.length j.Journal.records);
      Alcotest.(check bool) "tear reported" true (j.Journal.torn <> None)

(* --- Generation --- *)

let test_generation_save_prunes_to_keep () =
  let st = killed small_scenario small_config in
  let dir = fresh_dir () in
  for i = 1 to 5 do
    Alcotest.(check int) "monotonic numbering" i
      (Generation.save ~dir ~keep:3 st)
  done;
  Alcotest.(check (list int)) "last keep survive" [ 3; 4; 5 ]
    (Generation.list ~dir);
  Alcotest.(check (option int)) "latest" (Some 5) (Generation.latest ~dir);
  match Generation.newest_verifying ~dir ~digest:st.Checkpoint.digest () with
  | Some (5, st'), [] ->
      Alcotest.(check int) "restored cursor" st.Checkpoint.cursor
        st'.Checkpoint.cursor
  | _ -> Alcotest.fail "newest generation did not verify"

let test_generation_rolls_back_over_corruption () =
  let st = killed small_scenario small_config in
  let dir = fresh_dir () in
  ignore (Generation.save ~dir ~keep:3 st);
  ignore (Generation.save ~dir ~keep:3 st);
  (* flip one byte in the middle of the newest generation *)
  let p5 = Generation.path ~dir 2 in
  let body = read_file p5 in
  let i = String.length body / 2 in
  write_file p5
    (String.mapi
       (fun k c -> if k = i then Char.chr (Char.code c lxor 1) else c)
       body);
  (match Generation.newest_verifying ~dir ~digest:st.Checkpoint.digest () with
  | Some (1, _), [ (2, reason) ] ->
      Alcotest.(check bool) "reason pinpoints the corruption" true (reason <> "")
  | _ -> Alcotest.fail "rollback to the older generation did not happen");
  (* a digest mismatch is as disqualifying as corruption *)
  (match Generation.newest_verifying ~dir ~digest:"0000" () with
  | None, skipped -> Alcotest.(check int) "all rejected" 2 (List.length skipped)
  | Some _, _ -> Alcotest.fail "wrong-digest generation accepted");
  (* A newest generation whose checksums hold but whose SLO state does
     not parse is as disqualifying: restore lands on ckpt.1 and the
     resumed run finishes as the uninterrupted one. *)
  let dir = fresh_dir () in
  (match Soak.run ~state_dir:dir ~kill_at_event:47 small_scenario small_config with
  | Soak.Killed _ -> ()
  | Soak.Completed _ -> Alcotest.fail "kill did not fire");
  let p2 = Generation.path ~dir 2 in
  write_file p2 (reseal (set_key "slo" "garbage" (read_file p2)));
  let r = Recovery.restore ~dir ~digest:(Soak.digest small_scenario small_config) in
  match (r.Recovery.generation, r.Recovery.skipped) with
  | Some (1, st), [ (2, _) ] -> (
      match
        ( Soak.run small_scenario small_config,
          Soak.run ~state_dir:dir ~resume_from:st small_scenario small_config )
      with
      | Soak.Completed base, Soak.Completed resumed ->
          Alcotest.(check string) "resumed report" (Soak.render base) (Soak.render resumed)
      | _ -> Alcotest.fail "a run was killed")
  | _ -> Alcotest.fail "restore did not roll back over the unparsable SLO state"

(* --- Checkpoint hardening --- *)

let test_checkpoint_rejects_garbage () =
  let bad = [ ""; "hello"; "dia-soak-checkpoint v99\nend\n" ] in
  List.iter
    (fun text ->
      match Checkpoint.decode text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "garbage accepted: %S" text))
    bad;
  (* junk after the end marker violates the truncation guard *)
  let text = Checkpoint.encode (killed small_scenario small_config) in
  (match Checkpoint.decode (text ^ "trailing junk\n") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing junk accepted");
  (* a v4 file, which still carried a standby section, is refused by
     its header: a structured Error, never an exception *)
  let v4 =
    match String.split_on_char '\n' text with
    | _ :: body ->
        String.concat "\n" ("dia-soak-checkpoint v4" :: "standby=0,1" :: body)
    | [] -> assert false
  in
  match Checkpoint.decode v4 with
  | Error m ->
      Alcotest.(check string) "v4 refused by its header"
        "checkpoint: line 1: unsupported header \"dia-soak-checkpoint v4\"" m
  | Ok _ -> Alcotest.fail "v4 checkpoint accepted"
  | exception e -> Alcotest.fail ("v4 checkpoint raised " ^ Printexc.to_string e)

let test_checkpoint_errors_carry_line_positions () =
  let st = killed small_scenario small_config in
  let text = Checkpoint.encode st in
  Alcotest.(check string) "reseal leaves an encoded file as it is" text (reseal text);
  Alcotest.(check bool) "the killed state has sessions" true
    (st.Checkpoint.sessions <> []);
  let twice = ref false in
  let repeat_first_session l =
    if !twice then [ l ] else (twice := true; [ l; l ])
  in
  (* A value corrupted in place is caught by the scalar crc first, which
     names the section. Every other variant is re-sealed, so only the
     field checks can refuse it — none is something a resume could use
     — and the refusal names the offending line. *)
  let hostile =
    ("mangled cursor", set_key "cursor" "x" text, "section")
    :: List.map
         (fun (what, edited) -> (what, reseal edited, "[line "))
         [
           ("repeated cursor", edit_key "cursor" (fun l -> [ l; "cursor=3" ]) text);
           ("unknown key", edit_key "digest" (fun l -> [ l; "bogus=1" ]) text);
           ("negative cursor", set_key "cursor" "-5" text);
           ("negative count", set_key "admitted" "-7" text);
           ("non-finite now", set_key "now" "nan" text);
           ("garbage slo", set_key "slo" "garbage" text);
           ("zero capacity", set_key "capacity" "0" text);
           ("repeated session id", edit_key "session" repeat_first_session text);
         ]
  in
  List.iter
    (fun (what, mangled, names) ->
      match Checkpoint.decode mangled with
      | Ok _ -> Alcotest.fail (what ^ " accepted")
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: the error names its %s (%s)" what names m)
            true (contains m names)
      | exception e -> Alcotest.fail (what ^ " raised " ^ Printexc.to_string e))
    hostile

let prop_mutation_fuzzer_never_panics =
  (* Every single-byte flip and every proper truncation of a real
     checkpoint must decode to a structured Error — never raise, never
     yield a partial state. *)
  let text =
    lazy (Checkpoint.encode (killed small_scenario small_config))
  in
  QCheck.Test.make ~name:"byte flips and truncations always decode to Error"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (pos, truncate) ->
      let text = Lazy.force text in
      let n = String.length text in
      let mutated =
        if truncate then String.sub text 0 (pos mod n)
        else
          String.mapi
            (fun i c ->
              if i = pos mod n then Char.chr (Char.code c lxor 1) else c)
            text
      in
      match Checkpoint.decode mutated with
      | Ok _ -> false
      | Error m -> String.length m > 0
      | exception _ -> false)

let test_newer_generation_skipped_untouched () =
  let st = killed small_scenario small_config in
  let dir = fresh_dir () in
  ignore (Generation.save ~dir ~keep:3 st);
  let future =
    Printf.sprintf "dia-soak-checkpoint v%d\nfrom the future\nend\n"
      (Checkpoint.version + 1)
  in
  write_file (Generation.path ~dir 2) future;
  (match Generation.newest_verifying ~dir ~digest:st.Checkpoint.digest () with
  | Some (1, _), [ (2, reason) ] ->
      Alcotest.(check bool) (Printf.sprintf "reason names the header (%s)" reason)
        true (reason <> "")
  | _ -> Alcotest.fail "newer-version generation was not skipped");
  (* a later save numbers past it and leaves its bytes alone *)
  Alcotest.(check int) "next generation" 3 (Generation.save ~dir ~keep:3 st);
  Alcotest.(check string) "newer file untouched" future
    (read_file (Generation.path ~dir 2))

(* --- Journal: hostile input --- *)

let journal_text =
  lazy
    (let dir = fresh_dir () in
     match Soak.run ~state_dir:dir small_scenario small_config with
     | Soak.Killed _ -> Alcotest.fail "run killed"
     | Soak.Completed r -> (read_file (Recovery.journal_path dir), r.Soak.log))

let test_journal_hostile_lengths () =
  List.iter
    (fun len ->
      let text =
        Printf.sprintf "dia-soak-journal v2\ndigest=d\nrec cursor=0 len=%s pts=0 \
                        crc=00000000\nabc\n"
          len
      in
      match Journal.parse text with
      | Ok { Journal.records = []; torn = Some _; _ } -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "len=%s parsed a record" len)
      | Error m -> Alcotest.fail m
      | exception e ->
          Alcotest.fail (Printf.sprintf "len=%s raised %s" len (Printexc.to_string e)))
    [ "4611686018427387903"; string_of_int max_int; "4"; "99999999999999999999" ]

let flip_bit s pos bit =
  String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c) s

(* Byte flips, truncations and oversized record lengths: the reader
   returns the valid prefix of the original records (byte for byte) or
   a structured Error — never an exception. *)
let prop_journal_mutations_never_raise =
  QCheck.Test.make ~name:"journal reader survives flips, truncations, huge lengths"
    ~count:400
    QCheck.(triple (int_range 0 2) (int_bound 1_000_000) int)
    (fun (kind, pos, big) ->
      let text, _ = Lazy.force journal_text in
      let n = String.length text in
      let pos = pos mod n in
      let mutated =
        match kind with
        | 0 -> flip_bit text pos (big land 7)
        | 1 -> String.sub text 0 pos
        | _ -> (
            (* rewrite the first record length at or after [pos] *)
            let rec find i =
              if i + 4 > n then None
              else if String.sub text i 4 = "len=" then Some (i + 4)
              else find (i + 1)
            in
            match find pos with
            | None -> text
            | Some at ->
                let stop = String.index_from text at ' ' in
                String.sub text 0 at ^ string_of_int (abs big lor (1 lsl 40))
                ^ String.sub text stop (n - stop))
      in
      let body r = r.Journal.payload ^ r.Journal.points in
      match (Journal.parse mutated, Journal.parse text) with
      | Error m, _ -> String.length m > 0
      | Ok j, Ok orig ->
          let rec prefix = function
            | [], _ -> true
            | r :: rs, o :: os -> body r = body o && prefix (rs, os)
            | _ :: _, [] -> false
          in
          prefix (j.Journal.records, orig.Journal.records)
      | Ok _, Error _ -> false
      | exception _ -> false)

let prop_event_log_mutations_never_raise =
  QCheck.Test.make ~name:"event-log parser survives flips, truncations, huge numbers"
    ~count:400
    QCheck.(quad (int_bound 10_000) (int_range 0 2) (int_bound 1_000) int)
    (fun (which, kind, pos, big) ->
      let _, log = Lazy.force journal_text in
      (* The scenario never escalates to Critical, so every fourth case
         mutates a protocol-repair line (both outcomes) instead. *)
      let entry =
        if which mod 4 = 0 then
          {
            Event_log.time = 248.31129755754864;
            kind =
              Event_log.Protocol_repair
                {
                  moves = which mod 97;
                  applied = which mod 8 = 0;
                  before = 232.24146735759976;
                  after =
                    (if which mod 8 = 0 then 224.85212893964086
                     else 232.24146735759976);
                };
          }
        else List.nth log (which mod List.length log)
      in
      let line = Event_log.to_line entry in
      let n = String.length line in
      let pos = pos mod n in
      let mutated =
        match kind with
        | 0 -> flip_bit line pos (big land 7)
        | 1 -> String.sub line 0 pos
        | _ -> String.sub line 0 pos ^ string_of_int big ^ "e999" ^ String.sub line pos (n - pos)
      in
      match Event_log.of_line mutated with
      | Ok _ -> true
      | Error m -> String.length m > 0
      | exception _ -> false)

(* --- Kill/resume on the continuing journal --- *)

let complete scenario config =
  match Soak.run scenario config with
  | Soak.Completed r -> r
  | Soak.Killed _ -> Alcotest.fail "run killed without a kill point"

(* One process of a crash-looping run: restore from [dir], resume into
   it, optionally die again at [kill_at_event]. *)
let restore_and_resume ~dir ?kill_at_event scenario config =
  let r = Recovery.restore ~dir ~digest:(Soak.digest scenario config) in
  ( r,
    Soak.run ~state_dir:dir ?kill_at_event
      ?resume_from:(Option.map snd r.Recovery.generation)
      scenario config )

(* The command
     dia soak --seed 7 --nodes 150 -k 8 --horizon 400 --rate 1.5 \
       --checkpoint-every 100 --state-dir st --kill-event 250
   followed by a CRC-resealed ckpt.2 whose first member line reads
   member=0,99999,0. Every section verifies, so the plain restore lands
   on it, but node 99999 lies outside the 150-node matrix and the resume
   would die in Dynamic.restore. [restore_for] skips it by name and
   rolls back to ckpt.1, and the resumed run finishes as the
   uninterrupted one. *)
let test_unresumable_generation_skipped () =
  let scenario =
    {
      Soak.default_scenario with
      Soak.seed = 7;
      nodes = 150;
      servers = 8;
      horizon = 400.;
      join_rate = 1.5;
    }
  in
  let config = { Soak.default_config with Soak.checkpoint_every = 100 } in
  let dir = fresh_dir () in
  (match Soak.run ~state_dir:dir ~kill_at_event:250 scenario config with
  | Soak.Killed _ -> ()
  | Soak.Completed _ -> Alcotest.fail "kill did not fire");
  let p2 = Generation.path ~dir 2 in
  let first = ref true in
  write_file p2
    (reseal
       (edit_key "member"
          (fun l ->
            if !first then begin
              first := false;
              [ "member=0,99999,0" ]
            end
            else [ l ])
          (read_file p2)));
  (match (Recovery.restore ~dir ~digest:(Soak.digest scenario config)).Recovery.generation with
  | Some (2, _) -> ()
  | _ -> Alcotest.fail "the resealed ckpt.2 no longer verifies");
  match Recovery.restore_for scenario config ~dir with
  | { Recovery.generation = Some (1, st); skipped = [ (2, reason) ]; _ } -> (
      Alcotest.(check bool)
        ("reason names the node: " ^ reason)
        true
        (contains reason "node 99999 out of range");
      match (Soak.run scenario config, Soak.run ~state_dir:dir ~resume_from:st scenario config) with
      | Soak.Completed base, Soak.Completed resumed ->
          Alcotest.(check string) "resumed report" (Soak.render base) (Soak.render resumed);
          Alcotest.(check string) "resumed event log"
            (Event_log.render base.Soak.log)
            (Event_log.render resumed.Soak.log)
      | _ -> Alcotest.fail "a run was killed")
  | _ -> Alcotest.fail "restore_for did not roll back to ckpt.1"

let test_two_kill_resume_cycles () =
  let modes =
    [
      ("plain", small_scenario);
      ("delay", { small_scenario with Soak.delay = Some (Dia_core.Delay.Queueing { mu = 12. }) });
      ("coreset", { small_scenario with Soak.clients = 2_000; coreset_eps = Some 0.2 });
    ]
  in
  List.iter
    (fun (mode, scenario) ->
      let base = complete scenario small_config in
      let dir = fresh_dir () in
      (match Soak.run ~state_dir:dir ~kill_at_event:33 scenario small_config with
      | Soak.Killed _ -> ()
      | Soak.Completed _ -> Alcotest.fail "first kill did not fire");
      (match restore_and_resume ~dir ~kill_at_event:71 scenario small_config with
      | { Recovery.generation = Some (_, st); _ }, Soak.Killed _ ->
          Alcotest.(check int) (mode ^ ": first restore at the boundary") 20
            st.Checkpoint.cursor
      | _ -> Alcotest.fail "second kill did not fire after a restore");
      match restore_and_resume ~dir scenario small_config with
      | _, Soak.Killed _ -> Alcotest.fail "final resume killed"
      | r, Soak.Completed resumed -> (
          (match r.Recovery.generation with
          | Some (_, st) ->
              Alcotest.(check int) (mode ^ ": second restore at the boundary") 60
                st.Checkpoint.cursor
          | None -> Alcotest.fail "second restore found no generation");
          Alcotest.(check string) (mode ^ ": report") (Soak.render base)
            (Soak.render resumed);
          Alcotest.(check string) (mode ^ ": event log")
            (Event_log.render base.Soak.log)
            (Event_log.render resumed.Soak.log);
          (match r.Recovery.journal with
          | Some journal ->
              Alcotest.(check bool) (mode ^ ": audit") true
                (Result.is_ok
                   (Recovery.audit ~journal
                      ~restored:(Option.map snd r.Recovery.generation)
                      ~final_log:resumed.Soak.log))
          | None -> Alcotest.fail "journal unreadable");
          match Journal.read (Recovery.journal_path dir) with
          | Error m -> Alcotest.fail m
          | Ok j ->
              Alcotest.(check string) (mode ^ ": the journal holds the final log")
                (Event_log.render base.Soak.log)
                (String.concat "" (List.map (fun r -> r.Journal.payload) j.Journal.records))))
    modes

(* The checkpoint generations and the journal of a state dir, by name. *)
let state_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> f = "journal" || String.starts_with ~prefix:"ckpt." f)
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let test_generation_bytes_survive_kill_resume () =
  (* A killed, restored and resumed run rewrites the state dir it took
     over: the generations it saves and the journal it continues must
     be byte for byte those of a run that was never interrupted — the
     referee for what a checkpoint captures and a resume rebuilds. *)
  List.iter
    (fun (mode, scenario) ->
      let reference = fresh_dir () in
      ignore (Soak.run ~state_dir:reference scenario small_config);
      let dir = fresh_dir () in
      (match Soak.run ~state_dir:dir ~kill_at_event:33 scenario small_config with
      | Soak.Killed _ -> ()
      | Soak.Completed _ -> Alcotest.fail "kill did not fire");
      (match restore_and_resume ~dir scenario small_config with
      | { Recovery.generation = Some _; _ }, Soak.Completed _ -> ()
      | _ -> Alcotest.fail "restore found no generation, or the resume was killed");
      let expected = state_files reference and got = state_files dir in
      Alcotest.(check (list string)) (mode ^ ": files") (List.map fst expected)
        (List.map fst got);
      List.iter2
        (fun (name, e) (_, g) -> Alcotest.(check string) (mode ^ ": " ^ name) e g)
        expected got)
    [
      ("plain", small_scenario);
      ("delay", { small_scenario with Soak.delay = Some (Dia_core.Delay.Queueing { mu = 12. }) });
      ("coreset", { small_scenario with Soak.clients = 2_000; coreset_eps = Some 0.2 });
    ]

let test_journal_tear_before_newest_cut () =
  (* Journal flushes: the header (op 1), then one per generation save —
     op 3 is the flush just before ckpt.2, torn 5 bytes in. ckpt.2 still
     verifies on its own, but its history is gone, so restore must fall
     back to ckpt.1. *)
  let scenario = { small_scenario with Soak.fault = plan "loss:0.1+crash:1@20~45+jtorn:3@5" } in
  let base = complete scenario small_config in
  let dir = fresh_dir () in
  (match Soak.run ~state_dir:dir ~kill_at_event:47 scenario small_config with
  | Soak.Killed _ -> ()
  | Soak.Completed _ -> Alcotest.fail "kill did not fire");
  match restore_and_resume ~dir scenario small_config with
  | { Recovery.generation = Some (1, _); skipped = [ (2, reason) ]; _ }, Soak.Completed r ->
      Alcotest.(check bool)
        (Printf.sprintf "the reason names the cut (%s)" reason)
        true
        (let sub = "history cut" in
         let rec has i =
           i + String.length sub <= String.length reason
           && (String.sub reason i (String.length sub) = sub || has (i + 1))
         in
         has 0);
      Alcotest.(check string) "report" (Soak.render base) (Soak.render r);
      Alcotest.(check string) "event log" (Event_log.render base.Soak.log)
        (Event_log.render r.Soak.log)
  | _ -> Alcotest.fail "restore did not skip the generation past the tear"

let test_resume_refuses_bare_decoded_state () =
  let st = killed small_scenario small_config in
  Alcotest.(check bool) "a killed state carries its history" true
    (Checkpoint.has_history st);
  match Checkpoint.decode (Checkpoint.encode st) with
  | Error m -> Alcotest.fail m
  | Ok bare -> (
      Alcotest.(check bool) "a decoded state does not" false
        (Checkpoint.has_history bare);
      (match Soak.run ~resume_from:bare small_scenario small_config with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "resumed from a state without its history");
      (* A cursor past the trace is refused by name, not by an
         out-of-bounds read. *)
      match
        Soak.run ~resume_from:{ st with Checkpoint.cursor = 999_999 } small_scenario
          small_config
      with
      | exception Invalid_argument m ->
          Alcotest.(check bool)
            (Printf.sprintf "the refusal names the cursor (%s)" m)
            true
            (contains m "cursor 999999" && contains m "events")
      | _ -> Alcotest.fail "resumed past the end of the trace")

let test_state_dir_refused_by_name () =
  (* A state dir under a regular file cannot be created: the run is
     refused with an [Invalid_argument] naming it, before any write. *)
  let file = Filename.concat (fresh_dir ()) "afile" in
  write_file file "";
  let dir = Filename.concat file "st" in
  match Soak.run ~state_dir:dir ~kill_at_event:5 small_scenario small_config with
  | exception Invalid_argument m ->
      Alcotest.(check bool) (Printf.sprintf "the refusal names the dir (%s)" m) true
        (contains m dir);
      Alcotest.(check string) "the file is untouched" "" (read_file file)
  | _ -> Alcotest.fail "ran with an uncreatable state dir"

let test_generation_size_flat_in_horizon () =
  (* Checkpoints hold live state only: at a fixed session count the
     newest generation is the same size after 300 or 3 000 time units. *)
  let newest horizon =
    let scenario = { Soak.default_scenario with Soak.horizon; clients = 300 } in
    let dir = fresh_dir () in
    (match Soak.run ~state_dir:dir scenario Soak.default_config with
    | Soak.Completed _ -> ()
    | Soak.Killed _ -> Alcotest.fail "run killed");
    match Generation.latest ~dir with
    | Some g -> String.length (read_file (Generation.path ~dir g))
    | None -> Alcotest.fail "no generation written"
  in
  let short = newest 300. and long = newest 3_000. in
  let ratio = float_of_int long /. float_of_int short in
  Alcotest.(check bool)
    (Printf.sprintf "ckpt bytes %d -> %d (x%.3f) within 10%%" short long ratio)
    true
    (ratio >= 0.9 && ratio <= 1.1)

(* --- Recovery: the end-to-end harness --- *)

(* The full chaos stack: network loss, a server crash, a torn write on
   the second generation and a bit flip on the third — so recovery has
   to roll back over corrupt generations to a verifying one. *)
let faulted_scenario =
  {
    small_scenario with
    Soak.fault = plan "loss:0.1+crash:1@20~45+torn:2@100+flip:3@40";
  }

let test_verify_recovery_with_disk_faults () =
  let dir = fresh_dir () in
  let v =
    Recovery.verify ~state_dir:dir ~kill_at_event:47 faulted_scenario
      small_config
  in
  if not v.Recovery.ok then
    Alcotest.fail (String.concat "\n" v.Recovery.lines);
  (* the rollback was recorded in the side-channel, never the canonical log *)
  let log = read_file (Recovery.recovery_log_path dir) in
  let first = List.hd (String.split_on_char '\n' log) in
  match Event_log.of_line first with
  | Ok { Event_log.kind = Event_log.Recovery { generation; skipped; replayed }; _ }
    ->
      Alcotest.(check bool) "rolled back to a real generation" true
        (generation >= 1);
      Alcotest.(check bool) "skipped at least the torn one" true (skipped >= 1);
      Alcotest.(check bool) "journal covered the tail" true (replayed >= 0)
  | Ok _ -> Alcotest.fail "recovery.log entry has the wrong kind"
  | Error m -> Alcotest.fail m

let test_verify_recovery_all_generations_corrupt () =
  (* Tear every generation the killed run manages to write: recovery
     must fall back to a fresh restart and still reproduce the
     uninterrupted run bit-for-bit. *)
  let scenario =
    {
      small_scenario with
      Soak.fault = plan "loss:0.1+crash:1@20~45+torn:1@30+torn:2@30+torn:3@30";
    }
  in
  let dir = fresh_dir () in
  let v = Recovery.verify ~state_dir:dir ~kill_at_event:47 scenario small_config in
  if not v.Recovery.ok then Alcotest.fail (String.concat "\n" v.Recovery.lines)

let test_verify_recovery_kill_at_first_event () =
  let dir = fresh_dir () in
  let v =
    Recovery.verify ~state_dir:dir ~kill_at_event:0 faulted_scenario
      small_config
  in
  if not v.Recovery.ok then Alcotest.fail (String.concat "\n" v.Recovery.lines)

let test_verify_recovery_kill_past_end () =
  let dir = fresh_dir () in
  let v =
    Recovery.verify ~state_dir:dir ~kill_at_event:100_000 faulted_scenario
      small_config
  in
  if not v.Recovery.ok then Alcotest.fail (String.concat "\n" v.Recovery.lines)

let prop_boundary_free_recovery_bit_identical =
  (* Satellite-3 acceptance: restore + journal replay is bit-identical
     for an ARBITRARY kill event index — including 0 and past-the-end —
     across plain, load-latency (--delay) and weighted/coreset soaks,
     with the disk-fault plan live. *)
  QCheck.Test.make
    ~name:"recovery bit-identical at any kill point (plain/delay/coreset)"
    ~count:9
    QCheck.(triple (int_bound 1_000) (int_bound 130) (int_range 0 2))
    (fun (seed, kill_at_event, mode) ->
      let scenario =
        match mode with
        | 0 -> { faulted_scenario with Soak.seed }
        | 1 ->
            {
              faulted_scenario with
              Soak.seed;
              delay = Some (Dia_core.Delay.Queueing { mu = 12. });
            }
        | _ ->
            {
              faulted_scenario with
              Soak.seed;
              clients = 2_000;
              coreset_eps = Some 0.2;
            }
      in
      let dir = fresh_dir () in
      let v = Recovery.verify ~state_dir:dir ~kill_at_event scenario small_config in
      v.Recovery.ok)

(* The offline-baseline re-solve is memoised on the session's problem
   version inside [Soak.run], and the memo is not checkpointed: a resumed
   run starts it empty. Kill a delay-model soak with the baseline stream
   on after every event in turn — most refreshes follow shed or queued
   joins and hit the memo, so many cuts fall between two hits — and
   resume in memory from each killed state: the report, the event log
   and every baseline sample must match the uninterrupted run byte for
   byte. Three cuts also go through the state dir and a restore. *)
let test_baseline_memo_kill_resume () =
  let scenario =
    { small_scenario with Soak.delay = Some (Dia_core.Delay.Queueing { mu = 12. }) }
  in
  let config = { small_config with Soak.offline_baseline = true } in
  let base = complete scenario config in
  let samples r =
    let b = Buffer.create 256 in
    Checkpoint.add_points b ~trace:[] ~baseline:r.Soak.baseline_points;
    Buffer.contents b
  in
  let rec repeats = function
    | (_, _, a) :: ((_, _, b) :: _ as rest) ->
        Int64.bits_of_float a = Int64.bits_of_float b || repeats rest
    | _ -> false
  in
  Alcotest.(check bool) "consecutive samples repeat a re-solve" true
    (repeats base.Soak.baseline_points);
  for cut = 0 to base.Soak.events - 1 do
    let label = Printf.sprintf "cut %d: " cut in
    match Soak.run ~kill_at_event:cut scenario config with
    | Soak.Completed _ -> Alcotest.fail (label ^ "kill did not fire")
    | Soak.Killed st -> (
        match Soak.run ~resume_from:st scenario config with
        | Soak.Killed _ -> Alcotest.fail (label ^ "resume killed")
        | Soak.Completed r ->
            Alcotest.(check string) (label ^ "report") (Soak.render base) (Soak.render r);
            Alcotest.(check string) (label ^ "event log")
              (Event_log.render base.Soak.log) (Event_log.render r.Soak.log);
            Alcotest.(check string) (label ^ "baseline samples") (samples base) (samples r))
  done;
  List.iter
    (fun kill_at_event ->
      let v = Recovery.verify ~state_dir:(fresh_dir ()) ~kill_at_event scenario config in
      if not v.Recovery.ok then Alcotest.fail (String.concat "\n" v.Recovery.lines))
    [ 17; 47; 71 ]

(* --- the disk-fault DSL --- *)

let test_disk_dsl_roundtrip () =
  let spec = "torn:2@100+flip:3@40+fsync:1@8+rename:2+jtorn:1@5" in
  Alcotest.(check string) "disk atoms round-trip" spec
    (Fault.to_string (plan spec));
  Alcotest.(check int) "all five schedule" 5
    (List.length (Fault.disk_schedule (plan spec)));
  match Fault.of_string "torn:0@5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "op 0 accepted"

let suite =
  [
    Alcotest.test_case "crc32 known values" `Quick test_crc_known_values;
    Alcotest.test_case "disk injector targets named write ops" `Quick
      test_disk_injector_targets_named_ops;
    Alcotest.test_case "disk injector rename crash and fsync loss" `Quick
      test_disk_injector_rename_crash_and_fsync_loss;
    Alcotest.test_case "journal round-trips binary payloads" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal torn tail keeps the valid prefix" `Quick
      test_journal_torn_tail_keeps_prefix;
    Alcotest.test_case "jtorn plan wedges the journal device" `Quick
      test_journal_jtorn_plan_wedges_device;
    Alcotest.test_case "generations prune to keep" `Quick
      test_generation_save_prunes_to_keep;
    Alcotest.test_case "recovery rolls back over corrupt generations" `Quick
      test_generation_rolls_back_over_corruption;
    Alcotest.test_case "checkpoint decoder rejects garbage" `Quick
      test_checkpoint_rejects_garbage;
    Alcotest.test_case "checkpoint errors carry line positions" `Quick
      test_checkpoint_errors_carry_line_positions;
    QCheck_alcotest.to_alcotest prop_mutation_fuzzer_never_panics;
    Alcotest.test_case "newer-version generation skipped, left untouched" `Quick
      test_newer_generation_skipped_untouched;
    Alcotest.test_case "verify-recovery passes under disk faults" `Quick
      test_verify_recovery_with_disk_faults;
    Alcotest.test_case "fresh restart when every generation is corrupt" `Quick
      test_verify_recovery_all_generations_corrupt;
    Alcotest.test_case "kill at event 0 recovers" `Quick
      test_verify_recovery_kill_at_first_event;
    Alcotest.test_case "kill past the end still matches" `Quick
      test_verify_recovery_kill_past_end;
    QCheck_alcotest.to_alcotest prop_boundary_free_recovery_bit_identical;
    Alcotest.test_case "baseline memo: kill/resume at every cut" `Quick
      test_baseline_memo_kill_resume;
    Alcotest.test_case "disk-fault DSL round-trips and schedules" `Quick
      test_disk_dsl_roundtrip;
    Alcotest.test_case "journal treats hostile lengths as a torn tail" `Quick
      test_journal_hostile_lengths;
    QCheck_alcotest.to_alcotest prop_journal_mutations_never_raise;
    QCheck_alcotest.to_alcotest prop_event_log_mutations_never_raise;
    Alcotest.test_case "two kill/restore/resume cycles are bit-identical" `Quick
      test_two_kill_resume_cycles;
    Alcotest.test_case "generation and journal bytes survive kill/resume" `Quick
      test_generation_bytes_survive_kill_resume;
    Alcotest.test_case "journal tear before the newest cut rolls back" `Quick
      test_journal_tear_before_newest_cut;
    Alcotest.test_case "resume refuses a decoded state without history" `Quick
      test_resume_refuses_bare_decoded_state;
    Alcotest.test_case "uncreatable state dir refused by name" `Quick
      test_state_dir_refused_by_name;
    Alcotest.test_case "newest generation size flat in the horizon" `Quick
      test_generation_size_flat_in_horizon;
    Alcotest.test_case "journal reopen truncates at the cut, refuses others"
      `Quick test_journal_reopen_truncates_at_the_cut;
    Alcotest.test_case "resume rolls back over a generation that does not restore"
      `Quick test_unresumable_generation_skipped;
  ]
