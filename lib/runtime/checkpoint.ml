let version = 5

type counters = {
  mutable leaves : int;
  mutable crashes : int;
  mutable crashes_skipped : int;
  mutable recoveries : int;
  mutable drifts : int;
  mutable stranded : int;
  mutable repairs : int;
  mutable repair_moves : int;
  mutable max_epoch_moves : int;
  mutable protocol_epochs : int;
  mutable events_since_lb : int;
  mutable checkpoints : int;
  mutable entries : int;
  mutable traces : int;
  mutable baselines : int;
}

(* Every counter under its checkpoint key: the one list [encode] and
   [decode] both walk. *)
let counter_fields =
  [
    ("leaves", (fun c -> c.leaves), fun c v -> c.leaves <- v);
    ("crashes", (fun c -> c.crashes), fun c v -> c.crashes <- v);
    ("crashes_skipped", (fun c -> c.crashes_skipped), fun c v -> c.crashes_skipped <- v);
    ("recoveries", (fun c -> c.recoveries), fun c v -> c.recoveries <- v);
    ("drifts", (fun c -> c.drifts), fun c v -> c.drifts <- v);
    ("stranded", (fun c -> c.stranded), fun c v -> c.stranded <- v);
    ("repairs", (fun c -> c.repairs), fun c v -> c.repairs <- v);
    ("repair_moves", (fun c -> c.repair_moves), fun c v -> c.repair_moves <- v);
    ("max_epoch_moves", (fun c -> c.max_epoch_moves), fun c v -> c.max_epoch_moves <- v);
    ("protocol_epochs", (fun c -> c.protocol_epochs), fun c v -> c.protocol_epochs <- v);
    ("events_since_lb", (fun c -> c.events_since_lb), fun c v -> c.events_since_lb <- v);
    ("checkpoints", (fun c -> c.checkpoints), fun c v -> c.checkpoints <- v);
    ("entries", (fun c -> c.entries), fun c v -> c.entries <- v);
    ("traces", (fun c -> c.traces), fun c v -> c.traces <- v);
    ("baselines", (fun c -> c.baselines), fun c v -> c.baselines <- v);
  ]

let counters () =
  { leaves = 0; crashes = 0; crashes_skipped = 0; recoveries = 0; drifts = 0;
    stranded = 0; repairs = 0; repair_moves = 0; max_epoch_moves = 0;
    protocol_epochs = 0;
    events_since_lb = 0; checkpoints = 0; entries = 0; traces = 0; baselines = 0 }

let copy c = { c with leaves = c.leaves }

type state = {
  digest : string;
  cursor : int;
  now : float;
  lb : float;
  session : Dia_core.Dynamic.image;
  sessions : (int * int) list;
  slo : string;
  admission : Admission.t;
  counters : counters;
  history : Journal.cut;
  trace_points : (float * float * float) list;
  baseline_points : (float * float * float) list;
  log : Event_log.entry list;
}

let fs = Codec.float_str
let header = "dia-soak-checkpoint v" ^ string_of_int version

(* The file splits into checksummed sections: the scalar block and one
   section per list kind. Every section gets a [crc=NAME:HEX] line
   (even when empty — a wholesale-deleted section must not verify). The
   run's history is not among them: it lives in the journal, up to the
   [history=] cut. *)
let list_sections = [ "member"; "session"; "drift"; "queue" ]
let section_names = "scalars" :: list_sections

let scalar_keys =
  [ "digest"; "cursor"; "now"; "capacity"; "next_id"; "failed"; "stats"; "slo";
    "admitted"; "queued"; "shed"; "drained"; "abandoned"; "lb"; "history" ]
  @ List.map (fun (key, _, _) -> key) counter_fields

(* Every line is [key=value\n], written field by field into its
   section's buffer. *)
let encode s =
  let key b k =
    Buffer.add_string b k;
    Buffer.add_char b '='
  in
  let nl b = Buffer.add_char b '\n' in
  let str b k v = key b k; Buffer.add_string b v; nl b in
  let int b k v = key b k; Codec.add_int b v; nl b in
  let flt b k v = key b k; Codec.add_float b v; nl b in
  let ints b k l =
    key b k;
    List.iteri (fun j v -> if j > 0 then Buffer.add_char b ','; Codec.add_int b v) l;
    nl b
  in
  let scalars = Buffer.create 1024 in
  let i = s.session and a = s.admission and h = s.history in
  str scalars "digest" s.digest;
  int scalars "cursor" s.cursor;
  flt scalars "now" s.now;
  (match i.capacity with
  | None -> str scalars "capacity" "none"
  | Some c -> int scalars "capacity" c);
  int scalars "next_id" i.next_id;
  ints scalars "failed" i.failed;
  ints scalars "stats" [ i.stats.joins; i.stats.leaves; i.stats.moves ];
  str scalars "slo" s.slo;
  int scalars "admitted" a.admitted;
  int scalars "queued" a.queued;
  int scalars "shed" a.shed;
  int scalars "drained" a.drained;
  int scalars "abandoned" a.abandoned;
  flt scalars "lb" s.lb;
  List.iter (fun (k, get, _) -> int scalars k (get s.counters)) counter_fields;
  key scalars "history";
  Codec.add_int scalars h.Journal.records;
  Buffer.add_char scalars ',';
  Codec.add_int scalars h.Journal.bytes;
  Buffer.add_string scalars ",0x";
  let hex = Bytes.create 8 in
  ignore (Crc.hex_into hex 0 h.Journal.crc);
  Buffer.add_bytes scalars hex;
  nl scalars;
  let section name =
    let b = Buffer.create 256 in
    (match name with
    | "member" -> List.iter (fun (id, node, server) -> ints b name [ id; node; server ]) i.members
    | "session" -> List.iter (fun (session, client) -> ints b name [ session; client ]) s.sessions
    | "drift" ->
        List.iter
          (fun (server, factor) ->
            key b name;
            Codec.add_int b server;
            Buffer.add_char b ',';
            Codec.add_float b factor;
            nl b)
          i.drift
    | "queue" -> List.iter (fun (session, node) -> ints b name [ session; node ]) a.queue
    | _ -> assert false);
    b
  in
  let bodies = ("scalars", scalars) :: List.map (fun n -> (n, section n)) list_sections in
  let b = Buffer.create 4096 in
  Buffer.add_string b header;
  nl b;
  List.iter (fun (_, body) -> Buffer.add_buffer b body) bodies;
  List.iter
    (fun (name, body) ->
      key b "crc";
      Buffer.add_string b name;
      Buffer.add_char b ':';
      Buffer.add_string b (Crc.hex (Buffer.contents body));
      nl b)
    bodies;
  Buffer.add_string b "end\n";
  Buffer.contents b

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let int_of what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "checkpoint: %s is not an integer (%S)" what s

let split2 what s =
  match String.index_opt s ',' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> fail "checkpoint: %s expects two fields (%S)" what s

let split3 what s =
  let a, rest = split2 what s in
  let b, c = split2 what rest in
  (a, b, c)

(* The content lines as [(line number, key, value)], once every section
   has been checked against its [crc=] declaration — before a single
   field is trusted. A section is rebuilt from its lines in file order,
   exactly the bytes [encode] checksummed. Corruption is named by
   section; a bad or missing crc line by line position. *)
let verified_lines text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  let rest =
    match lines with
    | [] -> fail "checkpoint: empty"
    | (_, first) :: rest when first = header -> rest
    | (_, first) :: _ -> fail "checkpoint: line 1: unsupported header %S" first
  in
  (* The file must end with exactly the end marker: anything after it,
     or a truncation anywhere before it (which necessarily removes the
     final newline), is corruption. *)
  let n = String.length text in
  if not (n >= 4 && String.sub text (n - 4) 4 = "end\n") then
    fail "checkpoint: truncated (file must end with the end marker)";
  (match List.rev rest with
  | (_, "end") :: _ -> ()
  | _ -> fail "checkpoint: truncated (missing end marker)");
  let content =
    List.filter_map
      (fun (ln, l) ->
        if l = "end" then None
        else
          match String.index_opt l '=' with
          | None -> fail "checkpoint: line %d: malformed line %S" ln l
          | Some i -> Some (ln, String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1)))
      rest
  in
  let bodies = List.map (fun name -> (name, Buffer.create 256)) section_names in
  let declared = Hashtbl.create 16 in
  List.iter
    (fun (ln, key, value) ->
      if key <> "crc" then
        let section = if List.mem key list_sections then key else "scalars" in
        Printf.bprintf (List.assoc section bodies) "%s=%s\n" key value
      else
        match String.index_opt value ':' with
        | None -> fail "checkpoint: line %d: malformed crc line %S" ln value
        | Some j ->
            let name = String.sub value 0 j in
            if not (List.mem name section_names) then
              fail "checkpoint: line %d: crc for unknown section %S" ln name;
            if Hashtbl.mem declared name then
              fail "checkpoint: line %d: duplicate crc for section %s" ln name;
            Hashtbl.replace declared name
              (String.sub value (j + 1) (String.length value - j - 1)))
    content;
  List.iter
    (fun (name, body) ->
      let actual = Crc.hex (Buffer.contents body) in
      match Hashtbl.find_opt declared name with
      | None -> fail "checkpoint: missing crc for section %s" name
      | Some hex when hex <> actual ->
          fail "checkpoint: section %s corrupt (crc %s, file declares %s)" name
            actual hex
      | Some _ -> ())
    bodies;
  content

let decode text =
  try
    let content = verified_lines text in
    let scalars = Hashtbl.create 32 in
    let members = ref [] in
    let sessions = ref [] and drift = ref [] and queue = ref [] in
    let pair key v = let a, b = split2 key v in (int_of key a, int_of key b) in
    let session_ids = Hashtbl.create 64 in
    List.iter
      (fun (ln, key, value) ->
        try
          match key with
          | "member" ->
              let a, b, c = split3 key value in
              members := (int_of key a, int_of key b, int_of key c) :: !members
          | "session" ->
              (* Ids may be negative: pre-populated sessions count down
                 from -1. *)
              let ((sid, _) as p) = pair key value in
              if Hashtbl.mem session_ids sid then
                fail "checkpoint: repeated session id %d" sid;
              Hashtbl.replace session_ids sid ();
              sessions := p :: !sessions
          | "drift" ->
              let a, b = split2 key value in
              drift := (int_of key a, Codec.float_of_str b) :: !drift
          | "queue" -> queue := pair key value :: !queue
          | "crc" -> ()  (* verified above *)
          | _ ->
              if not (List.mem key scalar_keys) then
                fail "checkpoint: unknown key %S" key;
              if Hashtbl.mem scalars key then fail "checkpoint: repeated key %S" key;
              Hashtbl.replace scalars key (ln, value)
        with Bad m | Failure m -> fail "%s [line %d]" m ln)
      content;
    let scalar key =
      match Hashtbl.find_opt scalars key with
      | Some lv -> lv
      | None -> fail "checkpoint: missing field %S" key
    in
    (* Every integer field is a count, an id cursor or a server index:
       none is negative in a file [encode] wrote. *)
    let int key =
      let ln, v = scalar key in
      match int_of_string_opt v with
      | Some i when i >= 0 -> i
      | Some _ -> fail "checkpoint: %s is negative (%S) [line %d]" key v ln
      | None ->
          fail "checkpoint: %s is not an integer (%S) [line %d]" key v ln
    in
    let str key = snd (scalar key) in
    let flt key =
      let ln, v = scalar key in
      match float_of_string_opt (String.trim v) with
      | Some f -> f
      | None -> fail "checkpoint: %s is not a float (%S) [line %d]" key v ln
    in
    let ints key n =
      let ln, v = scalar key in
      match List.map (int_of key) (String.split_on_char ',' v) with
      | l when List.exists (fun i -> i < 0) l ->
          fail "checkpoint: %s has a negative field (%S) [line %d]" key v ln
      | l when n < 0 || List.length l = n -> l
      | _ -> fail "checkpoint: %s expects %d fields (%S) [line %d]" key n v ln
      | exception Bad m -> fail "%s [line %d]" m ln
    in
    let now =
      match flt "now" with
      | t when Float.is_finite t -> t
      | t ->
          fail "checkpoint: now is not finite (%s) [line %d]" (fs t)
            (fst (scalar "now"))
    in
    (* The SLO config is attached on resume; the state alone decides
       whether the string parses. *)
    let slo =
      let ln, v = scalar "slo" in
      match Slo.decode Slo.default_config v with
      | _ -> v
      | exception Failure m -> fail "checkpoint: %s [line %d]" m ln
    in
    let c = counters () in
    List.iter (fun (key, _, set) -> set c (int key)) counter_fields;
    let st =
      {
        digest = str "digest";
        cursor = int "cursor";
        now;
        lb = flt "lb";
        session =
          {
            capacity =
              (match str "capacity" with
              | "none" -> None
              | _ -> (
                  match int "capacity" with
                  | 0 ->
                      fail "checkpoint: capacity must be positive [line %d]"
                        (fst (scalar "capacity"))
                  | c -> Some c));
            members = List.rev !members;
            next_id = int "next_id";
            failed = (if str "failed" = "" then [] else ints "failed" (-1));
            drift = List.rev !drift;
            stats =
              (match ints "stats" 3 with
              | [ joins; leaves; moves ] -> { joins; leaves; moves }
              | _ -> assert false);
          };
        sessions = List.rev !sessions;
        slo;
        admission =
          {
            queue = List.rev !queue;
            admitted = int "admitted";
            queued = int "queued";
            shed = int "shed";
            drained = int "drained";
            abandoned = int "abandoned";
          };
        counters = c;
        history =
          (match ints "history" 3 with
          | [ records; bytes; crc ] -> { Journal.records; bytes; crc }
          | _ -> assert false);
        trace_points = [];
        baseline_points = [];
        log = [];
      }
    in
    (* Accept only what [encode] writes: the decoded state must encode
       back to the input, byte for byte. *)
    let canonical = encode st in
    if String.equal canonical text then Ok st
    else begin
      let n = min (String.length text) (String.length canonical) in
      let i = ref 0 in
      while !i < n && text.[!i] = canonical.[!i] do incr i done;
      let line = ref 1 in
      String.iteri (fun j ch -> if j < !i && ch = '\n' then incr line) text;
      fail "checkpoint: not the file encode writes for this state [line %d]" !line
    end
  with
  | Bad m -> Error m
  | Failure m -> Error m
  | Invalid_argument m -> Error ("checkpoint: " ^ m)

(* --- the history, as the journal carries it --------------------------- *)

(* Points are journal-internal and sampled every few events, so they use
   the exact hex float notation: one cheap conversion per float. *)
let add_points b ~trace ~baseline =
  let add key (t, x, y) =
    Buffer.add_string b key;
    Codec.add_hex b t;
    Buffer.add_char b ',';
    Codec.add_hex b x;
    Buffer.add_char b ',';
    Codec.add_hex b y;
    Buffer.add_char b '\n'
  in
  List.iter (add "trace=") trace;
  List.iter (add "baseline=") baseline

let has_history st =
  let c = st.counters in
  List.compare_length_with st.log c.entries = 0
  && List.compare_length_with st.trace_points c.traces = 0
  && List.compare_length_with st.baseline_points c.baselines = 0

(* [f] on each non-empty line of [s], in order. *)
let iter_lines f s =
  let n = String.length s in
  let rec go pos =
    if pos < n then begin
      let stop = Option.value (String.index_from_opt s pos '\n') ~default:n in
      if stop > pos then f (String.sub s pos (stop - pos));
      go (stop + 1)
    end
  in
  go 0

let with_history st records =
  try
    let log = ref [] and trace = ref [] and baseline = ref [] in
    List.iter
      (fun r ->
        let bad fmt = fail ("journal record cursor=%d: " ^^ fmt) r.Journal.cursor in
        iter_lines
          (fun l ->
            match Event_log.of_line l with
            | Ok e -> log := e :: !log
            | Error m -> bad "%s" m)
          r.Journal.payload;
        iter_lines
          (fun l ->
            let point key into =
              let n = String.length key in
              String.starts_with ~prefix:key l
              &&
              let a, b, c = split3 key (String.sub l n (String.length l - n)) in
              into := (Codec.float_of_str a, Codec.float_of_str b, Codec.float_of_str c) :: !into;
              true
            in
            if not (point "trace=" trace || point "baseline=" baseline) then
              bad "bad point %S" l)
          r.Journal.points)
      records;
    let st =
      { st with log = List.rev !log; trace_points = List.rev !trace;
                baseline_points = List.rev !baseline }
    in
    if has_history st then Ok st
    else Error "journal history does not match the checkpoint's counters"
  with Bad m | Failure m -> Error m
