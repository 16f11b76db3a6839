let magic = "dia-soak-journal v2"

type cut = { records : int; bytes : int; crc : int }

(* --- writer ----------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  disk : Disk.t;
  buf : Buffer.t;
  scratch : Bytes.t;  (* per-record header framing, allocation-free *)
  flush_every : int;
  mutable pending : int;  (* records buffered since the last flush *)
  mutable appended : int;
  mutable bytes : int;  (* everything written or buffered, header included *)
  mutable crc : int;  (* running CRC-32 of those bytes *)
  mutable closed : bool;
}

let flush w =
  if (not w.closed) && Buffer.length w.buf > 0 then begin
    (if Disk.journal_passthrough w.disk then begin
       Buffer.output_buffer w.oc w.buf;
       Stdlib.flush w.oc
     end
     else
       match Disk.journal_chunk w.disk (Buffer.contents w.buf) with
       | None -> ()  (* device wedged: the chunk never reaches the file *)
       | Some chunk ->
           output_string w.oc chunk;
           Stdlib.flush w.oc);
    Buffer.clear w.buf;
    w.pending <- 0
  end

let writer ?disk ?(flush_every = 32) oc (at : cut) =
  if flush_every < 1 then invalid_arg "Journal: flush_every must be >= 1";
  {
    oc;
    disk = (match disk with Some d -> d | None -> Disk.none ());
    buf = Buffer.create 4096;
    (* "rec cursor=" + 19 digits + " len=" + 19 digits + " pts=" + 19
       digits + " crc=" + 8 hex + '\n' tops out well under 96 bytes *)
    scratch = Bytes.create 96;
    flush_every;
    pending = 0;
    appended = at.records;
    bytes = at.bytes;
    crc = at.crc;
    closed = false;
  }

let header digest = Printf.sprintf "%s\ndigest=%s\n" magic digest

let create ?disk ?flush_every ~path ~digest () =
  let h = header digest in
  let w =
    writer ?disk ?flush_every (open_out_bin path)
      { records = 0; bytes = String.length h; crc = Crc.digest h }
  in
  Buffer.add_string w.buf h;
  (* The header is its own flush (journal op 1), so a [jtorn:1@B] plan
     can tear it — recovery must survive even that. *)
  flush w;
  w

(* Non-negative decimal into [b] at [pos]; returns the end position. *)
let put_int b pos v =
  let digits =
    let n = ref 1 and x = ref v in
    while !x >= 10 do
      incr n;
      x := !x / 10
    done;
    !n
  in
  let x = ref v in
  for i = digits - 1 downto 0 do
    Bytes.unsafe_set b (pos + i) (Char.unsafe_chr (48 + (!x mod 10)));
    x := !x / 10
  done;
  pos + digits

let put_str b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* The per-event hot path: the header is framed by hand into the scratch
   bytes — zero allocations per record; a [Printf.sprintf] here costs
   more than the CRC of a typical record. *)
let append w ~cursor ?(points = "") payload =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  if cursor < 0 then invalid_arg "Journal.append: negative cursor";
  let np = String.length points in
  let body = String.length payload + np in
  let s = w.scratch in
  let pos = put_str s 0 "rec cursor=" in
  let pos = put_int s pos cursor in
  let pos = put_str s pos " len=" in
  let pos = put_int s pos body in
  let pos = put_str s pos " pts=" in
  let pos = put_int s pos np in
  let pos = put_str s pos " crc=" in
  let rcrc = Crc.digest payload in
  let rcrc = if np = 0 then rcrc else Crc.update rcrc points 0 np in
  let pos = Crc.hex_into s pos rcrc in
  Bytes.unsafe_set s pos '\n';
  let b = w.buf in
  Buffer.add_subbytes b s 0 (pos + 1);
  Buffer.add_string b payload;
  Buffer.add_string b points;
  Buffer.add_char b '\n';
  let crc = Crc.update w.crc (Bytes.unsafe_to_string s) 0 (pos + 1) in
  let crc = Crc.update crc payload 0 (String.length payload) in
  let crc = if np = 0 then crc else Crc.update crc points 0 np in
  w.crc <- Crc.update crc "\n" 0 1;
  w.bytes <- w.bytes + pos + 1 + body + 1;
  w.appended <- w.appended + 1;
  w.pending <- w.pending + 1;
  if w.pending >= w.flush_every then flush w

let position w = { records = w.appended; bytes = w.bytes; crc = w.crc }

let close w =
  if not w.closed then begin
    flush w;
    w.closed <- true;
    close_out w.oc
  end

(* --- reader ----------------------------------------------------------- *)

type record = { cursor : int; payload : string; points : string; upto : cut }

type journal = {
  digest : string;
  header : cut;
  records : record list;
  torn : string option;
}

(* One line starting at [pos]; [None] when no newline follows (a torn
   header is indistinguishable from a torn record and treated the same). *)
let line_at text pos =
  if pos >= String.length text then None
  else
    match String.index_from_opt text pos '\n' with
    | None -> None
    | Some nl -> Some (String.sub text pos (nl - pos), nl + 1)

let parse_kv ~key s =
  let prefix = key ^ "=" in
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

let count ~key s = Option.bind (parse_kv ~key s) int_of_string_opt

(* Parse records from [at] until the first torn/corrupt one: the valid
   prefix is the journal's committed content; everything after the first
   bad byte is an uncommitted tail (batched appends mean a crash can
   lose or tear the last chunk — never anything before it). Lengths are
   compared against the bytes left, never summed, so a hostile [len]
   cannot overflow into an out-of-bounds read. *)
let rec parse_records text (at : cut) acc =
  let pos = at.bytes in
  if pos >= String.length text then (List.rev acc, None)
  else
    let torn fmt = Printf.ksprintf (fun m -> (List.rev acc, Some m)) fmt in
    match line_at text pos with
    | None -> torn "torn record header at byte %d" pos
    | Some (header, body_pos) -> (
        match String.split_on_char ' ' header with
        | [ "rec"; c; l; p; crc ] -> (
            match
              (count ~key:"cursor" c, count ~key:"len" l, count ~key:"pts" p,
               parse_kv ~key:"crc" crc)
            with
            | Some cursor, Some len, Some np, Some crc
              when cursor >= 0 && len >= 0 && np >= 0 && np <= len ->
                let room = String.length text - body_pos in
                if len >= room then
                  torn "torn payload at byte %d (%d of %d+1 bytes)" body_pos room len
                else if text.[body_pos + len] <> '\n' then
                  torn "missing payload terminator at byte %d" (body_pos + len)
                else if
                  String.length crc <> 8
                  || int_of_string_opt ("0x" ^ crc)
                     <> Some (Crc.update 0 text body_pos len)
                then
                  torn "crc mismatch at byte %d (record cursor=%d)" pos cursor
                else
                  let next = body_pos + len + 1 in
                  let crc = Crc.update at.crc text pos (next - pos) in
                  let upto = { records = at.records + 1; bytes = next; crc } in
                  let payload = String.sub text body_pos (len - np) in
                  let points = String.sub text (body_pos + len - np) np in
                  parse_records text upto ({ cursor; payload; points; upto } :: acc)
            | _ -> torn "malformed record header at byte %d: %S" pos header)
        | _ -> torn "malformed record header at byte %d: %S" pos header)

let parse text =
  match line_at text 0 with
  | Some (m, pos) when m = magic -> (
      match line_at text pos with
      | None -> Error "journal: torn header (no digest line)"
      | Some (dline, pos) -> (
          match parse_kv ~key:"digest" dline with
          | None -> Error (Printf.sprintf "journal: expected digest=, got %S" dline)
          | Some digest ->
              let header = { records = 0; bytes = pos; crc = Crc.update 0 text 0 pos } in
              let records, torn = parse_records text header [] in
              Ok { digest; header; records; torn }))
  | Some (other, _) ->
      Error (Printf.sprintf "journal: unsupported header %S" other)
  | None -> Error "journal: empty or headerless file"

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> parse text

let prefix j (c : cut) =
  if c = j.header || List.exists (fun r -> r.upto = c) j.records then
    Some (List.filteri (fun i _ -> i < c.records) j.records)
  else None

let reopen ?disk ?flush_every ~path ~digest (c : cut) =
  match In_channel.with_open_bin path In_channel.input_all with
  | text
    when String.starts_with ~prefix:(header digest) text
         && String.length (header digest) <= c.bytes
         && c.bytes <= String.length text
         && Crc.update 0 text 0 c.bytes = c.crc ->
      (* Drop whatever the journal holds past the cut: that tail belongs
         to a run this one replaces, and re-execution rewrites it. *)
      Unix.truncate path c.bytes;
      writer ?disk ?flush_every
        (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path)
        c
  | _ | (exception Sys_error _) ->
      invalid_arg
        (Printf.sprintf
           "Journal.reopen: %s does not hold the history cut (%d records, %d \
            bytes, crc %08x)"
           path c.records c.bytes c.crc)
