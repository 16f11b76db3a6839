let magic = "dia-soak-journal v2"

type cut = { records : int; bytes : int; crc : int }

(* --- writer ----------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  disk : Disk.t;
  mutable chunk : Bytes.t;  (* the records since the last flush, framed *)
  mutable fill : int;  (* bytes of [chunk] in use *)
  mutable folded : int;  (* bytes of [chunk] already in [crc] *)
  flush_every : int;
  mutable pending : int;  (* records buffered since the last flush *)
  mutable appended : int;
  mutable bytes : int;  (* everything written or buffered, header included *)
  mutable crc : int;  (* running CRC-32 of those bytes up to [folded] *)
  mutable closed : bool;
}

(* The running CRC is folded over the chunk in one pass when someone
   needs it — at a flush or a {!position} — instead of per record. *)
let fold w =
  if w.folded < w.fill then begin
    w.crc <- Crc.update w.crc (Bytes.unsafe_to_string w.chunk) w.folded (w.fill - w.folded);
    w.folded <- w.fill
  end

let flush w =
  if (not w.closed) && w.fill > 0 then begin
    fold w;
    (if Disk.journal_passthrough w.disk then begin
       output w.oc w.chunk 0 w.fill;
       Stdlib.flush w.oc
     end
     else
       match Disk.journal_chunk w.disk (Bytes.sub_string w.chunk 0 w.fill) with
       | None -> ()  (* device wedged: the chunk never reaches the file *)
       | Some chunk ->
           output_string w.oc chunk;
           Stdlib.flush w.oc);
    w.fill <- 0;
    w.folded <- 0;
    w.pending <- 0
  end

let reserve w n =
  let need = w.fill + n in
  if need > Bytes.length w.chunk then begin
    let chunk = Bytes.create (max need (2 * Bytes.length w.chunk)) in
    Bytes.blit w.chunk 0 chunk 0 w.fill;
    w.chunk <- chunk
  end

let writer ?disk ?(flush_every = 32) oc (at : cut) =
  if flush_every < 1 then invalid_arg "Journal: flush_every must be >= 1";
  {
    oc;
    disk = (match disk with Some d -> d | None -> Disk.none ());
    chunk = Bytes.create 4096;
    fill = 0;
    folded = 0;
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
  reserve w (String.length h);
  Bytes.blit_string h 0 w.chunk 0 (String.length h);
  w.fill <- String.length h;
  w.folded <- w.fill;
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

let no_points = Buffer.create 0

(* The per-event hot path, with no allocation per record: the header is
   framed by hand straight into the chunk, the body is copied there from
   the caller's buffers, and its CRC, taken there in one pass, fills the
   header's [crc=] slot. *)
let append w ~cursor ?(points = no_points) payload =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  if cursor < 0 then invalid_arg "Journal.append: negative cursor";
  let np = Buffer.length points and nl = Buffer.length payload in
  let body = nl + np in
  (* "rec cursor=" + 19 digits + " len=" + 19 digits + " pts=" + 19
     digits + " crc=" + 8 hex + '\n' tops out well under 96 bytes *)
  reserve w (96 + body + 1);
  let c = w.chunk and at = w.fill in
  let pos = put_str c at "rec cursor=" in
  let pos = put_int c pos cursor in
  let pos = put_str c pos " len=" in
  let pos = put_int c pos body in
  let pos = put_str c pos " pts=" in
  let pos = put_int c pos np in
  let slot = put_str c pos " crc=" in
  let start = slot + 8 + 1 in
  Buffer.blit payload 0 c start nl;
  Buffer.blit points 0 c (start + nl) np;
  ignore (Crc.hex_into c slot (Crc.update 0 (Bytes.unsafe_to_string c) start body));
  Bytes.unsafe_set c (start - 1) '\n';
  Bytes.unsafe_set c (start + body) '\n';
  w.fill <- start + body + 1;
  w.bytes <- w.bytes + (w.fill - at);
  w.appended <- w.appended + 1;
  w.pending <- w.pending + 1;
  if w.pending >= w.flush_every then flush w

let position w =
  fold w;
  { records = w.appended; bytes = w.bytes; crc = w.crc }

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

(* Header fields read in place. [lit text pos s] is the position after
   the literal [s] at [pos], or -1; [num] the decimal (1 to 18 digits,
   so it cannot overflow) at [pos] and the position after it, or -1;
   [hex8] the 8 hex digits at [pos], or -1. A field [stop]s at the
   header's newline. *)
let lit text pos stop s =
  let n = String.length s in
  let rec go i = i = n || (text.[pos + i] = s.[i] && go (i + 1)) in
  if pos >= 0 && pos + n <= stop && go 0 then pos + n else -1

let num text pos stop =
  let rec go i v =
    if i < stop && i - pos < 18 && text.[i] >= '0' && text.[i] <= '9' then
      go (i + 1) ((v * 10) + Char.code text.[i] - 48)
    else if i = pos || (i < stop && text.[i] >= '0' && text.[i] <= '9') then (-1, -1)
    else (v, i)
  in
  if pos < 0 then (-1, -1) else go pos 0

let hex8 text pos stop =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> -1
  in
  if pos < 0 || pos + 8 <> stop then -1
  else
    let rec go i v =
      if i = stop then v
      else match digit text.[i] with -1 -> -1 | d -> go (i + 1) ((v lsl 4) lor d)
    in
    go pos 0

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
    match String.index_from_opt text pos '\n' with
    | None -> torn "torn record header at byte %d" pos
    | Some stop ->
        let cursor, p = num text (lit text pos stop "rec cursor=") stop in
        let len, p = num text (lit text p stop " len=") stop in
        let np, p = num text (lit text p stop " pts=") stop in
        let crc = hex8 text (lit text p stop " crc=") stop in
        let body_pos = stop + 1 in
        if crc < 0 || np > len then
          torn "malformed record header at byte %d: %S" pos
            (String.sub text pos (stop - pos))
        else
          let room = String.length text - body_pos in
          if len >= room then
            torn "torn payload at byte %d (%d of %d+1 bytes)" body_pos room len
          else if text.[body_pos + len] <> '\n' then
            torn "missing payload terminator at byte %d" (body_pos + len)
          else if crc <> Crc.update 0 text body_pos len then
            torn "crc mismatch at byte %d (record cursor=%d)" pos cursor
          else
            let next = body_pos + len + 1 in
            let crc = Crc.update at.crc text pos (next - pos) in
            let upto = { records = at.records + 1; bytes = next; crc } in
            let payload = String.sub text body_pos (len - np) in
            let points = String.sub text (body_pos + len - np) np in
            parse_records text upto ({ cursor; payload; points; upto } :: acc)

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
