type kind =
  | Join of { session : int; client : int; server : int }
  | Queued of { session : int }
  | Drained of { session : int; client : int; server : int }
  | Shed of { session : int }
  | Leave of { session : int; client : int }
  | Crash of { server : int; migrated : int; stranded : int }
  | Crash_skipped of { server : int }
  | Recover of { server : int }
  | Drift of { server : int; factor : float }
  | Transition of {
      from_ : Slo.level;
      to_ : Slo.level;
      ratio : float;
      objective : string;  (** which objective drove it: "d" or "d_load" *)
    }
  | Repair of { moves : int; budget : int; before : float; after : float }
  | Protocol_repair of { moves : int; applied : bool; before : float; after : float }
  | Checkpoint of { id : int }
  | Recovery of { generation : int; skipped : int; replayed : int }

type entry = { time : float; kind : kind }

let level_str = Slo.level_name

(* The writer: "t=<float> <tag> k=v k=v ...", straight into [b]; each
   [key] carries its separators. *)
let int b key v =
  Buffer.add_string b key;
  Codec.add_int b v

let flt b key v =
  Buffer.add_string b key;
  Codec.add_float b v

let add_line b e =
  flt b "t=" e.time;
  (match e.kind with
  | Join { session; client; server } ->
      int b " join session=" session;
      int b " client=" client;
      int b " server=" server
  | Queued { session } -> int b " queued session=" session
  | Drained { session; client; server } ->
      int b " drained session=" session;
      int b " client=" client;
      int b " server=" server
  | Shed { session } -> int b " shed session=" session
  | Leave { session; client } ->
      int b " leave session=" session;
      int b " client=" client
  | Crash { server; migrated; stranded } ->
      int b " crash server=" server;
      int b " migrated=" migrated;
      int b " stranded=" stranded
  | Crash_skipped { server } -> int b " crash-skipped server=" server
  | Recover { server } -> int b " recover server=" server
  | Drift { server; factor } ->
      int b " drift server=" server;
      flt b " factor=" factor
  | Transition { from_; to_; ratio; objective } ->
      Buffer.add_string b " slo from=";
      Buffer.add_string b (level_str from_);
      Buffer.add_string b " to=";
      Buffer.add_string b (level_str to_);
      flt b " ratio=" ratio;
      Buffer.add_string b " objective=";
      Buffer.add_string b objective
  | Repair { moves; budget; before; after } ->
      int b " repair moves=" moves;
      int b " budget=" budget;
      flt b " before=" before;
      flt b " after=" after
  | Protocol_repair { moves; applied; before; after } ->
      int b " protocol-repair moves=" moves;
      Buffer.add_string b (if applied then " applied=true" else " applied=false");
      flt b " before=" before;
      flt b " after=" after
  | Checkpoint { id } -> int b " checkpoint id=" id
  | Recovery { generation; skipped; replayed } ->
      int b " recovery generation=" generation;
      int b " skipped=" skipped;
      int b " replayed=" replayed);
  Buffer.add_char b '\n'

let to_line e =
  let b = Buffer.create 80 in
  add_line b e;
  Buffer.sub b 0 (Buffer.length b - 1)

(* Parsing: "t=<float> <tag> k=v k=v ...", split at single blanks. A
   refusal names a 1-based column: that of the token or value it
   refuses, or the one just past the line for a missing field. A line
   that parses is then rendered again, and the first byte that differs
   from that rendering is refused by its column: the parser accepts
   exactly the lines [add_line] writes. *)

exception Bad of int * string

let bad col fmt = Printf.ksprintf (fun m -> raise (Bad (col, m))) fmt

(* The column of [key]'s value, for an error: the first " key=" in the
   line is the field [List.assoc] read. *)
let value_col line key =
  let pat = " " ^ key ^ "=" in
  let n = String.length line and m = String.length pat in
  let rec find i =
    if i + m > n then n + 1
    else if String.sub line i m = pat then i + m + 1
    else find (i + 1)
  in
  find 0

let field line fields key =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> bad (String.length line + 1) "missing field %S" key

let int_field line fields key =
  match int_of_string_opt (field line fields key) with
  | Some i -> i
  | None -> bad (value_col line key) "field %S is not an integer" key

let float_field line fields key =
  match float_of_string_opt (field line fields key) with
  | Some f -> f
  | None -> bad (value_col line key) "field %S is not a float" key

let bool_field line fields key =
  match field line fields key with
  | "true" -> true
  | "false" -> false
  | other -> bad (value_col line key) "field %S = %S not a bool" key other

let level_field line fields key =
  match field line fields key with
  | "healthy" -> Slo.Healthy
  | "degraded" -> Slo.Degraded
  | "critical" -> Slo.Critical
  | other -> bad (value_col line key) "unknown level %S" other

let kind_of ~tag line fields =
  match tag with
  | "join" ->
      Join
        {
          session = int_field line fields "session";
          client = int_field line fields "client";
          server = int_field line fields "server";
        }
  | "queued" -> Queued { session = int_field line fields "session" }
  | "drained" ->
      Drained
        {
          session = int_field line fields "session";
          client = int_field line fields "client";
          server = int_field line fields "server";
        }
  | "shed" -> Shed { session = int_field line fields "session" }
  | "leave" ->
      Leave
        {
          session = int_field line fields "session";
          client = int_field line fields "client";
        }
  | "crash" ->
      Crash
        {
          server = int_field line fields "server";
          migrated = int_field line fields "migrated";
          stranded = int_field line fields "stranded";
        }
  | "crash-skipped" -> Crash_skipped { server = int_field line fields "server" }
  | "recover" -> Recover { server = int_field line fields "server" }
  | "drift" ->
      Drift
        {
          server = int_field line fields "server";
          factor = float_field line fields "factor";
        }
  | "slo" ->
      Transition
        {
          from_ = level_field line fields "from";
          to_ = level_field line fields "to";
          ratio = float_field line fields "ratio";
          objective = field line fields "objective";
        }
  | "repair" ->
      Repair
        {
          moves = int_field line fields "moves";
          budget = int_field line fields "budget";
          before = float_field line fields "before";
          after = float_field line fields "after";
        }
  | "protocol-repair" ->
      Protocol_repair
        {
          moves = int_field line fields "moves";
          applied = bool_field line fields "applied";
          before = float_field line fields "before";
          after = float_field line fields "after";
        }
  | "checkpoint" -> Checkpoint { id = int_field line fields "id" }
  | "recovery" ->
      Recovery
        {
          generation = int_field line fields "generation";
          skipped = int_field line fields "skipped";
          replayed = int_field line fields "replayed";
        }
  | other -> failwith (Printf.sprintf "Event_log: unknown record %S" other)

(* One rendering buffer per domain, reused across lines. *)
let rendering = Domain.DLS.new_key (fun () -> Buffer.create 128)

let of_line line =
  try
    match String.split_on_char ' ' line with
    | t :: tag :: rest ->
        if not (String.starts_with ~prefix:"t=" t) then
          bad 1 "line must start with t=<time>";
        let time =
          match float_of_string_opt (String.sub t 2 (String.length t - 2)) with
          | Some time -> time
          | None -> bad 3 "field \"t\" is not a float"
        in
        (* [pos] is the column of the token at hand. *)
        let pos = ref (String.length t + String.length tag + 3) in
        let fields =
          List.map
            (fun kv ->
              let col = !pos in
              pos := col + String.length kv + 1;
              match String.index_opt kv '=' with
              | Some i ->
                  (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
              | None -> bad col "bad field %S" kv)
            rest
        in
        let e = { time; kind = kind_of ~tag line fields } in
        let b = Domain.DLS.get rendering in
        Buffer.clear b;
        add_line b e;
        let rendered = Buffer.sub b 0 (Buffer.length b - 1) in
        if String.equal rendered line then Ok e
        else begin
          let n = min (String.length rendered) (String.length line) in
          let i = ref 0 in
          while !i < n && rendered.[!i] = line.[!i] do incr i done;
          bad (!i + 1) "not the line the writer renders for this record"
        end
    | _ -> bad (String.length line + 1) "a line needs t=<time> and a record tag"
  with
  | Bad (col, m) -> Error (Printf.sprintf "Event_log: column %d: %s" col m)
  | Failure m -> Error m

let render entries =
  let b = Buffer.create 4096 in
  List.iter (add_line b) entries;
  Buffer.contents b

let save path entries =
  let oc = open_out path in
  output_string oc (render entries);
  close_out oc
