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

let level_of_str = function
  | "healthy" -> Slo.Healthy
  | "degraded" -> Slo.Degraded
  | "critical" -> Slo.Critical
  | other -> failwith (Printf.sprintf "Event_log: unknown level %S" other)

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

(* Parsing: "t=<float> <tag> k=v k=v ...". *)

let field fields key =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Event_log: missing field %S" key)

let int_field fields key =
  match int_of_string_opt (field fields key) with
  | Some i -> i
  | None -> failwith (Printf.sprintf "Event_log: field %S is not an integer" key)

let float_field fields key = Codec.float_of_str (field fields key)

let bool_field fields key =
  match field fields key with
  | "true" -> true
  | "false" -> false
  | other -> failwith (Printf.sprintf "Event_log: field %S = %S not a bool" key other)

let kind_of ~tag fields =
  match tag with
  | "join" ->
      Join
        {
          session = int_field fields "session";
          client = int_field fields "client";
          server = int_field fields "server";
        }
  | "queued" -> Queued { session = int_field fields "session" }
  | "drained" ->
      Drained
        {
          session = int_field fields "session";
          client = int_field fields "client";
          server = int_field fields "server";
        }
  | "shed" -> Shed { session = int_field fields "session" }
  | "leave" ->
      Leave
        { session = int_field fields "session"; client = int_field fields "client" }
  | "crash" ->
      Crash
        {
          server = int_field fields "server";
          migrated = int_field fields "migrated";
          stranded = int_field fields "stranded";
        }
  | "crash-skipped" -> Crash_skipped { server = int_field fields "server" }
  | "recover" -> Recover { server = int_field fields "server" }
  | "drift" ->
      Drift
        { server = int_field fields "server"; factor = float_field fields "factor" }
  | "slo" ->
      Transition
        {
          from_ = level_of_str (field fields "from");
          to_ = level_of_str (field fields "to");
          ratio = float_field fields "ratio";
          (* Absent in logs written before load-aware objectives
             existed; those transitions were all driven by plain D. *)
          objective = Option.value ~default:"d" (List.assoc_opt "objective" fields);
        }
  | "repair" ->
      Repair
        {
          moves = int_field fields "moves";
          budget = int_field fields "budget";
          before = float_field fields "before";
          after = float_field fields "after";
        }
  | "protocol-repair" ->
      Protocol_repair
        {
          moves = int_field fields "moves";
          applied = bool_field fields "applied";
          before = float_field fields "before";
          after = float_field fields "after";
        }
  | "checkpoint" -> Checkpoint { id = int_field fields "id" }
  | "recovery" ->
      Recovery
        {
          generation = int_field fields "generation";
          skipped = int_field fields "skipped";
          replayed = int_field fields "replayed";
        }
  | other -> failwith (Printf.sprintf "Event_log: unknown record %S" other)

let of_line line =
  try
    match String.split_on_char ' ' (String.trim line) with
    | time :: tag :: rest ->
        let time =
          match String.split_on_char '=' time with
          | [ "t"; v ] -> Codec.float_of_str v
          | _ -> failwith "Event_log: line must start with t=<time>"
        in
        let fields =
          List.map
            (fun kv ->
              match String.index_opt kv '=' with
              | Some i ->
                  ( String.sub kv 0 i,
                    String.sub kv (i + 1) (String.length kv - i - 1) )
              | None -> failwith (Printf.sprintf "Event_log: bad field %S" kv))
            rest
        in
        Ok { time; kind = kind_of ~tag fields }
    | _ -> Error (Printf.sprintf "Event_log: malformed line %S" line)
  with Failure m -> Error m

let render entries =
  let b = Buffer.create 4096 in
  List.iter (add_line b) entries;
  Buffer.contents b

let save path entries =
  let oc = open_out path in
  output_string oc (render entries);
  close_out oc

let load path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> read (line :: acc)
  in
  let lines = read [] in
  close_in ic;
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then parse acc rest
        else (
          match of_line line with
          | Ok entry -> parse (entry :: acc) rest
          | Error m -> Error m)
  in
  parse [] lines
