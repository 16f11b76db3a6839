type kind =
  | Join of { session : int; client : int; server : int }
  | Queued of { session : int }
  | Drained of { session : int; client : int; server : int }
  | Shed of { session : int }
  | Leave of { session : int; client : int }
  | Crash of { server : int; migrated : int; stranded : int }
  | Crash_skipped of { server : int }
  | Promote of { server : int; promoted : int; fallback : int; stranded : int }
  | Standby_refresh of { changed : int }
  | Standby_breach of { ratio : float; bound : float }
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

let kind_to_string = function
  | Join { session; client; server } ->
      Printf.sprintf "join session=%d client=%d server=%d" session client server
  | Queued { session } -> Printf.sprintf "queued session=%d" session
  | Drained { session; client; server } ->
      Printf.sprintf "drained session=%d client=%d server=%d" session client
        server
  | Shed { session } -> Printf.sprintf "shed session=%d" session
  | Leave { session; client } ->
      Printf.sprintf "leave session=%d client=%d" session client
  | Crash { server; migrated; stranded } ->
      Printf.sprintf "crash server=%d migrated=%d stranded=%d" server migrated
        stranded
  | Crash_skipped { server } -> Printf.sprintf "crash-skipped server=%d" server
  | Promote { server; promoted; fallback; stranded } ->
      Printf.sprintf "promote server=%d promoted=%d fallback=%d stranded=%d"
        server promoted fallback stranded
  | Standby_refresh { changed } ->
      Printf.sprintf "standby-refresh changed=%d" changed
  | Standby_breach { ratio; bound } ->
      Printf.sprintf "standby-breach ratio=%s bound=%s" (Codec.float_str ratio)
        (Codec.float_str bound)
  | Recover { server } -> Printf.sprintf "recover server=%d" server
  | Drift { server; factor } ->
      Printf.sprintf "drift server=%d factor=%s" server (Codec.float_str factor)
  | Transition { from_; to_; ratio; objective } ->
      Printf.sprintf "slo from=%s to=%s ratio=%s objective=%s" (level_str from_)
        (level_str to_) (Codec.float_str ratio) objective
  | Repair { moves; budget; before; after } ->
      Printf.sprintf "repair moves=%d budget=%d before=%s after=%s" moves budget
        (Codec.float_str before) (Codec.float_str after)
  | Protocol_repair { moves; applied; before; after } ->
      Printf.sprintf "protocol-repair moves=%d applied=%b before=%s after=%s" moves
        applied (Codec.float_str before) (Codec.float_str after)
  | Checkpoint { id } -> Printf.sprintf "checkpoint id=%d" id
  | Recovery { generation; skipped; replayed } ->
      Printf.sprintf "recovery generation=%d skipped=%d replayed=%d" generation
        skipped replayed

let to_line e = Printf.sprintf "t=%s %s" (Codec.float_str e.time) (kind_to_string e.kind)

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
  | "promote" ->
      Promote
        {
          server = int_field fields "server";
          promoted = int_field fields "promoted";
          fallback = int_field fields "fallback";
          stranded = int_field fields "stranded";
        }
  | "standby-refresh" -> Standby_refresh { changed = int_field fields "changed" }
  | "standby-breach" ->
      Standby_breach
        { ratio = float_field fields "ratio"; bound = float_field fields "bound" }
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
  String.concat "" (List.map (fun e -> to_line e ^ "\n") entries)

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
