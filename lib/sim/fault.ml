type action = Deliver | Drop | Duplicate of int | Delay of float

type rule =
  | Loss of { src : int option; dst : int option; rate : float }
  | Dup of { src : int option; dst : int option; rate : float; copies : int }
  | Spike of { src : int option; dst : int option; rate : float; extra : float }
  | Partition of { at : float; until : float; side : int list }
  | Crash of { actor : int; at : float; recover_at : float option }
  (* Storage faults. These target the durable-state write path (numbered
     by write operation, not by time), never the message plane: [decide],
     [down] and [crash_schedule] all ignore them, so a plan that mixes
     network and disk atoms perturbs each layer independently. *)
  | Torn of { op : int; at : int }
  | Flip of { op : int; at : int }
  | Fsync_loss of { op : int; at : int }
  | Rename_crash of { op : int }
  | Journal_torn of { op : int; at : int }

type plan = rule list

let reliable = []

let check_rate label rate =
  if not (Float.is_finite rate) || rate < 0. || rate > 1. then
    invalid_arg (Printf.sprintf "Fault.%s: rate %g outside [0, 1]" label rate)

let loss ?src ?dst ~rate () =
  check_rate "loss" rate;
  [ Loss { src; dst; rate } ]

let duplication ?src ?dst ?(copies = 1) ~rate () =
  check_rate "duplication" rate;
  if copies < 1 then invalid_arg "Fault.duplication: copies must be >= 1";
  [ Dup { src; dst; rate; copies } ]

let spike ?src ?dst ~rate ~extra () =
  check_rate "spike" rate;
  if extra < 0. || not (Float.is_finite extra) then
    invalid_arg (Printf.sprintf "Fault.spike: extra delay %g invalid" extra);
  [ Spike { src; dst; rate; extra } ]

let partition ~at ~until ~side =
  if not (Float.is_finite at && Float.is_finite until) || at < 0. || until <= at
  then invalid_arg (Printf.sprintf "Fault.partition: window [%g, %g) malformed" at until);
  [ Partition { at; until; side } ]

let crash ?recover_at ~at actor =
  if not (Float.is_finite at) || at < 0. then
    invalid_arg (Printf.sprintf "Fault.crash: time %g invalid" at);
  (match recover_at with
  | Some r when (not (Float.is_finite r)) || r <= at ->
      invalid_arg (Printf.sprintf "Fault.crash: recovery %g not after crash %g" r at)
  | _ -> ());
  [ Crash { actor; at; recover_at } ]

let check_op label op =
  if op < 1 then
    invalid_arg (Printf.sprintf "Fault.%s: write-op index %d must be >= 1" label op)

let check_offset label at =
  if at < 0 then
    invalid_arg (Printf.sprintf "Fault.%s: byte offset %d must be >= 0" label at)

let torn_write ~op ~at =
  check_op "torn_write" op;
  check_offset "torn_write" at;
  [ Torn { op; at } ]

let bit_flip ~op ~at =
  check_op "bit_flip" op;
  check_offset "bit_flip" at;
  [ Flip { op; at } ]

let fsync_loss ~op ~at =
  check_op "fsync_loss" op;
  check_offset "fsync_loss" at;
  [ Fsync_loss { op; at } ]

let rename_crash ~op =
  check_op "rename_crash" op;
  [ Rename_crash { op } ]

let journal_torn ~op ~at =
  check_op "journal_torn" op;
  check_offset "journal_torn" at;
  [ Journal_torn { op; at } ]

type disk_rule =
  | Torn_write of { op : int; at : int }
  | Bit_flip of { op : int; at : int }
  | Lost_fsync of { op : int; at : int }
  | Crashed_rename of { op : int }
  | Torn_journal of { op : int; at : int }

let disk_schedule plan =
  List.filter_map
    (function
      | Torn { op; at } -> Some (Torn_write { op; at })
      | Flip { op; at } -> Some (Bit_flip { op; at })
      | Fsync_loss { op; at } -> Some (Lost_fsync { op; at })
      | Rename_crash { op } -> Some (Crashed_rename { op })
      | Journal_torn { op; at } -> Some (Torn_journal { op; at })
      | Loss _ | Dup _ | Spike _ | Partition _ | Crash _ -> None)
    plan

let all plans = List.concat plans

let equal (a : plan) (b : plan) = a = b

let crash_schedule plan =
  List.filter_map
    (function
      | Crash { actor; at; recover_at } -> Some (actor, at, recover_at)
      | _ -> None)
    plan

(* -- The fault mini-DSL -------------------------------------------------

   Canonical concrete syntax, one rule per '+'-separated atom:

     loss:R[@S>D]        dup:R[xN][@S>D]      spike:R~E[@S>D]
     part:AT~UNTIL@A,B   crash:ACTOR@AT[~RECOVER]

   S/D are actor ids or '*' (any). [to_string] prints this form with
   floats rendered by the shortest format that parses back to the exact
   same double, so [of_string (to_string p)] always yields [p]. *)

let float_str f =
  let exact fmt =
    let s = Printf.sprintf fmt f in
    if float_of_string s = f then Some s else None
  in
  match exact "%g" with
  | Some s -> s
  | None -> (
      match exact "%.12g" with Some s -> s | None -> Printf.sprintf "%.17g" f)

let endpoint_str src dst =
  match (src, dst) with
  | None, None -> ""
  | _ ->
      let ep = function None -> "*" | Some a -> string_of_int a in
      Printf.sprintf "@%s>%s" (ep src) (ep dst)

let rule_to_string = function
  | Loss { src; dst; rate } ->
      Printf.sprintf "loss:%s%s" (float_str rate) (endpoint_str src dst)
  | Dup { src; dst; rate; copies } ->
      Printf.sprintf "dup:%s%s%s" (float_str rate)
        (if copies = 1 then "" else Printf.sprintf "x%d" copies)
        (endpoint_str src dst)
  | Spike { src; dst; rate; extra } ->
      Printf.sprintf "spike:%s~%s%s" (float_str rate) (float_str extra)
        (endpoint_str src dst)
  | Partition { at; until; side } ->
      Printf.sprintf "part:%s~%s@%s" (float_str at) (float_str until)
        (String.concat "," (List.map string_of_int side))
  | Crash { actor; at; recover_at } ->
      Printf.sprintf "crash:%d@%s%s" actor (float_str at)
        (match recover_at with
        | None -> ""
        | Some r -> Printf.sprintf "~%s" (float_str r))
  | Torn { op; at } -> Printf.sprintf "torn:%d@%d" op at
  | Flip { op; at } -> Printf.sprintf "flip:%d@%d" op at
  | Fsync_loss { op; at } -> Printf.sprintf "fsync:%d@%d" op at
  | Rename_crash { op } -> Printf.sprintf "rename:%d" op
  | Journal_torn { op; at } -> Printf.sprintf "jtorn:%d@%d" op at

let to_string = function
  | [] -> "reliable"
  | plan -> String.concat "+" (List.map rule_to_string plan)

let pp_plan ppf plan = Format.pp_print_string ppf (to_string plan)

exception Parse of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let split_once ~on s =
  match String.index_opt s on with
  | None -> None
  | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> parse_error "%s: not a number (%S)" what s

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> parse_error "%s: not an integer (%S)" what s

let parse_endpoint what s =
  match String.trim s with
  | "*" -> None
  | other -> Some (parse_int what other)

(* "BODY[@S>D]" -> (BODY, src, dst) for loss/dup/spike atoms. *)
let parse_link_suffix atom body =
  match split_once ~on:'@' body with
  | None -> (body, None, None)
  | Some (params, link) -> (
      match split_once ~on:'>' link with
      | None -> parse_error "%s: endpoint filter must be S>D (got %S)" atom link
      | Some (s, d) ->
          (params, parse_endpoint atom s, parse_endpoint atom d))

let parse_rule atom =
  let name, body =
    match split_once ~on:':' atom with
    | Some (name, body) -> (String.trim name, String.trim body)
    | None -> parse_error "rule %S: expected NAME:BODY" atom
  in
  match name with
  | "loss" ->
      let params, src, dst = parse_link_suffix atom body in
      loss ?src ?dst ~rate:(parse_float atom params) ()
  | "dup" ->
      let params, src, dst = parse_link_suffix atom body in
      let rate, copies =
        match split_once ~on:'x' params with
        | None -> (parse_float atom params, 1)
        | Some (r, n) -> (parse_float atom r, parse_int atom n)
      in
      duplication ?src ?dst ~copies ~rate ()
  | "spike" ->
      let params, src, dst = parse_link_suffix atom body in
      let rate, extra =
        match split_once ~on:'~' params with
        | None -> parse_error "%s: expected RATE~EXTRA" atom
        | Some (r, e) -> (parse_float atom r, parse_float atom e)
      in
      spike ?src ?dst ~rate ~extra ()
  | "part" -> (
      match split_once ~on:'@' body with
      | None -> parse_error "%s: expected AT~UNTIL@A,B,..." atom
      | Some (window, side) -> (
          match split_once ~on:'~' window with
          | None -> parse_error "%s: window must be AT~UNTIL" atom
          | Some (at, until) ->
              (* Strict side parsing: an empty entry ("0,,1", "0,1,") is
                 a typo, not something to filter away silently. *)
              let entries = String.split_on_char ',' side in
              List.iteri
                (fun i s ->
                  if String.trim s = "" then
                    parse_error
                      "%s: empty entry %d in partition side %S (trailing or \
                       doubled comma?)"
                      atom (i + 1) side)
                entries;
              let side = List.map (parse_int atom) entries in
              if side = [] then parse_error "%s: empty partition side" atom;
              partition ~at:(parse_float atom at) ~until:(parse_float atom until)
                ~side))
  | "crash" -> (
      match split_once ~on:'@' body with
      | None -> parse_error "%s: expected ACTOR@AT[~RECOVER]" atom
      | Some (actor, times) -> (
          let actor = parse_int atom actor in
          match split_once ~on:'~' times with
          | None -> crash ~at:(parse_float atom times) actor
          | Some (at, recover) ->
              crash ~recover_at:(parse_float atom recover)
                ~at:(parse_float atom at) actor))
  | "torn" | "flip" | "fsync" | "jtorn" -> (
      match split_once ~on:'@' body with
      | None -> parse_error "%s: expected OP@BYTE" atom
      | Some (op, at) -> (
          let op = parse_int atom op and at = parse_int atom at in
          match name with
          | "torn" -> torn_write ~op ~at
          | "flip" -> bit_flip ~op ~at
          | "fsync" -> fsync_loss ~op ~at
          | _ -> journal_torn ~op ~at))
  | "rename" -> rename_crash ~op:(parse_int atom body)
  | other ->
      parse_error
        "unknown rule %S (loss|dup|spike|part|crash|torn|flip|fsync|rename|jtorn)"
        other

let of_string spec =
  let spec = String.trim spec in
  try
    if spec = "" || spec = "reliable" || spec = "none" then Ok reliable
    else begin
      (* Split on '+' while remembering where each atom starts, so every
         rejection names the offending token and its character position —
         nothing is ever silently ignored. *)
      let atoms = ref [] and start = ref 0 in
      String.iteri
        (fun i c ->
          if c = '+' then begin
            atoms := (!start, String.sub spec !start (i - !start)) :: !atoms;
            start := i + 1
          end)
        spec;
      atoms :=
        (!start, String.sub spec !start (String.length spec - !start)) :: !atoms;
      let parse idx (pos, raw) =
        let atom = String.trim raw in
        if atom = "" then
          parse_error "atom %d at char %d: empty rule (stray '+'?)" (idx + 1) pos;
        match parse_rule atom with
        | rules -> rules
        | exception Parse m ->
            parse_error "atom %d at char %d: %s" (idx + 1) pos m
        | exception Invalid_argument m ->
            parse_error "atom %d at char %d: %s" (idx + 1) pos m
      in
      Ok (List.concat (List.mapi parse (List.rev !atoms)))
    end
  with
  | Parse message -> Error message
  | Invalid_argument message -> Error message

type t = { rules : rule list; rng : Random.State.t }

let instantiate ?(seed = 0) plan = { rules = plan; rng = Random.State.make [| seed |] }

let down t ~now actor =
  List.exists
    (function
      | Crash { actor = a; at; recover_at } ->
          a = actor
          && now >= at
          && (match recover_at with None -> true | Some r -> now < r)
      | _ -> false)
    t.rules

let matches side x = match side with None -> true | Some y -> y = x

let decide t ~now ~src ~dst =
  if down t ~now src || down t ~now dst then Drop
  else begin
    (* Every probabilistic rule draws exactly once whether or not an
       earlier rule already sealed the message's fate, so the decision
       stream stays aligned across plan variations with the same rule
       list shape — and replay-identical for a fixed plan and seed. *)
    let dropped = ref false in
    let copies = ref 0 in
    let extra = ref 0. in
    List.iter
      (fun rule ->
        match rule with
        | Loss { src = s; dst = d; rate } ->
            if matches s src && matches d dst then
              if Random.State.float t.rng 1. < rate then dropped := true
        | Dup { src = s; dst = d; rate; copies = n } ->
            if matches s src && matches d dst then
              if Random.State.float t.rng 1. < rate then copies := !copies + n
        | Spike { src = s; dst = d; rate; extra = e } ->
            if matches s src && matches d dst then
              if Random.State.float t.rng 1. < rate then extra := !extra +. e
        | Partition { at; until; side } ->
            if now >= at && now < until then begin
              let in_side a = List.mem a side in
              if in_side src <> in_side dst then dropped := true
            end
        | Crash _ | Torn _ | Flip _ | Fsync_loss _ | Rename_crash _
        | Journal_torn _ ->
            ())
      t.rules;
    if !dropped then Drop
    else if !copies > 0 then Duplicate !copies
    else if !extra > 0. then Delay !extra
    else Deliver
  end
