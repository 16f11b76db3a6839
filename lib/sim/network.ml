module Matrix = Dia_latency.Matrix

type 'payload t = {
  engine : Engine.t;
  latency : int -> int -> float;
  jitter : src:int -> dst:int -> base:float -> float;
  fault : Fault.t option;
  handlers : (src:int -> 'payload -> unit) option array;
  mutable sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable undeliverable : int;
  mutable last_latency : float;
}

let create ?(jitter = fun ~src:_ ~dst:_ ~base -> base) ?fault engine ~actors ~latency
    =
  if actors < 0 then invalid_arg "Network.create: negative actor count";
  {
    engine;
    latency;
    jitter;
    fault;
    handlers = Array.make actors None;
    sent = 0;
    dropped = 0;
    duplicated = 0;
    undeliverable = 0;
    last_latency = nan;
  }

let of_matrix ?jitter ?fault engine matrix =
  create ?jitter ?fault engine ~actors:(Matrix.dim matrix) ~latency:(Matrix.get matrix)

let check_actor net label actor =
  if actor < 0 || actor >= Array.length net.handlers then
    invalid_arg (Printf.sprintf "Network: %s actor %d out of bounds" label actor)

let on_receive net actor handler =
  check_actor net "receiving" actor;
  net.handlers.(actor) <- Some handler

(* Whether the actor is down per the fault plan's crash schedule at the
   engine's current time. *)
let is_down net actor =
  check_actor net "queried" actor;
  match net.fault with
  | None -> false
  | Some fault -> Fault.down fault ~now:(Engine.now net.engine) actor

(* One delivery attempt: jitter is drawn per copy, and the destination's
   up/down state is re-checked at arrival time, so an actor that crashes
   while the message is in flight never receives it. *)
let deliver net ~src ~dst ~base ~extra payload =
  let latency = net.jitter ~src ~dst ~base in
  if latency < 0. || not (Float.is_finite latency) then
    invalid_arg (Printf.sprintf "Network.send: jittered latency %g invalid" latency);
  let latency = latency +. extra in
  net.last_latency <- latency;
  Engine.schedule_after net.engine latency (fun () ->
      if is_down net dst then net.dropped <- net.dropped + 1
      else
        match net.handlers.(dst) with
        | Some handler -> handler ~src payload
        | None -> net.undeliverable <- net.undeliverable + 1)

let send net ~src ~dst payload =
  check_actor net "source" src;
  check_actor net "destination" dst;
  let base = net.latency src dst in
  if base < 0. || not (Float.is_finite base) then
    invalid_arg (Printf.sprintf "Network.send: latency %g invalid" base);
  net.sent <- net.sent + 1;
  if is_down net src || is_down net dst then net.dropped <- net.dropped + 1
  else begin
    let action =
      match net.fault with
      | None -> Fault.Deliver
      | Some fault -> Fault.decide fault ~now:(Engine.now net.engine) ~src ~dst
    in
    match action with
    | Fault.Drop -> net.dropped <- net.dropped + 1
    | Fault.Deliver -> deliver net ~src ~dst ~base ~extra:0. payload
    | Fault.Delay extra -> deliver net ~src ~dst ~base ~extra payload
    | Fault.Duplicate copies ->
        net.duplicated <- net.duplicated + copies;
        for _ = 0 to copies do
          deliver net ~src ~dst ~base ~extra:0. payload
        done
  end

let messages_sent net = net.sent
let messages_dropped net = net.dropped
let messages_duplicated net = net.duplicated
let undeliverable net = net.undeliverable

let latency_of_last_message net = net.last_latency
