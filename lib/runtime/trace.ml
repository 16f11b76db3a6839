type kind =
  | Join of { session : int; node : int }
  | Leave of { session : int }
  | Crash of { server : int }
  | Recover of { server : int }
  | Drift of { server : int; factor : float }

type event = { time : float; kind : kind }

type t = event array

let churn ~seed ~nodes ~rate ~mean_lifetime ~horizon =
  if nodes <= 0 then invalid_arg "Trace.churn: nodes must be positive";
  if rate <= 0. || not (Float.is_finite rate) then
    invalid_arg "Trace.churn: rate must be positive";
  if mean_lifetime <= 0. || not (Float.is_finite mean_lifetime) then
    invalid_arg "Trace.churn: mean_lifetime must be positive";
  if horizon < 0. || not (Float.is_finite horizon) then
    invalid_arg "Trace.churn: horizon must be non-negative";
  let rng = Random.State.make [| seed; 0x6368 |] in
  let events = ref [] in
  let session = ref 0 in
  let t = ref 0. in
  let continue = ref true in
  while !continue do
    let gap = -.log (1. -. Random.State.float rng 1.) /. rate in
    t := !t +. gap;
    if !t > horizon then continue := false
    else begin
      let node = Random.State.int rng nodes in
      let lifetime =
        -.log (1. -. Random.State.float rng 1.) *. mean_lifetime
      in
      let s = !session in
      incr session;
      events := { time = !t; kind = Join { session = s; node } } :: !events;
      let leave_at = !t +. lifetime in
      if leave_at <= horizon then
        events := { time = leave_at; kind = Leave { session = s } } :: !events
    end
  done;
  List.rev !events

let drift_walk ~seed ~servers ~period ~amplitude ~horizon =
  if servers <= 0 then invalid_arg "Trace.drift_walk: servers must be positive";
  if period <= 0. || not (Float.is_finite period) then
    invalid_arg "Trace.drift_walk: period must be positive";
  if amplitude < 0. || amplitude > 1. || not (Float.is_finite amplitude) then
    invalid_arg "Trace.drift_walk: amplitude outside [0, 1]";
  if horizon < 0. || not (Float.is_finite horizon) then
    invalid_arg "Trace.drift_walk: horizon must be non-negative";
  let rng = Random.State.make [| seed; 0x6472 |] in
  let events = ref [] in
  let t = ref period in
  while !t <= horizon do
    let server = Random.State.int rng servers in
    let factor =
      Float.max 0.05 (1. -. amplitude +. (2. *. amplitude *. Random.State.float rng 1.))
    in
    events := { time = !t; kind = Drift { server; factor } } :: !events;
    t := !t +. period
  done;
  List.rev !events

let crashes_of_plan plan ~servers =
  List.concat_map
    (fun (actor, at, recover_at) ->
      if actor < 0 || actor >= servers then []
      else
        ({ time = at; kind = Crash { server = actor } }
        ::
        (match recover_at with
        | None -> []
        | Some r -> [ { time = r; kind = Recover { server = actor } } ])))
    (Dia_sim.Fault.crash_schedule plan)

(* The concatenation lists events by (stream, index), so a stable sort on
   time alone orders them by (time, stream, index). The horizon filter
   drops NaN times, and on every other float [Float.compare] agrees with
   polymorphic [compare]. *)
let merge ~horizon streams =
  List.concat streams
  |> List.filter (fun e -> e.time <= horizon)
  |> List.stable_sort (fun a b -> Float.compare a.time b.time)
  |> Array.of_list
