type t = int array

let of_array p a =
  if Array.length a <> Problem.num_clients p then
    invalid_arg
      (Printf.sprintf "Assignment: %d entries for %d clients" (Array.length a)
         (Problem.num_clients p));
  let k = Problem.num_servers p in
  Array.iter
    (fun s ->
      if s < 0 || s >= k then
        invalid_arg (Printf.sprintf "Assignment: server index %d out of bounds [0, %d)" s k))
    a;
  Array.copy a

let unsafe_of_array a = a
let to_array a = Array.copy a
let server_of a c = a.(c)
let num_clients a = Array.length a

let loads p a =
  let counts = Array.make (Problem.num_servers p) 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) a;
  counts

let used_servers p a =
  let counts = loads p a in
  let used = ref [] in
  for s = Array.length counts - 1 downto 0 do
    if counts.(s) > 0 then used := s :: !used
  done;
  Array.of_list !used

let respects_capacity p a =
  match Problem.capacity p with
  | None -> true
  | Some cap -> Array.for_all (fun load -> load <= cap) (loads p a)

let equal = ( = )

let constant p s =
  if s < 0 || s >= Problem.num_servers p then
    invalid_arg (Printf.sprintf "Assignment.constant: bad server index %d" s);
  Array.make (Problem.num_clients p) s

let random p ~seed =
  let rng = Random.State.make [| seed |] in
  let k = Problem.num_servers p in
  Array.init (Problem.num_clients p) (fun _ -> Random.State.int rng k)
