type path = {
  from_client : int;
  to_client : int;
  from_server : int;
  to_server : int;
  client_leg : float;
  server_leg : float;
  exit_leg : float;
  length : float;
}

let path p a ci cj =
  let from_server = Assignment.server_of a ci in
  let to_server = Assignment.server_of a cj in
  let client_leg = Problem.d_cs p ci from_server in
  let server_leg = Problem.d_ss p from_server to_server in
  let exit_leg = Problem.d_cs p cj to_server in
  {
    from_client = ci;
    to_client = cj;
    from_server;
    to_server;
    client_leg;
    server_leg;
    exit_leg;
    length = client_leg +. server_leg +. exit_leg;
  }

(* Worst client of each server (by distance), or none if unused. *)
let worst_client_of p a =
  let k = Problem.num_servers p in
  let worst = Array.make k (-1) in
  for c = 0 to Problem.num_clients p - 1 do
    let s = Assignment.server_of a c in
    if worst.(s) < 0 || Problem.d_cs p c s > Problem.d_cs p worst.(s) s then
      worst.(s) <- c
  done;
  worst

let worst_pairs ?(count = 10) p a =
  let k = Problem.num_servers p in
  let worst = worst_client_of p a in
  let candidates = ref [] in
  for s1 = 0 to k - 1 do
    if worst.(s1) >= 0 then
      for s2 = s1 to k - 1 do
        if worst.(s2) >= 0 then
          candidates := path p a worst.(s1) worst.(s2) :: !candidates
      done
  done;
  let ranked =
    List.sort (fun x y -> Float.compare y.length x.length) !candidates
  in
  List.filteri (fun i _ -> i < count) ranked

let breakdown p a =
  match worst_pairs ~count:1 p a with
  | [] -> (nan, nan)
  | worst :: _ -> (worst.client_leg +. worst.exit_leg, worst.server_leg)
