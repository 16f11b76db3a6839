module Matrix = Dia_latency.Matrix

type t = {
  latency : Matrix.t;
  servers : int array;
  clients : int array;
  capacity : int option;
}

let check_capacity ~num_servers ~num_clients = function
  | None -> ()
  | Some cap ->
      if cap <= 0 then invalid_arg "Problem: capacity must be positive";
      if cap * num_servers < num_clients then
        invalid_arg
          (Printf.sprintf
             "Problem: capacity %d x %d servers cannot host %d clients" cap
             num_servers num_clients)

let make ?capacity ~latency ~servers ~clients () =
  let n = Matrix.dim latency in
  let check_node label id =
    if id < 0 || id >= n then
      invalid_arg (Printf.sprintf "Problem: %s node %d out of bounds [0, %d)" label id n)
  in
  Array.iter (check_node "server") servers;
  Array.iter (check_node "client") clients;
  (* Every algorithm reads d(c,s) and d(s,s') only: a server row covers
     both, so a rows-only matrix serves any client set. *)
  Array.iter
    (fun s ->
      if not (Matrix.has_row latency s) then
        invalid_arg (Printf.sprintf "Problem: server node %d has no materialised row" s))
    servers;
  if Array.length servers = 0 then invalid_arg "Problem: no servers";
  let seen = Hashtbl.create (Array.length servers) in
  Array.iter
    (fun s ->
      if Hashtbl.mem seen s then
        invalid_arg (Printf.sprintf "Problem: duplicate server node %d" s);
      Hashtbl.add seen s ())
    servers;
  check_capacity ~num_servers:(Array.length servers)
    ~num_clients:(Array.length clients) capacity;
  { latency; servers = Array.copy servers; clients = Array.copy clients; capacity }

let all_nodes_clients ?capacity latency ~servers =
  let clients = Array.init (Matrix.dim latency) Fun.id in
  make ?capacity ~latency ~servers ~clients ()

let latency p = p.latency
let servers p = p.servers
let clients p = p.clients
let num_servers p = Array.length p.servers
let num_clients p = Array.length p.clients
let capacity p = p.capacity

let with_capacity p capacity =
  check_capacity ~num_servers:(num_servers p) ~num_clients:(num_clients p) capacity;
  { p with capacity }

let d_cs p c s = Matrix.get p.latency p.clients.(c) p.servers.(s)
let d_ss p s1 s2 = Matrix.get p.latency p.servers.(s1) p.servers.(s2)
let d_cc p c1 c2 = Matrix.get p.latency p.clients.(c1) p.clients.(c2)

(* Flat snapshots of the client-server / server-server distance blocks.
   Hot algorithms build one up front (O(nk) with a single bounds check
   per row) and then index it unchecked; a snapshot owned by the caller
   is also immune to in-place matrix drift and safe to share read-only
   across domains. Entries are the same doubles [d_cs]/[d_ss] return, so
   swapping an algorithm onto a table is bit-preserving. *)
let cs_table p =
  let n = Array.length p.clients and k = Array.length p.servers in
  let m = p.latency in
  let t = Array.make (max 1 (n * k)) 0. in
  for c = 0 to n - 1 do
    let node = Array.unsafe_get p.clients c in
    let base = c * k in
    for s = 0 to k - 1 do
      Array.unsafe_set t (base + s)
        (Matrix.unsafe_get m node (Array.unsafe_get p.servers s))
    done
  done;
  t

let sc_table p =
  let n = Array.length p.clients and k = Array.length p.servers in
  let m = p.latency in
  let t = Array.make (max 1 (n * k)) 0. in
  for s = 0 to k - 1 do
    let node = Array.unsafe_get p.servers s in
    let base = s * n in
    for c = 0 to n - 1 do
      Array.unsafe_set t (base + c)
        (Matrix.unsafe_get m node (Array.unsafe_get p.clients c))
    done
  done;
  t

let ss_table p =
  let k = Array.length p.servers in
  let m = p.latency in
  let t = Array.make (max 1 (k * k)) 0. in
  for s = 0 to k - 1 do
    let node = Array.unsafe_get p.servers s in
    let base = s * k in
    for s' = 0 to k - 1 do
      Array.unsafe_set t (base + s')
        (Matrix.unsafe_get m node (Array.unsafe_get p.servers s'))
    done
  done;
  t

let nearest_server p c =
  let best = ref 0 in
  for s = 1 to num_servers p - 1 do
    if d_cs p c s < d_cs p c !best then best := s
  done;
  !best

let servers_by_distance p c =
  let order = Array.init (num_servers p) Fun.id in
  Array.sort
    (fun s1 s2 ->
      match Float.compare (d_cs p c s1) (d_cs p c s2) with
      | 0 -> compare s1 s2
      | cmp -> cmp)
    order;
  order
