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
   swapping an algorithm onto a table is bit-preserving. The builds read
   the latency store in place: [Bigarray.Array1.unsafe_get] on its
   concrete type expands inline, where a call into [Matrix] boxes every
   float it returns when modules are compiled [-opaque]. *)
let block p ~rows ~cols =
  let nr = Array.length rows and nc = Array.length cols in
  let buf = Matrix.unsafe_buffer p.latency and dim = Matrix.dim p.latency in
  let t = Array.make (max 1 (nr * nc)) 0. in
  for r = 0 to nr - 1 do
    let row = Array.unsafe_get rows r * dim in
    let base = r * nc in
    for j = 0 to nc - 1 do
      Array.unsafe_set t (base + j)
        (Bigarray.Array1.unsafe_get buf (row + Array.unsafe_get cols j))
    done
  done;
  t

let cs_table p = block p ~rows:p.clients ~cols:p.servers
let sc_table p = block p ~rows:p.servers ~cols:p.clients
let ss_table p = block p ~rows:p.servers ~cols:p.servers

let nearest_server p c =
  let best = ref 0 in
  for s = 1 to num_servers p - 1 do
    if d_cs p c s < d_cs p c !best then best := s
  done;
  !best
