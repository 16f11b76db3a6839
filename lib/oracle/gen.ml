module Matrix = Dia_latency.Matrix
module Synthetic = Dia_latency.Synthetic
module Problem = Dia_core.Problem

type kind =
  | Metric_euclidean
  | Metric_grid
  | Internet
  | Uniform_nonmetric
  | Clustered_zipf
  | Single_server
  | Server_heavy
  | Duplicate_coords
  | Weighted_stacked
  | Clustered_scale
  | Load_heavy

let kinds =
  [
    Metric_euclidean; Metric_grid; Internet; Uniform_nonmetric;
    Clustered_zipf; Single_server; Server_heavy; Duplicate_coords;
    Weighted_stacked; Clustered_scale; Load_heavy;
  ]

let kind_name = function
  | Metric_euclidean -> "metric-euclidean"
  | Metric_grid -> "metric-grid"
  | Internet -> "internet"
  | Uniform_nonmetric -> "uniform-nonmetric"
  | Clustered_zipf -> "clustered-zipf"
  | Single_server -> "single-server"
  | Server_heavy -> "server-heavy"
  | Duplicate_coords -> "duplicate-coords"
  | Weighted_stacked -> "weighted-stacked"
  | Clustered_scale -> "clustered-scale"
  | Load_heavy -> "load-heavy"

(* Euclidean embeddings (including duplicated or clustered points) are
   pseudometrics, so the triangle inequality — the 3-approximation
   precondition — holds; grid shortest paths are metric by construction.
   Internet-like matrices violate it on purpose. *)
let is_metric = function
  | Metric_euclidean | Metric_grid | Duplicate_coords | Clustered_scale -> true
  | Internet | Uniform_nonmetric | Clustered_zipf | Single_server
  | Server_heavy | Weighted_stacked | Load_heavy -> false

type descriptor = {
  kind : kind;
  seed : int;
  nodes : int;
  servers : int;
  clients : int;
  capacitated : bool;
}

let clamp lo hi v = max lo (min hi v)

(* Normalised sizes: every descriptor — including shrunk or hand-written
   ones — maps to a feasible instance shape. *)
let counts d =
  let nodes = clamp 4 64 d.nodes in
  let nodes =
    match d.kind with
    | Metric_grid ->
        (* Round to a rows x cols rectangle no bigger than requested. *)
        let rows = max 2 (int_of_float (sqrt (float_of_int nodes))) in
        let cols = max 2 (nodes / rows) in
        rows * cols
    | _ -> nodes
  in
  let servers =
    match d.kind with
    | Single_server -> 1
    | Server_heavy ->
        let clients = clamp 1 nodes d.clients in
        clamp clients nodes (max d.servers clients)
    (* Few servers under a big population: utilisation per server is
       high, so load-dependent delay dominates the network term. *)
    | Load_heavy -> clamp 1 (min 4 nodes) d.servers
    | _ -> clamp 1 nodes d.servers
  in
  let n_clients =
    match d.kind with
    | Clustered_zipf -> clamp 1 96 d.clients
    | Server_heavy -> min (clamp 1 nodes d.clients) servers
    (* Population well beyond the node count: many clients per node is
       the weighted/coreset regime. *)
    | Weighted_stacked | Clustered_scale -> clamp 8 160 (d.clients * 5)
    | Load_heavy -> clamp 8 120 (d.clients * 4)
    | _ -> nodes
  in
  let capacity =
    if not d.capacitated then None
    else begin
      let minimum = (n_clients + servers - 1) / servers in
      let rng = Random.State.make [| d.seed; 0xcafe |] in
      Some (minimum + Random.State.int rng 3)
    end
  in
  (nodes, servers, n_clients, capacity)

let brute_sized d =
  let _, servers, n_clients, _ = counts d in
  n_clients <= 10 && servers <= 4

let descriptor_of_seed seed =
  let seed = abs seed in
  let rng = Random.State.make [| 0x0dac1e; seed |] in
  let kind = List.nth kinds (Random.State.int rng (List.length kinds)) in
  (* One quarter of the seed line is brute-force sized, so exact-optimum
     cross-checks cover every kind at the same density. *)
  let small = seed mod 4 = 0 in
  let nodes =
    if small then 4 + Random.State.int rng 7 else 8 + Random.State.int rng 29
  in
  let servers = if small then 2 + Random.State.int rng 3 else 2 + Random.State.int rng 7 in
  let clients =
    match kind with
    | Server_heavy -> if small then 2 + Random.State.int rng 3 else 4 + Random.State.int rng 9
    | _ -> if small then 2 + Random.State.int rng 9 else 6 + Random.State.int rng 31
  in
  let capacitated = Random.State.int rng 3 = 0 in
  { kind; seed; nodes; servers; clients; capacitated }

let duplicate_matrix ~seed n =
  let rng = Random.State.make [| seed; 0xd0b1e |] in
  let half = max 2 ((n + 1) / 2) in
  let pts =
    Array.init half (fun _ ->
        (Random.State.float rng 400., Random.State.float rng 400.))
  in
  Matrix.init n (fun i j ->
      let xi, yi = pts.(i mod half) and xj, yj = pts.(j mod half) in
      Float.hypot (xi -. xj) (yi -. yj))

(* Tight Gaussian-ish clusters of Euclidean points: most node pairs are
   either near-coincident (same cluster) or far apart — the geometry a
   coreset collapses best, and still a pseudometric. *)
let clustered_matrix ~seed n =
  let rng = Random.State.make [| seed; 0xc7a5 |] in
  let hubs = 3 + Random.State.int rng 3 in
  let centers =
    Array.init hubs (fun _ ->
        (Random.State.float rng 400., Random.State.float rng 400.))
  in
  let pts =
    Array.init n (fun _ ->
        let cx, cy = centers.(Random.State.int rng hubs) in
        ( cx +. Random.State.float rng 12. -. 6.,
          cy +. Random.State.float rng 12. -. 6. ))
  in
  Matrix.init n (fun i j ->
      let xi, yi = pts.(i) and xj, yj = pts.(j) in
      Float.hypot (xi -. xj) (yi -. yj))

let matrix_of d nodes =
  match d.kind with
  | Metric_euclidean -> Synthetic.euclidean ~seed:d.seed ~n:nodes ~side:400.
  | Metric_grid ->
      let rows = max 2 (int_of_float (sqrt (float_of_int nodes))) in
      let cols = max 2 (nodes / rows) in
      Synthetic.grid ~rows ~cols ~spacing:10.
  | Internet | Clustered_zipf | Single_server | Weighted_stacked | Load_heavy ->
      Synthetic.internet_like ~seed:d.seed nodes
  | Uniform_nonmetric ->
      Synthetic.uniform_random ~seed:d.seed ~n:nodes ~lo:1. ~hi:300.
  | Server_heavy -> Synthetic.euclidean ~seed:d.seed ~n:nodes ~side:400.
  | Duplicate_coords -> duplicate_matrix ~seed:d.seed nodes
  | Clustered_scale -> clustered_matrix ~seed:d.seed nodes

(* Zipf-weighted client placement: rank r (over a seed-shuffled node
   order) gets weight 1/(r+1), so a few nodes host most clients. *)
let zipf_clients rng ~nodes ~count =
  let order = Array.init nodes Fun.id in
  for i = nodes - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let weights = Array.init nodes (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  Array.init count (fun _ ->
      let x = Random.State.float rng total in
      let rec pick r acc =
        if r = nodes - 1 then order.(r)
        else
          let acc = acc +. weights.(r) in
          if x < acc then order.(r) else pick (r + 1) acc
      in
      pick 0 0.)

let instantiate d =
  let nodes, servers, n_clients, capacity = counts d in
  let matrix = matrix_of d nodes in
  let server_nodes = Dia_placement.Placement.random ~seed:d.seed ~k:servers ~n:nodes in
  let rng = Random.State.make [| d.seed; 0xc11e27 |] in
  match d.kind with
  | Clustered_zipf ->
      let clients = zipf_clients rng ~nodes ~count:n_clients in
      Problem.make ?capacity ~latency:matrix ~servers:server_nodes ~clients ()
  | Server_heavy ->
      let clients = Array.init n_clients (fun _ -> Random.State.int rng nodes) in
      Problem.make ?capacity ~latency:matrix ~servers:server_nodes ~clients ()
  | Weighted_stacked ->
      (* The whole population stacks onto a few hub nodes — the reduced
         (weighted) instance is far smaller than the client count. *)
      let hubs = max 2 (nodes / 6) in
      let order = Array.init nodes Fun.id in
      for i = nodes - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let clients =
        Array.init n_clients (fun _ -> order.(Random.State.int rng hubs))
      in
      Problem.make ?capacity ~latency:matrix ~servers:server_nodes ~clients ()
  | Clustered_scale ->
      let clients = Array.init n_clients (fun _ -> Random.State.int rng nodes) in
      Problem.make ?capacity ~latency:matrix ~servers:server_nodes ~clients ()
  | Load_heavy ->
      (* Most of the population crowds the server nodes themselves (a
         Zipf-ish skew across servers), so the network term of [D_load]
         is small and the queueing term decides — the regime where
         load-blind and load-aware assignment disagree hardest. *)
      let clients =
        Array.init n_clients (fun _ ->
            if Random.State.int rng 5 = 0 then Random.State.int rng nodes
            else begin
              let r = Random.State.int rng (servers * (servers + 1) / 2) in
              let rec pick s acc =
                let acc = acc + (servers - s) in
                if r < acc || s = servers - 1 then server_nodes.(s)
                else pick (s + 1) acc
              in
              pick 0 0
            end)
      in
      Problem.make ?capacity ~latency:matrix ~servers:server_nodes ~clients ()
  | _ ->
      Problem.all_nodes_clients ?capacity matrix ~servers:server_nodes

let tie_free p =
  (* Ties that matter are between {e distinct node pairs}: the same
     matrix entry showing up twice (a server that is also a client, two
     clients at one node) relabels consistently, so equal values there
     cannot make an index-order tie-break observable. So: the distance
     function must be injective over the distinct unordered node pairs
     the algorithms consult, and additionally no client may see two
     servers at distance zero (co-location collapses pairs out of the
     pool, so check the rows directly). *)
  let clients = Problem.clients p and servers = Problem.servers p in
  let pairs = Hashtbl.create 64 in
  let add a b = if a <> b then Hashtbl.replace pairs (min a b, max a b) () in
  Array.iter (fun c -> Array.iter (fun s -> add c s) servers) clients;
  Array.iteri
    (fun i si -> Array.iteri (fun j sj -> if j > i then add si sj) servers)
    servers;
  let per_client_distinct = ref true in
  let k = Problem.num_servers p in
  for ci = 0 to Problem.num_clients p - 1 do
    let row = Array.init k (fun si -> Problem.d_cs p ci si) in
    Array.sort Float.compare row;
    for i = 0 to k - 2 do
      if row.(i) = row.(i + 1) then per_client_distinct := false
    done
  done;
  let m = Problem.latency p in
  let values = Hashtbl.fold (fun (a, b) () acc -> Matrix.get m a b :: acc) pairs [] in
  let sorted = List.sort Float.compare values in
  let rec distinct = function
    | a :: (b :: _ as rest) -> a <> b && distinct rest
    | _ -> true
  in
  !per_client_distinct && distinct sorted

let pp_descriptor ppf d =
  let nodes, servers, n_clients, capacity = counts d in
  Format.fprintf ppf "%s seed=%d nodes=%d servers=%d clients=%d capacity=%s"
    (kind_name d.kind) d.seed nodes servers n_clients
    (match capacity with None -> "none" | Some c -> string_of_int c)

let arbitrary =
  let gen =
    QCheck.Gen.(
      map
        (fun ((kind, seed), (nodes, servers), (clients, capacitated)) ->
          { kind; seed; nodes; servers; clients; capacitated })
        (triple
           (pair (oneofl kinds) (int_bound 1_000_000))
           (pair (int_range 4 28) (int_range 1 8))
           (pair (int_range 1 36) bool)))
  in
  let shrink d yield =
    if d.capacitated then yield { d with capacitated = false };
    QCheck.Shrink.int d.nodes (fun nodes -> yield { d with nodes });
    QCheck.Shrink.int d.servers (fun servers -> yield { d with servers });
    QCheck.Shrink.int d.clients (fun clients -> yield { d with clients });
    QCheck.Shrink.int d.seed (fun seed -> yield { d with seed })
  in
  let print d = Format.asprintf "%a" pp_descriptor d in
  QCheck.make ~print ~shrink gen

(* --- persisted floats ------------------------------------------------- *)

let codec_float st i =
  let ulp_step f = match Random.State.int st 3 with 0 -> Float.pred f | 1 -> f | _ -> Float.succ f in
  match i mod 7 with
  | 0 -> Random.State.float st 350.
  | 1 -> Random.State.float st 1e6
  | 2 -> -.Random.State.float st 2.
  | 3 ->
      let f = Int64.float_of_bits (Random.State.int64 st Int64.max_int) in
      if Random.State.bool st then f else -.f
  | 4 -> ldexp (1. +. Random.State.float st 1.) (Random.State.int st 70 - 8)
  | 5 -> ulp_step (float_of_int (Random.State.int st 100_000_000) /. 1e4)
  | _ ->
      let bits = 1 + Random.State.int st 53 in
      let odd = Random.State.full_int st (1 lsl bits) lor 1 in
      ldexp (float_of_int odd) (Random.State.int st 64 - 8 - bits)

let codec_edges =
  let around f = [ Float.pred f; f; Float.succ f ] in
  [ 0.; -0.; 0x1p-1074; min_float; 0x1p-7; Float.pred 0x1p-7; 0x1p62;
    Float.pred 0x1p62; max_float; infinity; neg_infinity; nan ]
  @ List.concat_map around [ 1e-5; 1e-4; 1e6; 1e12; 1e17 ]
