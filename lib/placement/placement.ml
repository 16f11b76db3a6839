module Matrix = Dia_latency.Matrix

type strategy = Random_placement | K_center_a | K_center_b

let strategy_name = function
  | Random_placement -> "random"
  | K_center_a -> "kcenter-a"
  | K_center_b -> "kcenter-b"

let strategy_of_string = function
  | "random" -> Some Random_placement
  | "kcenter-a" -> Some K_center_a
  | "kcenter-b" -> Some K_center_b
  | _ -> None

let all_strategies = [ Random_placement; K_center_a; K_center_b ]

let random ~seed ~k ~n =
  if k < 0 || k > n then
    invalid_arg (Printf.sprintf "Placement.random: k = %d out of range [0, %d]" k n);
  let rng = Random.State.make [| seed |] in
  let nodes = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let tmp = nodes.(i) in
    nodes.(i) <- nodes.(j);
    nodes.(j) <- tmp
  done;
  let servers = Array.sub nodes 0 k in
  Array.sort compare servers;
  servers

let place strategy ?(seed = 0) m ~k =
  match strategy with
  | Random_placement -> random ~seed ~k ~n:(Matrix.dim m)
  | K_center_a -> Kcenter.two_approx ~seed m ~k
  | K_center_b -> Kcenter.greedy m ~k
