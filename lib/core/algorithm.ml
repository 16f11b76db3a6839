type t =
  | Nearest_server
  | Longest_first_batch
  | Greedy
  | Distributed_greedy
  | Single_server
  | Random_assignment

let heuristics = [ Nearest_server; Longest_first_batch; Greedy; Distributed_greedy ]

let all = heuristics @ [ Single_server; Random_assignment ]

let name = function
  | Nearest_server -> "Nearest-Server"
  | Longest_first_batch -> "Longest-First-Batch"
  | Greedy -> "Greedy"
  | Distributed_greedy -> "Distributed-Greedy"
  | Single_server -> "Single-Server"
  | Random_assignment -> "Random"

let key = function
  | Nearest_server -> "nearest"
  | Longest_first_batch -> "lfb"
  | Greedy -> "greedy"
  | Distributed_greedy -> "dgreedy"
  | Single_server -> "single"
  | Random_assignment -> "random"

let of_key = function
  | "nearest" -> Some Nearest_server
  | "lfb" -> Some Longest_first_batch
  | "greedy" -> Some Greedy
  | "dgreedy" -> Some Distributed_greedy
  | "single" -> Some Single_server
  | "random" -> Some Random_assignment
  | _ -> None

let run ?(seed = 0) ?delay algorithm p =
  match algorithm with
  | Nearest_server -> Nearest.assign ?delay p
  | Longest_first_batch -> Longest_first_batch.assign p
  | Greedy -> Greedy.assign ?delay p
  | Distributed_greedy -> Distributed_greedy.assign ?delay p
  | Single_server -> Baselines.best_single_server p
  | Random_assignment -> Baselines.random ~seed p
