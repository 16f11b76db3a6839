type decision = Admit | Queue | Shed

type t = {
  mutable queue : (int * int) list;
  mutable admitted : int;
  mutable queued : int;
  mutable shed : int;
  mutable drained : int;
  mutable abandoned : int;
}

let create () =
  { queue = []; admitted = 0; queued = 0; shed = 0; drained = 0; abandoned = 0 }

let copy t = { t with queue = t.queue }

let consider t ~max_queue ~level ~has_capacity ~session ~node =
  match (level : Slo.level) with
  | Critical ->
      t.shed <- t.shed + 1;
      Shed
  | Degraded | Healthy ->
      if level = Healthy && has_capacity then begin
        t.admitted <- t.admitted + 1;
        Admit
      end
      else if List.length t.queue < max_queue then begin
        t.queue <- t.queue @ [ (session, node) ];
        t.queued <- t.queued + 1;
        Queue
      end
      else begin
        t.shed <- t.shed + 1;
        Shed
      end

let pop t =
  match t.queue with
  | [] -> None
  | entry :: rest ->
      t.queue <- rest;
      t.drained <- t.drained + 1;
      Some entry

let abandon t ~session =
  let before = List.length t.queue in
  t.queue <- List.filter (fun (s, _) -> s <> session) t.queue;
  let hit = List.length t.queue < before in
  if hit then t.abandoned <- t.abandoned + 1;
  hit

let pending t = List.length t.queue
