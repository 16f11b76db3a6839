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

(* Most leaves are of sessions that never queued: test membership
   first, so a miss walks the queue without copying it. *)
let abandon t ~session =
  let hit = List.exists (fun (s, _) -> s = session) t.queue in
  if hit then begin
    t.queue <- List.filter (fun (s, _) -> s <> session) t.queue;
    t.abandoned <- t.abandoned + 1
  end;
  hit

let pending t = List.length t.queue
