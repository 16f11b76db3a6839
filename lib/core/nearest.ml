module Matrix = Dia_latency.Matrix

(* Clients arrive in index order and each joins the feasible server
   minimising its marginal hop cost d(c,s) + delay(load s + 1) — the
   delay its own join inflicts. Under [Delay.zero] that is the nearest
   server with room, the paper's rule: an ascending strict-< scan keeps
   ties at the lowest index, exactly the order [Problem.nearest_server]
   and the capacitated distance sort produce. *)
let assign ?(delay = Delay.zero) p =
  Delay.validate delay;
  let n = Problem.num_clients p and k = Problem.num_servers p in
  let cap = match Problem.capacity p with None -> max_int | Some c -> c in
  let m = Problem.latency p in
  (* d(c, s) is read in place from [s]'s row, as [Ecc] reads it. *)
  let buf = Matrix.unsafe_buffer m and srow = Matrix.row_offsets m (Problem.servers p) in
  let clients = Problem.clients p in
  (* A join never lifts a load above n. *)
  let dtab = Array.init (n + 1) (Delay.eval delay) in
  let load = Array.make k 0 in
  let pick c =
    let q = clients.(c) in
    let best = ref (-1) and best_cost = ref infinity in
    for s = 0 to k - 1 do
      let l = Array.unsafe_get load s in
      if l < cap then begin
        let cost =
          Bigarray.Array1.unsafe_get buf (Array.unsafe_get srow s + q)
          +. Array.unsafe_get dtab (l + 1)
        in
        if cost < !best_cost then begin
          best_cost := cost;
          best := s
        end
      end
    done;
    (* make/with_capacity guarantee cap * |S| >= |C|, so a feasible
       server always exists. *)
    assert (!best >= 0);
    load.(!best) <- load.(!best) + 1;
    !best
  in
  Assignment.unsafe_of_array (Array.init n pick)
