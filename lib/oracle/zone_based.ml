module Problem = Dia_core.Problem
module Assignment = Dia_core.Assignment

let assign ?zones p =
  let n = Problem.num_clients p in
  let k = Problem.num_servers p in
  let zones = Option.value ~default:k zones in
  if zones < 1 then invalid_arg "Zone_based.assign: need at least one zone";
  let capacity = match Problem.capacity p with None -> max_int | Some c -> c in
  let result = Array.make n (-1) in
  if n > 0 then begin
    (* Phase 1: farthest-point zone seeds over client-to-client latency,
       then nearest-seed membership. *)
    let zones = min zones n in
    let seeds = Array.make zones 0 in
    let dist_to_seed = Array.init n (fun c -> Problem.d_cc p c seeds.(0)) in
    for z = 1 to zones - 1 do
      let farthest = ref 0 in
      for c = 1 to n - 1 do
        if dist_to_seed.(c) > dist_to_seed.(!farthest) then farthest := c
      done;
      seeds.(z) <- !farthest;
      for c = 0 to n - 1 do
        dist_to_seed.(c) <- Float.min dist_to_seed.(c) (Problem.d_cc p c !farthest)
      done
    done;
    let zone_of =
      Array.init n (fun c ->
          let best = ref 0 in
          for z = 1 to zones - 1 do
            if Problem.d_cc p c seeds.(z) < Problem.d_cc p c seeds.(!best) then
              best := z
          done;
          !best)
    in
    (* Phase 2: per zone, servers ranked by the zone's worst
       client-to-server latency; fill respecting capacity, nearest
       clients first. Inter-server latency is never consulted. *)
    let load = Array.make k 0 in
    for z = 0 to zones - 1 do
      let members =
        List.filter (fun c -> zone_of.(c) = z) (List.init n Fun.id)
      in
      if members <> [] then begin
        let zone_radius s =
          List.fold_left
            (fun acc c -> Float.max acc (Problem.d_cs p c s))
            neg_infinity members
        in
        let ranked =
          List.sort
            (fun s1 s2 -> Float.compare (zone_radius s1) (zone_radius s2))
            (List.init k Fun.id)
        in
        (* Walk servers in preference order, filling each to capacity with
           the zone's nearest remaining clients. *)
        let remaining = ref members in
        List.iter
          (fun s ->
            if !remaining <> [] && load.(s) < capacity then begin
              let sorted =
                List.sort
                  (fun a b ->
                    Float.compare (Problem.d_cs p a s) (Problem.d_cs p b s))
                  !remaining
              in
              let room = capacity - load.(s) in
              List.iteri
                (fun i c ->
                  if i < room then begin
                    result.(c) <- s;
                    load.(s) <- load.(s) + 1
                  end)
                sorted;
              remaining := List.filter (fun c -> result.(c) < 0) !remaining
            end)
          ranked
      end
    done
  end;
  Assignment.unsafe_of_array result
