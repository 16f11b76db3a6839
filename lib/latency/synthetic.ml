type params = {
  continents : int;
  cities_per_continent : int;
  city_sigma : float;
  ms_per_unit : float;
  access_mean : float;
  noise_sigma : float;
  detour_fraction : float;
  detour_max : float;
  min_latency : float;
}

let default_params =
  {
    continents = 5;
    cities_per_continent = 8;
    city_sigma = 2.0;
    ms_per_unit = 1.0;
    access_mean = 8.0;
    noise_sigma = 0.25;
    detour_fraction = 0.08;
    detour_max = 2.5;
    min_latency = 0.5;
  }

(* Box-Muller over two uniform draws [u] in (0, 1] and [v] in [0, 1). *)
let[@inline] box_muller u v = sqrt (-2. *. log u) *. cos (2. *. Float.pi *. v)

let gaussian rng =
  (* The [1. -. u] keeps the log argument strictly positive. *)
  let u = 1. -. Random.State.float rng 1. in
  let v = Random.State.float rng 1. in
  box_muller u v

(* [Random.State.float rng 1.] without its boxed result: the stdlib
   (OCaml 5) keeps the top 53 bits of one 64-bit draw and draws again
   only when they are all zero, which this hands back to the stdlib, so
   the stream and the value are the same ([n < 2^53] converts exactly
   through [int]). Inlined, it allocates nothing; the golden figures and
   soak digests pin the stream. *)
let[@inline] unit_float rng =
  let n = Int64.to_int (Int64.shift_right_logical (Random.State.bits64 rng) 11) in
  if n <> 0 then float_of_int n *. 0x1.p-53 else Random.State.float rng 1.

let exponential rng mean = -.mean *. log (1. -. Random.State.float rng 1.)

let internet_like ?(params = default_params) ?rows ~seed n =
  if n < 0 then invalid_arg "Synthetic.internet_like: negative size";
  let p = params in
  if p.continents <= 0 || p.cities_per_continent <= 0 then
    invalid_arg "Synthetic.internet_like: cluster counts must be positive";
  let m = Matrix.create ?rows n in
  let held = Array.init n (Matrix.has_row m) in
  let data = Matrix.unsafe_buffer m in
  let rng = Random.State.make [| seed; n |] in
  (* Continent centres spread over a 100x100 map; city centres scattered
     around their continent; nodes scattered around their city. *)
  let continent_xy =
    Array.init p.continents (fun _ ->
        (Random.State.float rng 100., Random.State.float rng 100.))
  in
  let city_xy =
    Array.init
      (p.continents * p.cities_per_continent)
      (fun c ->
        let cx, cy = continent_xy.(c / p.cities_per_continent) in
        (cx +. (gaussian rng *. 8.), cy +. (gaussian rng *. 8.)))
  in
  let node_xy =
    Array.init n (fun _ ->
        let cx, cy = city_xy.(Random.State.int rng (Array.length city_xy)) in
        (cx +. (gaussian rng *. p.city_sigma), cy +. (gaussian rng *. p.city_sigma)))
  in
  let xs = Array.map fst node_xy and ys = Array.map snd node_xy in
  let access = Array.init n (fun _ -> exponential rng p.access_mean) in
  (* One pass over the pairs [i < j] in row order. Every pair draws its
     noise Gaussian, its detour test and, when the test passes, its
     detour factor, materialised or not, so the stream (and every entry
     it yields) is the one the full build sees; only the arithmetic is
     skipped for an absent pair. See DESIGN.md, "What a soak
     materialises". *)
  for i = 0 to n - 1 do
    let held_i = held.(i) in
    for j = i + 1 to n - 1 do
      let u = 1. -. unit_float rng in
      let v = unit_float rng in
      let detour =
        if unit_float rng < p.detour_fraction then
          1. +. (unit_float rng *. (p.detour_max -. 1.))
        else 1.
      in
      if held_i || held.(j) then begin
        let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
        let propagation = p.ms_per_unit *. sqrt ((dx *. dx) +. (dy *. dy)) in
        let base = propagation +. access.(i) +. access.(j) in
        let noise = exp (p.noise_sigma *. box_muller u v) in
        let d = Float.max p.min_latency (base *. noise *. detour) in
        if not (Float.is_finite d) || d < 0. then
          invalid_arg
            (Printf.sprintf
               "Synthetic.internet_like: latency %g is not a finite \
                non-negative value"
               d);
        Bigarray.Array1.unsafe_set data ((i * n) + j) d;
        Bigarray.Array1.unsafe_set data ((j * n) + i) d
      end
    done
  done;
  m

let meridian_like ?(seed = 42) () = internet_like ~seed 1796

let mit_like ?(seed = 7) () = internet_like ~seed 1024

let euclidean ~seed ~n ~side =
  if side <= 0. then invalid_arg "Synthetic.euclidean: side must be positive";
  let rng = Random.State.make [| seed; n |] in
  let xy =
    Array.init n (fun _ -> (Random.State.float rng side, Random.State.float rng side))
  in
  Matrix.init n (fun i j ->
      let xi, yi = xy.(i) and xj, yj = xy.(j) in
      let dx = xi -. xj and dy = yi -. yj in
      (* A zero distance between coincident points would violate d > 0. *)
      Float.max 1e-6 (sqrt ((dx *. dx) +. (dy *. dy))))

let grid ~rows ~cols ~spacing =
  if rows <= 0 || cols <= 0 then invalid_arg "Synthetic.grid: empty grid";
  if spacing <= 0. then invalid_arg "Synthetic.grid: spacing must be positive";
  let n = rows * cols in
  Matrix.init n (fun i j ->
      let ri = i / cols and ci = i mod cols in
      let rj = j / cols and cj = j mod cols in
      (* Manhattan distance is the grid-graph shortest path. *)
      spacing *. float_of_int (abs (ri - rj) + abs (ci - cj)))

let uniform_random ~seed ~n ~lo ~hi =
  if lo <= 0. || lo > hi then
    invalid_arg "Synthetic.uniform_random: need 0 < lo <= hi";
  let rng = Random.State.make [| seed; n |] in
  Matrix.init n (fun _ _ -> lo +. Random.State.float rng (hi -. lo))
