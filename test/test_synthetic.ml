(* Tests for Dia_latency.Synthetic: the generators must actually have the
   Internet-like properties DESIGN.md promises (clustered heavy-tailed
   latencies, triangle violations), and be deterministic per seed. *)

module Matrix = Dia_latency.Matrix
module Metric = Dia_latency.Metric
module Synthetic = Dia_latency.Synthetic

let test_deterministic () =
  let a = Synthetic.internet_like ~seed:5 60 in
  let b = Synthetic.internet_like ~seed:5 60 in
  Alcotest.(check bool) "same seed same matrix" true (Matrix.equal a b)

let test_seed_sensitivity () =
  let a = Synthetic.internet_like ~seed:5 60 in
  let b = Synthetic.internet_like ~seed:6 60 in
  Alcotest.(check bool) "different seed different matrix" false (Matrix.equal a b)

let test_positive_entries () =
  let m = Synthetic.internet_like ~seed:2 80 in
  Alcotest.(check bool) "all entries positive" true (Matrix.min_entry m > 0.)

let test_internet_like_violates_triangle_inequality () =
  let m = Synthetic.internet_like ~seed:11 120 in
  let stats = Metric.triangle_violations ~samples:20_000 m in
  Alcotest.(check bool)
    (Printf.sprintf "violation fraction %.3f in King-like range"
       stats.violation_fraction)
    true
    (stats.violation_fraction > 0.02 && stats.violation_fraction < 0.40)

let test_internet_like_heavy_tail () =
  let m = Synthetic.internet_like ~seed:11 200 in
  (* Heavy tail: the max should be several times the mean. *)
  Alcotest.(check bool) "max >> mean" true
    (Matrix.max_entry m > 3. *. Matrix.mean_entry m)

let test_meridian_and_mit_shapes () =
  (* Full-size generation is exercised by the experiments; here we only
     check the documented dimensions via small probes of the API. *)
  let m = Synthetic.mit_like () in
  Alcotest.(check int) "mit size" 1024 (Matrix.dim m);
  Alcotest.(check bool) "mit positive" true (Matrix.min_entry m > 0.)

let test_grid_is_manhattan () =
  let m = Synthetic.grid ~rows:3 ~cols:4 ~spacing:2. in
  Alcotest.(check int) "dim" 12 (Matrix.dim m);
  (* node 0 = (0,0), node 11 = (2,3): distance (2+3)*2 = 10. *)
  Alcotest.(check (float 1e-9)) "corner to corner" 10. (Matrix.get m 0 11);
  Alcotest.(check bool) "grid is metric" true (Metric.is_metric m)

let test_uniform_random_bounds () =
  let m = Synthetic.uniform_random ~seed:1 ~n:30 ~lo:5. ~hi:10. in
  Alcotest.(check bool) "within bounds" true
    (Matrix.min_entry m >= 5. && Matrix.max_entry m <= 10.)

let test_uniform_random_rejects_nonpositive_lo () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Synthetic.uniform_random ~seed:1 ~n:3 ~lo:0. ~hi:1.);
       false
     with Invalid_argument _ -> true)

let test_grid_rejects_empty () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Synthetic.grid ~rows:0 ~cols:3 ~spacing:1.);
       false
     with Invalid_argument _ -> true)

(* --- rows-only builds and absent pairs --- *)

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

(* Every whole-matrix call, each of which must refuse a matrix with an
   absent pair. *)
let whole_matrix_calls m =
  [
    ("iter_pairs", fun () -> Matrix.iter_pairs m (fun _ _ _ -> ()));
    ("max_entry", fun () -> ignore (Matrix.max_entry m));
    ("min_entry", fun () -> ignore (Matrix.min_entry m));
    ("mean_entry", fun () -> ignore (Matrix.mean_entry m));
    ("sub", fun () -> ignore (Matrix.sub m (Array.init (Matrix.dim m) Fun.id)));
    ("equal", fun () -> ignore (Matrix.equal m m));
    ("to_rows", fun () -> ignore (Matrix.to_rows m));
    ("pp", fun () -> ignore (Format.asprintf "%a" Matrix.pp m));
  ]

(* Row sets: empty, every node, a random pick, or a random pick listed
   twice over (duplicates). *)
let rows_case =
  QCheck.(
    map
      (fun (seed, n, (mode, picks), detour) ->
        let picks = if n = 0 then [] else List.map (fun r -> r mod n) picks in
        let rows =
          match mode with
          | 0 -> [||]
          | 1 -> Array.init n Fun.id
          | 2 -> Array.of_list picks
          | _ -> Array.of_list (picks @ List.rev picks)
        in
        (seed, n, rows, detour))
      (quad (int_bound 1_000_000) (int_range 0 120)
         (pair (int_bound 3) (list_of_size Gen.(int_range 0 40) small_nat))
         (int_bound 2))
    |> set_print (fun (seed, n, rows, detour) ->
           Printf.sprintf "seed=%d n=%d rows=[%s] detour=%d" seed n
             (String.concat ";" (Array.to_list (Array.map string_of_int rows)))
             detour))

let prop_rows_only_bit_identical =
  QCheck.Test.make ~name:"rows-only build = full build on every present pair"
    ~count:120 rows_case
    (fun (seed, n, rows, detour) ->
      let params =
        match detour with
        | 0 -> Synthetic.default_params
        | 1 -> { Synthetic.default_params with detour_fraction = 0. }
        | _ -> { Synthetic.default_params with detour_fraction = 1. }
      in
      let full = Synthetic.internet_like ~params ~seed n in
      let part = Synthetic.internet_like ~params ~rows ~seed n in
      let listed = Array.make n false in
      Array.iter (fun r -> listed.(r) <- true) rows;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i = j || listed.(i) || listed.(j) then begin
            if
              Int64.bits_of_float (Matrix.get part i j)
              <> Int64.bits_of_float (Matrix.get full i j)
            then ok := false
          end
          else if
            not
              (raises (fun () -> Matrix.get part i j)
              && raises (fun () -> Matrix.set part i j 1.)
              && Float.is_nan (Matrix.unsafe_get part i j))
          then ok := false
        done
      done;
      let unlisted = Array.fold_left (fun c l -> if l then c else c + 1) 0 listed in
      let complete = unlisted <= 1 in
      let whole_ok =
        List.for_all (fun (_, f) -> raises f = not complete) (whole_matrix_calls part)
      in
      !ok && whole_ok && ((not complete) || Matrix.equal ~eps:0. part full))

let test_rows_refused_out_of_range () =
  List.iter
    (fun rows ->
      Alcotest.(check bool) "out-of-range row refused" true
        (raises (fun () -> Synthetic.internet_like ~rows ~seed:1 10)))
    [ [| 10 |]; [| -1 |]; [| 0; 3; 11 |] ]

let test_absent_pairs_refused () =
  let m = Synthetic.internet_like ~rows:[| 1; 4 |] ~seed:3 8 in
  Alcotest.(check bool) "row 1 held" true (Matrix.has_row m 1);
  Alcotest.(check bool) "row 2 absent" false (Matrix.has_row m 2);
  Alcotest.(check bool) "present pair readable" true (Matrix.get m 2 4 > 0.);
  Alcotest.(check bool) "diagonal of an absent row" true (Matrix.get m 2 2 = 0.);
  Alcotest.check_raises "absent pair named"
    (Invalid_argument "Matrix.get: pair (2, 5) is absent (neither row is materialised)")
    (fun () -> ignore (Matrix.get m 2 5));
  Alcotest.check_raises "whole-matrix call names the first absent pair"
    (Invalid_argument "Matrix.max_entry: pair (0, 2) is absent (neither row is materialised)")
    (fun () -> ignore (Matrix.max_entry m));
  List.iter
    (fun (name, f) -> Alcotest.(check bool) (name ^ " refuses") true (raises f))
    (whole_matrix_calls m);
  Alcotest.(check bool) "sub over held rows is fine" true
    (Matrix.dim (Matrix.sub m [| 1; 4; 2 |]) = 3);
  Alcotest.(check bool) "sub over two absent rows refuses" true
    (raises (fun () -> Matrix.sub m [| 1; 2; 3 |]));
  let c = Matrix.copy m in
  Alcotest.(check bool) "copy keeps the rows" true
    (Matrix.has_row c 4 && (not (Matrix.has_row c 0)) && raises (fun () -> Matrix.get c 0 2));
  Alcotest.(check bool) "copy keeps the entries" true (Matrix.get c 4 7 = Matrix.get m 4 7)

let test_consumers_refuse_absent_server_rows () =
  let n = 30 in
  let m = Synthetic.internet_like ~rows:[| 3; 9; 17 |] ~seed:5 n in
  let clients = Array.init n Fun.id in
  let held = [| 3; 9; 17 |] and stray = [| 3; 9; 18 |] in
  ignore (Dia_core.Problem.make ~latency:m ~servers:held ~clients ());
  ignore (Dia_core.Dynamic.create m ~servers:held);
  Alcotest.(check bool) "Problem.make refuses" true
    (raises (fun () -> Dia_core.Problem.make ~latency:m ~servers:stray ~clients ()));
  Alcotest.(check bool) "Dynamic.create refuses" true
    (raises (fun () -> Dia_core.Dynamic.create m ~servers:stray))

let suite =
  [
    Alcotest.test_case "generation is deterministic per seed" `Quick test_deterministic;
    Alcotest.test_case "seeds matter" `Quick test_seed_sensitivity;
    Alcotest.test_case "entries are strictly positive" `Quick test_positive_entries;
    Alcotest.test_case "internet-like data violates triangle inequality" `Quick
      test_internet_like_violates_triangle_inequality;
    Alcotest.test_case "internet-like data is heavy tailed" `Quick test_internet_like_heavy_tail;
    Alcotest.test_case "mit-like stand-in has documented shape" `Slow test_meridian_and_mit_shapes;
    Alcotest.test_case "grid distances are Manhattan" `Quick test_grid_is_manhattan;
    Alcotest.test_case "uniform random respects bounds" `Quick test_uniform_random_bounds;
    Alcotest.test_case "uniform random validates lo" `Quick test_uniform_random_rejects_nonpositive_lo;
    Alcotest.test_case "grid validates dimensions" `Quick test_grid_rejects_empty;
    QCheck_alcotest.to_alcotest prop_rows_only_bit_identical;
    Alcotest.test_case "out-of-range rows refused" `Quick test_rows_refused_out_of_range;
    Alcotest.test_case "absent pairs refused" `Quick test_absent_pairs_refused;
    Alcotest.test_case "absent server rows refused" `Quick
      test_consumers_refuse_absent_server_rows;
  ]
