(* Tests for Dia_latency.Matrix. *)

module Matrix = Dia_latency.Matrix

let check = Alcotest.(check (float 1e-9))

let test_create_zero () =
  let m = Matrix.create 4 in
  Alcotest.(check int) "dim" 4 (Matrix.dim m);
  for i = 0 to 3 do
    for j = 0 to 3 do
      check "zero entry" 0. (Matrix.get m i j)
    done
  done

let test_init_symmetric () =
  let m = Matrix.init 5 (fun i j -> float_of_int ((10 * i) + j)) in
  for i = 0 to 4 do
    check "diagonal" 0. (Matrix.get m i i);
    for j = 0 to 4 do
      check "symmetry" (Matrix.get m i j) (Matrix.get m j i)
    done
  done;
  check "upper triangle value" 12. (Matrix.get m 1 2);
  check "mirrored value" 12. (Matrix.get m 2 1)

let test_set_both_sides () =
  let m = Matrix.create 3 in
  Matrix.set m 0 2 7.5;
  check "set (0,2)" 7.5 (Matrix.get m 0 2);
  check "set (2,0)" 7.5 (Matrix.get m 2 0)

let test_set_rejects_bad_values () =
  let m = Matrix.create 3 in
  Alcotest.check_raises "negative" (Invalid_argument "Matrix: latency -1 is not a finite non-negative value")
    (fun () -> Matrix.set m 0 1 (-1.));
  Alcotest.check_raises "diagonal" (Invalid_argument "Matrix.set: non-zero diagonal")
    (fun () -> Matrix.set m 1 1 3.)

let test_out_of_bounds () =
  let m = Matrix.create 2 in
  Alcotest.check_raises "get oob" (Invalid_argument "Matrix: index 2 out of bounds [0, 2)")
    (fun () -> ignore (Matrix.get m 0 2))

let test_copy_independent () =
  let m = Matrix.init 3 (fun _ _ -> 1.) in
  let m' = Matrix.copy m in
  Matrix.set m' 0 1 9.;
  check "original unchanged" 1. (Matrix.get m 0 1);
  check "copy changed" 9. (Matrix.get m' 0 1)

let test_full_buffer_row_major () =
  let n = 7 in
  let m = Matrix.init n (fun i j -> float_of_int ((100 * i) + j)) in
  let buf = Matrix.unsafe_buffer m in
  Alcotest.(check int) "n x n entries, no tail" (n * n) (Bigarray.Array1.dim buf);
  for i = 0 to n - 1 do
    Alcotest.(check int) "row offset" (i * n) (Matrix.row_offset m i);
    for j = 0 to n - 1 do
      check "entry (i, j) at i * n + j" (Matrix.get m i j) (Bigarray.Array1.get buf ((i * n) + j))
    done
  done;
  Alcotest.(check (array int)) "every row held" (Array.init n Fun.id) (Matrix.rows m)

let test_sub () =
  let m = Matrix.init 5 (fun i j -> float_of_int (i + j)) in
  let s = Matrix.sub m [| 1; 3; 4 |] in
  Alcotest.(check int) "sub dim" 3 (Matrix.dim s);
  check "sub entry" (Matrix.get m 1 3) (Matrix.get s 0 1);
  check "sub entry 2" (Matrix.get m 3 4) (Matrix.get s 1 2)

let test_extrema_and_mean () =
  let m = Matrix.create 3 in
  Matrix.set m 0 1 2.;
  Matrix.set m 0 2 4.;
  Matrix.set m 1 2 6.;
  check "max" 6. (Matrix.max_entry m);
  check "min" 2. (Matrix.min_entry m);
  check "mean" 4. (Matrix.mean_entry m)

let test_extrema_degenerate () =
  let m = Matrix.create 1 in
  check "max of 1x1" 0. (Matrix.max_entry m);
  Alcotest.(check bool) "min of 1x1 infinite" true (Matrix.min_entry m = infinity);
  Alcotest.(check bool) "mean of 1x1 nan" true (Float.is_nan (Matrix.mean_entry m))

let test_of_rows_symmetrises () =
  let m = Matrix.of_rows [| [| 0.; 2. |]; [| 4.; 0. |] |] in
  check "averaged" 3. (Matrix.get m 0 1)

let test_of_rows_rejects_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: not square")
    (fun () -> ignore (Matrix.of_rows [| [| 0. |]; [| 1.; 0. |] |]))

let test_roundtrip_rows () =
  let m = Matrix.init 4 (fun i j -> float_of_int ((i * 7) + j)) in
  let m' = Matrix.of_rows (Matrix.to_rows m) in
  Alcotest.(check bool) "roundtrip equal" true (Matrix.equal m m')

let test_iter_pairs_count () =
  let m = Matrix.create 6 in
  let count = ref 0 in
  Matrix.iter_pairs m (fun i j _ ->
      Alcotest.(check bool) "ordered" true (i < j);
      incr count);
  Alcotest.(check int) "pair count" 15 !count

(* Pins the printer contract: degenerate dimensions get a plain tag
   (never [mean=nan]), small matrices print in full, large ones print
   the one-pass min/mean/max summary. [mean_entry]'s own nan-for-dim<=1
   behaviour is API and unchanged. *)
let test_pp_shapes () =
  let render m = Format.asprintf "%a" Matrix.pp m in
  Alcotest.(check string) "0x0" "<matrix 0x0>" (render (Matrix.create 0));
  Alcotest.(check string) "1x1" "<matrix 1x1>" (render (Matrix.create 1));
  let small = render (Matrix.init 3 (fun i j -> float_of_int (i + j))) in
  Alcotest.(check bool) "small prints entries" true
    (String.length small > 0 && not (String.contains small '<'));
  let big = render (Matrix.init 13 (fun i j -> float_of_int ((i * 13) + j))) in
  Alcotest.(check bool) "large prints summary" true
    (String.length big >= 13
    && String.sub big 0 13 = "<matrix 13x13"
    && not
         (let rec has_nan i =
            i + 3 <= String.length big
            && (String.sub big i 3 = "nan" || has_nan (i + 1))
          in
          has_nan 0));
  Alcotest.(check bool) "degenerate mean_entry still nan" true
    (Float.is_nan (Matrix.mean_entry (Matrix.create 1)))

let test_equal_eps () =
  let a = Matrix.init 3 (fun _ _ -> 1. ) in
  let b = Matrix.init 3 (fun _ _ -> 1.0000001) in
  Alcotest.(check bool) "not equal tight" false (Matrix.equal a b);
  Alcotest.(check bool) "equal loose" true (Matrix.equal ~eps:1e-3 a b)

let suite =
  [
    Alcotest.test_case "create is all zero" `Quick test_create_zero;
    Alcotest.test_case "a full matrix's store is row-major n x n" `Quick
      test_full_buffer_row_major;
    Alcotest.test_case "init symmetrises and zeroes diagonal" `Quick test_init_symmetric;
    Alcotest.test_case "set writes both triangles" `Quick test_set_both_sides;
    Alcotest.test_case "set rejects bad values" `Quick test_set_rejects_bad_values;
    Alcotest.test_case "index bounds checked" `Quick test_out_of_bounds;
    Alcotest.test_case "copy is deep" `Quick test_copy_independent;
    Alcotest.test_case "sub extracts principal submatrix" `Quick test_sub;
    Alcotest.test_case "extrema and mean" `Quick test_extrema_and_mean;
    Alcotest.test_case "extrema of degenerate matrices" `Quick test_extrema_degenerate;
    Alcotest.test_case "of_rows averages asymmetry" `Quick test_of_rows_symmetrises;
    Alcotest.test_case "of_rows rejects ragged input" `Quick test_of_rows_rejects_ragged;
    Alcotest.test_case "to_rows/of_rows roundtrip" `Quick test_roundtrip_rows;
    Alcotest.test_case "iter_pairs visits each unordered pair once" `Quick test_iter_pairs_count;
    Alcotest.test_case "equal honours epsilon" `Quick test_equal_eps;
    Alcotest.test_case "pp: tag, grid and nan-free summary" `Quick test_pp_shapes;
  ]
