(* Tests for Dia_latency.Loader: parsing both on-disk formats and the
   paper's node-discarding cleanup step. *)

module Loader = Dia_latency.Loader
module Matrix = Dia_latency.Matrix

let write_temp contents =
  let path = Filename.temp_file "dia_loader" ".txt" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let test_parse_dense_matrix () =
  let path = write_temp "0 1 2\n1 0 3\n2 3 0\n" in
  let raw = Loader.parse_matrix path in
  Alcotest.(check int) "nodes" 3 raw.nodes;
  Alcotest.(check bool) "entry" true (raw.entries.(0).(2) = Some 2.)

let test_parse_dense_with_missing () =
  let path = write_temp "0 -1 2\n-1 0 3\n2 3 0\n" in
  let raw = Loader.parse_matrix path in
  Alcotest.(check bool) "missing marked" true (raw.entries.(0).(1) = None)

let test_parse_rejects_non_square () =
  let path = write_temp "0 1\n1 0 2\n" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Loader.parse_matrix path);
       false
     with Failure _ -> true)

let test_parse_triples () =
  let path = write_temp "# comment\n0 1 10\n0 2 20\n1 2 30\n2 3 5\n0 3 7\n1 3 9\n" in
  let raw = Loader.parse_triples path in
  Alcotest.(check int) "nodes" 4 raw.nodes;
  Alcotest.(check bool) "value" true (raw.entries.(1).(2) = Some 30.);
  Alcotest.(check bool) "symmetric" true (raw.entries.(2).(1) = Some 30.)

let test_triples_duplicate_keeps_min () =
  let path = write_temp "0 1 10\n1 0 4\n0 1 6\n" in
  let raw = Loader.parse_triples path in
  Alcotest.(check bool) "min kept" true (raw.entries.(0).(1) = Some 4.)

let test_complete_subset_discards_missing () =
  (* Node 1 is involved in the only missing measurements; it must go and
     the others survive. *)
  let path = write_temp "0 5 2\n5 0 -1\n2 -1 0\n" in
  let raw = Loader.parse_matrix path in
  let ids, m = Loader.complete_subset raw in
  Alcotest.(check (array int)) "survivors" [| 0; 2 |] ids;
  Alcotest.(check (float 1e-9)) "latency kept" 2. (Matrix.get m 0 1)

let test_complete_subset_averages_asymmetry () =
  let path = write_temp "0 4 1\n8 0 1\n1 1 0\n" in
  let _, m = Loader.complete_subset (Loader.parse_matrix path) in
  Alcotest.(check (float 1e-9)) "averaged" 6. (Matrix.get m 0 1)

let test_load_sniffs_triples () =
  let path =
    write_temp "0 1 10\n0 2 20\n1 2 30\n0 3 5\n1 3 6\n2 3 7\n"
  in
  let m = Loader.load path in
  Alcotest.(check int) "four nodes survive" 4 (Matrix.dim m)

let test_save_load_roundtrip () =
  let m = Dia_latency.Synthetic.euclidean ~seed:4 ~n:10 ~side:50. in
  let path = Filename.temp_file "dia_roundtrip" ".txt" in
  Loader.save_matrix path m;
  let m' = Loader.load path in
  Alcotest.(check bool) "roundtrip" true (Matrix.equal ~eps:1e-4 m m')

let test_clamps_zero_entries () =
  let path = write_temp "0 0 1\n0 0 1\n1 1 0\n" in
  let _, m = Loader.complete_subset (Loader.parse_matrix path) in
  Alcotest.(check bool) "clamped positive" true (Matrix.get m 0 1 > 0.)

let failure_message f =
  match f () with
  | _ -> None
  | exception Failure m -> Some m

let test_rejects_non_finite () =
  (* Comment lines count toward the line number; columns are 1-based
     character offsets of the token. *)
  List.iter
    (fun token ->
      let path = write_temp (Printf.sprintf "# header\n0 1 2\n1 0 %s\n2 3 0\n" token) in
      Alcotest.(check (option string))
        (token ^ " rejected with its position")
        (Some (Printf.sprintf "Loader: line 3, column 5: non-finite value %S" token))
        (failure_message (fun () -> Loader.parse_matrix path)))
    [ "nan"; "inf"; "infinity"; "-inf"; "NaN" ];
  let path = write_temp "0 1 10\n0 2  nan\n1 2 30\n0 3 5\n" in
  Alcotest.(check (option string)) "triple rtt rejected with its position"
    (Some "Loader: line 2, column 6: non-finite value \"nan\"")
    (failure_message (fun () -> Loader.load path))

let test_sniffs_three_line_triples () =
  (* Three lines of three fields: a King triple file, not a 3x3 matrix
     (line 2's second field is 2, not a zero diagonal). *)
  let path = write_temp "0 1 10\n0 2 20\n1 2 30\n" in
  let m = Loader.load path in
  Alcotest.(check int) "three nodes" 3 (Matrix.dim m);
  Alcotest.(check (float 1e-9)) "d(1,2)" 30. (Matrix.get m 1 2);
  Alcotest.(check (float 1e-9)) "d(0,2)" 20. (Matrix.get m 0 2)

let test_sniffs_three_by_three_matrix () =
  let path = write_temp "0 4 7\n4 0.0 5\n7 5 0\n" in
  let m = Loader.load path in
  Alcotest.(check int) "three nodes" 3 (Matrix.dim m);
  Alcotest.(check (float 1e-9)) "d(0,2)" 7. (Matrix.get m 0 2);
  Alcotest.(check (float 1e-9)) "d(1,2)" 5. (Matrix.get m 1 2);
  (* A diagonal of missing markers still reads as a matrix. *)
  let path = write_temp "- 4 7\n4 ? 5\n7 5 -1\n" in
  let m = Loader.load path in
  Alcotest.(check int) "missing diagonal: three nodes" 3 (Matrix.dim m);
  Alcotest.(check (float 1e-9)) "missing diagonal: d(0,1)" 4. (Matrix.get m 0 1)

(* Hostile ids fail with their position before anything is allocated:
   [max id + 1] would overflow on the first file, and the second would
   ask for a 10^10-cell matrix. *)
let test_triples_reject_huge_ids () =
  let path = write_temp "0 1 5\n1 4611686018427387903 7\n" in
  Alcotest.(check (option string)) "max_int id"
    (Some
       "Loader: line 2, column 3: node id 4611686018427387903 is not below the \
        ceiling 65536")
    (failure_message (fun () -> Loader.parse_triples path));
  let path = write_temp "0 100000 5\n" in
  Alcotest.(check (option string)) "id 100000"
    (Some "Loader: line 1, column 3: node id 100000 is not below the ceiling 65536")
    (failure_message (fun () -> Loader.parse_triples path))

(* A finite latency above the ceiling fails where it is parsed: the
   symmetric average of 1e308 with itself overflows to infinity. *)
let test_rejects_huge_latencies () =
  let path = write_temp "0 1e308\n1e308 0\n" in
  Alcotest.(check (option string)) "dense"
    (Some "Loader: line 1, column 3: value \"1e308\" is above the ceiling 1e+09")
    (failure_message (fun () -> Loader.load path));
  let path = write_temp "0 1 1e308\n1 0 1e308\n" in
  Alcotest.(check (option string)) "triples"
    (Some "Loader: line 1, column 5: value \"1e308\" is above the ceiling 1e+09")
    (failure_message (fun () -> Loader.load path));
  let path = write_temp "0 1e9\n1e9 0\n" in
  Alcotest.(check (float 0.)) "the ceiling itself loads" 1e9 (Matrix.get (Loader.load path) 0 1)

let suite =
  [
    Alcotest.test_case "parse dense matrix" `Quick test_parse_dense_matrix;
    Alcotest.test_case "parse dense with missing entries" `Quick test_parse_dense_with_missing;
    Alcotest.test_case "reject non-square dense input" `Quick test_parse_rejects_non_square;
    Alcotest.test_case "parse triple files" `Quick test_parse_triples;
    Alcotest.test_case "duplicate triples keep the minimum" `Quick test_triples_duplicate_keeps_min;
    Alcotest.test_case "cleanup discards nodes with missing data" `Quick
      test_complete_subset_discards_missing;
    Alcotest.test_case "cleanup averages asymmetric pairs" `Quick
      test_complete_subset_averages_asymmetry;
    Alcotest.test_case "load sniffs the triple format" `Quick test_load_sniffs_triples;
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "cleanup clamps zero latencies" `Quick test_clamps_zero_entries;
    Alcotest.test_case "non-finite values rejected with position" `Quick
      test_rejects_non_finite;
    Alcotest.test_case "three-line triple file sniffed as triples" `Quick
      test_sniffs_three_line_triples;
    Alcotest.test_case "3x3 matrix sniffed as a matrix" `Quick
      test_sniffs_three_by_three_matrix;
    Alcotest.test_case "triple ids at the ceiling rejected with position" `Quick
      test_triples_reject_huge_ids;
    Alcotest.test_case "latencies above the ceiling rejected with position" `Quick
      test_rejects_huge_latencies;
  ]
