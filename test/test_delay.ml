(* Delay-model specs under hostile input. [Delay.of_string] is a parser
   boundary: whatever bytes arrive, it must return a structured [Error]
   or a model that round-trips and keeps every delay finite — an
   infinity here would flow straight into D_load. The mutation harness
   starts from valid specs and damages them the ways config files and
   command lines get damaged: bytes, exponents, separators, signs and
   the float spellings of nan and infinity. *)

module Delay = Dia_core.Delay

let valid_specs =
  [|
    "constant:0"; "constant:2"; "constant:1e9"; "linear:0.5,0.3"; "linear:0,1";
    "linear:1e3,2.5"; "mm1:30"; "mm1:0.5"; "mm1:200";
  |]

(* Spellings that stress float parsing and the range checks. *)
let tokens =
  [|
    "e308"; "e307"; "e9"; "e10"; "e-308"; "0"; "9"; "-"; "+"; "."; ","; ":";
    " "; "nan"; "inf"; "-inf"; "infinity"; "0x1p1023"; "1e308"; "_"; "\000";
  |]

let fields =
  [|
    "nan"; "inf"; "-0"; "-1"; "1e308"; "1e307"; "1e9"; "1.0000001e9";
    "0x1.fffffffffffffp1023"; "4e-324"; ""; " 5 ";
  |]

let separators = [| ':'; ','; ';'; ' '; '.' |]

(* One random edit: overwrite, insert or delete a byte, splice in a
   token, replace a whole numeric field, or swap a separator. *)
let mutate rng s =
  let n = String.length s in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let at () = Random.State.int rng (n + 1) in
  let splice i cut insert =
    String.sub s 0 i ^ insert ^ String.sub s (i + cut) (n - i - cut)
  in
  match Random.State.int rng 6 with
  | 0 when n > 0 ->
      let i = Random.State.int rng n in
      splice i 1 (String.make 1 (Char.chr (Random.State.int rng 256)))
  | 1 when n > 0 -> splice (Random.State.int rng n) 1 ""
  | 2 -> splice (at ()) 0 (pick tokens)
  | 3 -> (
      (* The text after the last ':' or ',' is a numeric field. *)
      match (String.rindex_opt s ':', String.rindex_opt s ',') with
      | None, None -> s
      | a, b ->
          let i = 1 + max (Option.value a ~default:(-1)) (Option.value b ~default:(-1)) in
          if Random.State.bool rng then String.sub s 0 i ^ pick fields
          else String.sub s 0 i ^ String.sub s i (n - i) ^ pick tokens)
  | 4 -> (
      match String.index_opt s ':' with
      | Some i -> splice i 1 (String.make 1 (pick separators))
      | None -> s)
  | _ -> splice (at ()) 0 (if Random.State.bool rng then "-" else "+")

let mutated_spec =
  let gen =
    QCheck.Gen.(
      map
        (fun (seed, base, edits) ->
          let rng = Random.State.make [| seed |] in
          let s = ref valid_specs.(base) in
          for _ = 1 to edits do
            s := mutate rng !s
          done;
          !s)
        (triple (int_bound 1_000_000)
           (int_bound (Array.length valid_specs - 1))
           (int_range 1 3)))
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let max_load = 1_000_000

(* [Error], or a model that round-trips and whose delay is finite
   (even doubled: a path pays two hops), non-negative and monotone over
   loads 0 .. 10^6. *)
let sound_spec s =
  match Delay.of_string s with
  | Error _ -> true
  | Ok d ->
      Delay.of_string (Delay.to_string d) = Ok d
      &&
      let ok = ref true and prev = ref neg_infinity in
      for load = 0 to max_load do
        let v = Delay.eval d load in
        if not (Float.is_finite (v +. v) && v >= 0. && v >= !prev) then ok := false;
        prev := v
      done;
      !ok

let prop_of_string_mutations =
  QCheck.Test.make ~name:"mutated delay specs: Error or a finite model" ~count:300
    mutated_spec sound_spec

let contains m sub =
  let lm = String.length m and ls = String.length sub in
  let rec from i = i + ls <= lm && (String.sub m i ls = sub || from (i + 1)) in
  from 0

let test_saturation_cap () =
  let rejects spec param =
    match Delay.of_string spec with
    | Ok _ -> Alcotest.failf "%s accepted" spec
    | Error m ->
        Alcotest.(check bool) (Printf.sprintf "%S names %s" m param) true (contains m param)
  in
  rejects "linear:0,1e308" "COEFF";
  rejects "linear:1e10,0" "BASE";
  rejects "constant:1e308" "C";
  (match Delay.of_string "constant:1e9" with
  | Ok d -> Alcotest.(check (float 0.)) "the cap itself is accepted" 1e9 (Delay.eval d 7)
  | Error m -> Alcotest.fail m);
  match Delay.validate (Delay.Linear { base = 0.; coeff = 1e308 }) with
  | () -> Alcotest.fail "validate accepted a coefficient past the cap"
  | exception Invalid_argument m ->
      Alcotest.(check bool) (Printf.sprintf "%S names COEFF" m) true (contains m "COEFF")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_of_string_mutations;
    Alcotest.test_case "parameters above saturation rejected" `Quick
      test_saturation_cap;
  ]
