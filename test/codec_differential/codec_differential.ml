(* The long-tail differential for the persisted float rendering:
   Codec.float_str against the C printf rendering it replaced
   (Dia_oracle.Reference.float_str), byte for byte, on 10^7 seeded
   draws cycling through Dia_oracle.Gen.codec_float's families, plus
   the edge list at both signs. The test suite runs the same check on
   2 * 10^5 draws. Exits 1 on the first mismatch.

     dune exec test/codec_differential/codec_differential.exe *)

let draws = 10_000_000

let () =
  let st = Random.State.make [| 10_000_000 |] in
  let check f =
    let got = Dia_runtime.Codec.float_str f
    and expect = Dia_oracle.Reference.float_str f in
    if got <> expect then begin
      Printf.eprintf "codec_differential: float_str %h gives %S, printf %S\n" f got
        expect;
      exit 1
    end
  in
  List.iter (fun f -> check f; check (-.f)) Dia_oracle.Gen.codec_edges;
  for i = 0 to draws - 1 do
    check (Dia_oracle.Gen.codec_float st i)
  done;
  Printf.printf "codec_differential: %d draws and %d edges byte-identical to printf\n"
    draws (2 * List.length Dia_oracle.Gen.codec_edges)
