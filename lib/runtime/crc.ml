(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven. Pure
   stdlib: the durability layer needs a checksum cheaper than
   [Digest.string] per record and with a stable 8-hex-char rendering.

   Slice-by-8: eight derived tables, one flat array, let the hot loop
   fold 64 input bits per iteration — two 32-bit reads whose eight
   lookups are independent of each other. This runs on the journal's
   per-record path and over every byte a restore reads. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

let update crc s pos len =
  let t = tables in
  let n = pos + len in
  let crc = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  while !i + 8 <= n do
    let a = !crc lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    let b = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    crc :=
      Array.unsafe_get t ((7 * 256) + (a land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((a lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((a lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (a lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (b land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((b lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((b lsr 16) land 0xFF))
      lxor Array.unsafe_get t (b lsr 24);
    i := !i + 8
  done;
  while !i < n do
    crc :=
      Array.unsafe_get t ((!crc lxor Char.code (String.unsafe_get s !i)) land 0xFF)
      lxor (!crc lsr 8);
    incr i
  done;
  !crc lxor 0xFFFFFFFF land 0xFFFFFFFF

let digest s = update 0 s 0 (String.length s)

(* Manual rendering: this sits on the journal's per-record hot path,
   where [Printf.sprintf "%08x"] would cost more than the CRC itself. *)
let hex_digits = "0123456789abcdef"

let hex_into b pos v =
  for i = 0 to 7 do
    Bytes.unsafe_set b (pos + i)
      (String.unsafe_get hex_digits ((v lsr ((7 - i) * 4)) land 0xF))
  done;
  pos + 8

let hex s =
  let b = Bytes.create 8 in
  ignore (hex_into b 0 (digest s));
  Bytes.unsafe_to_string b
