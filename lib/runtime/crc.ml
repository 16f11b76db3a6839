(* CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven. Pure
   stdlib: the durability layer needs a checksum cheaper than
   [Digest.string] per record and with a stable 8-hex-char rendering.

   Slice-by-4: four derived tables let the hot loop fold 32 input bits
   per iteration — this runs on the journal's per-record path, where the
   classic byte-at-a-time loop was the single largest cost. *)

let tables =
  lazy
    (let t = Array.make_matrix 4 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(0).(n) <- !c
     done;
     for k = 1 to 3 do
       for n = 0 to 255 do
         let prev = t.(k - 1).(n) in
         t.(k).(n) <- t.(0).(prev land 0xFF) lxor (prev lsr 8)
       done
     done;
     t)

let update crc s pos len =
  let t = Lazy.force tables in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let n = pos + len in
  let crc = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  while !i + 4 <= n do
    let w = Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF in
    let x = !crc lxor w in
    crc :=
      Array.unsafe_get t3 (x land 0xFF)
      lxor Array.unsafe_get t2 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 ((x lsr 24) land 0xFF);
    i := !i + 4
  done;
  while !i < n do
    crc :=
      Array.unsafe_get t0
        ((!crc lxor Char.code (String.unsafe_get s !i)) land 0xFF)
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
