(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]).

    The integrity primitive of the durability layer: every journal
    record and every checkpoint section carries one. A CRC detects the
    storage faults this repo injects (bit flips, torn writes, lost
    suffixes) with probability [1 - 2^-32] per record — it is {e not} a
    cryptographic commitment, and does not need to be: the threat model
    is media corruption, not an adversary. *)

val digest : string -> int
(** The CRC-32 of the string, in [\[0, 2^32)]. *)

val update : int -> string -> int -> int -> int
(** [update (digest a) s pos len = digest (a ^ String.sub s pos len)] —
    a running CRC; the caller guarantees the range is in bounds. *)

val hex : string -> string
(** {!digest} rendered as exactly 8 lowercase hex characters — the form
    journal records and checkpoint [crc=] lines embed. *)

val hex_into : Bytes.t -> int -> int -> int
(** [hex_into b pos v] writes the 8 lowercase hex characters of digest
    [v] at [b.[pos..pos+7]] and returns [pos + 8] — the allocation-free
    form the journal's per-record framing uses. The caller guarantees
    the range is in bounds. *)
