(** HMAC (RFC 2104), generic over a hash function.

    TPM 1.2 authorization sessions (OIAP/OSAP) prove knowledge of a usage
    secret with HMAC-SHA1 over a digest of the command parameters. *)

type hash
(** A hash algorithm for HMAC; only {!sha1} and {!sha256} exist. *)

val sha1 : hash
val sha256 : hash

val mac : hash -> key:string -> string -> string
(** [mac h ~key msg] is HMAC over [msg]; keys longer than the hash block
    are pre-hashed per the RFC. The inner and outer hashes stream through
    a reused context — the message is never copied into an
    [ipad ^ msg] staging string. *)

val sha1_mac : key:string -> string -> string
val sha256_mac : key:string -> string -> string

val equal_ct : string -> string -> bool
(** Constant-shape comparison: never short-circuits, so timing does not
    leak the position of the first mismatching byte. Use for all MAC and
    credential comparisons. *)
