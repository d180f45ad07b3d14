(** CRC-32 (IEEE 802.3), the frame-integrity checksum of the vTPM
    transport protocol. Catches accidental corruption (bit flips,
    truncation); it is not a MAC and offers no adversarial integrity. *)

val digest : string -> int32

val sub : string -> pos:int -> len:int -> int
(** The CRC of [len] bytes of the string from [pos], as a native int in
    [0, 2{^32}); [Int32.of_int (sub s ~pos:0 ~len:(String.length s))] is
    [digest s]. Allocates nothing.
    @raise Invalid_argument if the range is not inside the string. *)
