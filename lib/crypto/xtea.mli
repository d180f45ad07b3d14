(** XTEA block cipher (Needham–Wheeler) in counter mode.

    The symmetric primitive for sealing vTPM state at rest and for
    protected migration streams: small, dependency-free and adequate for
    the simulation — the behaviour under study is that state dumps become
    useless without the sealed key, which any stream cipher preserves.
    64-bit block, 128-bit key, 32 cycles (64 rounds), the published round
    function. Builds that predate the round-function fix computed a
    different cipher; their ciphertexts do not decrypt here.

    The kernel keeps words in native ints masked to 32 bits, precomputes
    the 64 round keys per key, and runs four counter blocks interleaved;
    [ctr_transform] allocates only its result. *)

type key

val key_of_string : string -> key
(** The 16-byte key, read as four big-endian words, expanded into its
    round keys.
    @raise Invalid_argument unless exactly 16 bytes. *)

val encrypt_block : key -> int32 * int32 -> int32 * int32
(** Raw 64-bit block encryption (exposed for tests): [(v0, v1)] as two
    big-endian 32-bit halves. *)

val ctr_transform : key -> nonce:int -> string -> string
(** Counter-mode keystream XOR; encryption and decryption are the same
    operation. Keystream block [i] is [encrypt_block (nonce mod 2^32, i)],
    serialized big-endian, so nonces that agree in their low 32 bits give
    the same stream. Never reuse a (key, nonce) pair for distinct
    messages. *)
