(* XTEA block cipher (Needham–Wheeler) in counter mode.

   Used as the symmetric primitive for sealing vTPM state at rest: small,
   dependency-free and adequate for the simulation (the paper's system used
   the TPM's storage hierarchy + a platform symmetric cipher; any stream
   cipher preserves the behaviour under study — state dumps become useless
   without the sealed key). 64-bit block, 128-bit key, 64 rounds.

   The round function is the published one,
   v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + k[sum & 3]).
   Builds before this one computed ((v1 << 4) + (v1 >> 5)) ^ v1) + (sum + k)
   instead, which matched no test vector; their ciphertexts (migration
   streams, sealed state files) do not decrypt here.

   Kernel: words are native ints kept below 2^32 (one mask per half
   round; shifts left and additions only carry upwards, so the low 32 bits
   are exact), and the 64 per-round [sum + k[...]] values are computed once
   per key. [ctr_transform] runs four counter blocks interleaved in one
   round loop so their dependency chains overlap, then finishes the tail
   one block at a time. Nothing is allocated but the output. *)

let rounds = 32
let delta = 0x9E3779B9
let mask32 = 0xffffffff

(* rk.(2i) = sum_i + k[sum_i & 3] and rk.(2i+1) = sum_(i+1) + k[(sum_(i+1) >> 11) & 3],
   where sum_i = i * delta mod 2^32, all reduced mod 2^32. *)
type key = int array

let key_of_string (s : string) : key =
  if String.length s <> 16 then invalid_arg "Xtea.key_of_string: need 16 bytes";
  let k j = Int32.to_int (String.get_int32_be s (4 * (j land 3))) land mask32 in
  let rk = Array.make (2 * rounds) 0 in
  for i = 0 to rounds - 1 do
    let sum = i * delta land mask32 in
    rk.(2 * i) <- (sum + k sum) land mask32;
    let sum = (sum + delta) land mask32 in
    rk.((2 * i) + 1) <- (sum + k (sum lsr 11)) land mask32
  done;
  rk

let[@inline] mix v = ((v lsl 4) lxor (v lsr 5)) + v

(* Encrypt the block (v0, v1), both below 2^32. *)
let encrypt_words (rk : key) v0 v1 =
  let v0 = ref v0 and v1 = ref v1 in
  for i = 0 to rounds - 1 do
    v0 := (!v0 + (mix !v1 lxor Array.unsafe_get rk (2 * i))) land mask32;
    v1 := (!v1 + (mix !v0 lxor Array.unsafe_get rk ((2 * i) + 1))) land mask32
  done;
  (!v0, !v1)

let encrypt_block key (v0, v1) =
  let c0, c1 = encrypt_words key (Int32.to_int v0 land mask32) (Int32.to_int v1 land mask32) in
  (Int32.of_int c0, Int32.of_int c1)

(* out[off..off+len) <- data[off..off+len) xor the first [len] (<= 8)
   bytes of the big-endian keystream block (c0, c1). *)
let[@inline] xor_block out data off len c0 c1 =
  for j = 0 to len - 1 do
    let w = if j < 4 then c0 lsr (24 - (8 * j)) else c1 lsr (56 - (8 * j)) in
    Bytes.unsafe_set out (off + j)
      (Char.unsafe_chr ((Char.code (String.unsafe_get data (off + j)) lxor w) land 0xff))
  done

(* CTR mode: block [ctr] of the keystream is E(nonce mod 2^32, ctr mod 2^32);
   encryption and decryption are the same operation. *)
let ctr_transform (rk : key) ~nonce (data : string) : string =
  let n = String.length data in
  let out = Bytes.create n in
  let nv = nonce land mask32 in
  let off = ref 0 and ctr = ref 0 in
  while !off + 32 <= n do
    let c = !ctr in
    let a0 = ref nv and a1 = ref (c land mask32) in
    let b0 = ref nv and b1 = ref ((c + 1) land mask32) in
    let c0 = ref nv and c1 = ref ((c + 2) land mask32) in
    let d0 = ref nv and d1 = ref ((c + 3) land mask32) in
    for i = 0 to rounds - 1 do
      let k0 = Array.unsafe_get rk (2 * i) in
      a0 := (!a0 + (mix !a1 lxor k0)) land mask32;
      b0 := (!b0 + (mix !b1 lxor k0)) land mask32;
      c0 := (!c0 + (mix !c1 lxor k0)) land mask32;
      d0 := (!d0 + (mix !d1 lxor k0)) land mask32;
      let k1 = Array.unsafe_get rk ((2 * i) + 1) in
      a1 := (!a1 + (mix !a0 lxor k1)) land mask32;
      b1 := (!b1 + (mix !b0 lxor k1)) land mask32;
      c1 := (!c1 + (mix !c0 lxor k1)) land mask32;
      d1 := (!d1 + (mix !d0 lxor k1)) land mask32
    done;
    let o = !off in
    xor_block out data o 8 !a0 !a1;
    xor_block out data (o + 8) 8 !b0 !b1;
    xor_block out data (o + 16) 8 !c0 !c1;
    xor_block out data (o + 24) 8 !d0 !d1;
    off := o + 32;
    ctr := c + 4
  done;
  while !off < n do
    let v0, v1 = encrypt_words rk nv (!ctr land mask32) in
    xor_block out data !off (min 8 (n - !off)) v0 v1;
    off := !off + 8;
    incr ctr
  done;
  Bytes.unsafe_to_string out
