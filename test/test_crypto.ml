(* Tests for the crypto substrate: hash vectors from FIPS/RFC documents,
   bignum arithmetic identities (many property-based), RSA and XTEA. *)

open Vtpm_crypto

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* --- SHA-1 (FIPS 180-4 / RFC 3174 vectors) --------------------------------- *)

let test_sha1_vectors () =
  check_s "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.hexdigest "");
  check_s "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.hexdigest "abc");
  check_s "448 bits" "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.hexdigest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_s "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hexdigest (String.make 1_000_000 'a'))

let test_sha1_incremental () =
  let whole = Sha1.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha1.init () in
  Sha1.feed ctx "the quick brown ";
  Sha1.feed ctx "fox jumps over";
  Sha1.feed ctx " the lazy dog";
  check_s "chunked = one-shot" (Vtpm_util.Hex.encode whole) (Vtpm_util.Hex.encode (Sha1.finalize ctx))

let test_sha1_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundary. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha1.init () in
      String.iter (fun c -> Sha1.feed ctx (String.make 1 c)) s;
      check_s
        (Printf.sprintf "len %d" n)
        (Vtpm_util.Hex.encode (Sha1.digest s))
        (Vtpm_util.Hex.encode (Sha1.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 127; 128; 129 ]

(* --- SHA-256 ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  check_s "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hexdigest "");
  check_s "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hexdigest "abc");
  check_s "448 bits" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hexdigest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_incremental () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let i = ref 0 in
  while !i < String.length data do
    let n = min 37 (String.length data - !i) in
    Sha256.feed ctx (String.sub data !i n);
    i := !i + n
  done;
  check_s "chunked = one-shot"
    (Vtpm_util.Hex.encode (Sha256.digest data))
    (Vtpm_util.Hex.encode (Sha256.finalize ctx))

(* --- HMAC (RFC 2202 / RFC 4231) -------------------------------------------------- *)

let test_hmac_sha1_vectors () =
  check_s "rfc2202 tc1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (Vtpm_util.Hex.encode (Hmac.sha1_mac ~key:(String.make 20 '\x0b') "Hi There"));
  check_s "rfc2202 tc2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (Vtpm_util.Hex.encode (Hmac.sha1_mac ~key:"Jefe" "what do ya want for nothing?"));
  (* Key longer than the block size exercises the key-hashing path. *)
  check_s "rfc2202 tc6" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (Vtpm_util.Hex.encode
       (Hmac.sha1_mac ~key:(String.make 80 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_sha256_vector () =
  check_s "rfc4231 tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Vtpm_util.Hex.encode (Hmac.sha256_mac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_equal_ct () =
  check_b "equal" true (Hmac.equal_ct "abc" "abc");
  check_b "different" false (Hmac.equal_ct "abc" "abd");
  check_b "length mismatch" false (Hmac.equal_ct "abc" "abcd");
  check_b "empty" true (Hmac.equal_ct "" "")

(* --- Context reuse (reset + scratch one-shot path) -------------------------------- *)

(* A reset context must behave exactly like a fresh one — the one-shot
   [digest] now reuses a module-level scratch context through this path. *)
let test_sha_ctx_reset_reuse () =
  let ctx1 = Sha1.init () in
  Sha1.feed ctx1 "poison the state";
  ignore (Sha1.finalize ctx1);
  Sha1.reset ctx1;
  Sha1.feed ctx1 "abc";
  check_s "sha1 reset = fresh" "a9993e364706816aba3e25717850c26c9cd0d89d"
    (Vtpm_util.Hex.encode (Sha1.finalize ctx1));
  (* Reset mid-feed, before finalize, discards buffered input too. *)
  Sha1.reset ctx1;
  Sha1.feed ctx1 (String.make 70 'z');
  Sha1.reset ctx1;
  Sha1.feed ctx1 "abc";
  check_s "sha1 reset discards partial input" "a9993e364706816aba3e25717850c26c9cd0d89d"
    (Vtpm_util.Hex.encode (Sha1.finalize ctx1));
  let ctx2 = Sha256.init () in
  Sha256.feed ctx2 (String.make 130 'q');
  ignore (Sha256.finalize ctx2);
  Sha256.reset ctx2;
  Sha256.feed ctx2 "abc";
  check_s "sha256 reset = fresh" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Vtpm_util.Hex.encode (Sha256.finalize ctx2))

(* Interleaved one-shot digests and incremental contexts must not clobber
   each other: [digest] uses a private scratch context. *)
let test_sha_scratch_isolation () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "hello ";
  let _ = Sha256.digest (String.make 200 'w') in
  Sha256.feed ctx "world";
  check_s "incremental unaffected by one-shot"
    (Vtpm_util.Hex.encode (Sha256.digest "hello world"))
    (Vtpm_util.Hex.encode (Sha256.finalize ctx));
  let ctx1 = Sha1.init () in
  Sha1.feed ctx1 "hello ";
  let _ = Sha1.digest "interleaved" in
  Sha1.feed ctx1 "world";
  check_s "sha1 incremental unaffected"
    (Vtpm_util.Hex.encode (Sha1.digest "hello world"))
    (Vtpm_util.Hex.encode (Sha1.finalize ctx1))

(* --- Bignum ------------------------------------------------------------------------ *)

let bn = Bignum.of_int
let bn_int a = Option.get (Bignum.to_int_opt a)

let test_bignum_basics () =
  check_b "zero is zero" true (Bignum.is_zero Bignum.zero);
  check_i "of/to int" 123456789 (bn_int (bn 123456789));
  check_i "num_bits 0" 0 (Bignum.num_bits Bignum.zero);
  check_i "num_bits 1" 1 (Bignum.num_bits Bignum.one);
  check_i "num_bits 255" 8 (Bignum.num_bits (bn 255));
  check_i "num_bits 256" 9 (Bignum.num_bits (bn 256))

let test_bignum_compare () =
  check_i "eq" 0 (Bignum.compare (bn 42) (bn 42));
  check_b "lt" true (Bignum.compare (bn 41) (bn 42) < 0);
  check_b "gt" true (Bignum.compare (bn 43) (bn 42) > 0);
  check_b "wide gt" true (Bignum.compare (Bignum.shift_left Bignum.one 100) (bn max_int) > 0)

let test_bignum_add_sub () =
  let a = bn 0x3FFFFFFF and b = bn 1 in
  check_i "carry across limb" 0x40000000 (bn_int (Bignum.add a b));
  check_i "sub" 0x3FFFFFFF (bn_int (Bignum.sub (bn 0x40000000) (bn 1)));
  Alcotest.check_raises "underflow" (Invalid_argument "Bignum.sub: underflow") (fun () ->
      ignore (Bignum.sub (bn 1) (bn 2)))

let test_bignum_mul_div () =
  let a = bn 123456789 and b = bn 987654321 in
  check_i "mul" (123456789 * 987654321) (bn_int (Bignum.mul a b));
  let q, r = Bignum.divmod (bn 1000000007) (bn 97) in
  check_i "quot" (1000000007 / 97) (bn_int q);
  check_i "rem" (1000000007 mod 97) (bn_int r);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod (bn 1) Bignum.zero))

let test_bignum_shifts () =
  check_i "shl" (1 lsl 40) (bn_int (Bignum.shift_left Bignum.one 40));
  check_i "shr" 1 (bn_int (Bignum.shift_right (Bignum.shift_left Bignum.one 40) 40));
  check_b "shr to zero" true (Bignum.is_zero (Bignum.shift_right (bn 5) 10))

let test_bignum_test_bit () =
  let v = bn 0b1010 in
  check_b "bit 1" true (Bignum.test_bit v 1);
  check_b "bit 0" false (Bignum.test_bit v 0);
  check_b "bit 3" true (Bignum.test_bit v 3);
  check_b "beyond width" false (Bignum.test_bit v 100)

let test_bignum_mod_pow () =
  (* Fermat: a^(p-1) = 1 mod p for prime p *)
  let p = bn 1000000007 in
  check_i "fermat" 1 (bn_int (Bignum.mod_pow ~modulus:p (bn 12345) (bn 1000000006)));
  check_i "2^100 mod p" 976371285 (bn_int (Bignum.mod_pow ~modulus:p (bn 2) (bn 100)));
  check_i "x^0" 1 (bn_int (Bignum.mod_pow ~modulus:p (bn 5) Bignum.zero));
  check_b "mod 1" true (Bignum.is_zero (Bignum.mod_pow ~modulus:Bignum.one (bn 5) (bn 3)))

let test_bignum_mod_inverse () =
  (match Bignum.mod_inverse ~modulus:(bn 97) (bn 31) with
  | Some inv -> check_i "31 * inv = 1 mod 97" 1 (bn_int (Bignum.mod_mul (bn 97) (bn 31) inv))
  | None -> Alcotest.fail "inverse must exist");
  check_b "no inverse when not coprime" true (Bignum.mod_inverse ~modulus:(bn 12) (bn 8) = None)

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_bytes_be "\x01\x02\x03\x04\x05\x06\x07\x08\x09" in
  check_s "roundtrip" "\x01\x02\x03\x04\x05\x06\x07\x08\x09" (Bignum.to_bytes_be v);
  check_s "zero" "\x00" (Bignum.to_bytes_be Bignum.zero);
  check_s "padded" "\x00\x00\x2a" (Bignum.to_bytes_be_padded (bn 42) ~width:3);
  (* Leading zero bytes in the input are dropped canonically on re-encode. *)
  check_s "canonical" "\x2a" (Bignum.to_bytes_be (Bignum.of_bytes_be "\x00\x00\x2a"))

let test_bignum_primality () =
  let rng = Vtpm_util.Rng.create ~seed:17 in
  List.iter
    (fun p -> check_b (Printf.sprintf "%d prime" p) true (Bignum.is_probable_prime rng (bn p)))
    [ 2; 3; 5; 97; 7919; 1000000007; 2147483647 ];
  List.iter
    (fun c -> check_b (Printf.sprintf "%d composite" c) false (Bignum.is_probable_prime rng (bn c)))
    [ 0; 1; 4; 100; 7917; 1000000008; 561 (* Carmichael *); 41041 (* Carmichael *) ]

let test_bignum_random_prime () =
  let rng = Vtpm_util.Rng.create ~seed:23 in
  let p = Bignum.random_prime rng ~bits:64 in
  check_i "exact bit width" 64 (Bignum.num_bits p);
  check_b "is prime" true (Bignum.is_probable_prime rng p)

(* No 1-bit prime exists: the search must refuse rather than spin on the
   only candidate, 1. The smallest width has exactly one answer. *)
let test_bignum_random_prime_tiny () =
  let rng = Vtpm_util.Rng.create ~seed:23 in
  List.iter
    (fun bits ->
      Alcotest.check_raises
        (Printf.sprintf "%d bits refused" bits)
        (Invalid_argument "Bignum.random_prime: need at least 2 bits")
        (fun () -> ignore (Bignum.random_prime rng ~bits)))
    [ 1; 0 ];
  check_i "2 bits gives 3" 3 (bn_int (Bignum.random_prime rng ~bits:2))

let test_bignum_gcd () =
  check_i "gcd" 6 (bn_int (Bignum.gcd (bn 48) (bn 18)));
  check_i "gcd coprime" 1 (bn_int (Bignum.gcd (bn 35) (bn 64)));
  check_i "gcd with zero" 42 (bn_int (Bignum.gcd (bn 42) Bignum.zero))

(* Bignum properties, checked against native int arithmetic. *)

let small = QCheck.int_range 0 1_000_000_000

let prop_add_commutes =
  QCheck.Test.make ~name:"bignum add commutes" ~count:300 (QCheck.pair small small)
    (fun (a, b) -> Bignum.equal (Bignum.add (bn a) (bn b)) (Bignum.add (bn b) (bn a)))

let prop_add_matches_int =
  QCheck.Test.make ~name:"bignum add = int add" ~count:300 (QCheck.pair small small)
    (fun (a, b) -> bn_int (Bignum.add (bn a) (bn b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bignum mul = int mul" ~count:300
    (QCheck.pair (QCheck.int_range 0 1_000_000) (QCheck.int_range 0 1_000_000))
    (fun (a, b) -> bn_int (Bignum.mul (bn a) (bn b)) = a * b)

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r, r < b" ~count:300
    (QCheck.pair small (QCheck.int_range 1 1_000_000))
    (fun (a, b) ->
      let q, r = Bignum.divmod (bn a) (bn b) in
      Bignum.equal (bn a) (Bignum.add (Bignum.mul q (bn b)) r) && Bignum.compare r (bn b) < 0)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bignum bytes roundtrip" ~count:300 small (fun a ->
      bn_int (Bignum.of_bytes_be (Bignum.to_bytes_be (bn a))) = a)

let prop_shift_mul =
  QCheck.Test.make ~name:"shl k = mul 2^k" ~count:200
    (QCheck.pair (QCheck.int_range 0 100000) (QCheck.int_range 0 40))
    (fun (a, k) ->
      Bignum.equal (Bignum.shift_left (bn a) k) (Bignum.mul (bn a) (Bignum.shift_left Bignum.one k)))

(* Large-operand identities: operands built from random byte strings, far
   beyond native int range. *)

let gen_big = QCheck.Gen.(map Bignum.of_bytes_be (string_size (int_range 1 64)))

let prop_big_add_sub_inverse =
  QCheck.Test.make ~name:"big (a+b)-b = a" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_big gen_big))
    (fun (a, b) -> Bignum.equal (Bignum.sub (Bignum.add a b) b) a)

let prop_big_divmod_identity =
  QCheck.Test.make ~name:"big a = q*b + r" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_big gen_big))
    (fun (a, b) ->
      if Bignum.is_zero b then true
      else begin
        let q, r = Bignum.divmod a b in
        Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0
      end)

let prop_big_mul_distributes =
  QCheck.Test.make ~name:"big a*(b+c) = a*b + a*c" ~count:150
    (QCheck.make QCheck.Gen.(triple gen_big gen_big gen_big))
    (fun (a, b, c) ->
      Bignum.equal (Bignum.mul a (Bignum.add b c)) (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_big_bytes_roundtrip =
  QCheck.Test.make ~name:"big bytes roundtrip (canonical)" ~count:200 (QCheck.make gen_big)
    (fun a -> Bignum.equal (Bignum.of_bytes_be (Bignum.to_bytes_be a)) a)

let prop_big_modpow_split =
  (* a^(e1+e2) = a^e1 * a^e2 (mod m), with m odd > 1. *)
  QCheck.Test.make ~name:"big modpow exponent additivity" ~count:60
    (QCheck.make
       QCheck.Gen.(
         quad gen_big
           (map Bignum.of_int (int_range 0 1000))
           (map Bignum.of_int (int_range 0 1000))
           (map (fun n -> Bignum.add (Bignum.of_int ((2 * n) + 3)) Bignum.zero) (int_range 1 1_000_000))))
    (fun (a, e1, e2, m) ->
      let lhs = Bignum.mod_pow ~modulus:m a (Bignum.add e1 e2) in
      let rhs = Bignum.mod_mul m (Bignum.mod_pow ~modulus:m a e1) (Bignum.mod_pow ~modulus:m a e2) in
      Bignum.equal lhs rhs)

(* --- RSA ------------------------------------------------------------------------------ *)

let rsa_key = lazy (Rsa.generate ~bits:256 (Vtpm_util.Rng.create ~seed:31))

let test_rsa_sign_verify () =
  let key = Lazy.force rsa_key in
  let digest = Sha1.digest "message" in
  let s = Rsa.sign key ~digest in
  check_i "signature width" (Rsa.modulus_bytes key.pub) (String.length s);
  check_b "verifies" true (Rsa.verify key.pub ~digest ~signature:s);
  check_b "wrong digest" false (Rsa.verify key.pub ~digest:(Sha1.digest "other") ~signature:s)

let test_rsa_signature_tamper () =
  let key = Lazy.force rsa_key in
  let digest = Sha1.digest "message" in
  let s = Bytes.of_string (Rsa.sign key ~digest) in
  Bytes.set s 3 (Char.chr (Char.code (Bytes.get s 3) lxor 1));
  check_b "tampered fails" false (Rsa.verify key.pub ~digest ~signature:(Bytes.to_string s))

let test_rsa_encrypt_decrypt () =
  let key = Lazy.force rsa_key in
  let rng = Vtpm_util.Rng.create ~seed:37 in
  let ct = Rsa.encrypt rng key.pub "hello" in
  check_b "decrypts" true (Rsa.decrypt key ct = Some "hello");
  (* Random padding: two encryptions of the same message differ. *)
  let ct2 = Rsa.encrypt rng key.pub "hello" in
  check_b "probabilistic" true (ct <> ct2);
  check_b "both decrypt" true (Rsa.decrypt key ct2 = Some "hello")

let test_rsa_decrypt_garbage () =
  let key = Lazy.force rsa_key in
  check_b "wrong width" true (Rsa.decrypt key "short" = None);
  let garbage = String.make (Rsa.modulus_bytes key.pub) '\x01' in
  check_b "garbage" true (Rsa.decrypt key garbage = None)

let test_rsa_public_roundtrip () =
  let key = Lazy.force rsa_key in
  match Rsa.public_of_bytes (Rsa.public_to_bytes key.pub) with
  | Some pub ->
      check_b "n" true (Bignum.equal pub.Rsa.n key.pub.Rsa.n);
      check_b "e" true (Bignum.equal pub.Rsa.e key.pub.Rsa.e);
      check_i "bits" key.pub.Rsa.bits pub.Rsa.bits
  | None -> Alcotest.fail "roundtrip failed"

let test_rsa_cross_key () =
  let k1 = Lazy.force rsa_key in
  let k2 = Rsa.generate ~bits:256 (Vtpm_util.Rng.create ~seed:41) in
  let digest = Sha1.digest "m" in
  let s = Rsa.sign k1 ~digest in
  check_b "other key rejects" false (Rsa.verify k2.pub ~digest ~signature:s)

(* --- XTEA ------------------------------------------------------------------------------ *)

let xtea_key = Xtea.key_of_string (String.init 16 Char.chr)

let test_xtea_roundtrip () =
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
      let ct = Xtea.ctr_transform xtea_key ~nonce:5 msg in
      check_s (Printf.sprintf "len %d" n) msg (Xtea.ctr_transform xtea_key ~nonce:5 ct))
    [ 0; 1; 7; 8; 9; 16; 100; 4096 ]

let test_xtea_nonce_matters () =
  let msg = String.make 64 'm' in
  let a = Xtea.ctr_transform xtea_key ~nonce:1 msg in
  let b = Xtea.ctr_transform xtea_key ~nonce:2 msg in
  check_b "distinct streams" true (a <> b)

let test_xtea_key_matters () =
  let msg = String.make 64 'm' in
  let k2 = Xtea.key_of_string (String.make 16 'k') in
  check_b "distinct keys" true
    (Xtea.ctr_transform xtea_key ~nonce:1 msg <> Xtea.ctr_transform k2 ~nonce:1 msg)

let test_xtea_bad_key () =
  Alcotest.check_raises "short key" (Invalid_argument "Xtea.key_of_string: need 16 bytes")
    (fun () -> ignore (Xtea.key_of_string "short"))

let prop_xtea_roundtrip =
  QCheck.Test.make ~name:"xtea ctr roundtrip" ~count:200
    (QCheck.pair QCheck.string QCheck.small_nat)
    (fun (msg, nonce) ->
      Xtea.ctr_transform xtea_key ~nonce (Xtea.ctr_transform xtea_key ~nonce msg) = msg)

(* --- DRBG ------------------------------------------------------------------------------- *)

let test_drbg_deterministic () =
  let a = Drbg.instantiate ~seed:"s" and b = Drbg.instantiate ~seed:"s" in
  check_s "same stream" (Drbg.generate a 48) (Drbg.generate b 48)

let test_drbg_seed_sensitivity () =
  let a = Drbg.instantiate ~seed:"s1" and b = Drbg.instantiate ~seed:"s2" in
  check_b "different" true (Drbg.generate a 32 <> Drbg.generate b 32)

let test_drbg_ratchets () =
  let d = Drbg.instantiate ~seed:"s" in
  let x = Drbg.generate d 32 in
  let y = Drbg.generate d 32 in
  check_b "outputs differ" true (x <> y)

let test_drbg_reseed () =
  let a = Drbg.instantiate ~seed:"s" and b = Drbg.instantiate ~seed:"s" in
  Drbg.reseed a ~entropy:"fresh";
  check_b "reseed changes stream" true (Drbg.generate a 32 <> Drbg.generate b 32)

let test_drbg_lengths () =
  let d = Drbg.instantiate ~seed:"s" in
  List.iter (fun n -> check_i (Printf.sprintf "%d bytes" n) n (String.length (Drbg.generate d n)))
    [ 1; 20; 32; 33; 64; 100 ]

(* --- Crypto hot-path differentials (PR 10) ----------------------------------
   The Montgomery/CRT/word-level rewrites must be bit-identical to the
   simple paths they replaced. Each optimized route is tested against its
   slow reference on random inputs, and golden fixtures pin the exact
   signature bytes so a silent change to either route fails loudly. *)

let gen_odd_modulus =
  (* Odd modulus > 1: random widths up to 512 bits (the Montgomery-eligible
     case), single-limb moduli, and the limb-boundary shapes 2^(30j)-1
     (every limb all ones) and 2^(30j-1)+1 (top bit alone) for 1..18 limbs,
     which drive mont_mul's top-limb carry and the final conditional
     subtraction. *)
  let pow2 b = Bignum.shift_left Bignum.one b in
  let boundary =
    List.concat_map
      (fun j -> [ Bignum.sub (pow2 (30 * j)) Bignum.one; Bignum.add (pow2 ((30 * j) - 1)) Bignum.one ])
      (List.init 18 (fun i -> i + 1))
  in
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun s ->
              let m = Bignum.of_bytes_be s in
              let m = if Bignum.is_even m then Bignum.add m Bignum.one else m in
              if Bignum.compare m Bignum.one <= 0 then Bignum.of_int 3 else m)
            (string_size (int_range 1 64)) );
        (1, map (fun v -> Bignum.of_int ((2 * v) + 3)) (int_range 0 ((1 lsl 29) - 2)));
        (1, oneofl boundary);
      ])

let prop_montgomery_matches_schoolbook =
  QCheck.Test.make ~name:"montgomery mod_pow == schoolbook" ~count:120
    (QCheck.make QCheck.Gen.(triple gen_big gen_big gen_odd_modulus))
    (fun (base, exp, m) ->
      Bignum.equal
        (Bignum.mod_pow ~modulus:m base exp)
        (Bignum.mod_pow_schoolbook ~modulus:m base exp))

let prop_montgomery_edge_bases =
  (* Bases 0, 1 and m-1: the fixed points and the largest residue, whose
     squares sit closest to m^2. *)
  QCheck.Test.make ~name:"montgomery edge bases == schoolbook" ~count:120
    (QCheck.make
       QCheck.Gen.(
         gen_odd_modulus >>= fun m ->
         map2
           (fun base exp -> (base, exp, m))
           (oneofl [ Bignum.zero; Bignum.one; Bignum.sub m Bignum.one ])
           gen_big))
    (fun (base, exp, m) ->
      Bignum.equal
        (Bignum.mod_pow ~modulus:m base exp)
        (Bignum.mod_pow_schoolbook ~modulus:m base exp))

let rsa_key512 = lazy (Rsa.generate ~bits:512 (Vtpm_util.Rng.create ~seed:99))

let prop_crt_sign_matches_plain =
  QCheck.Test.make ~name:"crt sign == no-crt sign" ~count:40
    (QCheck.make QCheck.Gen.(pair bool (string_size (return 20))))
    (fun (big, digest) ->
      let key = Lazy.force (if big then rsa_key512 else rsa_key) in
      Rsa.sign key ~digest = Rsa.sign_no_crt key ~digest)

let feed_in_chunks feed finalize ctx s cuts =
  (* Split [s] at the (sorted, deduped) cut points and stream the pieces. *)
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (String.length s + 1)) cuts) in
  let prev = ref 0 in
  List.iter
    (fun c ->
      if c > !prev then feed ctx s ~off:!prev ~len:(c - !prev);
      prev := max !prev c)
    (cuts @ [ String.length s ]);
  finalize ctx

let prop_sha1_stream_split =
  QCheck.Test.make ~name:"sha1 chunked feed_sub == one-shot" ~count:80
    (QCheck.make QCheck.Gen.(pair (string_size (int_range 0 4096)) (list_size (int_range 0 8) nat)))
    (fun (s, cuts) ->
      feed_in_chunks Sha1.feed_sub Sha1.finalize (Sha1.init ()) s cuts = Sha1.digest s)

let prop_sha256_stream_split =
  QCheck.Test.make ~name:"sha256 chunked feed_sub == one-shot" ~count:80
    (QCheck.make QCheck.Gen.(pair (string_size (int_range 0 4096)) (list_size (int_range 0 8) nat)))
    (fun (s, cuts) ->
      feed_in_chunks Sha256.feed_sub Sha256.finalize (Sha256.init ()) s cuts = Sha256.digest s)

let prop_digest_concat =
  QCheck.Test.make ~name:"digest_concat == digest of concatenation" ~count:80
    (QCheck.make QCheck.Gen.(list_size (int_range 0 6) (string_size (int_range 0 200))))
    (fun parts ->
      let whole = String.concat "" parts in
      Sha1.digest_concat parts = Sha1.digest whole
      && Sha256.digest_concat parts = Sha256.digest whole)

let hmac_reference hash block ~key msg =
  (* RFC 2104 by the book, via one-shot digests and staging strings —
     the naive construction the streaming implementation replaced. *)
  let key = if String.length key > block then hash [ key ] else key in
  let pad = key ^ String.make (block - String.length key) '\x00' in
  let xor_with c = String.map (fun k -> Char.chr (Char.code k lxor c)) pad in
  hash [ xor_with 0x5c; hash [ xor_with 0x36; msg ] ]

let prop_hmac_matches_reference =
  QCheck.Test.make ~name:"streaming hmac == rfc2104 reference" ~count:80
    (QCheck.make QCheck.Gen.(pair (string_size (int_range 0 100)) (string_size (int_range 0 500))))
    (fun (key, msg) ->
      Hmac.sha1_mac ~key msg = hmac_reference Sha1.digest_concat 64 ~key msg
      && Hmac.sha256_mac ~key msg = hmac_reference Sha256.digest_concat 64 ~key msg)

(* The byte codec and primality test as they were before the linear-time
   codec and Montgomery-form Miller–Rabin: one shift+add per byte in, one
   division + shift per byte out, and one [mod_mul] per witness squaring.
   The rewrites must agree with these exactly, including the RNG draws. *)

let old_of_bytes_be s =
  let acc = ref Bignum.zero in
  String.iter (fun c -> acc := Bignum.add (Bignum.shift_left !acc 8) (bn (Char.code c))) s;
  !acc

let old_to_bytes_be a =
  if Bignum.is_zero a then "\x00"
  else begin
    let n = (Bignum.num_bits a + 7) / 8 in
    let out = Bytes.create n in
    let v = ref a in
    for i = n - 1 downto 0 do
      Bytes.set out i (Char.chr (bn_int (Bignum.rem !v (bn 256))));
      v := Bignum.shift_right !v 8
    done;
    Bytes.to_string out
  end

let gen_codec_input =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          int_range 0 4 >>= fun zeros ->
          map (fun body -> String.make zeros '\x00' ^ body) (string_size (int_range 0 (80 - zeros))) );
        (1, map (fun n -> String.make n '\xff') (int_range 0 80));
      ])

let prop_codec_matches_quadratic =
  QCheck.Test.make ~name:"bignum byte codec == quadratic reference" ~count:400
    (QCheck.make ~print:Vtpm_util.Hex.encode gen_codec_input)
    (fun s ->
      let v = Bignum.of_bytes_be s in
      let enc = Bignum.to_bytes_be v in
      let w = String.length enc in
      let too_narrow =
        try
          ignore (Bignum.to_bytes_be_padded v ~width:(w - 1));
          false
        with Invalid_argument _ -> true
      in
      Bignum.equal v (old_of_bytes_be s)
      && enc = old_to_bytes_be v
      && (if Bignum.is_zero v then enc = "\x00" else enc.[0] <> '\x00')
      && Bignum.to_bytes_be_padded v ~width:w = enc
      && too_narrow
      && (String.length s < w
         || Bignum.to_bytes_be_padded v ~width:(String.length s)
            = String.make (String.length s - w) '\x00' ^ enc))

let old_is_probable_prime ?(rounds = 16) rng n =
  let open Bignum in
  if compare n two < 0 then false
  else if compare n (of_int 4) < 0 then true
  else if is_even n then false
  else if List.exists (fun p -> compare (of_int p) n < 0 && is_zero (rem n (of_int p))) small_primes then false
  else begin
    let n_minus_1 = sub n one in
    let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n_minus_1 0 in
    let witness a =
      let x = ref (mod_pow ~modulus:n a d) in
      if equal !x one || equal !x n_minus_1 then false
      else begin
        let composite = ref true in
        for _ = 1 to s - 1 do
          if !composite then begin
            x := mod_mul n !x !x;
            if equal !x n_minus_1 then composite := false
          end
        done;
        !composite
      end
    in
    let rec go k = k = 0 || ((not (witness (random_range rng ~lo:two ~hi:n_minus_1))) && go (k - 1)) in
    go rounds
  end

let gen_prime_candidate =
  let known =
    List.map bn [ 2; 3; 5; 7; 97; 7919; 1000000007; 2147483647; 561; 41041; 825265; 0; 1; 9; 25 ]
    @ List.map
        (fun b -> Bignum.sub (Bignum.shift_left Bignum.one b) Bignum.one)
        [ 61; 89; 107; 127 (* Mersenne primes *); 67; 101 (* composite *) ]
  in
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun s ->
              let v = Bignum.of_bytes_be s in
              if Bignum.is_even v then Bignum.add v Bignum.one else v)
            (string_size (int_range 1 24)) );
        (1, oneofl known);
      ])

let prop_primality_matches_old =
  QCheck.Test.make ~name:"montgomery miller-rabin == mod_mul miller-rabin" ~count:200
    (QCheck.make
       ~print:(fun (n, seed, rounds) -> Printf.sprintf "%s seed=%d rounds=%d" (Bignum.to_hex n) seed rounds)
       QCheck.Gen.(triple gen_prime_candidate (int_range 0 1_000_000) (int_range 1 16)))
    (fun (n, seed, rounds) ->
      let r_new = Vtpm_util.Rng.create ~seed and r_old = Vtpm_util.Rng.create ~seed in
      Bignum.is_probable_prime ~rounds r_new n = old_is_probable_prime ~rounds r_old n
      && Vtpm_util.Rng.next_int64 r_new = Vtpm_util.Rng.next_int64 r_old)

let test_rsa_golden_signatures () =
  (* Captured from the pre-overhaul schoolbook signer: the Montgomery/CRT
     path must reproduce these bytes exactly. *)
  let digest = Sha1.digest "message" in
  check_s "sig256"
    "893d15cb879ec3db8976e2dd57d14cc80317e01358a7874376741a639fa91bc6"
    (Vtpm_util.Hex.encode (Rsa.sign (Lazy.force rsa_key) ~digest));
  check_s "sig512"
    "335261ee77eecf99607b44b6e6879aa0762141d68376092087463f23c7750b887b54e23afacf3245f267bbee0e1440139180cd935c8790b30238e5c8d14e760c"
    (Vtpm_util.Hex.encode (Rsa.sign (Lazy.force rsa_key512) ~digest));
  check_s "fp256" "659f4e08e8b8cbf01cefee22049ac78111196f9b"
    (Vtpm_util.Hex.encode (Rsa.fingerprint (Lazy.force rsa_key).Rsa.pub));
  check_s "fp512" "f47113e2efb32fa0522ac0cf30a59acdf9060ae3"
    (Vtpm_util.Hex.encode (Rsa.fingerprint (Lazy.force rsa_key512).Rsa.pub))

let test_rsa_key_codec_versions () =
  let key = Lazy.force rsa_key in
  let digest = Sha1.digest "codec" in
  let expect = Rsa.sign key ~digest in
  (* v2 (current) round trip preserves every CRT component. *)
  (match Rsa.key_of_bytes (Rsa.key_to_bytes key) with
  | None -> Alcotest.fail "v2 decode failed"
  | Some k ->
      check_b "v2 pub n" true (Bignum.equal k.Rsa.pub.Rsa.n key.Rsa.pub.Rsa.n);
      check_b "v2 dp" true (Bignum.equal k.Rsa.dp key.Rsa.dp);
      check_b "v2 dq" true (Bignum.equal k.Rsa.dq key.Rsa.dq);
      check_b "v2 qinv" true (Bignum.equal k.Rsa.qinv key.Rsa.qinv);
      check_s "v2 sig" (Vtpm_util.Hex.encode expect) (Vtpm_util.Hex.encode (Rsa.sign k ~digest)));
  (* A v1 blob has no CRT coefficient to carry; with p = q there is none
     to recompute, and the decode refuses it. *)
  check_b "v1 with p = q rejected" true
    (Rsa.key_of_bytes (Rsa.key_to_bytes_v1 { key with Rsa.q = key.Rsa.p }) = None);
  (* v1 (pre-overhaul, no CRT fields) still decodes; the derived fields
     are recomputed so signatures stay identical. *)
  match Rsa.key_of_bytes (Rsa.key_to_bytes_v1 key) with
  | None -> Alcotest.fail "v1 decode failed"
  | Some k ->
      check_b "v1 p" true (Bignum.equal k.Rsa.p key.Rsa.p);
      check_b "v1 qinv recomputed" true (Bignum.equal k.Rsa.qinv key.Rsa.qinv);
      check_s "v1 sig" (Vtpm_util.Hex.encode expect) (Vtpm_util.Hex.encode (Rsa.sign k ~digest))

let test_montgomery_rejects_even () =
  check_b "even modulus rejected" true
    (try
       ignore (Bignum.Montgomery.ctx ~modulus:(Bignum.of_int 10));
       false
     with Invalid_argument _ -> true);
  (* mod_pow itself must still serve even moduli via the schoolbook path. *)
  check_b "mod_pow even fallback" true
    (Bignum.equal
       (Bignum.mod_pow ~modulus:(Bignum.of_int 10) (Bignum.of_int 7) (Bignum.of_int 3))
       (Bignum.of_int 3))

(* --- XTEA against the published algorithm ------------------------------------ *)

(* Needham–Wheeler XTEA transcribed from the spec on Int32, one block at a
   time, and counter mode over it: block i of the keystream encrypts
   (nonce mod 2^32, i), big-endian. *)
let spec_xtea_block (k : int32 array) (v0, v1) =
  let open Int32 in
  let f v = add (logxor (shift_left v 4) (shift_right_logical v 5)) v in
  let v0 = ref v0 and v1 = ref v1 and sum = ref 0l in
  for _ = 1 to 32 do
    v0 := add !v0 (logxor (f !v1) (add !sum k.(to_int (logand !sum 3l))));
    sum := add !sum 0x9E3779B9l;
    v1 := add !v1 (logxor (f !v0) (add !sum k.(to_int (logand (shift_right_logical !sum 11) 3l))))
  done;
  (!v0, !v1)

let spec_xtea_ctr key ~nonce data =
  let k = Array.init 4 (fun i -> String.get_int32_be key (4 * i)) in
  let ks = Bytes.create (String.length data + 8) in
  for b = 0 to String.length data / 8 do
    let c0, c1 = spec_xtea_block k (Int32.of_int (nonce land 0xffffffff), Int32.of_int b) in
    Bytes.set_int32_be ks (8 * b) c0;
    Bytes.set_int32_be ks ((8 * b) + 4) c1
  done;
  String.mapi (fun i c -> Char.chr (Char.code c lxor Bytes.get_uint8 ks i)) data

let test_xtea_known_answers () =
  let hex_block (c0, c1) = Printf.sprintf "%08lx%08lx" c0 c1 in
  let k_seq = String.init 16 Char.chr and k_zero = String.make 16 '\x00' in
  List.iter
    (fun (name, key, pt, expect) ->
      check_s name expect (hex_block (Xtea.encrypt_block (Xtea.key_of_string key) pt));
      check_s (name ^ " (spec transcription)") expect
        (hex_block (spec_xtea_block (Array.init 4 (fun i -> String.get_int32_be key (4 * i))) pt)))
    [
      ("key 00..0f, ABCDEFGH", k_seq, (0x41424344l, 0x45464748l), "497df3d072612cb5");
      ("key 00..0f, AAAAAAAA", k_seq, (0x41414141l, 0x41414141l), "e78f2d13744341d8");
      ("zero key, ABCDEFGH", k_zero, (0x41424344l, 0x45464748l), "a0390589f8b8efa5");
    ]

let prop_xtea_ctr_matches_spec =
  QCheck.Test.make ~name:"xtea ctr == spec transcription" ~count:300
    (QCheck.make
       ~print:(fun (key, nonce, msg) ->
         Printf.sprintf "key %s nonce %d len %d" (Vtpm_util.Hex.encode key) nonce (String.length msg))
       QCheck.Gen.(
         triple (string_size (return 16))
           (frequency
              [ (2, small_nat); (2, map (fun x -> (1 lsl 32) + x) (int_bound (1 lsl 40))); (1, int) ])
           (string_size (int_range 0 300))))
    (fun (key, nonce, msg) -> Xtea.ctr_transform (Xtea.key_of_string key) ~nonce msg = spec_xtea_ctr key ~nonce msg)

(* --- mod_inverse against the textbook extended Euclid ------------------------- *)

(* The one-division-per-step extended Euclid that Lehmer's algorithm
   replaced, with explicit signs on the cofactors. *)
let euclid_mod_inverse ~modulus:m a =
  let open Bignum in
  let rec go r_old s_old neg_old r s neg =
    if is_zero r then
      if equal r_old one then Some (if neg_old then sub m (rem s_old m) else rem s_old m) else None
    else begin
      let q, r' = divmod r_old r in
      let qs = mul q s in
      let s', neg' =
        if neg_old = neg then
          if compare s_old qs >= 0 then (sub s_old qs, neg_old) else (sub qs s_old, not neg_old)
        else (add s_old qs, neg_old)
      in
      go r s neg r' s' neg'
    end
  in
  let a = rem a m in
  if is_zero a then None else go m zero false a one false

(* Consecutive Fibonacci numbers: every quotient is 1, the longest
   remainder sequence for their size. *)
let fib n =
  let rec go a b n = if n = 0 then a else go b (Bignum.add a b) (n - 1) in
  go Bignum.zero Bignum.one n

let gen_inverse_case =
  let open QCheck.Gen in
  let big max_bytes = map Bignum.of_bytes_be (string_size (int_range 0 max_bytes)) in
  triple (big 75) (big 88) bool >>= fun (m, a, odd) ->
  (* Moduli up to 600 bits, forced odd or even half the time each. *)
  let m = if Bignum.is_zero m then Bignum.two else m in
  let m = if odd = Bignum.is_even m then Bignum.add m Bignum.one else m in
  frequency
    [
      (6, return (m, a));
      (1, return (m, Bignum.add m a));
      (1, return (m, Bignum.zero));
      (1, return (Bignum.one, a));
      (1, return (m, Bignum.of_int 65537));
      (2, map (fun g -> (Bignum.mul g m, Bignum.mul g a)) (map (Bignum.add Bignum.two) (big 8)));
      (1, map (fun n -> (fib (n + 1), fib n)) (int_range 2 860));
    ]

let prop_mod_inverse_matches_euclid =
  QCheck.Test.make ~name:"bignum mod_inverse == extended Euclid" ~count:600
    (QCheck.make
       ~print:(fun (m, a) -> Printf.sprintf "m=%s a=%s" (Bignum.to_hex m) (Bignum.to_hex a))
       gen_inverse_case)
    (fun (m, a) ->
      let got = Bignum.mod_inverse ~modulus:m a in
      got = euclid_mod_inverse ~modulus:m a
      &&
      match got with
      | None -> true
      | Some x -> Bignum.compare x m < 0 && Bignum.equal (Bignum.mod_mul m a x) Bignum.one)

let suite =
  [
    Alcotest.test_case "sha1 vectors" `Quick test_sha1_vectors;
    Alcotest.test_case "sha1 incremental" `Quick test_sha1_incremental;
    Alcotest.test_case "sha1 block boundaries" `Quick test_sha1_block_boundaries;
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "hmac-sha1 vectors" `Quick test_hmac_sha1_vectors;
    Alcotest.test_case "hmac-sha256 vector" `Quick test_hmac_sha256_vector;
    Alcotest.test_case "hmac equal_ct" `Quick test_hmac_equal_ct;
    Alcotest.test_case "sha ctx reset/reuse" `Quick test_sha_ctx_reset_reuse;
    Alcotest.test_case "sha scratch isolation" `Quick test_sha_scratch_isolation;
    Alcotest.test_case "bignum basics" `Quick test_bignum_basics;
    Alcotest.test_case "bignum compare" `Quick test_bignum_compare;
    Alcotest.test_case "bignum add/sub" `Quick test_bignum_add_sub;
    Alcotest.test_case "bignum mul/div" `Quick test_bignum_mul_div;
    Alcotest.test_case "bignum shifts" `Quick test_bignum_shifts;
    Alcotest.test_case "bignum test_bit" `Quick test_bignum_test_bit;
    Alcotest.test_case "bignum mod_pow" `Quick test_bignum_mod_pow;
    Alcotest.test_case "bignum mod_inverse" `Quick test_bignum_mod_inverse;
    Alcotest.test_case "bignum bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
    Alcotest.test_case "bignum primality" `Quick test_bignum_primality;
    Alcotest.test_case "bignum random prime" `Quick test_bignum_random_prime;
    Alcotest.test_case "bignum random prime below 2 bits" `Quick test_bignum_random_prime_tiny;
    Alcotest.test_case "bignum gcd" `Quick test_bignum_gcd;
    QCheck_alcotest.to_alcotest prop_add_commutes;
    QCheck_alcotest.to_alcotest prop_add_matches_int;
    QCheck_alcotest.to_alcotest prop_mul_matches_int;
    QCheck_alcotest.to_alcotest prop_divmod_identity;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_shift_mul;
    QCheck_alcotest.to_alcotest prop_big_add_sub_inverse;
    QCheck_alcotest.to_alcotest prop_big_divmod_identity;
    QCheck_alcotest.to_alcotest prop_big_mul_distributes;
    QCheck_alcotest.to_alcotest prop_big_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_big_modpow_split;
    Alcotest.test_case "rsa sign/verify" `Quick test_rsa_sign_verify;
    Alcotest.test_case "rsa signature tamper" `Quick test_rsa_signature_tamper;
    Alcotest.test_case "rsa encrypt/decrypt" `Quick test_rsa_encrypt_decrypt;
    Alcotest.test_case "rsa decrypt garbage" `Quick test_rsa_decrypt_garbage;
    Alcotest.test_case "rsa public roundtrip" `Quick test_rsa_public_roundtrip;
    Alcotest.test_case "rsa cross key" `Quick test_rsa_cross_key;
    Alcotest.test_case "xtea roundtrip" `Quick test_xtea_roundtrip;
    Alcotest.test_case "xtea nonce matters" `Quick test_xtea_nonce_matters;
    Alcotest.test_case "xtea key matters" `Quick test_xtea_key_matters;
    Alcotest.test_case "xtea bad key" `Quick test_xtea_bad_key;
    QCheck_alcotest.to_alcotest prop_xtea_roundtrip;
    Alcotest.test_case "drbg deterministic" `Quick test_drbg_deterministic;
    Alcotest.test_case "drbg seed sensitivity" `Quick test_drbg_seed_sensitivity;
    Alcotest.test_case "drbg ratchets" `Quick test_drbg_ratchets;
    Alcotest.test_case "drbg reseed" `Quick test_drbg_reseed;
    Alcotest.test_case "drbg lengths" `Quick test_drbg_lengths;
    QCheck_alcotest.to_alcotest prop_montgomery_matches_schoolbook;
    QCheck_alcotest.to_alcotest prop_crt_sign_matches_plain;
    QCheck_alcotest.to_alcotest prop_sha1_stream_split;
    QCheck_alcotest.to_alcotest prop_sha256_stream_split;
    QCheck_alcotest.to_alcotest prop_digest_concat;
    QCheck_alcotest.to_alcotest prop_hmac_matches_reference;
    Alcotest.test_case "rsa golden signatures" `Quick test_rsa_golden_signatures;
    Alcotest.test_case "rsa key codec versions" `Quick test_rsa_key_codec_versions;
    Alcotest.test_case "montgomery rejects even modulus" `Quick test_montgomery_rejects_even;
    QCheck_alcotest.to_alcotest prop_montgomery_edge_bases;
    QCheck_alcotest.to_alcotest prop_codec_matches_quadratic;
    QCheck_alcotest.to_alcotest prop_primality_matches_old;
    Alcotest.test_case "xtea known answers" `Quick test_xtea_known_answers;
    QCheck_alcotest.to_alcotest prop_xtea_ctr_matches_spec;
    QCheck_alcotest.to_alcotest prop_mod_inverse_matches_euclid;
  ]
