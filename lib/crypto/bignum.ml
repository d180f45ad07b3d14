(* Arbitrary-precision natural numbers.

   The environment ships no bignum library (no zarith), and the vTPM key
   hierarchy needs RSA, so the repo carries its own naturals. Little-endian
   limbs in base 2^30: a 30x30-bit product plus carries stays below 2^62,
   inside OCaml's 63-bit native int, so schoolbook multiplication needs no
   intermediate boxing.

   Only naturals are provided; the one signed computation (Lehmer's
   extended Euclid, for the RSA private exponent and CRT coefficient)
   keeps cofactor magnitudes and the parity of their index in
   [mod_inverse]. *)

type t = int array (* little-endian limbs, no trailing zero limb; zero = [||] *)

let limb_bits = 30
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1
let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec build v acc = if v = 0 then List.rev acc else build (v lsr limb_bits) ((v land limb_mask) :: acc) in
  Array.of_list (build v [])

let to_int_opt (a : t) =
  (* Fits when at most ~62 bits. *)
  if Array.length a > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = Array.length a - 1 downto 0 do
      if !v >= 1 lsl (62 - limb_bits) then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize out

(* a - b; requires a >= b. *)
let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Bignum.sub: underflow";
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Bignum.sub: underflow";
  normalize out

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let acc = (ai * b.(j)) + out.(i + j) + !carry in
        out.(i + j) <- acc land limb_mask;
        carry := acc lsr limb_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    normalize out
  end

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let test_bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left (a : t) k : t =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- out.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

let shift_right (a : t) k : t =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < la && bits > 0 then (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

(* Long division producing (quotient, remainder): limb-based Knuth
   Algorithm D. The earlier binary shift-subtract allocated two bignums
   per bit position, which made modular reduction — hence every RSA
   operation, hence keygen during the fuzzer's full-stack soaks — the
   repo's hottest path. One quotient limb per pass, all intermediates in
   native ints (30x30-bit products stay under 2^62). Output is bit-for-bit
   identical to the old routine, so deterministic key material is
   unchanged. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let la = Array.length a and lb = Array.length b in
    if lb = 1 then begin
      (* Single-limb divisor: one linear pass. *)
      let d = b.(0) in
      let q = Array.make la 0 in
      let r = ref 0 in
      for i = la - 1 downto 0 do
        let cur = (!r lsl limb_bits) lor a.(i) in
        q.(i) <- cur / d;
        r := cur mod d
      done;
      (normalize q, of_int !r)
    end
    else begin
      (* D1: normalize so the divisor's top limb has its high bit set —
         the quotient-digit estimate below is then off by at most 2. *)
      let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
      let s = limb_bits - width b.(lb - 1) 0 in
      let v = Array.make lb 0 in
      let carry = ref 0 in
      for i = 0 to lb - 1 do
        let x = (b.(i) lsl s) lor !carry in
        v.(i) <- x land limb_mask;
        carry := x lsr limb_bits
      done;
      let u = Array.make (la + 1) 0 in
      carry := 0;
      for i = 0 to la - 1 do
        let x = (a.(i) lsl s) lor !carry in
        u.(i) <- x land limb_mask;
        carry := x lsr limb_bits
      done;
      u.(la) <- !carry;
      let m = la - lb in
      let q = Array.make (m + 1) 0 in
      let vtop = v.(lb - 1) and vnext = v.(lb - 2) in
      for j = m downto 0 do
        (* D3: estimate the quotient digit from the top limbs, then
           correct the (rare) off-by-one-or-two overshoot. *)
        let num = (u.(j + lb) lsl limb_bits) lor u.(j + lb - 1) in
        let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
        let adjusting = ref true in
        while
          !adjusting
          && (!qhat >= limb_base
             || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + lb - 2))
        do
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= limb_base then adjusting := false
        done;
        (* D4: u[j..j+lb] -= qhat * v, fused multiply-subtract. *)
        let mul_carry = ref 0 and borrow = ref 0 in
        for i = 0 to lb - 1 do
          let p = (!qhat * v.(i)) + !mul_carry in
          mul_carry := p lsr limb_bits;
          let d = u.(i + j) - (p land limb_mask) - !borrow in
          if d < 0 then begin
            u.(i + j) <- d + limb_base;
            borrow := 1
          end
          else begin
            u.(i + j) <- d;
            borrow := 0
          end
        done;
        let d = u.(j + lb) - !mul_carry - !borrow in
        if d < 0 then begin
          (* D6: estimate was one too large — add the divisor back. *)
          u.(j + lb) <- d + limb_base;
          decr qhat;
          let add_carry = ref 0 in
          for i = 0 to lb - 1 do
            let x = u.(i + j) + v.(i) + !add_carry in
            u.(i + j) <- x land limb_mask;
            add_carry := x lsr limb_bits
          done;
          u.(j + lb) <- (u.(j + lb) + !add_carry) land limb_mask
        end
        else u.(j + lb) <- d;
        q.(j) <- !qhat
      done;
      (* D8: denormalize the remainder. *)
      (normalize q, shift_right (normalize (Array.sub u 0 lb)) s)
    end
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)
let is_even (a : t) = is_zero a || a.(0) land 1 = 0
let mod_add m a b = rem (add a b) m
let mod_mul m a b = rem (mul a b) m

(* Modular exponentiation, square-and-multiply MSB-first. Kept as the
   reference implementation: [mod_pow] below dispatches here for even
   moduli, and the differential property tests pin the Montgomery path
   against this one. *)
let mod_pow_schoolbook ~modulus base exp =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let base = rem base modulus in
    let result = ref one in
    for i = num_bits exp - 1 downto 0 do
      result := mod_mul modulus !result !result;
      if test_bit exp i then result := mod_mul modulus !result base
    done;
    !result
  end

(* Montgomery arithmetic for odd moduli. Every RSA private operation is a
   long chain of multiplications mod the same n; schoolbook [mod_mul] pays
   a full Knuth-D division per product. REDC replaces the division with two
   half-products and a shift: with R = 2^(30k) for a k-limb modulus,
   mont_mul computes a*b*R^-1 mod m in one fused pass (FIOS), squarings
   included, so only the entry (to Montgomery form) and exit (final REDC
   by 1) touch [divmod] at all.

   The kernel indexes with [Array.unsafe_get]/[unsafe_set], as sha1.ml
   does: every array it touches is allocated in this module at a fixed
   width — k limbs for operands and results, k+1 for the scratch buffer —
   and the loop bounds never exceed it. The result is written only after
   the last read of the operands, so [out] may alias [a] or [b]. *)
module Montgomery = struct
  type ctx = {
    m : t; (* odd modulus, also the limb array of length k *)
    k : int;
    m0' : int; (* -m^-1 mod 2^30, for the REDC quotient digit *)
    r2 : t; (* R^2 mod m: multiplying by it (via mont_mul) enters Montgomery form *)
  }

  let ctx ~modulus:(m : t) =
    if is_zero m || is_even m then invalid_arg "Bignum.Montgomery.ctx: modulus must be odd";
    if equal m one then invalid_arg "Bignum.Montgomery.ctx: modulus must exceed 1";
    let k = Array.length m in
    (* m.(0)^-1 mod 2^30 by Hensel lifting: x <- x*(2 - m0*x) doubles the
       number of correct low bits each step; m0 itself is correct mod 8. *)
    let m0 = m.(0) in
    let inv = ref m0 in
    for _ = 1 to 5 do
      inv := (!inv * (2 - (m0 * !inv))) land limb_mask
    done;
    let m0' = (limb_base - !inv) land limb_mask in
    let r2 = rem (shift_left one (2 * k * limb_bits)) m in
    { m; k; m0'; r2 }

  (* out <- the (k+1)-limb value t[0 .. k] reduced mod m, given that it is
     below 2m: one conditional subtraction. *)
  let final_sub c (t : int array) (out : int array) =
    let k = c.k and m = c.m in
    let i = ref (k - 1) in
    while !i >= 0 && Array.unsafe_get t !i = Array.unsafe_get m !i do
      decr i
    done;
    if Array.unsafe_get t k > 0 || !i < 0 || Array.unsafe_get t !i > Array.unsafe_get m !i then begin
      let borrow = ref 0 in
      for j = 0 to k - 1 do
        let d = Array.unsafe_get t j - Array.unsafe_get m j - !borrow in
        Array.unsafe_set out j (d land limb_mask);
        borrow := if d < 0 then 1 else 0
      done
    end
    else Array.blit t 0 out 0 k

  (* out <- a*b*R^-1 mod m, operand and reduction products fused in one
     inner loop (FIOS). [a], [b], [out] are k-limb arrays with values < m;
     [tmp] holds at least k+1 limbs. An inner step sums a limb, two
     30x30-bit products and a carry below 2^32: under 2^62, inside a
     native int. Each outer step leaves the running value below 2m, so
     one conditional subtraction at the end lands the result below m. *)
  let mont_mul c (a : int array) (b : int array) (out : int array) (tmp : int array) =
    let k = c.k and m = c.m and m0' = c.m0' in
    Array.fill tmp 0 (k + 1) 0;
    let b0 = Array.unsafe_get b 0 and m0 = Array.unsafe_get m 0 in
    for i = 0 to k - 1 do
      let ai = Array.unsafe_get a i in
      let x0 = Array.unsafe_get tmp 0 + (ai * b0) in
      (* Only the low 30 bits of the product matter; the wrap is harmless. *)
      let u = (x0 * m0') land limb_mask in
      let carry = ref ((x0 + (u * m0)) lsr limb_bits) in
      for j = 1 to k - 1 do
        let x = Array.unsafe_get tmp j + (ai * Array.unsafe_get b j) + (u * Array.unsafe_get m j) + !carry in
        Array.unsafe_set tmp (j - 1) (x land limb_mask);
        carry := x lsr limb_bits
      done;
      let x = Array.unsafe_get tmp k + !carry in
      Array.unsafe_set tmp (k - 1) (x land limb_mask);
      Array.unsafe_set tmp k (x lsr limb_bits)
    done;
    final_sub c tmp out

  (* Zero-extend a value < m to the fixed k-limb width the kernel expects. *)
  let limbs k (a : t) =
    let out = Array.make k 0 in
    Array.blit a 0 out 0 (Array.length a);
    out

  (* Sliding-window size by exponent width: the odd-powers table costs
     2^(w-1) mont_muls up front and saves roughly one multiply per w-1
     squarings, so wider windows only pay off for longer exponents. *)
  let window_bits ebits = if ebits <= 24 then 1 else if ebits <= 96 then 3 else if ebits <= 512 then 4 else 5

  (* base^exp in Montgomery form, as a fresh k-limb array, for base < m and
     exp > 0. [scratch] holds at least k+1 limbs. *)
  let pow_mont c base exp scratch =
    let k = c.k in
    let e_bits = num_bits exp in
    let g = Array.make k 0 in
    mont_mul c (limbs k base) (limbs k c.r2) g scratch;
    let w = window_bits e_bits in
    (* tbl.(i) = g^(2i+1) in Montgomery form. *)
    let tbl = Array.make (1 lsl (w - 1)) g in
    if w > 1 then begin
      let g2 = Array.make k 0 in
      mont_mul c g g g2 scratch;
      for i = 1 to Array.length tbl - 1 do
        let gi = Array.make k 0 in
        mont_mul c tbl.(i - 1) g2 gi scratch;
        tbl.(i) <- gi
      done
    end;
    let acc = Array.make k 0 in
    let started = ref false in
    let i = ref (e_bits - 1) in
    while !i >= 0 do
      if not (test_bit exp !i) then begin
        if !started then mont_mul c acc acc acc scratch;
        decr i
      end
      else begin
        (* Largest window [j..i] of width <= w ending on a set bit:
           its value is odd, so it indexes the odd-powers table. *)
        let lo = max 0 (!i - w + 1) in
        let j = ref lo in
        while not (test_bit exp !j) do
          incr j
        done;
        let v = ref 0 in
        for b = !i downto !j do
          v := (!v lsl 1) lor (if test_bit exp b then 1 else 0)
        done;
        if !started then begin
          for _ = 1 to !i - !j + 1 do
            mont_mul c acc acc acc scratch
          done;
          mont_mul c acc tbl.(!v lsr 1) acc scratch
        end
        else begin
          Array.blit tbl.(!v lsr 1) 0 acc 0 k;
          started := true
        end;
        i := !j - 1
      end
    done;
    acc

  let mod_pow c base exp =
    if is_zero exp then rem one c.m
    else begin
      let base = rem base c.m in
      if is_zero base then zero
      else begin
        let scratch = Array.make (c.k + 1) 0 in
        let acc = pow_mont c base exp scratch in
        (* Exit Montgomery form: multiply by 1 is a bare REDC. *)
        mont_mul c acc (limbs c.k one) acc scratch;
        normalize acc
      end
    end
end

(* Modular exponentiation: Montgomery + sliding window for odd moduli
   (every RSA modulus and prime factor), schoolbook square-and-multiply
   otherwise. Results are bit-identical across the two paths. The context
   is built per call: its one division (R^2 mod m) is small beside even
   the 17-bit public-exponent exponentiation, and a per-call context
   shares no state between callers. *)
let mod_pow ~modulus base exp =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else if is_even modulus then mod_pow_schoolbook ~modulus base exp
  else Montgomery.mod_pow (Montgomery.ctx ~modulus) base exp

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* [p*x + q*y] when [sign = 1], [p*x - q*y] when [sign = -1] (the caller
   knows the difference is non-negative), for native multipliers
   0 <= p, q < 2^61. Each product runs its own carry chain over the
   multiplier's two halves (a limb times the 31-bit high half stays below
   2^61, so a chain's accumulator stays below 2^62); the two chains'
   limbs are then added or subtracted with a carry in {-1, 0, 1}. *)
let lin_comb (x : t) p (y : t) q ~sign : t =
  let lx = Array.length x and ly = Array.length y in
  let n = max lx ly + 3 in
  let out = Array.make n 0 in
  let p_lo = p land limb_mask and p_hi = p lsr limb_bits in
  let q_lo = q land limb_mask and q_hi = q lsr limb_bits in
  let limb a la i = if i >= 0 && i < la then Array.unsafe_get a i else 0 in
  let cx = ref 0 and cy = ref 0 and c = ref 0 in
  for i = 0 to n - 1 do
    let px = (p_lo * limb x lx i) + (p_hi * limb x lx (i - 1)) + !cx in
    let py = (q_lo * limb y ly i) + (q_hi * limb y ly (i - 1)) + !cy in
    cx := px lsr limb_bits;
    cy := py lsr limb_bits;
    let d = (px land limb_mask) + (sign * (py land limb_mask)) + !c in
    out.(i) <- d land limb_mask;
    c := d asr limb_bits
  done;
  (* A borrow out of the top limb means a negative result: a quotient
     taken as certain was wrong. Fail rather than loop on garbage. *)
  assert (!c = 0);
  normalize out

(* The 60 bits of [a] from bit [s] up; [a] has at most [s + 60] bits.
   A limb read at offset [30 - off] or [60 - off] lands inside the 60-bit
   window because every bit of [a] above [s + 60] is zero. *)
let bits60 (a : t) s =
  let i = s / limb_bits and off = s mod limb_bits in
  let la = Array.length a in
  let limb j = if j < la then a.(j) else 0 in
  (limb i lsr off) lor (limb (i + 1) lsl (limb_bits - off)) lor (limb (i + 2) lsl ((2 * limb_bits) - off))

(* Modular inverse of [a] mod [m] by Lehmer's extended Euclid (Knuth
   4.5.2, Algorithm L). The remainder sequence r_0 = m, r_1 = a mod m, ...
   is the one of the textbook Euclid, and so are its cofactors s_i (with
   r_i = s_i * a mod m); the s_i alternate in sign (s_1 = 1, s_2 = -q_1,
   ...), so only their magnitudes are kept, and the sign of the last one
   follows from its index's parity.

   Each round reads the top 60 bits of both remainders at the same shift
   and runs Euclid on them in native ints, accumulating the 2x2 matrix
   [[a; b]; [c; d]] of the steps taken, for as long as both bounds on the
   true quotient, (u + a) / (v + c) and (u + b) / (v + d), give the same
   floor: those quotients are then exactly the bignum ones. The matrix is
   applied to the bignum remainders and cofactor magnitudes in one pass
   each; when the very first quotient is uncertain (the matrix stays the
   identity), one [divmod] step runs instead. Once the larger remainder
   fits in 61 bits, native Euclid finishes the sequence. Returns [None]
   when gcd(a, m) <> 1. *)
let mod_inverse ~modulus:m a =
  (* Remainders u > v >= 0 at indices i and i+1, cofactor magnitudes s0, s1. *)
  let rec loop u v s0 s1 i =
    let nu = num_bits u in
    if nu <= 61 then finish (Option.get (to_int_opt u)) (Option.get (to_int_opt v)) s0 s1 i
    else if is_zero v then None (* gcd = u > 1 *)
    else begin
      let sh = nu - 60 in
      let uh = ref (bits60 u sh) and vh = ref (bits60 v sh) in
      let ma = ref 1 and mb = ref 0 and mc = ref 0 and md = ref 1 and k = ref 0 in
      let certain = ref true in
      while !certain do
        let vc = !vh + !mc and vd = !vh + !md and ua = !uh + !ma and ub = !uh + !mb in
        if vc <= 0 || vd <= 0 || ua < 0 || ub < 0 then certain := false
        else begin
          let q = ua / vc in
          if q <> ub / vd then certain := false
          else begin
            let t = !ma - (q * !mc) in
            ma := !mc;
            mc := t;
            let t = !mb - (q * !md) in
            mb := !md;
            md := t;
            let t = !uh - (q * !vh) in
            uh := !vh;
            vh := t;
            incr k
          end
        end
      done;
      if !mb = 0 then begin
        let q, r = divmod u v in
        loop v r s1 (add s0 (mul q s1)) (i + 1)
      end
      else begin
        (* After k steps the signs are (a, b, c, d) = (+, -, -, +) for even
           k and (-, +, +, -) for odd k. *)
        let a = abs !ma and b = abs !mb and c = abs !mc and d = abs !md in
        let u', v' =
          if !k land 1 = 0 then (lin_comb u a v b ~sign:(-1), lin_comb v d u c ~sign:(-1))
          else (lin_comb v b u a ~sign:(-1), lin_comb u c v d ~sign:(-1))
        in
        loop u' v' (lin_comb s0 a s1 b ~sign:1) (lin_comb s0 c s1 d ~sign:1) (i + !k)
      end
    end
  (* Native Euclid on u > v >= 0, both below 2^61: every matrix entry is
     bounded by the starting u, so nothing overflows. *)
  and finish u v s0 s1 i =
    let u = ref u and v = ref v and ma = ref 1 and mb = ref 0 and mc = ref 0 and md = ref 1 in
    let k = ref 0 in
    while !v <> 0 do
      let q = !u / !v in
      let t = !u - (q * !v) in
      u := !v;
      v := t;
      let t = !ma - (q * !mc) in
      ma := !mc;
      mc := t;
      let t = !mb - (q * !md) in
      mb := !md;
      md := t;
      incr k
    done;
    if !u <> 1 then None
    else begin
      (* s_n for the last index n: positive exactly when n is odd, and
         |s_n| <= m / r_(n-1) <= m / 2 unless n = 1, where s_1 = 1. *)
      let s = lin_comb s0 (abs !ma) s1 (abs !mb) ~sign:1 in
      Some (if (i + !k) land 1 = 1 then s else sub m s)
    end
  in
  let a = rem a m in
  if is_zero a then None else loop m a zero one 0

(* Big-endian byte-string conversions (the TPM wire format for keys). Both
   directions stream bits through a native-int accumulator: bytes are
   packed straight into 30-bit limbs, and limbs are peeled straight back
   into bytes, in one linear pass. The accumulator never holds more than
   a limb plus a byte (38 bits). *)
let of_bytes_be (s : string) : t =
  let n = String.length s in
  let out = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and j = ref 0 in
  for i = n - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      out.(!j) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits;
      incr j
    end
  done;
  if !bits > 0 then out.(!j) <- !acc;
  normalize out

(* [a] into [width] big-endian bytes, left-padded with zeros; the caller
   checks that [a] fits. *)
let write_be (a : t) width =
  let out = Bytes.make width '\x00' in
  let acc = ref 0 and bits = ref 0 and pos = ref (width - 1) in
  Array.iter
    (fun limb ->
      acc := !acc lor (limb lsl !bits);
      bits := !bits + limb_bits;
      while !bits >= 8 && !pos >= 0 do
        Bytes.set out !pos (Char.unsafe_chr (!acc land 0xff));
        acc := !acc lsr 8;
        bits := !bits - 8;
        decr pos
      done)
    a;
  (* At most one byte is left, holding the top bits of the last limb. *)
  if !pos >= 0 then Bytes.set out !pos (Char.unsafe_chr !acc);
  Bytes.unsafe_to_string out

(* Bytes of the minimal encoding; zero takes one byte. *)
let byte_width (a : t) = if is_zero a then 1 else (num_bits a + 7) / 8
let to_bytes_be (a : t) : string = write_be a (byte_width a)

(* Fixed-width big-endian encoding, left-padded with zeros. *)
let to_bytes_be_padded (a : t) ~width =
  if byte_width a > width then invalid_arg "Bignum.to_bytes_be_padded: value too wide" else write_be a width

let to_hex a = Vtpm_util.Hex.encode (to_bytes_be a)

(* Uniformly random value with exactly [bits] bits (top bit set). *)
let random_bits rng ~bits =
  if bits <= 0 then invalid_arg "Bignum.random_bits";
  let nbytes = (bits + 7) / 8 in
  let raw = Bytes.of_string (Vtpm_util.Rng.bytes rng nbytes) in
  (* Clear excess high bits, then force the top bit. *)
  let excess = (nbytes * 8) - bits in
  let top = Char.code (Bytes.get raw 0) land (0xff lsr excess) in
  let top = top lor (1 lsl (7 - excess)) in
  Bytes.set raw 0 (Char.chr top);
  of_bytes_be (Bytes.unsafe_to_string raw)

(* Uniformly random in [lo, hi) by rejection. *)
let random_range rng ~lo ~hi =
  if compare lo hi >= 0 then invalid_arg "Bignum.random_range";
  let span = sub hi lo in
  let bits = num_bits span in
  let rec draw () =
    let nbytes = (bits + 7) / 8 in
    let raw = Bytes.of_string (Vtpm_util.Rng.bytes rng nbytes) in
    let excess = (nbytes * 8) - bits in
    Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land (0xff lsr excess)));
    let v = of_bytes_be (Bytes.unsafe_to_string raw) in
    if compare v span < 0 then add lo v else draw ()
  in
  draw ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97 ]

(* [a mod p] for a small native [p] (p < 2^32), one pass over the limbs. *)
let rem_int (a : t) p =
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := ((!r lsl limb_bits) lor a.(i)) mod p
  done;
  !r

(* Miller–Rabin probabilistic primality test. Trial division runs on native
   ints; each witness's exponentiation and its squarings stay in
   Montgomery form under one context per candidate, compared against the
   Montgomery images of 1 and n-1 (R mod n and (n-1)R mod n). The RNG is
   drawn exactly as by the textbook version: one [random_range] per round,
   stopping at the first witness of compositeness. *)
let is_probable_prime ?(rounds = 16) rng (n : t) =
  if compare n two < 0 then false
  else if compare n (of_int 4) < 0 then true (* 2 and 3 *)
  else if is_even n then false
  else if List.exists (fun p -> (Array.length n > 1 || p < n.(0)) && rem_int n p = 0) small_primes then false
  else begin
    let c = Montgomery.ctx ~modulus:n in
    let k = Array.length n in
    let scratch = Array.make (k + 1) 0 in
    let one_m = Array.make k 0 in
    Montgomery.(mont_mul c (limbs k one) (limbs k c.r2) one_m scratch);
    let minus_one_m = Montgomery.limbs k (sub n (normalize one_m)) in
    let n_minus_1 = sub n one in
    (* n - 1 = d * 2^s with d odd *)
    let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n_minus_1 0 in
    let witness a =
      let x = Montgomery.pow_mont c a d scratch in
      if x = one_m || x = minus_one_m then false
      else begin
        let composite = ref true and i = ref 1 in
        while !composite && !i < s do
          Montgomery.mont_mul c x x x scratch;
          if x = minus_one_m then composite := false;
          incr i
        done;
        !composite
      end
    in
    let rec rounds_left k =
      if k = 0 then true
      else begin
        let a = random_range rng ~lo:two ~hi:n_minus_1 in
        if witness a then false else rounds_left (k - 1)
      end
    in
    rounds_left rounds
  end

(* Random probable prime of exactly [bits] bits. An odd [bits]-bit
   candidate is prime with probability about 2 / (bits ln 2), so a correct
   test misses [64 * bits] candidates in a row with probability about
   e^-184: running out means the primality test or the codec is broken,
   and the search fails instead of spinning. *)
let random_prime rng ~bits =
  if bits < 2 then invalid_arg "Bignum.random_prime: need at least 2 bits";
  let rec search left =
    if left = 0 then failwith "Bignum.random_prime: no prime among the candidates";
    let cand = random_bits rng ~bits in
    let cand = if is_even cand then add cand one else cand in
    if is_probable_prime rng cand then cand else search (left - 1)
  in
  search (64 * bits)
