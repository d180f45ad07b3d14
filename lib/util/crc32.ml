(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

   Frame-integrity checksum for the vTPM transport protocol: cheap enough
   to charge on every ring slot, strong enough to catch the byte flips and
   truncations the fault injector produces. Not a MAC — an adversary can
   forge it; adversarial integrity is the sealed-state layer's job.

   The register is a native int holding 32 significant bits, so the loop
   allocates nothing (boxed [Int32] arithmetic allocated on every byte). *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let sub (s : string) ~pos ~len : int =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.sub";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let digest (s : string) : int32 = Int32.of_int (sub s ~pos:0 ~len:(String.length s))
