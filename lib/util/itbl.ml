(* Int-keyed hash tables with the identity hash: a lookup is a mask and a
   bucket walk, with no call into the polymorphic hash and no boxed key.
   Dense ids (domids, ports, grant refs, slot ids) spread evenly. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k land max_int
end)
