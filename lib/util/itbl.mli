(** Hash tables keyed by a plain [int]: the key is its own hash, so a
    lookup runs no polymorphic hash and allocates no boxed key. For
    tables on per-request paths (event channels, grants, ring slots). *)

include Hashtbl.S with type key = int
