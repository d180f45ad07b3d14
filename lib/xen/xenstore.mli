(** XenStore: the hierarchical configuration store shared by toolstack,
    backends and guests, modelled on oxenstored.

    Per-node permissions follow xenstored: an owner with full access, a
    default permission for everyone else, per-domain ACL overrides.
    Privileged callers (dom0) bypass all checks — faithfully reproducing
    the weakness the paper's improvement works around: any dom0 tool can
    rewrite the frontend/backend wiring of a vTPM. *)

type perm = Pnone | Pread | Pwrite | Prdwr

val perm_allows_read : perm -> bool
val perm_allows_write : perm -> bool
val perm_of_char : char -> perm option
val perm_to_char : perm -> char

type node = {
  mutable value : string;
  children : (string, node) Hashtbl.t;
  mutable owner : Domain.domid;
  mutable others : perm;
  mutable acl : (Domain.domid * perm) list;
}

type t = {
  root : node;
  mutable generation : int;
  mutable watches : watch list;
  is_privileged : Domain.domid -> bool;
}

and watch = { token : string; path : string list; callback : string -> unit }

val create : ?is_privileged:(Domain.domid -> bool) -> unit -> t
(** [is_privileged] defaults to [(=) 0]; the hypervisor installs its live
    domain table. *)

val split_path : string -> string list
val join_path : string list -> string

type error = Eacces | Enoent | Eexist | Einval | Eagain

val error_name : error -> string

(** {1 Operations}

    All take the acting domain as [~caller] and enforce node permissions
    (modulo the dom0 bypass). *)

val read : t -> caller:Domain.domid -> string -> (string, error) result
val directory : t -> caller:Domain.domid -> string -> (string list, error) result

type cursor
(** A path split once and kept with the node it last resolved to,
    stamped with [generation]. {!write}, {!rm} and {!set_perms} bump the
    generation, so while it is unchanged the node is still the one at
    the path. *)

val cursor : string -> cursor

val read_at : t -> caller:Domain.domid -> cursor -> (string, error) result
(** {!read} through a cursor: the same result for the same store state.
    The path is walked again only when the generation has moved since the
    cursor last resolved it; value and permissions are always read from
    the node live. *)

val write : t -> caller:Domain.domid -> string -> string -> (unit, error) result
(** Creates intermediate nodes (mkdir-on-write); created nodes are owned
    by the caller and inherit the parent's default permission and ACL. *)

val mkdir : t -> caller:Domain.domid -> string -> (unit, error) result
val rm : t -> caller:Domain.domid -> string -> (unit, error) result

val get_perms :
  t -> caller:Domain.domid -> string -> (Domain.domid * perm * (Domain.domid * perm) list, error) result

val set_perms :
  t ->
  caller:Domain.domid ->
  string ->
  owner:Domain.domid ->
  others:perm ->
  acl:(Domain.domid * perm) list ->
  (unit, error) result
(** Only the node owner or dom0 may change permissions. *)

(** {1 Watches}

    Fire on any mutation at or below the watched path. *)

val watch : t -> token:string -> path:string -> (string -> unit) -> unit
val unwatch : t -> token:string -> unit

(** {1 Transactions}

    Optimistic: writes are buffered; commit fails with [Eagain] if the
    store generation moved underneath (the caller retries, as real
    xenstore clients do). *)

type transaction

val tx_begin : t -> caller:Domain.domid -> transaction
val tx_write : transaction -> string -> string -> unit
val tx_rm : transaction -> string -> unit
val tx_commit : t -> transaction -> (unit, error) result
