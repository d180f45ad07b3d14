(** Grant tables: page sharing with explicit, revocable permission.

    A domain grants a *specific* foreign domain access to one of its
    frames; the hypervisor enforces that only the named grantee maps it —
    a third domain holding a guessed reference gets nothing. *)

type gref = int

type access = Read_only | Read_write

type t

val create : unit -> t

val version : t -> int
(** Bumped by every mutation: grant, map, unmap, revoke, force-revoke,
    remap and {!revoke_all_for}. While it is unchanged, every
    {!inspect} answer is unchanged too. *)

val grant_access : t -> owner:Domain.domid -> grantee:Domain.domid -> frame:int -> access:access -> gref

val map : t -> caller:Domain.domid -> owner:Domain.domid -> gref:gref -> (int * access, string) result
(** Map a foreign frame; the caller must be the named grantee. Returns the
    frame number in the owner's space. *)

val unmap : t -> caller:Domain.domid -> owner:Domain.domid -> gref:gref -> (unit, string) result
(** Drop the grantee's mapping. Fails for an unknown grant, a caller that
    is not the named grantee, or a grant that is not currently mapped — a
    silently ignored unmap is how a revoke-while-mapped becomes an
    unnoticed use-after-revoke. *)

val revoke : t -> owner:Domain.domid -> gref:gref -> (unit, string) result
(** End a grant; fails while the grantee still has it mapped (as real
    gnttab end-foreign-access must wait). Idempotent once revoked. *)

val force_revoke : t -> owner:Domain.domid -> gref:gref -> (unit, string) result
(** The misbehaving-owner variant: revoke even while the grantee still
    has the page mapped. The mapping side must detect this before
    trusting the page again (the driver's transport-integrity check). *)

val remap : t -> owner:Domain.domid -> gref:gref -> frame:int -> (unit, string) result
(** Hetzelt-style page remapping: point the grant at a different backing
    frame while mappings stay live. Callers go through
    {!Hypervisor.remap_grant}, which enforces dom0 privilege. *)

val inspect : t -> owner:Domain.domid -> gref:gref -> (int * bool * bool) option
(** [(frame, in_use, revoked)] — the mapping side's integrity view. *)

val revoke_all_for : t -> Domain.domid -> unit
