(** The vTPM binding table: instance ↔ domain, established at build time.

    The 2006 manager resolved "which vTPM?" from the instance number in
    the frame, with the association kept in XenStore — both writable by
    any dom0 tool. This table is the improved design's authoritative
    association: it lives inside the manager, is keyed by the
    hypervisor-attested sender, and changes only through authorized
    management operations. Each binding also records the guest's kernel
    digest at bind time — the reference for [when measured] guards. *)

type binding = {
  vtpm_id : int;
  domid : Vtpm_xen.Domain.domid;
  reference_measurement : string;
  bound_at : float;
}

type t

val create : cost:Vtpm_util.Cost.t -> t

val bind :
  t -> vtpm_id:int -> domid:Vtpm_xen.Domain.domid -> reference_measurement:string ->
  (binding, Vtpm_util.Verror.t) result
(** Fails with [Conflict] when either side is already bound. *)

val unbind : t -> domid:Vtpm_xen.Domain.domid -> unit

val generation : t -> int
(** Bumped by every {!bind} and {!unbind}: while it is unchanged, every
    lookup gives the same answer. *)

val lookup_domid : t -> Vtpm_xen.Domain.domid -> binding option
val lookup_instance : t -> int -> binding option
val bindings : t -> binding list
