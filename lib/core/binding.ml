(* The vTPM binding table: instance <-> domain, established at build time.

   The 2006 manager resolved "which vTPM?" from the instance number in the
   request frame, and the toolstack kept the association in XenStore —
   both writable by any dom0 tool. The binding table is the improved
   design's authoritative association: it lives inside the manager
   process, is keyed by the hypervisor-attested sender domid, and changes
   only through authorized management operations.

   Each binding also records the guest's kernel digest at bind time as
   the reference measurement for `when measured` policy guards. *)

type binding = {
  vtpm_id : int;
  domid : Vtpm_xen.Domain.domid;
  reference_measurement : string; (* guest kernel digest at bind time *)
  bound_at : float;
}

type t = {
  by_domid : (Vtpm_xen.Domain.domid, binding) Hashtbl.t;
  by_instance : (int, binding) Hashtbl.t;
  cost : Vtpm_util.Cost.t;
  mutable generation : int; (* bumped by every bind and unbind *)
}

let create ~cost =
  { by_domid = Hashtbl.create 16; by_instance = Hashtbl.create 16; cost; generation = 0 }

let generation t = t.generation

let bind t ~vtpm_id ~domid ~reference_measurement : (binding, Vtpm_util.Verror.t) result =
  if Hashtbl.mem t.by_domid domid then
    Vtpm_util.Verror.conflict "domain %d already has a vTPM binding" domid
  else if Hashtbl.mem t.by_instance vtpm_id then
    Vtpm_util.Verror.conflict "vTPM %d already bound" vtpm_id
  else begin
    let b = { vtpm_id; domid; reference_measurement; bound_at = Vtpm_util.Cost.now t.cost } in
    Hashtbl.replace t.by_domid domid b;
    Hashtbl.replace t.by_instance vtpm_id b;
    t.generation <- t.generation + 1;
    Ok b
  end

let unbind t ~domid =
  match Hashtbl.find_opt t.by_domid domid with
  | None -> ()
  | Some b ->
      Hashtbl.remove t.by_domid domid;
      Hashtbl.remove t.by_instance b.vtpm_id;
      t.generation <- t.generation + 1

let lookup_domid t domid = Hashtbl.find_opt t.by_domid domid
let lookup_instance t vtpm_id = Hashtbl.find_opt t.by_instance vtpm_id
let bindings t = Hashtbl.fold (fun _ b acc -> b :: acc) t.by_domid []
