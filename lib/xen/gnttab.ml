(* Grant tables: page sharing with explicit, revocable permission.

   A domain grants a specific foreign domain access to one of its frames;
   the grantee maps it by (granter, gref). The hypervisor enforces that
   only the named grantee maps the grant — a third domain holding a
   guessed gref gets nothing, which the unauthorized-mapping attack test
   verifies. *)

type gref = int

type access = Read_only | Read_write

module Itbl = Vtpm_util.Itbl

type grant = {
  gref : gref;
  owner : Domain.domid;
  grantee : Domain.domid;
  mutable frame : int; (* backing frame; only a remap moves it *)
  access : access;
  mutable in_use : bool; (* currently mapped by grantee *)
  mutable revoked : bool;
}

(* One domain's side of the table: the grants it owns, by ref, and the
   grants naming it as grantee — so a teardown touches only its own. *)
type dom = { owned : grant Itbl.t; mutable next_ref : gref; mutable received : grant list }

type t = {
  doms : dom Itbl.t;
  mutable version : int; (* bumped by every mutation of a grant *)
}

let create () = { doms = Itbl.create 32; version = 0 }

let dom t domid =
  match Itbl.find_opt t.doms domid with
  | Some d -> d
  | None ->
      let d = { owned = Itbl.create 4; next_ref = 1; received = [] } in
      Itbl.replace t.doms domid d;
      d

(* Grants are never removed and refs never reused, so the record found
   for (owner, gref) stays that grant's record. *)
let lookup t ~owner ~gref =
  match Itbl.find_opt t.doms owner with None -> None | Some d -> Itbl.find_opt d.owned gref

(* A mapping side that checked every grant it cares about at version v
   knows none of them has changed while the version still reads v. *)
let version t = t.version
let bump t = t.version <- t.version + 1

let grant_access t ~owner ~grantee ~frame ~access : gref =
  bump t;
  let d = dom t owner in
  let r = d.next_ref in
  d.next_ref <- r + 1;
  let g = { gref = r; owner; grantee; frame; access; in_use = false; revoked = false } in
  Itbl.replace d.owned r g;
  let gd = dom t grantee in
  gd.received <- g :: gd.received;
  r

(* Map a foreign frame: the caller must be the named grantee. Returns the
   frame number in the owner's space (the simulation reads/writes through
   the owner's page table). *)
let map t ~caller ~owner ~gref : (int * access, string) result =
  match lookup t ~owner ~gref with
  | None -> Error (Printf.sprintf "no grant %d from domain %d" gref owner)
  | Some g ->
      if g.revoked then Error "grant revoked"
      else if g.grantee <> caller then
        Error (Printf.sprintf "grant %d from domain %d is for domain %d, not %d" gref owner g.grantee caller)
      else begin
        bump t;
        g.in_use <- true;
        Ok (g.frame, g.access)
      end

(* Unmapping is the grantee's own act; anyone else asking is a protocol
   violation and must hear about it — a silently ignored unmap is how a
   revoke-while-mapped turns into a use-after-revoke nobody noticed. *)
let unmap t ~caller ~owner ~gref : (unit, string) result =
  match lookup t ~owner ~gref with
  | None -> Error (Printf.sprintf "no grant %d from domain %d" gref owner)
  | Some g ->
      if g.grantee <> caller then
        Error
          (Printf.sprintf "grant %d from domain %d is mapped by domain %d, not %d" gref owner
             g.grantee caller)
      else if not g.in_use then
        Error (Printf.sprintf "grant %d from domain %d is not mapped" gref owner)
      else begin
        bump t;
        g.in_use <- false;
        Ok ()
      end

(* End a grant; fails while the grantee still has it mapped, as on real
   Xen where gnttab_end_foreign_access must wait. Idempotent on an
   already-revoked grant. *)
let revoke t ~owner ~gref : (unit, string) result =
  match lookup t ~owner ~gref with
  | None -> Error "no such grant"
  | Some g ->
      if g.in_use then Error "grant still mapped by grantee"
      else begin
        bump t;
        g.revoked <- true;
        Ok ()
      end

(* The misbehaving-owner variant: tear the grant away even while the
   grantee still has it mapped (what an owner yanking the page, or a
   rogue dom0 tool driving the owner's grant table, actually does). The
   mapping side must detect this before trusting the page again — the
   driver's transport-integrity check. *)
let force_revoke t ~owner ~gref : (unit, string) result =
  match lookup t ~owner ~gref with
  | None -> Error "no such grant"
  | Some g ->
      bump t;
      g.revoked <- true;
      Ok ()

(* Hetzelt-style page remapping: point the grant at a different backing
   frame. On real hardware this is a second-level address translation
   rewrite by a compromised hypervisor-side component; here it models the
   same capability — the grantee keeps reading and writing, but through a
   frame the adversary chose. *)
let remap t ~owner ~gref ~frame : (unit, string) result =
  match lookup t ~owner ~gref with
  | None -> Error "no such grant"
  | Some g ->
      bump t;
      g.frame <- frame;
      Ok ()

(* Integrity view for the mapping side: does the grant still exist, what
   frame does it back, is it revoked? The driver compares this against
   what it recorded at connect time. *)
let inspect t ~owner ~gref : (int * bool * bool) option =
  Option.map (fun g -> (g.frame, g.in_use, g.revoked)) (lookup t ~owner ~gref)

let frame g = g.frame
let mapped g = g.in_use
let revoked g = g.revoked

(* Revoke every grant [domid] owns or received (domain destruction); the
   rest of the table is not walked. *)
let revoke_all_for t domid =
  bump t;
  match Itbl.find_opt t.doms domid with
  | None -> ()
  | Some d ->
      Itbl.iter (fun _ g -> g.revoked <- true) d.owned;
      List.iter (fun g -> g.revoked <- true) d.received
