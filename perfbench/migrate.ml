(* migrate: a few guests' vTPMs moved back and forth between two
   improved-mode hosts with freshness enforcement, plus local sealed-state
   save/restore and periodic replays of a stale migration stream. Only the
   management path works here (Migration, Freshness, hw-TPM anchoring and
   unbind, Stateproc, XTEA/HMAC, instance creation); the guest request
   path is idle. This workload writes and moves state where the other two
   read it. *)

open Vtpm_access
module Manager = Vtpm_mgr.Manager

let guests = 4
let host_seeds = [| 31; 32 |]
let rsa_bits = 256
let audit_cap = 512

(* One round: seven migration hops, two save/restores and one replay of
   a stale stream, in a seeded order over seeded guests. *)
let round_plan = [| `Hop; `Hop; `Hop; `Hop; `Hop; `Hop; `Hop; `Save; `Save; `Replay |]

type guest = {
  idx : int;
  mutable holder : int;  (** index of the host holding the live instance *)
  mutable vtpm_id : int;
  lineage : string;  (** EK fingerprint: stable across every move *)
  mutable stale : (int * string) option;  (** a stream already admitted, and its destination *)
}

type ctx = {
  hosts : Host.t array;
  gs : guest array;
  mutable stream_bytes : int;
  mutable streams : int;
  mutable blob_bytes : int;
  mutable blobs : int;
  mutable replays_refused : int;
  create_guest_ms : float array;
  provision_ms : float array;
}

let mgmt h op = Host.management h ~process:Host.manager_process ~token:(Host.manager_token h) op

let instance (h : Host.t) vtpm_id =
  match Manager.find h.Host.mgr vtpm_id with Ok i -> Some i | Error _ -> None

(* What must survive every move: the 24 PCRs and the EK fingerprint. *)
let snapshot (inst : Manager.instance) =
  let e = inst.Manager.engine in
  ( List.init Vtpm_tpm.Types.pcr_count (fun i -> Result.get_ok (Vtpm_tpm.Engine.pcr_value e i)),
    Vtpm_mgr.Freshness.lineage e )

(* Active instances of [lineage] across both hosts. *)
let live_copies ctx lineage =
  Array.fold_left
    (fun acc (h : Host.t) ->
      List.fold_left
        (fun acc (i : Manager.instance) ->
          if i.Manager.state = Manager.Active
             && String.equal (Vtpm_mgr.Freshness.lineage i.Manager.engine) lineage
          then acc + 1
          else acc)
        acc (Manager.instances h.Host.mgr))
    0 ctx.hosts

let setup () =
  let hosts =
    Array.map
      (fun seed ->
        let h = Host.create ~seed ~rsa_bits () in
        let m = Host.monitor_exn h in
        Monitor.set_audit_cap m (Some audit_cap);
        (match Monitor.enable_freshness m with
        | Ok _ -> ()
        | Error e -> failwith ("enable_freshness: " ^ e));
        h)
      host_seeds
  in
  let create_guest_ms = Array.make guests 0.0 and provision_ms = Array.make guests 0.0 in
  let gs =
    Array.init guests (fun idx ->
        let t0 = Common.now_ns () in
        let g = Host.create_guest_exn hosts.(0) ~name:(Printf.sprintf "mig%d" idx) ~label:"tenant_m" () in
        let t1 = Common.now_ns () in
        (* Give every vTPM a distinct measured state worth preserving. *)
        let client = Host.guest_client hosts.(0) g in
        for pcr = 0 to 7 do
          let digest = String.init 20 (fun k -> Char.chr ((idx * 53 + pcr * 17 + k) land 0xff)) in
          match Vtpm_tpm.Client.extend client ~pcr ~digest with
          | Ok v -> Common.log "E %d %d %s %s" idx pcr (Common.hex digest) (Common.hex v)
          | Error e -> failwith (Fmt.str "provisioning extend: %a" Vtpm_tpm.Client.pp_error e)
        done;
        create_guest_ms.(idx) <- float_of_int (t1 - t0) /. 1e6;
        provision_ms.(idx) <- float_of_int (Common.now_ns () - t0) /. 1e6;
        let inst = Option.get (instance hosts.(0) g.Host.vtpm_id) in
        {
          idx;
          holder = 0;
          vtpm_id = g.Host.vtpm_id;
          lineage = Vtpm_mgr.Freshness.lineage inst.Manager.engine;
          stale = None;
        })
  in
  {
    hosts;
    gs;
    stream_bytes = 0;
    streams = 0;
    blob_bytes = 0;
    blobs = 0;
    replays_refused = 0;
    create_guest_ms;
    provision_ms;
  }

(* After a move: same PCRs and EK on the new copy, one live copy overall. *)
let check_moved ctx g ~what before =
  match instance ctx.hosts.(g.holder) g.vtpm_id with
  | None -> Common.fail "%s of m%d: no instance afterwards" what g.idx
  | Some inst ->
      if inst.Manager.state <> Manager.Active then Common.fail "%s of m%d: not active" what g.idx
      else if snapshot inst <> before then
        Common.fail "%s of m%d: PCRs or EK changed across the move" what g.idx
      else begin
        let n = live_copies ctx g.lineage in
        if n <> 1 then Common.fail "%s of m%d: %d live copies" what g.idx n
      end

(* One protected migration hop: [Migrate_out] on the holder, then
   [Migrate_in] on the other host. *)
let hop ctx g =
  let src = ctx.hosts.(g.holder) and dst_i = 1 - g.holder in
  let dst = ctx.hosts.(dst_i) in
  match instance src g.vtpm_id with
  | None -> Common.fail "hop of m%d: no source instance" g.idx
  | Some inst -> (
      let before = snapshot inst in
      let dest_key = Some (Vtpm_mgr.Migration.bind_pubkey dst.Host.mgr) in
      let result =
        Trace.op (fun () ->
            match
              Trace.span Trace.Mgmt_export (fun () ->
                  mgmt src (Monitor.Migrate_out { vtpm_id = g.vtpm_id; dest_key }))
            with
            | Ok (Monitor.M_blob stream) -> (
                match
                  Trace.span Trace.Mgmt_import (fun () -> mgmt dst (Monitor.Migrate_in { stream }))
                with
                | Ok (Monitor.M_instance id) -> Ok (stream, id)
                | Ok _ -> Error "unexpected migrate-in result"
                | Error e -> Error ("migrate-in: " ^ e))
            | Ok _ -> Error "unexpected migrate-out result"
            | Error e -> Error ("migrate-out: " ^ e))
      in
      match result with
      | Error e -> Common.fail "hop of m%d: %s" g.idx e
      | Ok (stream, id) ->
          ctx.stream_bytes <- ctx.stream_bytes + String.length stream;
          ctx.streams <- ctx.streams + 1;
          g.holder <- dst_i;
          g.vtpm_id <- id;
          g.stale <- Some (dst_i, stream);
          check_moved ctx g ~what:"hop" before)

(* Local sealed-state save and in-place restore, as [Host.suspend_vtpm]
   and [Host.resume_vtpm] do for a bound guest. *)
let save_restore ctx g =
  let h = ctx.hosts.(g.holder) in
  match instance h g.vtpm_id with
  | None -> Common.fail "save of m%d: no instance" g.idx
  | Some inst -> (
      let before = snapshot inst in
      let result =
        Trace.op (fun () ->
            match
              Trace.span Trace.Mgmt_save (fun () ->
                  mgmt h (Monitor.Save_instance { vtpm_id = g.vtpm_id }))
            with
            | Ok (Monitor.M_blob blob) ->
                inst.Manager.state <- Manager.Suspended;
                Result.map
                  (fun () -> blob)
                  (Trace.span Trace.State_restore (fun () ->
                       Vtpm_mgr.Stateproc.resume h.Host.mgr inst blob))
            | Ok _ -> Error "unexpected save result"
            | Error e -> Error e)
      in
      match result with
      | Error e -> Common.fail "save/restore of m%d: %s" g.idx e
      | Ok blob ->
          ctx.blob_bytes <- ctx.blob_bytes + String.length blob;
          ctx.blobs <- ctx.blobs + 1;
          check_moved ctx g ~what:"restore" before)

(* Replay a stream the destination already admitted: it must refuse it
   and create nothing. *)
let replay ctx g =
  match g.stale with
  | None -> Common.fail "replay of m%d: no stream captured yet" g.idx
  | Some (dst_i, stream) -> (
      let dst = ctx.hosts.(dst_i) in
      let before = List.length (Manager.instances dst.Host.mgr) in
      match Trace.op (fun () -> mgmt dst (Monitor.Migrate_in { stream })) with
      | Ok _ -> Common.fail "stale stream of m%d was admitted" g.idx
      | Error _ when List.length (Manager.instances dst.Host.mgr) <> before ->
          Common.fail "refused replay of m%d left an instance behind" g.idx
      | Error _ ->
          ctx.replays_refused <- ctx.replays_refused + 1;
          if live_copies ctx g.lineage <> 1 then
            Common.fail "replay of m%d: live copies changed" g.idx)

(* Warm-up: every guest hops once, so each has a stream to replay. *)
let warmup ctx = Array.iter (hop ctx) ctx.gs

let round ctx () =
  let plan = Array.copy round_plan in
  Common.shuffle plan;
  Array.iter
    (fun kind ->
      let g = ctx.gs.(Common.rand_int guests) in
      match kind with `Hop -> hop ctx g | `Save -> save_restore ctx g | `Replay -> replay ctx g)
    plan

let finish ctx =
  Array.iter
    (fun g -> Path.log_final_pcrs ctx.hosts.(g.holder).Host.mgr ~idx:g.idx ~vtpm_id:g.vtpm_id)
    ctx.gs;
  let total =
    Array.fold_left (fun a (h : Host.t) -> a + List.length (Manager.instances h.Host.mgr)) 0 ctx.hosts
  in
  Common.invariant (total = guests) "%d instances across both hosts for %d guests" total guests;
  Array.iter Path.check_audit_chain ctx.hosts;
  total

let sim_now ctx () = Array.fold_left (fun a h -> a +. Host.now_us h) 0.0 ctx.hosts

let report ctx ~instances =
  Common.metric "migration.export_us" (Trace.dur_us Trace.Mgmt_export);
  Common.metric "migration.import_us" (Trace.dur_us Trace.Mgmt_import);
  Common.metric "migration.stream_bytes" (Common.ratio ctx.stream_bytes ctx.streams);
  Common.metric "migration.replays_refused" (float_of_int ctx.replays_refused);
  Common.metric "state.save_us" (Trace.dur_us Trace.Mgmt_save);
  Common.metric "state.restore_us" (Trace.dur_us Trace.State_restore);
  Common.metric "state.blob_bytes" (Common.ratio ctx.blob_bytes ctx.blobs);
  Common.metric "manager.instances" (float_of_int instances)
