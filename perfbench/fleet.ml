(* pcr-fleet: measured-boot traffic from a large guest fleet on a sharded
   host behind a ~1k-rule measurement-guarded policy. The per-request path
   (ring, XenStore, backend pump, monitor decision, audit append) does
   almost all the work; crypto almost none. *)

open Vtpm_access
module Client = Vtpm_tpm.Client

let guests = 128
let groups = [| "tenant_a"; "tenant_b"; "tenant_c"; "tenant_d" |]
let rules = 1000
let host_seed = 13
let rsa_bits = 256
let audit_cap = 8192

(* Measured boot at provisioning: PCRs 0-3 get one fixed measurement each
   (firmware, bootloader, kernel, initrd), the same in every run. *)
let boot_pcrs = 4

type guest = { g : Host.guest; idx : int; client : Client.t }

type ctx = {
  host : Host.t;
  fleet : guest array;
  mutable requests : int;  (** requests the benchmark sent through the split driver *)
  mutable probes : int;
  create_guest_ms : float array;
  provision_ms : float array;
}

let boot_digest i pcr =
  String.init 20 (fun k -> Char.chr ((i * 131 + pcr * 29 + k * 7 + 11) land 0xff))

(* Extend through the guest's client and record input and output for the
   oracle. [run] is [op] for traffic and a plain call for provisioning. *)
let extend ?(run = Trace.op) ctx (gu : guest) ~pcr ~digest =
  ctx.requests <- ctx.requests + 1;
  match run (fun () -> Client.extend gu.client ~pcr ~digest) with
  | Ok v -> Common.log "E %d %d %s %s" gu.idx pcr (Common.hex digest) (Common.hex v)
  | Error e -> Common.fail "extend g%d pcr%d: %s" gu.idx pcr (Fmt.str "%a" Client.pp_error e)

let setup ~mode () =
  let policy = Policy.synthetic_guarded ~n:rules in
  let host = Host.create ~mode ~seed:host_seed ~rsa_bits ~policy () in
  (match host.Host.monitor with Some m -> Monitor.set_audit_cap m (Some audit_cap) | None -> ());
  ignore (Host.enable_sharding host ~lanes_per_shard:2 ());
  let create_guest_ms = Array.make guests 0.0 and provision_ms = Array.make guests 0.0 in
  let ctx = { host; fleet = [||]; requests = 0; probes = 0; create_guest_ms; provision_ms } in
  let fleet =
    Array.init guests (fun idx ->
        let t0 = Common.now_ns () in
        let g =
          Host.create_guest_exn host ~name:(Printf.sprintf "vm%03d" idx)
            ~label:groups.(idx mod Array.length groups) ()
        in
        let t1 = Common.now_ns () in
        let gu = { g; idx; client = Path.client host g ~seed:(1000 + idx) } in
        for pcr = 0 to boot_pcrs - 1 do
          extend ~run:(fun f -> f ()) ctx gu ~pcr ~digest:(boot_digest idx pcr)
        done;
        create_guest_ms.(idx) <- float_of_int (t1 - t0) /. 1e6;
        provision_ms.(idx) <- float_of_int (Common.now_ns () - t0) /. 1e6;
        gu)
  in
  { ctx with fleet }

(* One round: one command per guest, round-robin, each drawn from the
   measured-boot mix; about one in twenty is a guest [TPM_SaveState]
   probe the policy must deny. *)
let round ~expect_denied ctx () =
  Array.iter
    (fun gu ->
      let roll = Common.rand_int 100 in
      if roll >= 40 then ctx.requests <- ctx.requests + 1;
      if roll < 40 then extend ctx gu ~pcr:(8 + Common.rand_int 8) ~digest:(Common.rand_bytes 20)
      else if roll < 80 then begin
        let pcr = Common.rand_int 16 in
        match Trace.op (fun () -> Client.pcr_read gu.client ~pcr) with
        | Ok v -> Common.log "R %d %d %s" gu.idx pcr (Common.hex v)
        | Error e -> Common.fail "pcr_read g%d: %s" gu.idx (Fmt.str "%a" Client.pp_error e)
      end
      else if roll < 95 then begin
        match Trace.op (fun () -> Client.get_random gu.client ~length:20) with
        | Ok r when String.length r = 20 -> ()
        | Ok r -> Common.fail "get_random returned %d bytes" (String.length r)
        | Error e -> Common.fail "get_random g%d: %s" gu.idx (Fmt.str "%a" Client.pp_error e)
      end
      else begin
        ctx.probes <- ctx.probes + 1;
        match
          Trace.op (fun () ->
              match Client.save_state gu.client with
              | r -> `Served r
              | exception Vtpm_mgr.Driver.Denied reason -> `Denied reason)
        with
        | `Denied _ when expect_denied -> ()
        | `Served (Ok _) when not expect_denied -> ()
        | `Denied reason -> Common.fail "SaveState probe from g%d denied: %s" gu.idx reason
        | `Served (Ok _) -> Common.fail "SaveState probe from g%d was allowed" gu.idx
        | `Served (Error e) ->
            Common.fail "SaveState probe from g%d: %s" gu.idx (Fmt.str "%a" Client.pp_error e)
      end)
    ctx.fleet

(* Final PCRs for the oracle, and the monitor's own accounting: one audit
   entry per mediated request, one denial per probe. *)
let finish ctx =
  Array.iter
    (fun gu -> Path.log_final_pcrs ctx.host.Host.mgr ~idx:gu.idx ~vtpm_id:gu.g.Host.vtpm_id)
    ctx.fleet;
  match ctx.host.Host.monitor with
  | None -> ()
  | Some m ->
      let entries = Audit.length m.Monitor.audit in
      Common.invariant (entries = ctx.requests) "audit holds %d entries for %d mediated requests"
        entries ctx.requests;
      Path.check_audit_chain ctx.host;
      let s = Monitor.stats m in
      Common.invariant (s.Monitor.denied = ctx.probes) "monitor denied %d requests for %d probes"
        s.Monitor.denied ctx.probes

let sim_now ctx () =
  Vtpm_mgr.Manager.sync_lanes ctx.host.Host.mgr;
  Host.now_us ctx.host
