(* attest: the attestation-heavy mix (Quote and Sign under OIAP sessions
   plus cheap PCR commands) from a few provisioned tenants on an unsharded
   host with the default policy. RSA signing, session HMACs and the engine
   dominate; the ring scan and the (cached) policy decision stay small. *)

open Vtpm_access
module Client = Vtpm_tpm.Client
module Tenant = Vtpm_sim.Tenant

let tenants = 4
let host_seed = 21
let rsa_bits = 512
let audit_cap = 8192
let quote_pcrs = [ 0; 10 ]

type tenant = { t : Tenant.t; idx : int; client : Client.t; key : Vtpm_crypto.Rsa.key }

type ctx = {
  host : Host.t;
  ts : tenant array;
  provision_ms : float array;
  (* Inputs the crypto replay needs: (tenant, digest that was signed). *)
  signed : (int * string) Queue.t;
}

let setup () =
  let host = Host.create ~seed:host_seed ~rsa_bits () in
  Monitor.set_audit_cap (Host.monitor_exn host) (Some audit_cap);
  let provision_ms = Array.make tenants 0.0 in
  let ts =
    Array.init tenants (fun idx ->
        let name = Printf.sprintf "tenant-%d" idx in
        let t0 = Common.now_ns () in
        let t = Tenant.setup host ~name ~label:(Printf.sprintf "tenant_%d" idx) in
        provision_ms.(idx) <- float_of_int (Common.now_ns () - t0) /. 1e6;
        (* Tenant.setup measures "<name>-boot" into PCR 10. *)
        Common.log "M %d 10 %s" idx (Common.hex (name ^ "-boot"));
        let inst =
          Result.get_ok (Vtpm_mgr.Manager.find host.Host.mgr t.Tenant.guest.Host.vtpm_id)
        in
        let key =
          (Result.get_ok (Vtpm_tpm.Engine.find_key inst.Vtpm_mgr.Manager.engine t.Tenant.sign_key))
            .Vtpm_tpm.Keystore.rsa
        in
        let pub = key.Vtpm_crypto.Rsa.pub in
        Common.log "K %d %s %s" idx
          (Vtpm_crypto.Bignum.to_hex pub.Vtpm_crypto.Rsa.n)
          (Vtpm_crypto.Bignum.to_hex pub.Vtpm_crypto.Rsa.e);
        { t; idx; client = Path.client host t.Tenant.guest ~seed:(2000 + idx); key })
  in
  { host; ts; provision_ms; signed = Queue.create () }

let err e = Fmt.str "%a" Client.pp_error e

(* An authorized command under a fresh one-shot OIAP session on the
   signing key's secret, as a TSS does per quote. *)
let with_oiap tn k =
  match Client.start_oiap tn.client ~usage_secret:tn.t.Tenant.sign_key_auth with
  | Error e -> Error e
  | Ok sess -> k sess

let remember ctx tn digest =
  if Queue.length ctx.signed < 2000 then Queue.add (tn.idx, digest) ctx.signed

(* Weights from [Workload.attestation_heavy]. *)
let mix = Array.of_list Vtpm_sim.Workload.attestation_heavy
let total = Array.fold_left (fun a (_, w) -> a + w) 0 mix

let pick () =
  let roll = Common.rand_int total in
  let rec go i acc =
    let op, w = mix.(i) in
    if roll < acc + w || i = Array.length mix - 1 then op else go (i + 1) (acc + w)
  in
  go 0 0

(* One round: one operation per tenant, drawn from the mix. *)
let round ctx () =
  Array.iter
    (fun tn ->
      match pick () with
      | Tenant.Op_extend -> (
          let pcr = 10 + Common.rand_int 4 and digest = Common.rand_bytes 20 in
          match Trace.op (fun () -> Client.extend tn.client ~pcr ~digest) with
          | Ok v -> Common.log "E %d %d %s %s" tn.idx pcr (Common.hex digest) (Common.hex v)
          | Error e -> Common.fail "extend t%d: %s" tn.idx (err e))
      | Tenant.Op_pcr_read -> (
          let pcr = Common.rand_int 16 in
          match Trace.op (fun () -> Client.pcr_read tn.client ~pcr) with
          | Ok v -> Common.log "R %d %d %s" tn.idx pcr (Common.hex v)
          | Error e -> Common.fail "pcr_read t%d: %s" tn.idx (err e))
      | Tenant.Op_random -> (
          match Trace.op (fun () -> Client.get_random tn.client ~length:32) with
          | Ok r when String.length r = 32 -> ()
          | Ok r -> Common.fail "get_random returned %d bytes" (String.length r)
          | Error e -> Common.fail "get_random t%d: %s" tn.idx (err e))
      | Tenant.Op_quote -> (
          let nonce = Common.rand_bytes 20 in
          let pcr_sel = Vtpm_tpm.Types.Pcr_selection.of_list quote_pcrs in
          match
            Trace.op (fun () ->
                with_oiap tn (fun sess ->
                    Client.quote ~continue:false tn.client sess ~key:tn.t.Tenant.sign_key
                      ~external_data:nonce ~pcr_sel))
          with
          | Ok (composite, signature, pub) ->
              Common.log "Q %d %s %s %s %s %s" tn.idx
                (String.concat "," (List.map string_of_int quote_pcrs))
                (Common.hex nonce) (Common.hex composite)
                (Common.hex signature)
                (Vtpm_crypto.Bignum.to_hex pub.Vtpm_crypto.Rsa.n);
              remember ctx tn
                (Vtpm_crypto.Sha1.digest (Vtpm_tpm.Engine.quote_info ~composite ~external_data:nonce))
          | Error e -> Common.fail "quote t%d: %s" tn.idx (err e))
      | Tenant.Op_sign -> (
          let digest = Common.rand_bytes 20 in
          match
            Trace.op (fun () ->
                with_oiap tn (fun sess ->
                    Client.sign ~continue:false tn.client sess ~key:tn.t.Tenant.sign_key ~digest))
          with
          | Ok signature ->
              Common.log "S %d %s %s" tn.idx (Common.hex digest) (Common.hex signature);
              remember ctx tn digest
          | Error e -> Common.fail "sign t%d: %s" tn.idx (err e))
      | op -> Common.fail "operation %s is not in the attestation mix" (Tenant.op_name op))
    ctx.ts

let finish ctx =
  Array.iter
    (fun tn ->
      Path.log_final_pcrs ctx.host.Host.mgr ~idx:tn.idx ~vtpm_id:tn.t.Tenant.guest.Host.vtpm_id)
    ctx.ts;
  Path.check_audit_chain ctx.host

(* Replay the run's signed digests through [Rsa.sign] with the tenants'
   loaded keys, and the OIAP authorization HMAC (SHA-1 over a 61-byte
   paramDigest || nonceEven || nonceOdd || continue input) over the same
   digests. *)
let replay_crypto ctx =
  let signed = List.of_seq (Queue.to_seq ctx.signed) in
  Common.metric "crypto.rsa_sign_us"
    (Path.mean_us_per (fun (i, digest) -> ignore (Vtpm_crypto.Rsa.sign ctx.ts.(i).key ~digest)) signed);
  let inputs =
    List.map
      (fun (i, digest) -> (ctx.ts.(i).t.Tenant.sign_key_auth, digest ^ digest ^ digest ^ "\x00"))
      signed
  in
  Common.metric "crypto.hmac_sha1_us"
    (Path.mean_us_per (fun (key, msg) -> ignore (Vtpm_crypto.Hmac.sha1_mac ~key msg)) inputs)

let sim_now ctx () = Host.now_us ctx.host
