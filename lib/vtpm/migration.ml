(* vTPM migration between hosts.

   Baseline: the instance state crosses the wire in the clear (the 2006
   design left transport protection to the toolstack); anyone on the path
   — or a dom0 tool on either side — reads the guest's TPM secrets out of
   the stream.

   Improved: the stream is encrypted to the *destination's* hardware TPM.
   The destination advertises a bind key (public half of a key whose
   private half its hw TPM holds); the source wraps a fresh session key to
   it (TPM_Unbind semantics on the receiving side). A captured stream is
   useless without the destination platform.

   Freshness-protected (v2): when a [Freshness.t] is supplied, the
   protected envelope additionally carries the instance's lineage and a
   monotonic counter inside the MAC — a captured stream replayed later
   fails the destination's strictly-newer admission check, so migration
   cannot be used to roll TPM state back or fork it.

   The [migrate] orchestration is the source half of the handshake:
   drain in-flight requests, suspend, export, hand the stream to the
   transfer callback, and destroy the source copy only once the
   destination has acked the import. Any failure resumes the source
   instance — zero lost requests, never dual-live. *)

open Vtpm_tpm

type mode = Plaintext | Protected

let mode_name = function Plaintext -> "plaintext" | Protected -> "protected"

let magic_plain = "VTPMMIG0"
let magic_protected = "VTPMMIG1"
let magic_fresh = "VTPMMIG2"

(* The destination's migration endpoint: its hw SRK public key. In the
   simulation the SRK doubles as the bind key; a real deployment would
   create a dedicated non-migratable bind key under the SRK. *)
let bind_pubkey (mgr : Manager.t) : Vtpm_crypto.Rsa.public =
  match mgr.Manager.hw_tpm.Engine.owner with
  | Some o -> o.Engine.srk.Keystore.rsa.pub
  | None -> invalid_arg "destination hw TPM has no owner"

let charge_transfer (mgr : Manager.t) ~bytes =
  let kib = float_of_int bytes /. 1024.0 in
  Vtpm_util.Cost.charge mgr.Manager.cost (Vtpm_util.Cost.migrate_per_kib_us *. kib)

(* --- Export on the source host ------------------------------------------- *)

(* The v2 freshness header, covered by the envelope MAC together with the
   ciphertext: (lineage, counter). *)
let fresh_header ~lineage ~counter =
  let w = Vtpm_util.Codec.writer () in
  Vtpm_util.Codec.write_sized w lineage;
  Vtpm_util.Codec.write_u32_int w counter;
  Vtpm_util.Codec.contents w

let export mgr ?fresh (inst : Manager.instance) ~(mode : mode)
    ~(dest_key : Vtpm_crypto.Rsa.public option) : (string, string) result =
  let state = Engine.serialize_state inst.Manager.engine in
  match mode with
  | Plaintext ->
      charge_transfer mgr ~bytes:(String.length state);
      Ok (magic_plain ^ state)
  | Protected -> (
      match dest_key with
      | None -> Error "protected migration needs the destination bind key"
      | Some dest_key -> (
          (* Transient chip trouble (busy, a reset or power loss cutting
             the exchange) must not kill the export outright: retry the
             entropy fetch on a fresh client — a power cycle drops
             sessions, and [get_random] needs none. Persistent failure
             still fails closed below. *)
          let rec entropy attempt =
            match Client.get_random (Manager.hw_client mgr) ~length:16 with
            | Error e when attempt < 3 && Client.transient e -> entropy (attempt + 1)
            | r -> r
          in
          match entropy 0 with
          | Error e ->
              (* Fail closed: a session key must never be derivable from
                 the state it protects. *)
              Error (Fmt.str "no entropy for migration session key: %a" Client.pp_error e)
          | Ok sym_key ->
              charge_transfer mgr ~bytes:(String.length state);
              let rng = Vtpm_util.Rng.create ~seed:(String.length state + mgr.Manager.seed) in
              let wrapped_key = Vtpm_crypto.Rsa.encrypt rng dest_key sym_key in
              let xk = Vtpm_crypto.Xtea.key_of_string sym_key in
              let cipher = Vtpm_crypto.Xtea.ctr_transform xk ~nonce:0x4d49 state in
              Vtpm_util.Cost.charge mgr.Manager.cost Vtpm_util.Cost.hwtpm_srk_op_us;
              let w = Vtpm_util.Codec.writer () in
              (match fresh with
              | None ->
                  let mac = Vtpm_crypto.Hmac.sha256_mac ~key:sym_key cipher in
                  Vtpm_util.Codec.write_bytes w magic_protected;
                  Vtpm_util.Codec.write_sized w wrapped_key;
                  Vtpm_util.Codec.write_sized w cipher;
                  Vtpm_util.Codec.write_bytes w mac
              | Some f ->
                  let lineage = Freshness.lineage inst.Manager.engine in
                  let counter = Freshness.issue f ~lineage in
                  let header = fresh_header ~lineage ~counter in
                  let mac = Vtpm_crypto.Hmac.sha256_mac ~key:sym_key (header ^ cipher) in
                  Vtpm_util.Codec.write_bytes w magic_fresh;
                  Vtpm_util.Codec.write_bytes w header;
                  Vtpm_util.Codec.write_sized w wrapped_key;
                  Vtpm_util.Codec.write_sized w cipher;
                  Vtpm_util.Codec.write_bytes w mac);
              Ok (Vtpm_util.Codec.contents w)))

(* After a successful export the source instance is dead: TPM state must
   never run in two places (replay / state-forking hazard). *)
let finalize_source mgr (inst : Manager.instance) =
  Manager.destroy_instance mgr inst.Manager.vtpm_id

(* --- Import on the destination host ---------------------------------------- *)

(* Unwrap the session key on this platform's hw TPM and verify the
   envelope MAC over [macced]; returns the plaintext state. *)
let unbind_and_open mgr ~wrapped_key ~cipher ~mac ~macced : (string, string) result =
  match mgr.Manager.hw_tpm.Engine.owner with
  | None -> Error "destination hw TPM has no owner"
  | Some o -> (
      Vtpm_util.Cost.charge mgr.Manager.cost Vtpm_util.Cost.hwtpm_srk_op_us;
      match Vtpm_crypto.Rsa.decrypt o.Engine.srk.Keystore.rsa wrapped_key with
      | None -> Error "unbind failed: wrong destination platform"
      | Some sym_key ->
          if not (Vtpm_crypto.Hmac.equal_ct mac (Vtpm_crypto.Hmac.sha256_mac ~key:sym_key macced))
          then Error "migration stream MAC mismatch"
          else begin
            let xk = Vtpm_crypto.Xtea.key_of_string sym_key in
            Ok (Vtpm_crypto.Xtea.ctr_transform xk ~nonce:0x4d49 cipher)
          end)

let import_state mgr ?fresh ~(state : Manager.instance_state) (stream : string) :
    (Manager.instance, string) result =
  if String.length stream < 8 then Error "short migration stream"
  else begin
    let magic = String.sub stream 0 8 in
    let state_result =
      if magic = magic_plain then
        if fresh <> None then
          Error "plaintext stream carries no freshness counter; refusing (rollback risk)"
        else Ok (String.sub stream 8 (String.length stream - 8), None)
      else if magic = magic_protected then begin
        match
          let r = Vtpm_util.Codec.reader stream in
          let _ = Vtpm_util.Codec.read_bytes r 8 in
          let wrapped_key = Vtpm_util.Codec.read_sized r in
          let cipher = Vtpm_util.Codec.read_sized r in
          let mac = Vtpm_util.Codec.read_bytes r 32 in
          (wrapped_key, cipher, mac)
        with
        | exception Vtpm_util.Codec.Truncated m -> Error ("truncated stream: " ^ m)
        | wrapped_key, cipher, mac ->
            if fresh <> None then
              (* Downgrade defense: a freshness-enforcing destination must
                 not accept envelopes without a counter. *)
              Error "legacy (v1) stream carries no freshness counter; refusing (downgrade)"
            else
              Result.map
                (fun s -> (s, None))
                (unbind_and_open mgr ~wrapped_key ~cipher ~mac ~macced:cipher)
      end
      else if magic = magic_fresh then begin
        match
          let r = Vtpm_util.Codec.reader stream in
          let _ = Vtpm_util.Codec.read_bytes r 8 in
          let lineage = Vtpm_util.Codec.read_sized r in
          let counter = Vtpm_util.Codec.read_u32_int r in
          let wrapped_key = Vtpm_util.Codec.read_sized r in
          let cipher = Vtpm_util.Codec.read_sized r in
          let mac = Vtpm_util.Codec.read_bytes r 32 in
          (lineage, counter, wrapped_key, cipher, mac)
        with
        | exception Vtpm_util.Codec.Truncated m -> Error ("truncated stream: " ^ m)
        | lineage, counter, wrapped_key, cipher, mac ->
            let macced = fresh_header ~lineage ~counter ^ cipher in
            Result.map
              (fun s -> (s, Some (lineage, counter)))
              (unbind_and_open mgr ~wrapped_key ~cipher ~mac ~macced)
      end
      else Error "unrecognized migration stream"
    in
    match state_result with
    | Error m -> Error m
    | Ok (state_bytes, header) -> (
        charge_transfer mgr ~bytes:(String.length state_bytes);
        match Engine.deserialize_state state_bytes with
        | Error m -> Error m
        | Ok engine -> (
            let freshness_ok =
              match (header, fresh) with
              | Some (lineage, counter), Some f ->
                  (* The MAC bound the header to the ciphertext; the
                     lineage must also name the engine actually inside. *)
                  if not (String.equal lineage (Freshness.lineage engine)) then
                    Error "freshness header lineage does not match the migrated engine"
                  else Freshness.admit f ~lineage ~counter
              | Some _, None | None, None -> Ok ()
              | None, Some _ -> Error "stream carries no freshness counter"
            in
            match freshness_ok with
            | Error m -> Error m
            | Ok () ->
                Ok (Manager.adopt mgr ~engine ~state)))
  end

let import mgr ?fresh (stream : string) : (Manager.instance, string) result =
  import_state mgr ?fresh ~state:Manager.Active stream

(* Destination half of the handshake: the imported instance arrives
   quarantined (Suspended) and serves nothing until the source commits
   and the toolstack activates it — a half-migrated instance is never
   live on both hosts. *)
let receive mgr ?fresh (stream : string) : (Manager.instance, string) result =
  import_state mgr ?fresh ~state:Manager.Suspended stream

let activate (inst : Manager.instance) = inst.Manager.state <- Manager.Active

let abort_import mgr (inst : Manager.instance) =
  Manager.destroy_instance mgr inst.Manager.vtpm_id

(* --- Source-side handshake orchestration ----------------------------------- *)

type handshake = { drained : int }

let migrate ~(src : Manager.t) ?fresh ?sup ?(drain = fun () -> 0) ~vtpm_id
    ~(dest_key : Vtpm_crypto.Rsa.public)
    ~(transfer : string -> (unit, string) result) () : (handshake, string) result =
  match Manager.find src vtpm_id with
  | Error e -> Error (Vtpm_util.Verror.to_string e)
  | Ok inst when inst.Manager.state <> Manager.Active ->
      Error (Printf.sprintf "vTPM %d is not active; refusing migration" vtpm_id)
  | Ok inst -> (
      (match sup with Some s -> Supervisor.begin_migration s ~vtpm_id | None -> ());
      (* Drain the instance's lane: every request admitted before the
         suspend is served before the state is captured. *)
      let drained = drain () in
      inst.Manager.state <- Manager.Suspended;
      let resume reason =
        inst.Manager.state <- Manager.Active;
        (match sup with
        | Some s -> Supervisor.end_migration s ~vtpm_id ~committed:false
        | None -> ());
        Error reason
      in
      match export src ?fresh inst ~mode:Protected ~dest_key:(Some dest_key) with
      | Error e -> resume ("export failed; source resumed: " ^ e)
      | Ok stream -> (
          match transfer stream with
          | Error e -> resume ("transfer failed; source resumed: " ^ e)
          | Ok () ->
              (* Destination acked the import: now — and only now — the
                 source copy dies. *)
              finalize_source src inst;
              (match sup with
              | Some s -> Supervisor.end_migration s ~vtpm_id ~committed:true
              | None -> ());
              Ok { drained }))

(* What a man-in-the-middle learns: attempt to parse a captured stream
   without the destination platform. Returns the recovered TPM state on
   success (baseline plaintext) — the Table 2 "migration snoop" row. *)
let snoop (stream : string) : (Engine.t, string) result =
  if String.length stream >= 8 && String.sub stream 0 8 = magic_plain then
    Engine.deserialize_state (String.sub stream 8 (String.length stream - 8))
  else Error "stream is protected; nothing recoverable"
