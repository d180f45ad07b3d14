(* Tests for freshness-protected migration: envelope fidelity and
   integrity, the rollback/replay/downgrade defenses, the source-side
   handshake's failure-resume guarantee, destination quarantine, and the
   hardware anchoring of the last-seen table. *)

open Vtpm_mgr

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let mk_manager ?(seed = 13) () =
  Manager.create ~rsa_bits:256 ~seed ~cost:(Vtpm_util.Cost.create ()) ()

let provisioned_instance mgr =
  let inst = Manager.create_instance mgr in
  let wire =
    Vtpm_tpm.Wire.encode_request
      (Vtpm_tpm.Cmd.Extend { pcr = 9; digest = Vtpm_crypto.Sha1.digest "marker" })
  in
  ignore (Result.get_ok (Manager.execute_wire mgr inst ~wire));
  inst

let pcr9 engine =
  match Vtpm_tpm.Engine.pcr_value engine 9 with Ok v -> v | Error _ -> Alcotest.fail "pcr9"

let extend mgr inst k =
  let wire =
    Vtpm_tpm.Wire.encode_request
      (Vtpm_tpm.Cmd.Extend { pcr = 9; digest = Vtpm_crypto.Sha1.digest (string_of_int k) })
  in
  ignore (Result.get_ok (Manager.execute_wire mgr inst ~wire))

(* --- Round-trip byte fidelity ---------------------------------------------------- *)

(* The migrated engine must be byte-identical under serialization — not
   merely "PCR 9 looks right" — in both stream formats. *)
let test_roundtrip_byte_fidelity () =
  List.iter
    (fun (mode, name) ->
      let src = mk_manager ~seed:13 () in
      let dst = mk_manager ~seed:14 () in
      let inst = provisioned_instance src in
      let before = Vtpm_tpm.Engine.serialize_state inst.Manager.engine in
      let dest_key =
        match mode with
        | Migration.Plaintext -> None
        | Migration.Protected -> Some (Migration.bind_pubkey dst)
      in
      let stream = Result.get_ok (Migration.export src inst ~mode ~dest_key) in
      (match Migration.import dst stream with
      | Ok inst' ->
          check_s (name ^ " byte-identical") before
            (Vtpm_tpm.Engine.serialize_state inst'.Manager.engine)
      | Error m -> Alcotest.fail (name ^ ": " ^ m)))
    [ (Migration.Plaintext, "plaintext"); (Migration.Protected, "protected") ]

let test_fresh_roundtrip_byte_fidelity () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let fsrc = Freshness.create src and fdst = Freshness.create dst in
  let inst = provisioned_instance src in
  let before = Vtpm_tpm.Engine.serialize_state inst.Manager.engine in
  let stream =
    Result.get_ok
      (Migration.export src ~fresh:fsrc inst ~mode:Migration.Protected
         ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  match Migration.import dst ~fresh:fdst stream with
  | Ok inst' ->
      check_s "v2 byte-identical" before (Vtpm_tpm.Engine.serialize_state inst'.Manager.engine);
      check_i "accepted counted" 1 (Freshness.accepted fdst)
  | Error m -> Alcotest.fail m

(* Import installs the carried engine without minting a key of its own,
   yet takes the same id, key seed and attach charge a fresh instance
   would: the next instance on the destination gets the EK it got when
   import still created (and discarded) one, and the clock agrees. *)
let test_import_adopts_engine () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let inst = provisioned_instance src in
  let stream =
    Result.get_ok
      (Migration.export src inst ~mode:Migration.Protected
         ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  let t0 = Vtpm_util.Cost.now dst.Manager.cost in
  match Migration.import dst stream with
  | Error m -> Alcotest.fail m
  | Ok imported ->
      check_s "EK fingerprint carried" (Freshness.lineage inst.Manager.engine)
        (Freshness.lineage imported.Manager.engine);
      check_s "PCRs carried" (pcr9 inst.Manager.engine) (pcr9 imported.Manager.engine);
      Alcotest.(check (float 1e-6))
        "import charge unchanged" 21059.434
        (Float.round ((Vtpm_util.Cost.now dst.Manager.cost -. t0) *. 1000.0) /. 1000.0);
      let next = Manager.create_instance dst in
      check_i "next id" 2 next.Manager.vtpm_id;
      check_s "next instance's EK unchanged" "d6c1edd95d508a81e877556b0b16494db540fad6"
        (Vtpm_util.Hex.encode (Freshness.lineage next.Manager.engine))

(* --- Envelope integrity ------------------------------------------------------------ *)

let test_wrong_destination_key () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let eve = mk_manager ~seed:15 () in
  let fsrc = Freshness.create src in
  let inst = provisioned_instance src in
  let stream =
    Result.get_ok
      (Migration.export src ~fresh:fsrc inst ~mode:Migration.Protected
         ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  check_b "wrong platform cannot import v2" true
    (Result.is_error (Migration.import eve ~fresh:(Freshness.create eve) stream))

let test_envelope_tamper_rejected () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let fsrc = Freshness.create src and fdst = Freshness.create dst in
  let inst = provisioned_instance src in
  let stream =
    Result.get_ok
      (Migration.export src ~fresh:fsrc inst ~mode:Migration.Protected
         ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  (* Truncation never mis-parses. *)
  check_b "truncated rejected" true
    (Result.is_error
       (Migration.import dst ~fresh:fdst (String.sub stream 0 (String.length stream - 7))));
  (* A bit flip anywhere — header (counter), ciphertext, MAC — is caught. *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string stream in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
      check_b
        (Printf.sprintf "bit flip at %d rejected" pos)
        true
        (Result.is_error (Migration.import dst ~fresh:fdst (Bytes.to_string b))))
    [ 9; String.length stream / 2; String.length stream - 3 ]

let test_downgrade_rejected () =
  (* A freshness-enforcing destination refuses legacy (un-countered) v1
     envelopes: stripping the counter must not become a bypass. *)
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let fdst = Freshness.create dst in
  let inst = provisioned_instance src in
  let v1 =
    Result.get_ok
      (Migration.export src inst ~mode:Migration.Protected
         ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  check_b "v1 refused under freshness" true
    (Result.is_error (Migration.import dst ~fresh:fdst v1));
  let plain = Result.get_ok (Migration.export src inst ~mode:Migration.Plaintext ~dest_key:None) in
  check_b "plaintext refused under freshness" true
    (Result.is_error (Migration.import dst ~fresh:fdst plain))

(* --- Rollback / replay ------------------------------------------------------------- *)

let test_stream_replay_rejected () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let fsrc = Freshness.create src and fdst = Freshness.create dst in
  let inst = provisioned_instance src in
  let dest_key = Some (Migration.bind_pubkey dst) in
  let stream =
    Result.get_ok (Migration.export src ~fresh:fsrc inst ~mode:Migration.Protected ~dest_key)
  in
  check_b "first import accepted" true (Result.is_ok (Migration.import dst ~fresh:fdst stream));
  check_b "replay rejected" true (Result.is_error (Migration.import dst ~fresh:fdst stream));
  check_i "rejection counted" 1 (Freshness.rejected fdst);
  (* An older captured stream is just as dead once a newer one landed. *)
  let old_stream =
    Result.get_ok (Migration.export src ~fresh:fsrc inst ~mode:Migration.Protected ~dest_key)
  in
  let newer =
    Result.get_ok (Migration.export src ~fresh:fsrc inst ~mode:Migration.Protected ~dest_key)
  in
  check_b "newer import accepted" true (Result.is_ok (Migration.import dst ~fresh:fdst newer));
  check_b "older stream rejected" true
    (Result.is_error (Migration.import dst ~fresh:fdst old_stream))

let test_freshness_monotone_checkpoint_migrate_restore () =
  (* Counters issued across checkpoint -> migrate -> restore are strictly
     monotone, and the restore floor always admits exactly the latest
     checkpoint — including after a migration export in between. *)
  let mgr = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let fresh = Freshness.create mgr in
  let inst = provisioned_instance mgr in
  let lineage = Freshness.lineage inst.Manager.engine in
  let ckpt = Checkpoint.create ~fresh mgr in
  (match Checkpoint.checkpoint ckpt inst with Ok () -> () | Error m -> Alcotest.fail m);
  let c1 = Freshness.issued_hwm fresh ~lineage in
  extend mgr inst 1;
  (match Checkpoint.checkpoint ckpt inst with Ok () -> () | Error m -> Alcotest.fail m);
  let c2 = Freshness.issued_hwm fresh ~lineage in
  (* A migration export issues above the checkpoints... *)
  let _stream =
    Result.get_ok
      (Migration.export mgr ~fresh inst ~mode:Migration.Protected
         ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  let c3 = Freshness.issued_hwm fresh ~lineage in
  check_b "strictly monotone" true (c1 < c2 && c2 < c3);
  (* ...but does not strand the latest checkpoint: an aborted handshake
     must leave the supervisor able to restore it. *)
  (match Checkpoint.restore_instance ckpt ~vtpm_id:inst.Manager.vtpm_id with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("latest checkpoint must restore: " ^ m));
  let inst' = Result.get_ok (Manager.find mgr inst.Manager.vtpm_id) in
  check_s "restored to latest" (pcr9 inst.Manager.engine) (pcr9 inst'.Manager.engine)

let test_checkpoint_rollback_rejected () =
  let mgr = mk_manager ~seed:13 () in
  let fresh = Freshness.create mgr in
  let inst = provisioned_instance mgr in
  let ckpt = Checkpoint.create ~fresh mgr in
  (match Checkpoint.checkpoint ckpt inst with Ok () -> () | Error m -> Alcotest.fail m);
  let old_entry =
    match Checkpoint.capture ckpt ~vtpm_id:inst.Manager.vtpm_id with
    | Some e -> e
    | None -> Alcotest.fail "no entry"
  in
  extend mgr inst 2;
  (match Checkpoint.checkpoint ckpt inst with Ok () -> () | Error m -> Alcotest.fail m);
  Checkpoint.inject ckpt old_entry;
  check_b "captured old checkpoint refused" true
    (Result.is_error (Checkpoint.restore_instance ckpt ~vtpm_id:inst.Manager.vtpm_id))

(* --- Handshake: failure-resume, quarantine, commit --------------------------------- *)

let test_handshake_failure_resumes_source () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let fsrc = Freshness.create src in
  let inst = provisioned_instance src in
  let vtpm_id = inst.Manager.vtpm_id in
  let marker = pcr9 inst.Manager.engine in
  let dest_key = Migration.bind_pubkey dst in
  (* Transfer drops the stream on the floor: the source must come back. *)
  let r =
    Migration.migrate ~src ~fresh:fsrc ~vtpm_id ~dest_key
      ~transfer:(fun _ -> Error "link down") ()
  in
  check_b "migrate failed" true (Result.is_error r);
  let inst' = Result.get_ok (Manager.find src vtpm_id) in
  check_b "source active again" true (inst'.Manager.state = Manager.Active);
  check_s "state intact" marker (pcr9 inst'.Manager.engine);
  (* And the instance still serves requests. *)
  extend src inst' 3

let test_handshake_commit_and_quarantine () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let fsrc = Freshness.create src and fdst = Freshness.create dst in
  let inst = provisioned_instance src in
  let vtpm_id = inst.Manager.vtpm_id in
  let marker = pcr9 inst.Manager.engine in
  let dest_key = Migration.bind_pubkey dst in
  let received = ref None in
  let drained = ref (-1) in
  let r =
    Migration.migrate ~src ~fresh:fsrc ~drain:(fun () -> 7) ~vtpm_id ~dest_key
      ~transfer:(fun stream ->
        match Migration.receive dst ~fresh:fdst stream with
        | Error e -> Error e
        | Ok i ->
            received := Some i;
            Ok ())
      ()
  in
  (match r with
  | Ok hs -> drained := hs.Migration.drained
  | Error m -> Alcotest.fail m);
  check_i "drain ran before suspend" 7 !drained;
  check_b "source destroyed after ack" true (Result.is_error (Manager.find src vtpm_id));
  let imported = match !received with Some i -> i | None -> Alcotest.fail "no import" in
  (* Quarantined: Suspended, refuses commands, serves nothing. *)
  check_b "quarantined" true (imported.Manager.state = Manager.Suspended);
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Pcr_read { pcr = 9 }) in
  check_b "quarantined import serves nothing" true
    (Result.is_error (Manager.execute_wire dst imported ~wire));
  Migration.activate imported;
  check_b "active after activate" true (imported.Manager.state = Manager.Active);
  check_s "state moved" marker (pcr9 imported.Manager.engine);
  check_b "serves after activate" true (Result.is_ok (Manager.execute_wire dst imported ~wire))

let test_abort_import_destroys () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let inst = provisioned_instance src in
  let stream =
    Result.get_ok
      (Migration.export src inst ~mode:Migration.Protected
         ~dest_key:(Some (Migration.bind_pubkey dst)))
  in
  let imported = Result.get_ok (Migration.receive dst stream) in
  Migration.abort_import dst imported;
  check_b "aborted import gone" true
    (Result.is_error (Manager.find dst imported.Manager.vtpm_id))

(* --- Anchored last-seen table ------------------------------------------------------- *)

let test_anchor_detects_stale_table () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let fsrc = Freshness.create src and fdst = Freshness.create dst in
  (match Freshness.anchor_setup fdst with
  | Ok () -> ()
  | Error m -> Alcotest.fail (Vtpm_util.Verror.to_string m));
  check_b "anchored" true (Freshness.anchored fdst);
  let inst = provisioned_instance src in
  let dest_key = Some (Migration.bind_pubkey dst) in
  (* The pre-import table state: what a rolled-back destination would
     reload after a crash. *)
  let stale_table = Freshness.save_table fdst in
  let s1 = Result.get_ok (Migration.export src ~fresh:fsrc inst ~mode:Migration.Protected ~dest_key) in
  (match Migration.import dst ~fresh:fdst s1 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* Live table matches the hardware anchor after the admit's commit. *)
  (match Freshness.anchor_verify fdst with
  | Ok () -> ()
  | Error m -> Alcotest.fail (Vtpm_util.Verror.to_string m));
  (* Reloading the stale table fails closed... *)
  check_b "stale table refused" true (Result.is_error (Freshness.load_table fdst stale_table));
  (* ...and fails closed means fails safe: the replayed stream is still
     refused afterwards. *)
  check_b "replay still refused after failed reload" true
    (Result.is_error (Migration.import dst ~fresh:fdst s1))

let test_table_roundtrip () =
  let src = mk_manager ~seed:13 () in
  let dst = mk_manager ~seed:14 () in
  let fsrc = Freshness.create src and fdst = Freshness.create dst in
  let inst = provisioned_instance src in
  let dest_key = Some (Migration.bind_pubkey dst) in
  let s1 = Result.get_ok (Migration.export src ~fresh:fsrc inst ~mode:Migration.Protected ~dest_key) in
  (match Migration.import dst ~fresh:fdst s1 with Ok _ -> () | Error m -> Alcotest.fail m);
  let saved = Freshness.save_table fdst in
  (* An unanchored tracker reloads its own table (manager restart)... *)
  (match Freshness.load_table fdst saved with Ok () -> () | Error m -> Alcotest.fail m);
  (* ...and still refuses the replay after the round-trip. *)
  check_b "replay refused after table reload" true
    (Result.is_error (Migration.import dst ~fresh:fdst s1))

let suite =
  [
    Alcotest.test_case "round-trip byte fidelity (v0/v1)" `Quick test_roundtrip_byte_fidelity;
    Alcotest.test_case "round-trip byte fidelity (v2 fresh)" `Quick test_fresh_roundtrip_byte_fidelity;
    Alcotest.test_case "import adopts the carried engine" `Quick test_import_adopts_engine;
    Alcotest.test_case "wrong destination key rejected" `Quick test_wrong_destination_key;
    Alcotest.test_case "truncation and bit flips rejected" `Quick test_envelope_tamper_rejected;
    Alcotest.test_case "downgrade to v1/plaintext rejected" `Quick test_downgrade_rejected;
    Alcotest.test_case "stream replay rejected" `Quick test_stream_replay_rejected;
    Alcotest.test_case "freshness monotone across ckpt/migrate/restore" `Quick
      test_freshness_monotone_checkpoint_migrate_restore;
    Alcotest.test_case "captured old checkpoint refused" `Quick test_checkpoint_rollback_rejected;
    Alcotest.test_case "handshake failure resumes source" `Quick test_handshake_failure_resumes_source;
    Alcotest.test_case "handshake commit + dest quarantine" `Quick test_handshake_commit_and_quarantine;
    Alcotest.test_case "aborted import destroyed" `Quick test_abort_import_destroys;
    Alcotest.test_case "anchored table fails closed on rollback" `Quick test_anchor_detects_stale_table;
    Alcotest.test_case "table save/load round-trip" `Quick test_table_roundtrip;
  ]
