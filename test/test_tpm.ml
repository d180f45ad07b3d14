(* Tests for the TPM 1.2 engine: PCR semantics, NV storage, the key
   hierarchy, authorization sessions (including replay), command
   behaviour for every implemented ordinal, the wire codec and full-state
   serialization. *)

open Vtpm_tpm

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let zeros = String.make 20 '\x00'

(* --- PCR bank ------------------------------------------------------------- *)

let test_pcr_initial_values () =
  let p = Pcr.create () in
  check_s "static starts zero" zeros (Result.get_ok (Pcr.read p 0));
  check_s "drtm starts ones" (String.make 20 '\xff') (Result.get_ok (Pcr.read p 17))

let test_pcr_extend_algebra () =
  let p = Pcr.create () in
  let m1 = Vtpm_crypto.Sha1.digest "a" and m2 = Vtpm_crypto.Sha1.digest "b" in
  let v1 = Result.get_ok (Pcr.extend p ~locality:0 4 m1) in
  check_s "fold definition" (Vtpm_crypto.Sha1.digest (zeros ^ m1)) v1;
  let v2 = Result.get_ok (Pcr.extend p ~locality:0 4 m2) in
  check_s "second fold" (Vtpm_crypto.Sha1.digest (v1 ^ m2)) v2

let test_pcr_extend_order_matters () =
  let p1 = Pcr.create () and p2 = Pcr.create () in
  let m1 = Vtpm_crypto.Sha1.digest "a" and m2 = Vtpm_crypto.Sha1.digest "b" in
  ignore (Pcr.extend p1 ~locality:0 0 m1);
  ignore (Pcr.extend p1 ~locality:0 0 m2);
  ignore (Pcr.extend p2 ~locality:0 0 m2);
  ignore (Pcr.extend p2 ~locality:0 0 m1);
  check_b "order sensitive" true
    (Result.get_ok (Pcr.read p1 0) <> Result.get_ok (Pcr.read p2 0))

let test_pcr_bad_index () =
  let p = Pcr.create () in
  check_b "negative" true (Pcr.read p (-1) = Error Types.tpm_badindex);
  check_b "too large" true (Pcr.read p 24 = Error Types.tpm_badindex)

let test_pcr_bad_measurement_size () =
  let p = Pcr.create () in
  check_b "short digest" true (Pcr.extend p ~locality:0 0 "short" = Error Types.tpm_bad_parameter)

let test_pcr_reset_rules () =
  let p = Pcr.create () in
  check_b "static not resettable" true (Pcr.reset p ~locality:0 0 = Error Types.tpm_bad_locality);
  check_b "debug resettable" true (Pcr.reset p ~locality:0 16 = Ok ());
  check_b "app resettable" true (Pcr.reset p ~locality:0 23 = Ok ());
  check_b "drtm needs locality" true (Pcr.reset p ~locality:0 18 = Error Types.tpm_bad_locality);
  check_b "drtm at locality 2" true (Pcr.reset p ~locality:2 18 = Ok ())

let test_pcr_drtm_extend_locality () =
  let p = Pcr.create () in
  let m = Vtpm_crypto.Sha1.digest "x" in
  check_b "pcr17 needs locality >=2" true
    (Pcr.extend p ~locality:0 17 m = Error Types.tpm_bad_locality);
  check_b "pcr17 at 2 ok" true (Result.is_ok (Pcr.extend p ~locality:2 17 m));
  check_b "pcr20 at 1 ok" true (Result.is_ok (Pcr.extend p ~locality:1 20 m))

let test_pcr_composite_stability () =
  let p = Pcr.create () in
  let sel = Types.Pcr_selection.of_list [ 0; 3; 7 ] in
  let c1 = Pcr.composite_hash p sel in
  check_s "deterministic" c1 (Pcr.composite_hash p sel);
  ignore (Pcr.extend p ~locality:0 3 (Vtpm_crypto.Sha1.digest "change"));
  check_b "tracks selected pcr" true (c1 <> Pcr.composite_hash p sel);
  let c_other = Pcr.composite_hash p (Types.Pcr_selection.of_list [ 1; 2 ]) in
  ignore (Pcr.extend p ~locality:0 3 (Vtpm_crypto.Sha1.digest "more"));
  check_s "unselected pcr irrelevant" c_other (Pcr.composite_hash p (Types.Pcr_selection.of_list [ 1; 2 ]))

let test_pcr_selection_bitmap () =
  let sel = Types.Pcr_selection.of_list [ 0; 8; 23 ] in
  let bitmap = Types.Pcr_selection.to_bitmap sel in
  check_i "3 bytes" 3 (String.length bitmap);
  check_b "roundtrip" true (Types.Pcr_selection.of_bitmap bitmap = Types.Pcr_selection.to_list sel);
  check_b "dedup" true
    (Types.Pcr_selection.to_list (Types.Pcr_selection.of_list [ 5; 5; 2 ]) = [ 2; 5 ])

let test_pcr_serialization () =
  let p = Pcr.create () in
  ignore (Pcr.extend p ~locality:0 9 (Vtpm_crypto.Sha1.digest "v"));
  let w = Vtpm_util.Codec.writer () in
  Pcr.serialize p w;
  let p2 = Pcr.deserialize (Vtpm_util.Codec.reader (Vtpm_util.Codec.contents w)) in
  check_s "restored" (Result.get_ok (Pcr.read p 9)) (Result.get_ok (Pcr.read p2 9))

(* --- NVRAM ------------------------------------------------------------------- *)

let no_pcr = Types.Pcr_selection.of_list []
let composite_const _ = "composite"

let test_nv_define_write_read () =
  let nv = Nvram.create () in
  check_b "define" true (Nvram.define nv ~index:1 ~size:32 ~attrs:Types.nv_attrs_default = Ok ());
  check_b "write" true
    (Nvram.write nv ~index:1 ~offset:4 ~data:"hello" ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Ok ());
  check_b "read" true
    (Nvram.read nv ~index:1 ~offset:4 ~length:5 ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Ok "hello")

let test_nv_double_define () =
  let nv = Nvram.create () in
  ignore (Nvram.define nv ~index:1 ~size:8 ~attrs:Types.nv_attrs_default);
  check_b "second define fails" true
    (Nvram.define nv ~index:1 ~size:8 ~attrs:Types.nv_attrs_default = Error Types.tpm_area_locked)

let test_nv_budget () =
  let nv = Nvram.create ~budget:100 () in
  check_b "fits" true (Nvram.define nv ~index:1 ~size:60 ~attrs:Types.nv_attrs_default = Ok ());
  check_b "over budget" true
    (Nvram.define nv ~index:2 ~size:60 ~attrs:Types.nv_attrs_default = Error Types.tpm_nospace);
  check_b "undefine refunds" true (Nvram.undefine nv ~index:1 = Ok ());
  check_b "fits again" true (Nvram.define nv ~index:2 ~size:60 ~attrs:Types.nv_attrs_default = Ok ())

let test_nv_bounds () =
  let nv = Nvram.create () in
  ignore (Nvram.define nv ~index:1 ~size:8 ~attrs:Types.nv_attrs_default);
  check_b "write overflow" true
    (Nvram.write nv ~index:1 ~offset:5 ~data:"toolong" ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Error Types.tpm_nospace);
  check_b "read overflow" true
    (Nvram.read nv ~index:1 ~offset:5 ~length:10 ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Error Types.tpm_nospace);
  check_b "missing index" true
    (Nvram.read nv ~index:9 ~offset:0 ~length:1 ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Error Types.tpm_badindex)

let test_nv_write_once () =
  let nv = Nvram.create () in
  let attrs = { Types.nv_attrs_default with Types.nv_write_once = true } in
  ignore (Nvram.define nv ~index:1 ~size:8 ~attrs);
  check_b "first write" true
    (Nvram.write nv ~index:1 ~offset:0 ~data:"x" ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Ok ());
  check_b "locked after" true
    (Nvram.write nv ~index:1 ~offset:0 ~data:"y" ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Error Types.tpm_area_locked)

let test_nv_owner_gate () =
  let nv = Nvram.create () in
  let attrs = { Types.nv_attrs_default with Types.nv_owner_write = true; nv_owner_read = true } in
  ignore (Nvram.define nv ~index:1 ~size:8 ~attrs);
  check_b "unauthorized write" true
    (Nvram.write nv ~index:1 ~offset:0 ~data:"x" ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Error Types.tpm_authfail);
  check_b "authorized write" true
    (Nvram.write nv ~index:1 ~offset:0 ~data:"x" ~owner_authorized:true
       ~composite_now:composite_const ~expected_digest:None
    = Ok ());
  check_b "unauthorized read" true
    (Nvram.read nv ~index:1 ~offset:0 ~length:1 ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Error Types.tpm_authfail)

let test_nv_serialization () =
  let nv = Nvram.create () in
  ignore (Nvram.define nv ~index:7 ~size:16 ~attrs:Types.nv_attrs_default);
  ignore
    (Nvram.write nv ~index:7 ~offset:0 ~data:"persist" ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None);
  let w = Vtpm_util.Codec.writer () in
  Nvram.serialize nv w;
  let nv2 = Nvram.deserialize (Vtpm_util.Codec.reader (Vtpm_util.Codec.contents w)) in
  check_b "data preserved" true
    (Nvram.read nv2 ~index:7 ~offset:0 ~length:7 ~owner_authorized:false
       ~composite_now:composite_const ~expected_digest:None
    = Ok "persist")

(* --- Keystore ----------------------------------------------------------------- *)

let keygen_rng = lazy (Vtpm_util.Rng.create ~seed:71)

let make_material usage =
  {
    Keystore.usage;
    rsa = Vtpm_crypto.Rsa.generate ~bits:256 (Lazy.force keygen_rng);
    usage_auth = Vtpm_crypto.Sha1.digest "auth";
    migratable = false;
    pcr_bound = no_pcr;
    pcr_digest_at_creation = None;
  }

let test_keystore_wrap_unwrap () =
  let parent = make_material Types.Storage in
  let child = make_material Types.Signing in
  let blob = Keystore.wrap ~parent child in
  match Keystore.unwrap ~parent blob with
  | Ok m ->
      check_b "usage" true (m.Keystore.usage = Types.Signing);
      check_s "auth" child.Keystore.usage_auth m.Keystore.usage_auth;
      check_b "private key preserved" true
        (Vtpm_crypto.Bignum.equal m.Keystore.rsa.d child.Keystore.rsa.d)
  | Error rc -> Alcotest.failf "unwrap failed rc=0x%x" rc

let test_keystore_wrong_parent () =
  let parent = make_material Types.Storage in
  let other = make_material Types.Storage in
  let blob = Keystore.wrap ~parent (make_material Types.Signing) in
  check_b "wrong parent rejected" true (Result.is_error (Keystore.unwrap ~parent:other blob))

let test_keystore_blob_tamper () =
  let parent = make_material Types.Storage in
  let blob = Bytes.of_string (Keystore.wrap ~parent (make_material Types.Signing)) in
  Bytes.set blob 12 (Char.chr (Char.code (Bytes.get blob 12) lxor 0x40));
  check_b "tampered rejected" true
    (Keystore.unwrap ~parent (Bytes.to_string blob) = Error Types.tpm_authfail)

let test_keystore_context_separation () =
  let key = make_material Types.Storage in
  let blob = Keystore.protect ~key ~context:"ctx-a" ~nonce8:"12345678" "payload" in
  check_b "wrong context rejected" true
    (Result.is_error (Keystore.unprotect ~key ~context:"ctx-b" blob));
  check_b "right context ok" true (Keystore.unprotect ~key ~context:"ctx-a" blob = Ok "payload")

let test_keystore_capacity () =
  let ks = Keystore.create ~max_loaded:2 () in
  let m = make_material Types.Signing in
  check_b "first" true (Result.is_ok (Keystore.insert ks ~parent:0 m));
  check_b "second" true (Result.is_ok (Keystore.insert ks ~parent:0 m));
  check_b "third rejected" true (Keystore.insert ks ~parent:0 m = Error Types.tpm_resources);
  (match Keystore.insert ks ~parent:0 m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected resource error");
  check_b "evict missing" true (Keystore.evict ks 0x999 = Error Types.tpm_keynotfound)

(* Material whose primes share a factor has no CRT coefficient: the
   import must refuse it rather than build a key that signs wrongly. *)
let test_keystore_shared_factor_rejected () =
  let m = make_material Types.Signing in
  let p = m.Keystore.rsa.Vtpm_crypto.Rsa.p in
  List.iter
    (fun (name, q) ->
      let bad = { m with Keystore.rsa = { m.Keystore.rsa with Vtpm_crypto.Rsa.q } } in
      check_b name true
        (Keystore.deserialize_material (Keystore.serialize_material bad) = Error Types.tpm_bad_parameter))
    [ ("q = p", p); ("q = 3p", Vtpm_crypto.Bignum.mul p (Vtpm_crypto.Bignum.of_int 3)) ]

(* --- Engine + client flows ------------------------------------------------------- *)

let make_engine ?(seed = 7) () =
  let engine = Engine.create ~rsa_bits:256 ~seed () in
  let transport ~locality bytes =
    Wire.encode_response (Engine.execute engine ~locality (Wire.decode_request bytes))
  in
  (engine, transport)

let client_of transport = Client.create (transport ~locality:0)

let unwrap what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Client.pp_error e

let owned_client ?(seed = 7) () =
  let engine, transport = make_engine ~seed () in
  let c = client_of transport in
  unwrap "startup" (Client.startup c Types.St_clear);
  let owner_auth = Vtpm_crypto.Sha1.digest "owner" in
  let srk_auth = Vtpm_crypto.Sha1.digest "srk" in
  let _ = unwrap "takeown" (Client.take_ownership c ~owner_auth ~srk_auth) in
  (engine, transport, c, owner_auth, srk_auth)

let test_engine_get_capability () =
  let _, transport = make_engine () in
  let c = client_of transport in
  let resp =
    unwrap "cap"
      (Client.exchange c (Cmd.Get_capability { cap = Types.cap_property; sub = Types.cap_prop_pcr }))
  in
  (match resp.Cmd.body with
  | Cmd.R_capability s ->
      check_i "pcr count" Types.pcr_count
        (Vtpm_util.Codec.read_u32_int (Vtpm_util.Codec.reader s))
  | _ -> Alcotest.fail "bad body");
  check_b "unknown cap" true
    (Client.exchange c (Cmd.Get_capability { cap = 0x42; sub = 0 })
    = Error (Client.Tpm Types.tpm_bad_parameter))

let test_engine_get_random () =
  let _, transport = make_engine () in
  let c = client_of transport in
  let a = unwrap "rand" (Client.get_random c ~length:32) in
  let b = unwrap "rand" (Client.get_random c ~length:32) in
  check_i "len" 32 (String.length a);
  check_b "fresh" true (a <> b);
  check_b "zero rejected" true (Client.get_random c ~length:0 = Error (Client.Tpm Types.tpm_bad_parameter))

let test_engine_read_pubek_rules () =
  let _, transport = make_engine () in
  let c = client_of transport in
  let _ = unwrap "pubek before owner" (Client.read_pubek c) in
  let owner_auth = Vtpm_crypto.Sha1.digest "o" and srk_auth = Vtpm_crypto.Sha1.digest "s" in
  let _ = unwrap "takeown" (Client.take_ownership c ~owner_auth ~srk_auth) in
  check_b "pubek hidden after ownership" true
    (Client.read_pubek c = Error (Client.Tpm Types.tpm_no_endorsement))

let test_engine_double_ownership () =
  let _, _, c, _, _ = owned_client () in
  check_b "second takeown rejected" true
    (Client.take_ownership c ~owner_auth:"x" ~srk_auth:"y"
    = Error (Client.Tpm Types.tpm_owner_set))

let test_engine_key_hierarchy () =
  let _, _, c, _, srk_auth = owned_client () in
  let sess = unwrap "osap" (Client.start_osap c ~entity_handle:Types.kh_srk ~usage_secret:srk_auth) in
  let key_auth = Vtpm_crypto.Sha1.digest "ka" in
  let blob, pub =
    unwrap "create" (Client.create_wrap_key c sess ~parent:Types.kh_srk ~usage:Types.Signing ~key_auth ())
  in
  let handle = unwrap "load" (Client.load_key2 c sess ~parent:Types.kh_srk ~blob) in
  check_b "transient handle range" true (handle >= 0x01000000);
  let s2 = unwrap "oiap" (Client.start_oiap c ~usage_secret:key_auth) in
  let digest = Vtpm_crypto.Sha1.digest "doc" in
  let signature = unwrap "sign" (Client.sign c s2 ~key:handle ~digest) in
  check_b "verifies against returned pub" true
    (Vtpm_crypto.Rsa.verify pub ~digest ~signature)

let test_engine_sign_requires_signing_key () =
  let _, _, c, _, srk_auth = owned_client () in
  let sess = unwrap "oiap" (Client.start_oiap c ~usage_secret:srk_auth) in
  check_b "srk cannot sign" true
    (Client.sign c sess ~key:Types.kh_srk ~digest:(Vtpm_crypto.Sha1.digest "d")
    = Error (Client.Tpm Types.tpm_invalid_keyusage))

let test_engine_seal_requires_storage_key () =
  let _, _, c, _, srk_auth = owned_client () in
  let sess = unwrap "osap" (Client.start_osap c ~entity_handle:Types.kh_srk ~usage_secret:srk_auth) in
  let key_auth = Vtpm_crypto.Sha1.digest "ka" in
  let blob, _ =
    unwrap "create" (Client.create_wrap_key c sess ~parent:Types.kh_srk ~usage:Types.Signing ~key_auth ())
  in
  let handle = unwrap "load" (Client.load_key2 c sess ~parent:Types.kh_srk ~blob) in
  let s2 = unwrap "oiap" (Client.start_oiap c ~usage_secret:key_auth) in
  check_b "signing key cannot seal" true
    (Client.seal c s2 ~key:handle ~pcr_sel:no_pcr ~blob_auth:"b" ~data:"d"
    = Error (Client.Tpm Types.tpm_invalid_keyusage))

let test_engine_wrong_auth_rejected () =
  let _, _, c, _, _srk_auth = owned_client () in
  let bad = unwrap "oiap" (Client.start_oiap c ~usage_secret:(Vtpm_crypto.Sha1.digest "wrong")) in
  check_b "bad secret fails" true
    (Client.seal c bad ~key:Types.kh_srk ~pcr_sel:no_pcr ~blob_auth:"b" ~data:"d"
    = Error (Client.Tpm Types.tpm_authfail))

let test_engine_replay_rejected () =
  (* Capture the raw wire bytes of an authorized command and replay them:
     the rolling nonceEven must make the replay fail. *)
  let engine, _ = make_engine () in
  let captured = ref None in
  let transport bytes =
    (match Wire.peek_header bytes with
    | Some { Wire.ordinal; _ } when ordinal = Types.ord_seal -> captured := Some bytes
    | _ -> ());
    Wire.encode_response (Engine.execute engine ~locality:0 (Wire.decode_request bytes))
  in
  let c = Client.create transport in
  unwrap "startup" (Client.startup c Types.St_clear);
  let srk_auth = Vtpm_crypto.Sha1.digest "srk" in
  let _ = unwrap "takeown" (Client.take_ownership c ~owner_auth:"o" ~srk_auth) in
  let sess = unwrap "oiap" (Client.start_oiap c ~usage_secret:srk_auth) in
  let _ = unwrap "seal" (Client.seal c sess ~key:Types.kh_srk ~pcr_sel:no_pcr ~blob_auth:"b" ~data:"d") in
  match !captured with
  | None -> Alcotest.fail "no seal captured"
  | Some bytes ->
      let resp = Engine.execute engine ~locality:0 (Wire.decode_request bytes) in
      check_i "replay fails authfail" Types.tpm_authfail resp.Cmd.rc

let test_engine_session_exhaustion_and_reuse () =
  let _, _, c, _, srk_auth = owned_client () in
  (* Engine default allows 8 concurrent sessions. *)
  let sessions = List.init 8 (fun _ -> unwrap "oiap" (Client.start_oiap c ~usage_secret:srk_auth)) in
  check_b "9th rejected" true (Client.start_oiap c ~usage_secret:srk_auth = Error (Client.Tpm Types.tpm_resources));
  (* A one-shot op (continue=false) frees its session slot. *)
  let s = List.hd sessions in
  let _ = unwrap "seal" (Client.seal ~continue:false c s ~key:Types.kh_srk ~pcr_sel:no_pcr ~blob_auth:"b" ~data:"d") in
  let _ = unwrap "slot freed" (Client.start_oiap c ~usage_secret:srk_auth) in
  ()

let test_engine_seal_unseal_pcr_binding () =
  let _, _, c, _, srk_auth = owned_client () in
  let _ = unwrap "measure" (Client.measure c ~pcr:11 ~event:"boot") in
  let sel = Types.Pcr_selection.of_list [ 11 ] in
  let blob_auth = Vtpm_crypto.Sha1.digest "blob" in
  let s = unwrap "oiap" (Client.start_oiap c ~usage_secret:srk_auth) in
  let sealed = unwrap "seal" (Client.seal c s ~key:Types.kh_srk ~pcr_sel:sel ~blob_auth ~data:"secret") in
  let ks = unwrap "oiap" (Client.start_oiap c ~usage_secret:srk_auth) in
  let ds = unwrap "oiap" (Client.start_oiap c ~usage_secret:blob_auth) in
  check_s "unseal before change" "secret"
    (unwrap "unseal" (Client.unseal c ~key_session:ks ~data_session:ds ~key:Types.kh_srk ~blob:sealed));
  let _ = unwrap "measure2" (Client.measure c ~pcr:11 ~event:"tamper") in
  let ks = unwrap "oiap" (Client.start_oiap c ~usage_secret:srk_auth) in
  let ds = unwrap "oiap" (Client.start_oiap c ~usage_secret:blob_auth) in
  check_b "unseal after change fails" true
    (Client.unseal c ~key_session:ks ~data_session:ds ~key:Types.kh_srk ~blob:sealed
    = Error (Client.Tpm Types.tpm_wrongpcrval))

let test_engine_unseal_wrong_blob_auth () =
  let _, _, c, _, srk_auth = owned_client () in
  let s = unwrap "oiap" (Client.start_oiap c ~usage_secret:srk_auth) in
  let sealed =
    unwrap "seal"
      (Client.seal c s ~key:Types.kh_srk ~pcr_sel:no_pcr
         ~blob_auth:(Vtpm_crypto.Sha1.digest "right") ~data:"secret")
  in
  let ks = unwrap "oiap" (Client.start_oiap c ~usage_secret:srk_auth) in
  let ds = unwrap "oiap" (Client.start_oiap c ~usage_secret:(Vtpm_crypto.Sha1.digest "wrong")) in
  check_b "wrong data auth" true
    (Client.unseal c ~key_session:ks ~data_session:ds ~key:Types.kh_srk ~blob:sealed
    = Error (Client.Tpm Types.tpm_authfail))

let test_engine_quote_verifies () =
  let _, _, c, _, srk_auth = owned_client () in
  let sess = unwrap "osap" (Client.start_osap c ~entity_handle:Types.kh_srk ~usage_secret:srk_auth) in
  let key_auth = Vtpm_crypto.Sha1.digest "aik" in
  let blob, _ = unwrap "create" (Client.create_wrap_key c sess ~parent:Types.kh_srk ~usage:Types.Signing ~key_auth ()) in
  let handle = unwrap "load" (Client.load_key2 c sess ~parent:Types.kh_srk ~blob) in
  let s2 = unwrap "oiap" (Client.start_oiap c ~usage_secret:key_auth) in
  let nonce = String.make 20 'n' in
  let sel = Types.Pcr_selection.of_list [ 0; 1 ] in
  let composite, signature, pub = unwrap "quote" (Client.quote c s2 ~key:handle ~external_data:nonce ~pcr_sel:sel) in
  check_b "verifies" true (Engine.verify_quote ~pubkey:pub ~composite ~external_data:nonce ~signature);
  check_b "nonce binds" false
    (Engine.verify_quote ~pubkey:pub ~composite ~external_data:(String.make 20 'x') ~signature);
  check_b "composite binds" false
    (Engine.verify_quote ~pubkey:pub ~composite:(String.make 20 'c') ~external_data:nonce ~signature)

let test_engine_quote_bad_nonce_size () =
  (* The wire codec fixes the nonce width, so an undersized nonce can only
     reach the engine through the structured interface. *)
  let engine, _ = make_engine () in
  let req =
    Cmd.Quote
      {
        key = Types.kh_srk;
        external_data = String.make 19 'n';
        pcr_sel = no_pcr;
        auth = { Auth.handle = 0; nonce_odd = ""; continue = false; hmac = "" };
      }
  in
  let resp = Engine.execute engine ~locality:0 req in
  check_i "19-byte nonce rejected" Types.tpm_bad_parameter resp.Cmd.rc

let test_engine_counters () =
  let _, _, c, owner_auth, _ = owned_client () in
  let osess = unwrap "oiap" (Client.start_oiap c ~usage_secret:owner_auth) in
  let counter_auth = Vtpm_crypto.Sha1.digest "ctr" in
  let resp =
    unwrap "create"
      (Client.authorized c osess ~make_req:(fun auth ->
           Cmd.Create_counter { label = "boot"; counter_auth; auth }))
  in
  let handle =
    match resp.Cmd.body with
    | Cmd.R_counter { handle; value; _ } ->
        check_i "starts at zero" 0 value;
        handle
    | _ -> Alcotest.fail "bad body"
  in
  let csess = unwrap "oiap" (Client.start_oiap c ~usage_secret:counter_auth) in
  let resp = unwrap "inc" (Client.authorized c csess ~make_req:(fun auth -> Cmd.Increment_counter { handle; auth })) in
  (match resp.Cmd.body with
  | Cmd.R_counter { value; _ } -> check_i "incremented" 1 value
  | _ -> Alcotest.fail "bad body");
  let resp = unwrap "read" (Client.exchange c (Cmd.Read_counter { handle })) in
  (match resp.Cmd.body with
  | Cmd.R_counter { value; label; _ } ->
      check_i "read back" 1 value;
      check_s "label" "boot" label
  | _ -> Alcotest.fail "bad body");
  check_b "bad handle" true
    (Client.exchange c (Cmd.Read_counter { handle = 0x9999 }) = Error (Client.Tpm Types.tpm_bad_counter))

let test_engine_owner_clear () =
  let _, _, c, owner_auth, srk_auth = owned_client () in
  let osess = unwrap "oiap" (Client.start_oiap c ~usage_secret:owner_auth) in
  let _ = unwrap "clear" (Client.authorized c osess ~make_req:(fun auth -> Cmd.Owner_clear { auth })) in
  (* After clear: no SRK. *)
  check_b "srk gone" true
    (match Client.start_oiap c ~usage_secret:srk_auth with
    | Ok s -> Client.seal c s ~key:Types.kh_srk ~pcr_sel:no_pcr ~blob_auth:"b" ~data:"d" = Error (Client.Tpm Types.tpm_nosrk)
    | Error _ -> false)

let test_engine_force_clear_locality () =
  let engine, transport = make_engine () in
  let c0 = client_of transport in
  unwrap "startup" (Client.startup c0 Types.St_clear);
  let _ = unwrap "takeown" (Client.take_ownership c0 ~owner_auth:"o" ~srk_auth:"s") in
  let resp = Engine.execute engine ~locality:0 Cmd.Force_clear in
  check_i "locality 0 rejected" Types.tpm_bad_locality resp.Cmd.rc;
  let resp = Engine.execute engine ~locality:4 Cmd.Force_clear in
  check_i "locality 4 ok" Types.tpm_success resp.Cmd.rc;
  check_b "owner gone" false (Engine.has_owner engine)

let test_engine_state_roundtrip () =
  let engine, _, c, _owner_auth, srk_auth = owned_client () in
  let _ = unwrap "measure" (Client.measure c ~pcr:5 ~event:"ev") in
  let s = unwrap "oiap" (Client.start_oiap c ~usage_secret:srk_auth) in
  let sealed = unwrap "seal" (Client.seal c s ~key:Types.kh_srk ~pcr_sel:no_pcr ~blob_auth:(Vtpm_crypto.Sha1.digest "b") ~data:"keepme") in
  let state = Engine.serialize_state engine in
  match Engine.deserialize_state state with
  | Error m -> Alcotest.fail m
  | Ok e2 ->
      let t2 bytes = Wire.encode_response (Engine.execute e2 ~locality:0 (Wire.decode_request bytes)) in
      let c2 = Client.create t2 in
      check_s "pcr preserved"
        (unwrap "read" (Client.pcr_read c ~pcr:5))
        (unwrap "read2" (Client.pcr_read c2 ~pcr:5));
      (* Sealed data made before the save unseals after restore. *)
      let ks = unwrap "oiap" (Client.start_oiap c2 ~usage_secret:srk_auth) in
      let ds = unwrap "oiap" (Client.start_oiap c2 ~usage_secret:(Vtpm_crypto.Sha1.digest "b")) in
      check_s "unseal after restore" "keepme"
        (unwrap "unseal" (Client.unseal c2 ~key_session:ks ~data_session:ds ~key:Types.kh_srk ~blob:sealed))

let test_engine_state_truncated () =
  let engine, _ = make_engine () in
  let state = Engine.serialize_state engine in
  check_b "truncated rejected" true
    (Result.is_error (Engine.deserialize_state (String.sub state 0 (String.length state / 2))))

let test_engine_deterministic_by_seed () =
  let e1 = Engine.create ~rsa_bits:256 ~seed:5 () in
  let e2 = Engine.create ~rsa_bits:256 ~seed:5 () in
  check_b "same EK for same seed" true
    (Vtpm_crypto.Bignum.equal e1.Engine.ek.Keystore.rsa.pub.n e2.Engine.ek.Keystore.rsa.pub.n);
  let e3 = Engine.create ~rsa_bits:256 ~seed:6 () in
  check_b "different seed different EK" false
    (Vtpm_crypto.Bignum.equal e1.Engine.ek.Keystore.rsa.pub.n e3.Engine.ek.Keystore.rsa.pub.n)

(* --- Wire codec -------------------------------------------------------------------- *)

let dummy_proof =
  { Auth.handle = 0x02000001; nonce_odd = String.make 20 'o'; continue = true; hmac = String.make 20 'h' }

let sample_requests : Cmd.request list =
  [
    Cmd.Startup Types.St_clear;
    Cmd.Self_test_full;
    Cmd.Get_capability { cap = 5; sub = 0x101 };
    Cmd.Extend { pcr = 3; digest = String.make 20 'd' };
    Cmd.Pcr_read { pcr = 22 };
    Cmd.Pcr_reset { pcr = 16 };
    Cmd.Get_random { length = 64 };
    Cmd.Stir_random { data = "entropy" };
    Cmd.Oiap;
    Cmd.Osap { entity_handle = Types.kh_srk; nonce_odd_osap = String.make 20 'n' };
    Cmd.Take_ownership { owner_auth = "oa"; srk_auth = "sa" };
    Cmd.Owner_clear { auth = dummy_proof };
    Cmd.Force_clear;
    Cmd.Read_pubek;
    Cmd.Create_wrap_key
      {
        parent = Types.kh_srk;
        usage = Types.Signing;
        key_auth = "ka";
        migratable = true;
        pcr_bound = Types.Pcr_selection.of_list [ 1; 2 ];
        auth = dummy_proof;
      };
    Cmd.Load_key2 { parent = Types.kh_srk; blob = "blobbytes"; auth = dummy_proof };
    Cmd.Flush_specific { handle = 0x01000004 };
    Cmd.Seal
      {
        key = Types.kh_srk;
        pcr_sel = Types.Pcr_selection.of_list [ 10 ];
        blob_auth = "ba";
        data = "payload";
        auth = dummy_proof;
      };
    Cmd.Unseal { key = Types.kh_srk; blob = "sealed"; key_auth = dummy_proof; data_auth = dummy_proof };
    Cmd.Sign { key = 0x01000001; digest = "dg"; auth = dummy_proof };
    Cmd.Quote
      {
        key = 0x01000001;
        external_data = String.make 20 'e';
        pcr_sel = Types.Pcr_selection.of_list [ 0; 23 ];
        auth = dummy_proof;
      };
    Cmd.Nv_define_space { index = 0x1500; size = 64; attrs = Types.nv_attrs_default; auth = None };
    Cmd.Nv_define_space
      {
        index = 0x1501;
        size = 32;
        attrs = { Types.nv_attrs_default with Types.nv_owner_read = true };
        auth = Some dummy_proof;
      };
    Cmd.Nv_write_value { index = 0x1500; offset = 4; data = "nvdata"; auth = None };
    Cmd.Nv_read_value { index = 0x1500; offset = 4; length = 6; auth = Some dummy_proof };
    Cmd.Create_counter { label = "lbl1"; counter_auth = "ca"; auth = dummy_proof };
    Cmd.Increment_counter { handle = 0x03000000; auth = dummy_proof };
    Cmd.Read_counter { handle = 0x03000000 };
    Cmd.Release_counter { handle = 0x03000000; auth = dummy_proof };
    Cmd.Save_state;
  ]

let test_wire_request_roundtrip () =
  List.iter
    (fun req ->
      let bytes = Wire.encode_request req in
      let back = Wire.decode_request bytes in
      check_b (Types.ordinal_name (Cmd.ordinal req)) true (back = req))
    sample_requests

let test_wire_request_covers_all_ordinals () =
  let covered = List.sort_uniq Stdlib.compare (List.map Cmd.ordinal sample_requests) in
  check_i "every implemented ordinal has a roundtrip case"
    (List.length Types.all_ordinals) (List.length covered)

let test_wire_header_peek () =
  let bytes = Wire.encode_request (Cmd.Pcr_read { pcr = 7 }) in
  match Wire.peek_header bytes with
  | Some { Wire.tag; size; ordinal } ->
      check_i "tag" Types.tag_rqu_command tag;
      check_i "size" (String.length bytes) size;
      check_i "ordinal" Types.ord_pcr_read ordinal
  | None -> Alcotest.fail "no header"

let test_wire_malformed () =
  (try
     ignore (Wire.decode_request "\x00\xc1\x00\x00\x00\x0a\x00\x00\x00");
     Alcotest.fail "short frame accepted"
   with Wire.Malformed _ -> ());
  let bytes = Wire.encode_request Cmd.Oiap ^ "junk" in
  (try
     ignore (Wire.decode_request bytes);
     Alcotest.fail "size mismatch accepted"
   with Wire.Malformed _ -> ());
  (* Corrupt the tag. *)
  let b = Bytes.of_string (Wire.encode_request Cmd.Oiap) in
  Bytes.set b 0 '\xff';
  (try
     ignore (Wire.decode_request (Bytes.to_string b));
     Alcotest.fail "bad tag accepted"
   with Wire.Malformed _ -> ())

let rsa_key_for_wire = lazy (Vtpm_crypto.Rsa.generate ~bits:256 (Vtpm_util.Rng.create ~seed:53))

let test_wire_response_roundtrip () =
  let pub = (Lazy.force rsa_key_for_wire).Vtpm_crypto.Rsa.pub in
  let bodies =
    [
      Cmd.R_ok;
      Cmd.R_capability "cap";
      Cmd.R_extend { new_value = String.make 20 'v' };
      Cmd.R_pcr_value (String.make 20 'p');
      Cmd.R_random "rnd";
      Cmd.R_session { handle = 7; nonce_even = String.make 20 'n'; nonce_even_osap = None };
      Cmd.R_session
        { handle = 8; nonce_even = String.make 20 'n'; nonce_even_osap = Some (String.make 20 'm') };
      Cmd.R_pubkey pub;
      Cmd.R_key_blob { blob = "blob"; pubkey = pub };
      Cmd.R_key_handle 0x01000009;
      Cmd.R_sealed "sealed";
      Cmd.R_unsealed "plain";
      Cmd.R_signature "sig";
      Cmd.R_quote { composite = String.make 20 'c'; signature = "sg"; sig_pubkey = pub };
      Cmd.R_nv_data "nv";
      Cmd.R_counter { handle = 3; label = "lbl"; value = 42 };
      Cmd.R_saved_state "state";
    ]
  in
  List.iter
    (fun body ->
      List.iter
        (fun nonce_even ->
          let resp = { Cmd.rc = Types.tpm_success; body; nonce_even } in
          let back = Wire.decode_response (Wire.encode_response resp) in
          check_b "roundtrip" true (back = resp))
        [ None; Some (String.make 20 'e') ])
    bodies;
  (* Error responses *)
  let err = Cmd.error Types.tpm_authfail in
  check_b "error roundtrip" true (Wire.decode_response (Wire.encode_response err) = err)

let test_param_digest_excludes_auth () =
  (* The auth trailer must not feed the param digest, or HMACs could never
     be computed. *)
  let p1 = dummy_proof in
  let p2 = { dummy_proof with Auth.nonce_odd = String.make 20 'z' } in
  let d1 = Cmd.param_digest (Cmd.Sign { key = 1; digest = "d"; auth = p1 }) in
  let d2 = Cmd.param_digest (Cmd.Sign { key = 1; digest = "d"; auth = p2 }) in
  check_s "auth independent" (Vtpm_util.Hex.encode d1) (Vtpm_util.Hex.encode d2);
  let d3 = Cmd.param_digest (Cmd.Sign { key = 2; digest = "d"; auth = p1 }) in
  check_b "params dependent" true (d1 <> d3)

(* --- Wire fuzzing ------------------------------------------------------------------ *)

(* Generator over a representative slice of the request space. *)
let gen_request : Cmd.request QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_digest = map (fun s -> Vtpm_crypto.Sha1.digest s) string in
  let gen_proof =
    map2
      (fun h nonce ->
        { Auth.handle = 0x02000000 + (h land 0xff); nonce_odd = Vtpm_crypto.Sha1.digest nonce;
          continue = h land 1 = 0; hmac = Vtpm_crypto.Sha1.digest (nonce ^ "h") })
      int string
  in
  let gen_sel =
    map (fun l -> Types.Pcr_selection.of_list (List.map (fun i -> i mod Types.pcr_count) l))
      (list_size (int_bound 5) (int_bound 100))
  in
  oneof
    [
      map (fun p -> Cmd.Pcr_read { pcr = abs p mod 64 }) int;
      map2 (fun p d -> Cmd.Extend { pcr = abs p mod 64; digest = d }) int gen_digest;
      map (fun n -> Cmd.Get_random { length = n land 0xffff }) int;
      map (fun d -> Cmd.Stir_random { data = d }) string;
      map2 (fun h d -> Cmd.Osap { entity_handle = h land 0xffffff; nonce_odd_osap = d }) int gen_digest;
      map2 (fun a b -> Cmd.Take_ownership { owner_auth = a; srk_auth = b }) string string;
      map3
        (fun blob sel proof -> Cmd.Seal { key = Types.kh_srk; pcr_sel = sel; blob_auth = "ba"; data = blob; auth = proof })
        string gen_sel gen_proof;
      map2 (fun blob proof -> Cmd.Load_key2 { parent = Types.kh_srk; blob; auth = proof }) string gen_proof;
      map3
        (fun d sel proof -> Cmd.Quote { key = 0x01000001; external_data = d; pcr_sel = sel; auth = proof })
        gen_digest gen_sel gen_proof;
      map2
        (fun i d -> Cmd.Nv_write_value { index = i land 0xffff; offset = 0; data = d; auth = None })
        int string;
    ]

let prop_wire_roundtrip_fuzz =
  QCheck.Test.make ~name:"wire request roundtrip (fuzz)" ~count:500 (QCheck.make gen_request)
    (fun req -> Wire.decode_request (Wire.encode_request req) = req)

let prop_wire_header_consistent =
  QCheck.Test.make ~name:"peek_header agrees with decode" ~count:300 (QCheck.make gen_request)
    (fun req ->
      let bytes = Wire.encode_request req in
      match Wire.peek_header bytes with
      | Some { Wire.ordinal; size; _ } -> ordinal = Cmd.ordinal req && size = String.length bytes
      | None -> false)

let prop_wire_decode_never_crashes =
  (* Arbitrary bytes either decode or raise Malformed — never anything
     else, and never a crash. *)
  QCheck.Test.make ~name:"decode of random bytes is total" ~count:1000 QCheck.string (fun s ->
      match Wire.decode_request s with
      | _ -> true
      | exception Wire.Malformed _ -> true
      | exception _ -> false)

let prop_wire_truncation_rejected =
  QCheck.Test.make ~name:"truncated frames rejected" ~count:300
    (QCheck.pair (QCheck.make gen_request) (QCheck.int_range 1 10))
    (fun (req, cut) ->
      let bytes = Wire.encode_request req in
      let n = String.length bytes in
      if cut >= n then true
      else
        match Wire.decode_request (String.sub bytes 0 (n - cut)) with
        | _ -> false (* size field must catch it *)
        | exception Wire.Malformed _ -> true)

(* --- Event log --------------------------------------------------------------------- *)

let test_eventlog_replay_matches_tpm () =
  (* Extending the TPM with exactly the logged digests must make the log's
     replay reproduce the live PCR values. *)
  let engine, transport = make_engine () in
  let c = client_of transport in
  let log = Eventlog.create () in
  List.iteri
    (fun i data ->
      let digest = Eventlog.record log ~pcr:(10 + (i mod 2)) ~event_type:Eventlog.ev_ipl
          ~description:(Printf.sprintf "module-%d" i) ~data in
      ignore (unwrap "extend" (Client.extend c ~pcr:(10 + (i mod 2)) ~digest)))
    [ "kernel"; "initrd"; "cmdline"; "app" ];
  ignore engine;
  check_s "pcr10 replayed" (unwrap "read" (Client.pcr_read c ~pcr:10)) (Eventlog.expected_pcr log ~pcr:10);
  check_s "pcr11 replayed" (unwrap "read" (Client.pcr_read c ~pcr:11)) (Eventlog.expected_pcr log ~pcr:11);
  let sel = Types.Pcr_selection.of_list [ 10; 11 ] in
  check_s "composite replayed"
    (Vtpm_util.Hex.encode (Engine.composite_now engine sel))
    (Vtpm_util.Hex.encode (Eventlog.expected_composite log sel))

let test_eventlog_order_sensitive () =
  let l1 = Eventlog.create () and l2 = Eventlog.create () in
  ignore (Eventlog.record l1 ~pcr:0 ~event_type:0 ~description:"a" ~data:"a");
  ignore (Eventlog.record l1 ~pcr:0 ~event_type:0 ~description:"b" ~data:"b");
  ignore (Eventlog.record l2 ~pcr:0 ~event_type:0 ~description:"b" ~data:"b");
  ignore (Eventlog.record l2 ~pcr:0 ~event_type:0 ~description:"a" ~data:"a");
  check_b "order matters" true (Eventlog.expected_pcr l1 ~pcr:0 <> Eventlog.expected_pcr l2 ~pcr:0)

let test_eventlog_serialization () =
  let log = Eventlog.create () in
  ignore (Eventlog.record log ~pcr:3 ~event_type:Eventlog.ev_action ~description:"boot" ~data:"x");
  ignore (Eventlog.record log ~pcr:7 ~event_type:Eventlog.ev_separator ~description:"" ~data:"");
  match Eventlog.deserialize (Eventlog.serialize log) with
  | Ok log2 ->
      check_i "length" 2 (Eventlog.length log2);
      check_b "events preserved" true (Eventlog.events log = Eventlog.events log2);
      check_s "replay equal"
        (Eventlog.expected_pcr log ~pcr:3)
        (Eventlog.expected_pcr log2 ~pcr:3)
  | Error m -> Alcotest.fail m

let test_eventlog_deserialize_garbage () =
  check_b "garbage rejected" true (Result.is_error (Eventlog.deserialize "oops"));
  let good = Eventlog.serialize (Eventlog.create ()) in
  check_b "trailing rejected" true (Result.is_error (Eventlog.deserialize (good ^ "x")))

let test_eventlog_bad_digest_size () =
  let log = Eventlog.create () in
  Alcotest.check_raises "short digest"
    (Invalid_argument "Eventlog.record_digest: digest must be 20 bytes") (fun () ->
      Eventlog.record_digest log ~pcr:0 ~event_type:0 ~description:"" ~digest:"short")

let suite =
  [
    Alcotest.test_case "pcr initial values" `Quick test_pcr_initial_values;
    Alcotest.test_case "pcr extend algebra" `Quick test_pcr_extend_algebra;
    Alcotest.test_case "pcr extend order" `Quick test_pcr_extend_order_matters;
    Alcotest.test_case "pcr bad index" `Quick test_pcr_bad_index;
    Alcotest.test_case "pcr bad measurement size" `Quick test_pcr_bad_measurement_size;
    Alcotest.test_case "pcr reset rules" `Quick test_pcr_reset_rules;
    Alcotest.test_case "pcr drtm locality" `Quick test_pcr_drtm_extend_locality;
    Alcotest.test_case "pcr composite" `Quick test_pcr_composite_stability;
    Alcotest.test_case "pcr selection bitmap" `Quick test_pcr_selection_bitmap;
    Alcotest.test_case "pcr serialization" `Quick test_pcr_serialization;
    Alcotest.test_case "nv define/write/read" `Quick test_nv_define_write_read;
    Alcotest.test_case "nv double define" `Quick test_nv_double_define;
    Alcotest.test_case "nv budget" `Quick test_nv_budget;
    Alcotest.test_case "nv bounds" `Quick test_nv_bounds;
    Alcotest.test_case "nv write once" `Quick test_nv_write_once;
    Alcotest.test_case "nv owner gate" `Quick test_nv_owner_gate;
    Alcotest.test_case "nv serialization" `Quick test_nv_serialization;
    Alcotest.test_case "keystore wrap/unwrap" `Quick test_keystore_wrap_unwrap;
    Alcotest.test_case "keystore wrong parent" `Quick test_keystore_wrong_parent;
    Alcotest.test_case "keystore blob tamper" `Quick test_keystore_blob_tamper;
    Alcotest.test_case "keystore context separation" `Quick test_keystore_context_separation;
    Alcotest.test_case "keystore capacity" `Quick test_keystore_capacity;
    Alcotest.test_case "engine get capability" `Quick test_engine_get_capability;
    Alcotest.test_case "engine get random" `Quick test_engine_get_random;
    Alcotest.test_case "engine read pubek rules" `Quick test_engine_read_pubek_rules;
    Alcotest.test_case "engine double ownership" `Quick test_engine_double_ownership;
    Alcotest.test_case "engine key hierarchy" `Quick test_engine_key_hierarchy;
    Alcotest.test_case "engine sign needs signing key" `Quick test_engine_sign_requires_signing_key;
    Alcotest.test_case "engine seal needs storage key" `Quick test_engine_seal_requires_storage_key;
    Alcotest.test_case "engine wrong auth" `Quick test_engine_wrong_auth_rejected;
    Alcotest.test_case "engine replay rejected" `Quick test_engine_replay_rejected;
    Alcotest.test_case "engine session exhaustion" `Quick test_engine_session_exhaustion_and_reuse;
    Alcotest.test_case "engine seal/unseal pcr binding" `Quick test_engine_seal_unseal_pcr_binding;
    Alcotest.test_case "engine unseal wrong blob auth" `Quick test_engine_unseal_wrong_blob_auth;
    Alcotest.test_case "engine quote verifies" `Quick test_engine_quote_verifies;
    Alcotest.test_case "engine quote bad nonce" `Quick test_engine_quote_bad_nonce_size;
    Alcotest.test_case "engine counters" `Quick test_engine_counters;
    Alcotest.test_case "engine owner clear" `Quick test_engine_owner_clear;
    Alcotest.test_case "engine force clear locality" `Quick test_engine_force_clear_locality;
    Alcotest.test_case "engine state roundtrip" `Quick test_engine_state_roundtrip;
    Alcotest.test_case "engine state truncated" `Quick test_engine_state_truncated;
    Alcotest.test_case "engine deterministic seed" `Quick test_engine_deterministic_by_seed;
    Alcotest.test_case "wire request roundtrip" `Quick test_wire_request_roundtrip;
    Alcotest.test_case "wire covers all ordinals" `Quick test_wire_request_covers_all_ordinals;
    Alcotest.test_case "wire header peek" `Quick test_wire_header_peek;
    Alcotest.test_case "wire malformed" `Quick test_wire_malformed;
    Alcotest.test_case "wire response roundtrip" `Quick test_wire_response_roundtrip;
    Alcotest.test_case "param digest excludes auth" `Quick test_param_digest_excludes_auth;
    Alcotest.test_case "eventlog replay matches tpm" `Quick test_eventlog_replay_matches_tpm;
    Alcotest.test_case "eventlog order sensitive" `Quick test_eventlog_order_sensitive;
    Alcotest.test_case "eventlog serialization" `Quick test_eventlog_serialization;
    Alcotest.test_case "eventlog garbage" `Quick test_eventlog_deserialize_garbage;
    Alcotest.test_case "eventlog bad digest" `Quick test_eventlog_bad_digest_size;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip_fuzz;
    QCheck_alcotest.to_alcotest prop_wire_header_consistent;
    QCheck_alcotest.to_alcotest prop_wire_decode_never_crashes;
    QCheck_alcotest.to_alcotest prop_wire_truncation_rejected;
    Alcotest.test_case "keystore rejects shared-factor material" `Quick
      test_keystore_shared_factor_rejected;
  ]
