(* The event-driven backend pump: a differential property against the
   full sweep, the work-list invariant, the fuzzer's pump-liveness
   invariant under lossy notifications (its clean-run form is part of
   every fuzz soak), the lost-response-kick regression, and the ring
   counts on a large host. *)

open Vtpm_xen
open Vtpm_access
module Driver = Vtpm_mgr.Driver
module Fuzz = Vtpm_attacks.Fuzz

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* --- Pump vs sweep ------------------------------------------------------------- *)

(* One schedule step. Pushes and kicks are the frontend's half of an
   exchange taken apart, so a schedule can drop or repeat the kick;
   the rest is what a dom0 adversary, the toolstack or a crash does to
   the transport between kicks. *)
type step =
  | Push of int * int  (** guest, command; then kick *)
  | Push_unkicked of int * int  (** the kick is lost *)
  | Kick of int  (** a re-raised or duplicated kick *)
  | Inject of int * int  (** frame written into the ring by dom0 *)
  | Corrupt of int * int  (** producer index shifted by 1..3 *)
  | Remap of int * int  (** ring grant's backing frame swapped *)
  | Remap_mid_pump of int * int  (** ...by the router, inside the next pump *)
  | Revoke of int  (** ring grant force-revoked *)
  | Crash  (** the backend dies *)
  | Restart
  | Reconnect of int
  | Destroy of int  (** guest torn down: its grants revoked *)
  | Toggle_validation  (** transport validation switched off or back on *)
  | Take_responses of int  (** the frontend empties its response ring *)

let guests = 4

let decode (tag, arg) =
  let g = arg mod guests in
  match tag mod 18 with
  | 0 | 1 | 2 | 3 -> Push (g, arg)
  | 4 -> Push_unkicked (g, arg)
  | 5 | 6 -> Kick g
  | 7 -> Inject (g, arg)
  | 8 -> Corrupt (g, 1 + (arg mod 3))
  | 9 -> Remap (g, arg)
  | 10 -> Revoke g
  | 11 -> Crash
  | 12 -> Restart
  | 13 -> Reconnect g
  | 14 -> Destroy g
  | 15 -> Remap_mid_pump (g, arg)
  | 16 -> Toggle_validation
  | _ -> Take_responses g

type side = {
  host : Host.t;
  guests : Host.guest array;
  destroyed : bool array;
  pump : Driver.backend -> int;
  in_router : (unit -> unit) option ref;  (** run once by the next routed request *)
}

(* Identical improved hosts (transport validation on) under the same
   fault plan: lossy kicks in both directions, corrupted slots and
   manager crashes mid-drain ([faults_seed] 0: no faults). Only the pump
   differs. *)
let make_side ~faults_seed pump =
  let rate = if faults_seed = 0 then 0.0 else 1.0 in
  let host = Host.create ~mode:Host.Improved_mode ~seed:5 ~rsa_bits:256 () in
  let gs =
    Array.init guests (fun i ->
        Host.create_guest_exn host ~name:(Printf.sprintf "g%d" i)
          ~label:(Printf.sprintf "tenant_%d" i) ())
  in
  Hypervisor.set_faults host.Host.xen
    (Faults.create ~seed:faults_seed
       ~rates:
         [
           (Faults.Drop_notify, 0.1 *. rate);
           (Faults.Dup_notify, 0.1 *. rate);
           (Faults.Corrupt_slot, 0.05 *. rate);
           (Faults.Manager_crash, 0.03 *. rate);
         ]
       ());
  (* A grant can change while a pump is half done: the router runs
     between ring visits. *)
  let in_router = ref None in
  let backend = host.Host.backend in
  let route = backend.Driver.router in
  backend.Driver.router <-
    (fun ~sender ~claimed_instance ~wire ->
      Option.iter (fun f -> in_router := None; f ()) !in_router;
      route ~sender ~claimed_instance ~wire);
  { host; guests = gs; destroyed = Array.make guests false; pump; in_router }

let command k =
  let open Vtpm_tpm in
  let cmd =
    if k mod 2 = 0 then Cmd.Pcr_read { pcr = 10 }
    else Cmd.Extend { pcr = 10; digest = Vtpm_crypto.Sha1.digest (string_of_int k) }
  in
  Wire.encode_request cmd

let kick side (c : Driver.connection) =
  let xen = side.host.Host.xen in
  let backend = side.host.Host.backend in
  ignore (Hypervisor.notify xen ~domid:c.Driver.fe_domid ~port:c.Driver.fe_port);
  if Evtchn.poll xen.Hypervisor.evtchn ~domid:c.Driver.be_domid ~port:c.Driver.be_port <> None
  then ignore (side.pump backend)

let apply side step =
  let backend = side.host.Host.backend in
  let xen = side.host.Host.xen in
  let live g = not side.destroyed.(g) in
  let conn g = side.guests.(g).Host.conn in
  let frame g k =
    Vtpm_mgr.Proto.encode_request ~claimed_instance:side.guests.(g).Host.vtpm_id (command k)
  in
  let remap g k =
    ignore
      (Hypervisor.remap_grant xen ~caller:Hypervisor.dom0_id ~owner:(conn g).Driver.fe_domid
         ~gref:(conn g).Driver.gref ~frame:(60_000 + (k mod 64)))
  in
  match step with
  | Push (g, k) when live g ->
      ignore (Ring.push_request (conn g).Driver.ring (frame g k));
      kick side (conn g)
  | Push_unkicked (g, k) when live g ->
      ignore (Ring.push_request (conn g).Driver.ring (frame g k))
  | Kick g when live g -> kick side (conn g)
  | Inject (g, k) when live g ->
      ignore (Ring.inject_request (conn g).Driver.ring ~pusher:Hypervisor.dom0_id (frame g k))
  | Corrupt (g, d) when live g -> Ring.corrupt_req_prod (conn g).Driver.ring ~delta:d
  | Remap (g, k) when live g -> remap g k
  | Remap_mid_pump (g, k) when live g -> side.in_router := Some (fun () -> remap g k)
  | Revoke g when live g ->
      ignore
        (Hypervisor.force_revoke_grant xen ~caller:Hypervisor.dom0_id
           ~owner:(conn g).Driver.fe_domid ~gref:(conn g).Driver.gref)
  | Crash -> Driver.crash_backend backend
  | Toggle_validation ->
      Driver.set_validate_transport backend (not (Driver.validate_transport backend))
  | Restart -> Driver.restart_backend backend
  | Reconnect g when live g && not (conn g).Driver.connected ->
      ignore (Driver.reconnect backend (conn g))
  | Destroy g when live g ->
      side.destroyed.(g) <- true;
      ignore (Host.destroy_guest side.host side.guests.(g))
  | Take_responses g when live g ->
      let rec take () =
        match Ring.pop_response (conn g).Driver.ring with Some _ -> take () | None -> ()
      in
      take ()
  | _ -> ()

(* Everything the pump can influence that a guest, the monitor or the
   meter can observe. *)
let observe side =
  let m = Host.monitor_exn side.host in
  let rings =
    Array.to_list
      (Array.map
         (fun (g : Host.guest) ->
           let c = g.Host.conn in
           ( c.Driver.connected,
             Ring.snoop_responses c.Driver.ring,
             Ring.req_prod c.Driver.ring,
             Ring.req_cons c.Driver.ring ))
         side.guests)
  in
  ( rings,
    Driver.transport_tamper_count side.host.Host.backend,
    Audit.head m.Monitor.audit,
    Host.now_us side.host,
    side.host.Host.backend.Driver.alive )

let arb_schedule =
  QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_bound 999) (int_bound 999)))

(* Run a schedule on both sides; the first divergence, if any. *)
let diverges ~faults_seed schedule =
  let pumped = make_side ~faults_seed Driver.process_kicked in
  let swept = make_side ~faults_seed Driver.process_pending in
  let rec go i = function
    | [] ->
        let visits side = Driver.ring_visits side.host.Host.backend in
        if visits pumped > visits swept then
          Some (Printf.sprintf "pump visited %d rings, sweep %d" (visits pumped) (visits swept))
        else None
    | ((tag, arg) as pair) :: rest ->
        let step = decode pair in
        apply pumped step;
        apply swept step;
        if observe pumped <> observe swept then
          Some (Printf.sprintf "pump and sweep diverge after step %d (%d, %d)" i tag arg)
        else go (i + 1) rest
  in
  go 0 schedule

let prop_pump_matches_sweep =
  QCheck.Test.make ~count:40 ~name:"kicked pump matches the full sweep step by step"
    QCheck.(pair (int_bound 9999) arb_schedule)
    (fun (faults_seed, schedule) ->
      match diverges ~faults_seed schedule with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "%s" m)

(* The work-list invariant, checked after every step of a schedule: every
   connection whose ring has unconsumed requests is listed, and the
   listed connections are exactly the backend's work list. *)
let work_list_violation side =
  let backend = side.host.Host.backend in
  let unlisted =
    List.find_opt
      (fun (c : Driver.connection) ->
        Ring.has_unconsumed_requests c.Driver.ring && not c.Driver.listed)
      backend.Driver.connections
  in
  match unlisted with
  | Some c -> Some (Printf.sprintf "ring of domain %d has work but is not listed" c.Driver.fe_domid)
  | None ->
      let work = backend.Driver.work in
      if List.exists (fun c -> not c.Driver.listed) work then Some "work list holds an unlisted ring"
      else if
        List.exists
          (fun (c : Driver.connection) -> c.Driver.listed && not (List.memq c work))
          backend.Driver.connections
      then Some "a listed ring is missing from the work list"
      else None

let prop_work_list_covers_busy_rings =
  QCheck.Test.make ~count:40 ~name:"every ring with unconsumed requests is on the work list"
    QCheck.(pair (int_bound 9999) arb_schedule)
    (fun (faults_seed, schedule) ->
      let side = make_side ~faults_seed Driver.process_kicked in
      let rec go i = function
        | [] -> true
        | ((tag, arg) as pair) :: rest -> (
            apply side (decode pair);
            match work_list_violation side with
            | None -> go (i + 1) rest
            | Some m -> QCheck.Test.fail_reportf "after step %d (%d, %d): %s" i tag arg m)
      in
      go 0 schedule)

(* The router remaps an idle ring's grant while a pump is half done.
   [connections] lists the newest guest first, so guest 3's ring is
   visited first and guest 0's last. A sweep catches the remap on the
   same pass when the ring comes later, and on the next kick when the
   pass had already visited it (here the pass is a sweep, forced by a
   plain remap of guest 2). A grant remapped while validation was off
   is caught once validation is back on. *)
let test_grant_changes_reach_the_pump () =
  let push g = (0, g) and remap g = (9, g) and remap_mid_pump g = (15, g) in
  let toggle_validation = (16, 0) in
  List.iter
    (fun (name, schedule) ->
      match diverges ~faults_seed:0 schedule with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" name m)
    [
      ("later ring", [ push 1; remap_mid_pump 0; push 3; push 2; push 1 ]);
      ("earlier ring", [ push 1; remap 2; remap_mid_pump 3; push 0; push 1 ]);
      ( "validation back on",
        [ push 1; toggle_validation; remap 0; push 1; toggle_validation; push 1 ] );
    ]

(* --- Liveness under lossy notifications ----------------------------------------- *)

let liveness_violations (r : Fuzz.report) =
  List.filter (String.starts_with ~prefix:"pump liveness") r.Fuzz.violations

let test_liveness_lossy_kicks () =
  let faults = ref 0 in
  for i = 0 to 29 do
    let r = Fuzz.run_trace ~seed:(40 + i) ~kick_faults:0.2 (Fuzz.gen_trace ~seed:17 ~index:i ()) in
    faults := !faults + r.Fuzz.kick_faults;
    match liveness_violations r with
    | [] -> ()
    | v :: _ -> Alcotest.failf "trace %d: %s" i v
  done;
  check_b "notifications were dropped or duplicated" true (!faults > 0)

(* When only the response kick is lost, the retry finds the answer already
   in the ring instead of re-sending: the command runs once. *)
let test_lost_response_kick_runs_once () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:3 ~rsa_bits:256 () in
  let g = Host.create_guest_exn host ~name:"g" ~label:"tenant" () in
  let faults = Faults.create ~seed:1 () in
  Hypervisor.set_faults host.Host.xen faults;
  let backend = host.Host.backend in
  backend.Driver.resilience <- Some Driver.default_resilience;
  let routed = ref 0 in
  let route = backend.Driver.router in
  backend.Driver.router <-
    (fun ~sender ~claimed_instance ~wire ->
      incr routed;
      (* The next notification is the backend's response kick. *)
      if !routed = 1 then Faults.schedule faults Faults.Drop_notify;
      route ~sender ~claimed_instance ~wire);
  let digest = Vtpm_crypto.Sha1.digest "once" in
  let wire = Vtpm_tpm.Wire.encode_request (Vtpm_tpm.Cmd.Extend { pcr = 10; digest }) in
  (match Driver.request_with_info backend g.Host.conn ~wire with
  | Ok o ->
      check_b "answered" true (o.Driver.status = Vtpm_mgr.Proto.Ok_routed);
      check_b "on a retry" true o.Driver.recovered
  | Error e -> Alcotest.failf "extend failed: %s" (Vtpm_util.Verror.to_string e));
  check_i "response kick was dropped" 0 (Faults.scheduled faults Faults.Drop_notify);
  check_i "routed once" 1 !routed;
  let inst = Result.get_ok (Vtpm_mgr.Manager.find host.Host.mgr g.Host.vtpm_id) in
  check_b "PCR 10 extended once" true
    (Vtpm_tpm.Engine.pcr_value inst.Vtpm_mgr.Manager.engine 10
    = Ok (Vtpm_crypto.Sha1.digest (String.make 20 '\000' ^ digest)))

(* The fuzz traces that caught the double execution: with 20 % of kicks
   dropped or duplicated, the engine's PCR 10 matches the shadow model. *)
let test_lossy_kick_traces_match_shadow () =
  List.iter
    (fun i ->
      let r = Fuzz.run_trace ~seed:(40 + i) ~kick_faults:0.2 (Fuzz.gen_trace ~seed:17 ~index:i ()) in
      match
        List.filter (String.starts_with ~prefix:"engine PCR 10 diverged") r.Fuzz.violations
      with
      | [] -> ()
      | v :: _ -> Alcotest.failf "trace %d: %s" i v)
    [ 0; 13; 20 ]

(* --- Ring visits ---------------------------------------------------------------- *)

let test_one_request_one_ring () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:3 ~rsa_bits:256 () in
  let gs =
    List.init 128 (fun i ->
        Host.create_guest_exn host ~name:(Printf.sprintf "g%d" i)
          ~label:(Printf.sprintf "tenant_%d" (i mod 4)) ())
  in
  let backend = host.Host.backend in
  let read (g : Host.guest) =
    match Driver.request backend g.Host.conn ~wire:(command 0) with
    | Ok (Vtpm_mgr.Proto.Ok_routed, _) -> ()
    | Ok (_, m) | Error m -> Alcotest.failf "PCR read failed: %s" m
  in
  (* The first kick after set-up finds the grant table changed (every
     ring was granted and mapped) and sweeps. *)
  read (List.hd gs);
  check_i "first kick sweeps every ring" 128 (Driver.ring_visits backend);
  let before = Driver.ring_visits backend in
  read (List.nth gs 77);
  check_i "one request visits one ring" 1 (Driver.ring_visits backend - before);
  (* A grant change anywhere brings the sweep back for one kick. *)
  ignore
    (Hypervisor.remap_grant host.Host.xen ~caller:Hypervisor.dom0_id
       ~owner:(List.nth gs 5).Host.domid ~gref:(List.nth gs 5).Host.conn.Driver.gref ~frame:60_001);
  let before = Driver.ring_visits backend in
  read (List.nth gs 77);
  check_i "kick after a grant change sweeps" 128 (Driver.ring_visits backend - before);
  check_b "the tampered idle ring was torn on that sweep" false
    (List.nth gs 5).Host.conn.Driver.connected;
  check_i "and audited" 1 (Driver.transport_tamper_count backend);
  let before = Driver.ring_visits backend in
  read (List.nth gs 77);
  check_i "then one ring again" 1 (Driver.ring_visits backend - before)

(* The kicked pump finds the ring with work on the work list: one kick on
   an otherwise idle 128-guest host examines one ring, where a walk of
   the connection list would check all 128. *)
let test_idle_kick_examines_one_ring () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:3 ~rsa_bits:256 () in
  let gs =
    Array.init 128 (fun i ->
        Host.create_guest_exn host ~name:(Printf.sprintf "g%d" i)
          ~label:(Printf.sprintf "tenant_%d" (i mod 4)) ())
  in
  let backend = host.Host.backend in
  let read (g : Host.guest) = ignore (Driver.request backend g.Host.conn ~wire:(command 0)) in
  read gs.(0);
  check_i "nothing left listed" 0 (List.length backend.Driver.work);
  let before = Driver.ring_checks backend in
  read gs.(77);
  check_i "one kick examines one ring" 1 (Driver.ring_checks backend - before);
  check_i "and leaves the list empty" 0 (List.length backend.Driver.work)

(* --- Connection-scoped state vs fresh reads ------------------------------------

   Each connection keeps its [instance] node cursor, its channel and
   grant records and its lane sink, and the monitor keeps each sender's
   route. Guest requests are interleaved with what can invalidate them —
   dom0 rewriting, removing, re-creating or re-permissioning the instance
   node, a closed channel, a reconnect, a revoked or remapped ring grant,
   a group re-placement, a guest destroyed — and after each request:

   - the instance the driver framed (seen by the router), or its read
     error, equals a fresh [Xenstore.read] by the frontend;
   - the request's audit entry carries the claimed-id mismatch exactly
     when that fresh read disagrees with the binding, and its group tag
     names the instance's current shard; a dom0 write or removal of the
     node raises a tamper alert exactly when dom0's fresh read disagrees
     with the binding;
   - the exchange's lane charges land on the instance's current shard
     and on no other. *)

type cstep =
  | Creq of int * int  (** guest, command *)
  | Crewrite of int * int  (** guest, value selector *)
  | Cremove of int
  | Creperm of int * bool  (** readable by the guest? *)
  | Cclose of int
  | Creconnect of int
  | Crevoke of int
  | Cremap of int * int
  | Cplace of int * int  (** guest, group *)
  | Cdestroy of int

let cguests = 4
let cgroups = [| "tenant_a"; "tenant_b"; "tenant_c" |]

let cdecode (tag, arg) =
  let g = arg mod cguests in
  match tag mod 16 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> Creq (g, arg / cguests)
  | 6 | 7 -> Crewrite (g, arg / cguests)
  | 8 -> Cremove g
  | 9 -> Creperm (g, arg / cguests mod 3 <> 0)
  | 10 -> Cclose g
  | 11 | 12 -> Creconnect g
  | 13 -> if arg mod 2 = 0 then Crevoke g else Cremap (g, arg)
  | 14 -> Cplace (g, arg / cguests)
  | _ -> if arg mod 5 = 0 then Cdestroy g else Creq (g, arg)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Commands run per pool, the manager-wide pool as group 0 (every guest
   here is grouped, so nothing of theirs belongs there). *)
let shard_runs (host : Host.t) =
  let runs lanes = Array.fold_left (fun a (n, _) -> a + n) 0 lanes in
  (0, runs (Vtpm_util.Cost.Lanes.stats host.Host.mgr.Vtpm_mgr.Manager.lanes))
  :: List.map (fun (gid, _, _, lanes) -> (gid, runs lanes)) (Vtpm_mgr.Manager.shard_stats host.Host.mgr)

let connection_state_violation schedule =
  let host = Host.create ~mode:Host.Improved_mode ~seed:5 ~rsa_bits:256 () in
  ignore (Host.enable_sharding host ~lanes_per_shard:2 ());
  let gs =
    Array.init cguests (fun i ->
        Host.create_guest_exn host ~name:(Printf.sprintf "g%d" i)
          ~label:cgroups.(i mod Array.length cgroups) ())
  in
  let destroyed = Array.make cguests false in
  let xen = host.Host.xen and backend = host.Host.backend and mgr = host.Host.mgr in
  let m = Host.monitor_exn host in
  let routed = ref [] in
  let route = backend.Driver.router in
  backend.Driver.router <-
    (fun ~sender ~claimed_instance ~wire ->
      routed := (sender, claimed_instance) :: !routed;
      route ~sender ~claimed_instance ~wire);
  let path g = Driver.vtpm_fe_path gs.(g).Host.domid ^ "/instance" in
  let bound g =
    Option.map (fun b -> b.Binding.vtpm_id) (Binding.lookup_domid m.Monitor.bindings gs.(g).Host.domid)
  in
  let disagrees g read =
    match bound g with Some id -> read <> Ok (string_of_int id) | None -> false
  in
  (* [f ()] and the audit entries it appended, newest first. *)
  let logged f =
    let before = Audit.length m.Monitor.audit in
    let v = f () in
    ( v,
      List.filteri
        (fun i _ -> i < Audit.length m.Monitor.audit - before)
        (Audit.entries_newest_first m.Monitor.audit) )
  in
  let alerts es = List.length (List.filter (fun e -> e.Audit.operation = "tamper-alert") es) in
  (* A dom0 mutation of the node; [fires] when it triggers the watch. *)
  let dom0_op g ~fires f =
    let (), es = logged f in
    let read = Xenstore.read xen.Hypervisor.store ~caller:Hypervisor.dom0_id (path g) in
    let want = if fires && disagrees g read then 1 else 0 in
    if alerts es <> want then Some (Printf.sprintf "guest %d: %d tamper alerts, want %d" g (alerts es) want)
    else None
  in
  let request g k =
    let conn = gs.(g).Host.conn and fe = gs.(g).Host.domid in
    let runs0 = shard_runs host in
    routed := [];
    let result, es = logged (fun () -> Driver.request backend conn ~wire:(command k)) in
    let fresh = Xenstore.read xen.Hypervisor.store ~caller:fe (path g) in
    let mine = List.filter_map (fun (d, c) -> if d = fe then Some c else None) !routed in
    let foreign = List.exists (fun (d, _) -> d <> fe) !routed in
    let err = match result with Error e -> e | Ok _ -> "" in
    let framed_ok =
      match (mine, fresh) with
      | [ c ], Ok v -> int_of_string_opt v = Some c
      | [ _ ], Error _ -> false
      | _ :: _ :: _, _ -> false
      | [], _ ->
          if contains err "cannot read instance: " then
            match fresh with
            | Error e -> contains err ("cannot read instance: " ^ Xenstore.error_name e)
            | Ok _ -> false
          else if contains err "malformed instance id" then
            match fresh with Ok v -> int_of_string_opt v = None | Error _ -> false
          else
            (* Failed before the read (link down, tampered transport) or
               after a successful one (no response). *)
            contains err "disconnected" || contains err "transport integrity"
            || match fresh with Ok v -> int_of_string_opt v <> None | Error _ -> false
    in
    let current = Vtpm_mgr.Manager.route_for_domid mgr fe in
    let decision =
      List.find_opt
        (fun e -> e.Audit.subject = Printf.sprintf "guest:%d" fe && e.Audit.allowed
                  && String.length e.Audit.operation > 4 && String.sub e.Audit.operation 0 4 = "TPM_")
        es
    in
    let audit_ok =
      match (mine, decision) with
      | [ _ ], Some e ->
          let mismatch = contains e.Audit.reason "claimed-id-mismatch" in
          let tag_ok =
            match current with
            | Some (_, inst) -> (
                match Vtpm_mgr.Manager.shard_of mgr inst with
                | Some s ->
                    let tag = ";" ^ Vtpm_mgr.Group.audit_tag s in
                    let n = String.length e.Audit.reason and t = String.length tag in
                    n >= t && String.sub e.Audit.reason (n - t) t = tag
                | None -> true)
            | None -> true
          in
          mismatch = disagrees g fresh && tag_ok
      | [], None -> true
      | _, _ -> false
    in
    let lanes_ok =
      foreign
      ||
      let runs1 = shard_runs host in
      let home = match current with Some (gid, _) -> gid | None -> 0 in
      let reached = not (contains err "transport integrity") in
      List.for_all2
        (fun (gid, n0) (_, n1) ->
          if gid = home && home <> 0 && reached then n1 > n0 else n1 = n0)
        runs0 runs1
    in
    if not framed_ok then
      Some (Printf.sprintf "guest %d framed %s, fresh read %s (driver: %s)" g
              (String.concat "," (List.map string_of_int mine))
              (match fresh with Ok v -> v | Error e -> Xenstore.error_name e) err)
    else if not audit_ok then Some (Printf.sprintf "guest %d: audit entry disagrees with the fresh read" g)
    else if not lanes_ok then Some (Printf.sprintf "guest %d: lane charges off its current shard" g)
    else None
  in
  let store = xen.Hypervisor.store in
  let apply = function
    | Creq (g, k) -> request g k
    | Crewrite (g, k) when not destroyed.(g) ->
        let v =
          if k mod 5 = 0 then "junk" else string_of_int gs.((k / 5) mod cguests).Host.vtpm_id
        in
        dom0_op g ~fires:true (fun () ->
            ignore (Xenstore.write store ~caller:Hypervisor.dom0_id (path g) v))
    | Cremove g when not destroyed.(g) ->
        let fires = Result.is_ok (Xenstore.read store ~caller:Hypervisor.dom0_id (path g)) in
        dom0_op g ~fires (fun () -> ignore (Xenstore.rm store ~caller:Hypervisor.dom0_id (path g)))
    | Creperm (g, readable) when not destroyed.(g) ->
        let acl = if readable then [ (gs.(g).Host.domid, Xenstore.Pread) ] else [] in
        dom0_op g ~fires:false (fun () ->
            ignore
              (Xenstore.set_perms store ~caller:Hypervisor.dom0_id (path g)
                 ~owner:Hypervisor.dom0_id ~others:Xenstore.Pnone ~acl))
    | Cclose g when not destroyed.(g) ->
        let c = gs.(g).Host.conn in
        Evtchn.close xen.Hypervisor.evtchn ~domid:c.Driver.fe_domid ~port:c.Driver.fe_port;
        None
    | Creconnect g when not destroyed.(g) ->
        ignore (Driver.reconnect backend gs.(g).Host.conn);
        None
    | Crevoke g when not destroyed.(g) ->
        let c = gs.(g).Host.conn in
        ignore
          (Hypervisor.force_revoke_grant xen ~caller:Hypervisor.dom0_id ~owner:c.Driver.fe_domid
             ~gref:c.Driver.gref);
        None
    | Cremap (g, k) when not destroyed.(g) ->
        let c = gs.(g).Host.conn in
        ignore
          (Hypervisor.remap_grant xen ~caller:Hypervisor.dom0_id ~owner:c.Driver.fe_domid
             ~gref:c.Driver.gref ~frame:(60_000 + (k mod 64)));
        None
    | Cplace (g, k) when not destroyed.(g) ->
        (match Vtpm_mgr.Manager.find mgr gs.(g).Host.vtpm_id with
        | Ok inst ->
            ignore (Vtpm_mgr.Manager.assign_group mgr inst ~label:cgroups.(k mod Array.length cgroups))
        | Error _ -> ());
        None
    | Cdestroy g when not destroyed.(g) ->
        destroyed.(g) <- true;
        ignore (Host.destroy_guest host gs.(g));
        None
    | _ -> None
  in
  let rec go i = function
    | [] -> None
    | ((tag, arg) as pair) :: rest -> (
        match apply (cdecode pair) with
        | None -> go (i + 1) rest
        | Some m -> Some (Printf.sprintf "step %d (%d, %d): %s" i tag arg m))
  in
  go 0 schedule

let prop_connection_state_matches_fresh_reads =
  QCheck.Test.make ~count:40 ~name:"connection-scoped state matches fresh reads"
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_bound 999) (int_bound 999)))
    (fun schedule ->
      match connection_state_violation schedule with
      | None -> true
      | Some m -> QCheck.Test.fail_reportf "%s" m)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pump_matches_sweep;
    Alcotest.test_case "grant changes reach the pump" `Quick test_grant_changes_reach_the_pump;
    Alcotest.test_case "liveness under dropped and duplicated kicks" `Slow
      test_liveness_lossy_kicks;
    Alcotest.test_case "one request on 128 guests visits one ring" `Quick
      test_one_request_one_ring;
    QCheck_alcotest.to_alcotest prop_work_list_covers_busy_rings;
    Alcotest.test_case "one kick on an idle 128-guest host examines one ring" `Quick
      test_idle_kick_examines_one_ring;
    Alcotest.test_case "lost response kick runs the command once" `Quick
      test_lost_response_kick_runs_once;
    Alcotest.test_case "lossy-kick fuzz traces match the shadow PCRs" `Slow
      test_lossy_kick_traces_match_shadow;
    QCheck_alcotest.to_alcotest prop_connection_state_matches_fresh_reads;
  ]
