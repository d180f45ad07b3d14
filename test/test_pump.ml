(* The event-driven backend pump: a differential property against the
   full sweep, the fuzzer's pump-liveness invariant under lossy
   notifications (its clean-run form is part of every fuzz soak), and
   the ring-visit count on a large host. *)

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

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pump_matches_sweep;
    Alcotest.test_case "grant changes reach the pump" `Quick test_grant_changes_reach_the_pump;
    Alcotest.test_case "liveness under dropped and duplicated kicks" `Slow
      test_liveness_lossy_kicks;
    Alcotest.test_case "one request on 128 guests visits one ring" `Quick
      test_one_request_one_ring;
  ]
