(* Tests for the execution-lane / batching work: the lane time model,
   Figure 8's identities and scaling, per-instance ordering under batch
   drain, the fault and flood guarantees with several lanes, parallel
   scheduler accounting, and the hot-path bugfixes (domid index,
   non-allocating quota probe, deterministic hardware client). *)

open Vtpm_access
open Vtpm_mgr
module Experiments = Vtpm_sim.Experiments

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_f = Alcotest.(check (float 0.0))

(* --- Lane time model ----------------------------------------------------------- *)

let test_single_lane_is_serial_charge () =
  (* One lane must account exactly like Cost.charge: same floats, same
     order, so every single-lane run is bit-identical to the old code. *)
  let serial = Vtpm_util.Cost.create () in
  let laned = Vtpm_util.Cost.create () in
  let pool = Vtpm_util.Cost.Lanes.create 1 in
  let costs = [ 900.0; 60.0; 38_000.0; 0.0; 121.5; 7.25 ] in
  List.iteri
    (fun i us ->
      Vtpm_util.Cost.charge serial us;
      ignore (Vtpm_util.Cost.Lanes.exec pool laned ~key:(i * 3) us))
    costs;
  Vtpm_util.Cost.Lanes.sync pool laned;
  check_f "meter bit-identical" (Vtpm_util.Cost.now serial) (Vtpm_util.Cost.now laned)

let test_lanes_overlap_different_instances () =
  let c = Vtpm_util.Cost.create () in
  let pool = Vtpm_util.Cost.Lanes.create 2 in
  for _ = 1 to 10 do
    ignore (Vtpm_util.Cost.Lanes.exec pool c ~key:1 100.0);
    ignore (Vtpm_util.Cost.Lanes.exec pool c ~key:2 100.0)
  done;
  Vtpm_util.Cost.Lanes.sync pool c;
  check_f "two instances on two lanes halve elapsed" 1000.0 (Vtpm_util.Cost.now c)

let test_lanes_same_instance_stays_serial () =
  (* Same-instance commands are strictly ordered on one lane, however
     many lanes exist. *)
  let c = Vtpm_util.Cost.create () in
  let pool = Vtpm_util.Cost.Lanes.create 8 in
  for _ = 1 to 10 do
    ignore (Vtpm_util.Cost.Lanes.exec pool c ~key:5 100.0)
  done;
  Vtpm_util.Cost.Lanes.sync pool c;
  check_f "one instance cannot spread over lanes" 1000.0 (Vtpm_util.Cost.now c)

(* --- Figure 8 ------------------------------------------------------------------ *)

let test_fig8_one_lane_matches_fig1 () =
  let vm_counts = [ 1; 4 ] and total_ops = 120 in
  let f1, _ = Experiments.fig1 ~vm_counts ~total_ops () in
  let f8, _ = Experiments.fig8 ~vm_counts ~lane_counts:[ 1 ] ~total_ops () in
  let improved = List.assoc "improved" f1 in
  let one_lane = List.assoc "1-lane" f8 in
  check_b "1-lane series bit-identical to Figure 1 improved" true (improved = one_lane)

let test_fig8_eight_lanes_scale () =
  let f8, _ =
    Experiments.fig8 ~vm_counts:[ 32 ] ~lane_counts:[ 1; 8 ] ~total_ops:640 ()
  in
  let tput name = snd (List.hd (List.assoc name f8)) in
  let t1 = tput "1-lane" and t8 = tput "8-lane" in
  check_b
    (Printf.sprintf "8 lanes >= 4x 1 lane at 32 VMs (%.0f vs %.0f ops/s)" t8 t1)
    true
    (t8 >= 4.0 *. t1)

(* --- Per-instance ordering under batch drain ----------------------------------- *)

(* Submit the same interleaved extend sequence for two guests and drain
   it; the final PCR values must not depend on lane count or batch size,
   because batching drains one frontend FIFO and lanes serialise per
   instance. *)
let run_interleaved ~lanes ~batch =
  let host = Host.create ~mode:Host.Improved_mode ~seed:7 ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  Monitor.wire_backpressure m host.Host.backend;
  Manager.set_lanes host.Host.mgr lanes;
  Driver.set_batch host.Host.backend batch;
  let g1 = Host.create_guest_exn host ~name:"a" ~label:"tenant_00" () in
  let g2 = Host.create_guest_exn host ~name:"b" ~label:"tenant_01" () in
  let wire g i =
    Vtpm_tpm.Wire.encode_request
      (Vtpm_tpm.Cmd.Extend
         { pcr = 10; digest = Vtpm_crypto.Sha1.digest (Printf.sprintf "%d-%d" g i) })
  in
  for i = 1 to 8 do
    List.iter
      (fun (tag, g) ->
        match Driver.submit host.Host.backend g.Host.conn ~wire:(wire tag i) () with
        | Ok () -> ()
        | Error e -> invalid_arg (Vtpm_util.Verror.to_string e))
      [ (1, g1); (2, g2) ]
  done;
  let rec drain () =
    match Driver.pump_batch host.Host.backend with
    | `Idle -> ()
    | `Served served ->
        List.iter
          (fun (s : Driver.serviced) ->
            match s.Driver.s_outcome with
            | Ok o when o.Driver.status = Proto.Ok_routed -> ()
            | _ -> invalid_arg "batched request failed")
          served;
        drain ()
  in
  drain ();
  let read g =
    match Vtpm_tpm.Client.pcr_read (Host.guest_client host g) ~pcr:10 with
    | Ok v -> v
    | Error e -> invalid_arg (Fmt.str "pcr read: %a" Vtpm_tpm.Client.pp_error e)
  in
  ((read g1, read g2), Monitor.stats m)

let test_batch_preserves_per_instance_order () =
  let serial_pcrs, _ = run_interleaved ~lanes:1 ~batch:1 in
  let batched_pcrs, stats = run_interleaved ~lanes:2 ~batch:4 in
  check_b "final PCR values identical" true (serial_pcrs = batched_pcrs);
  check_b "multi-request drains happened" true (stats.Monitor.batches > 0);
  check_b "drained requests counted" true
    (stats.Monitor.batched_requests >= 2 * stats.Monitor.batches)

(* --- PR 1-3 guarantees with lanes > 1 ------------------------------------------ *)

let test_fault_self_heal_with_lanes () =
  (* PR 1's recovery guarantee must survive the lane pool: same seed and
     rates as the single-lane self-heal test, four lanes. *)
  let r =
    Experiments.run_fault_workload ~lanes:4 ~self_heal:true ~fault_rate:0.05
      ~requests:150 ~seed:137 ()
  in
  check_b "faults actually fired" true (r.Experiments.injected > 0);
  check_i "every request eventually succeeds" 150 r.Experiments.succeeded

let test_flood_goodput_with_lanes_and_batching () =
  (* PR 3's flood guarantee with the full stack, four lanes, batch 4:
     victims keep (essentially) full goodput under a 10x flood. *)
  let r =
    Experiments.flood_run ~config:Experiments.Full_stack ~flood_x:10 ~victim_ops:60
      ~lanes:4 ~batch:4 ~seed:61 ()
  in
  check_b
    (Printf.sprintf "victim goodput %.1f%% >= 99.9%%" r.Experiments.victim_goodput_pct)
    true
    (r.Experiments.victim_goodput_pct >= 99.9)

let test_wedge_quarantine_confined_to_lane () =
  let host = Host.create ~mode:Host.Improved_mode ~seed:97 ~rsa_bits:256 () in
  let m = Host.monitor_exn host in
  Manager.set_lanes host.Host.mgr 4;
  let ckpt = Checkpoint.create host.Host.mgr in
  let cfg =
    {
      Supervisor.default_config with
      failure_threshold = 2;
      is_read_only = Command_class.is_read_only;
    }
  in
  let sup =
    Supervisor.create ~cfg ~mgr:host.Host.mgr ~ckpt
      ~faults:host.Host.xen.Vtpm_xen.Hypervisor.faults ()
  in
  Monitor.set_supervisor m sup;
  let g1 = Host.create_guest_exn host ~name:"victim" ~label:"tenant_00" () in
  let g2 = Host.create_guest_exn host ~name:"bystander" ~label:"tenant_01" () in
  (match Checkpoint.checkpoint_all ckpt with Ok () -> () | Error e -> invalid_arg e);
  let lane1 = Manager.lane_of host.Host.mgr ~vtpm_id:g1.Host.vtpm_id in
  let lane2 = Manager.lane_of host.Host.mgr ~vtpm_id:g2.Host.vtpm_id in
  check_b "guests land on different lanes" true (lane1 <> lane2);
  let c1 = Host.guest_client host g1 and c2 = Host.guest_client host g2 in
  (match Vtpm_tpm.Client.pcr_read c2 ~pcr:10 with
  | Ok _ -> ()
  | Error _ -> invalid_arg "bystander warm read failed");
  let busy lane = snd (Manager.lane_stats host.Host.mgr).(lane) in
  let busy1_before = busy lane1 and busy2_before = busy lane2 in
  (* Wedge the victim's instance and drive it until the breaker trips
     and the supervisor quarantines + restores it from checkpoint. *)
  (match Manager.find host.Host.mgr g1.Host.vtpm_id with
  | Ok inst -> Manager.wedge inst
  | Error _ -> invalid_arg "victim instance missing");
  for _ = 1 to 4 do
    match Vtpm_tpm.Client.pcr_read c1 ~pcr:10 with
    | Ok _ | Error _ -> ()
    | exception Driver.Denied _ -> ()
  done;
  check_b "victim was quarantined" true (Supervisor.quarantines sup >= 1);
  check_b "recovery work landed on the victim's lane" true (busy lane1 > busy1_before);
  check_f "bystander's lane untouched by the episode" busy2_before (busy lane2);
  check_b "bystander still healthy" true
    (Supervisor.health sup g2.Host.vtpm_id = Supervisor.Healthy);
  match Vtpm_tpm.Client.pcr_read c2 ~pcr:10 with
  | Ok _ -> ()
  | Error _ | (exception Driver.Denied _) -> invalid_arg "bystander degraded"

(* --- Parallel scheduler accounting --------------------------------------------- *)

let test_sched_tick_n_fair_shares () =
  let s = Vtpm_xen.Sched.create () in
  List.iter (fun d -> Vtpm_xen.Sched.add s ~domid:d ~weight:256 ()) [ 1; 2; 3 ];
  let picked = Vtpm_xen.Sched.pick_n s ~n:2 in
  check_i "two lanes pick two domains" 2 (List.length picked);
  check_b "picks are distinct" true
    (List.sort_uniq compare picked = List.sort compare picked);
  let steps = 3000 and slice = 100.0 in
  for _ = 1 to steps do
    ignore (Vtpm_xen.Sched.tick_n s ~slice_us:slice ~n:2)
  done;
  let rt d =
    match Vtpm_xen.Sched.find s d with
    | Some v -> v.Vtpm_xen.Sched.runtime_us
    | None -> 0.0
  in
  let total = rt 1 +. rt 2 +. rt 3 in
  check_f "two full slices handed out per wall slice" (2.0 *. slice *. float_of_int steps)
    total;
  List.iter
    (fun d ->
      let share = rt d /. total in
      check_b
        (Printf.sprintf "domain %d share %.3f within 5%% of 1/3" d share)
        true
        (Float.abs (share -. (1.0 /. 3.0)) < 0.05 /. 3.0))
    [ 1; 2; 3 ]

(* --- Bugfix regressions --------------------------------------------------------- *)

let test_domid_index_matches_linear_scan () =
  let cost = Vtpm_util.Cost.create () in
  let mgr = Manager.create ~rsa_bits:256 ~seed:11 ~cost () in
  let insts = Array.init 5 (fun _ -> Manager.create_instance mgr) in
  let reference domid =
    (* The pre-index routing rule: scan the instance table. *)
    List.find_opt
      (fun (i : Manager.instance) -> i.Manager.bound_domid = Some domid)
      (Manager.instances mgr)
    |> Option.map (fun i -> i.Manager.vtpm_id)
  in
  let indexed domid =
    Manager.instance_for_domid mgr domid |> Option.map (fun i -> i.Manager.vtpm_id)
  in
  let agree what =
    for d = 0 to 12 do
      check_b (Printf.sprintf "%s: domid %d routes identically" what d) true
        (reference d = indexed d)
    done
  in
  Manager.bind_domid mgr insts.(0) 3;
  Manager.bind_domid mgr insts.(1) 4;
  Manager.bind_domid mgr insts.(2) 5;
  agree "bind";
  Manager.bind_domid mgr insts.(0) 7;
  agree "rebind to a new domid";
  Manager.bind_domid mgr insts.(3) 3;
  agree "reuse a freed domid";
  Manager.bind_domid mgr insts.(4) 7;
  agree "steal a bound domid";
  Manager.unbind_domid mgr insts.(1);
  agree "unbind";
  Manager.destroy_instance mgr insts.(2).Manager.vtpm_id;
  agree "destroy";
  Manager.crash mgr;
  agree "crash clears all routes";
  let fresh = Manager.create_instance mgr in
  Manager.bind_domid mgr fresh 9;
  agree "rebuild after crash"

let test_quota_remaining_does_not_allocate () =
  let cost = Vtpm_util.Cost.create () in
  let q = Quota.create ~rate_per_s:10.0 ~burst:5.0 ~cost () in
  check_i "no buckets initially" 0 (Quota.tracked q);
  check_f "unknown subject reports full burst" 5.0 (Quota.remaining q (Subject.Guest 1));
  check_i "probing allocated nothing" 0 (Quota.tracked q);
  check_b "admission" true (Quota.admit q (Subject.Guest 1));
  check_i "admission allocates" 1 (Quota.tracked q);
  check_f "tracked subject reports spent tokens" 4.0 (Quota.remaining q (Subject.Guest 1));
  check_i "probing a tracked subject allocates nothing" 1 (Quota.tracked q)

(* Minor-heap words [f] allocates (the probe itself boxes a float or two). *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_xtea_ctr_allocation_budget () =
  (* A sealed vTPM state is about 716 bytes: the kernel allocates the
     output string and nothing per block. *)
  let key = Vtpm_crypto.Xtea.key_of_string (String.make 16 'k') in
  let state = String.make 716 's' in
  ignore (Vtpm_crypto.Xtea.ctr_transform key ~nonce:7 state);
  let words = minor_words (fun () -> ignore (Vtpm_crypto.Xtea.ctr_transform key ~nonce:7 state)) in
  if words > 200.0 then Alcotest.failf "ctr_transform on 716 bytes allocated %.0f words (budget 200)" words

let test_protected_hop_allocation_budget () =
  (* One protected migration hop (export on the holder, import on the
     other host) between two freshness-enforcing hosts, measured on the
     return leg so both hosts are warm. *)
  let hosts =
    Array.map
      (fun seed ->
        let h = Host.create ~seed ~rsa_bits:256 () in
        (match Monitor.enable_freshness (Host.monitor_exn h) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        h)
      [| 31; 32 |]
  in
  let g = Host.create_guest_exn hosts.(0) ~name:"hop" ~label:"tenant_m" () in
  let mgmt h op = Host.management h ~process:Host.manager_process ~token:(Host.manager_token h) op in
  let hop ~src ~dst vtpm_id =
    let dest_key = Some (Migration.bind_pubkey hosts.(dst).Host.mgr) in
    match mgmt hosts.(src) (Monitor.Migrate_out { vtpm_id; dest_key }) with
    | Ok (Monitor.M_blob stream) -> (
        match mgmt hosts.(dst) (Monitor.Migrate_in { stream }) with
        | Ok (Monitor.M_instance id) -> id
        | Ok _ | Error _ -> Alcotest.fail "migrate-in refused")
    | Ok _ | Error _ -> Alcotest.fail "migrate-out refused"
  in
  let there = hop ~src:0 ~dst:1 g.Host.vtpm_id in
  let back = ref 0 in
  let words = minor_words (fun () -> back := hop ~src:1 ~dst:0 there) in
  check_b "instance home again" true (Result.is_ok (Manager.find hosts.(0).Host.mgr !back));
  if words > 10_000.0 then Alcotest.failf "protected hop allocated %.0f words (budget 10 000)" words

(* One mediated command on pcr-fleet's host shape (sharded, two lanes per
   shard, a 1000-rule guarded policy, a capped audit log): Extend and
   PCR_Read through [Client], inputs built beforehand, warm host. The
   budget covers the client's encoding, the split driver, the monitor
   decision, the audit append and the engine; the connection-scoped
   request path brought it from about 800 words to about 430 (OCaml
   5.1.1); the headroom is for other compilers. *)
let mediated_command_budget = 560.0

let test_mediated_command_allocation_budget () =
  let groups = [| "tenant_a"; "tenant_b"; "tenant_c"; "tenant_d" |] in
  let host = Host.create ~seed:13 ~rsa_bits:256 ~policy:(Policy.synthetic_guarded ~n:1000) () in
  Monitor.set_audit_cap (Host.monitor_exn host) (Some 8192);
  ignore (Host.enable_sharding host ~lanes_per_shard:2 ());
  let clients =
    Array.init 8 (fun i ->
        Host.guest_client host
          (Host.create_guest_exn host ~name:(Printf.sprintf "vm%d" i) ~label:groups.(i mod 4) ()))
  in
  let n = 400 in
  let digests = Array.init n (fun k -> String.make 20 (Char.chr (k land 0xff))) in
  let run k =
    let c = clients.(k mod Array.length clients) in
    let ok =
      if k mod 2 = 0 then Result.is_ok (Vtpm_tpm.Client.extend c ~pcr:(8 + (k mod 8)) ~digest:digests.(k))
      else Result.is_ok (Vtpm_tpm.Client.pcr_read c ~pcr:(k mod 16))
    in
    if not ok then Alcotest.failf "command %d failed" k
  in
  for k = 0 to n - 1 do run k done;
  let words = minor_words (fun () -> for k = 0 to n - 1 do run k done) /. float_of_int n in
  if words > mediated_command_budget then
    Alcotest.failf "one mediated command allocated %.0f words (budget %.0f)" words
      mediated_command_budget

let test_hw_client_deterministic_across_churn () =
  (* The hardware client's auth-session nonces must derive from the
     manager's creation seed, not the mutable per-instance seed counter:
     instance churn must not shift the session key stream. *)
  let session_key ~churn =
    let cost = Vtpm_util.Cost.create () in
    let mgr = Manager.create ~rsa_bits:256 ~seed:9 ~cost () in
    if churn then
      for _ = 1 to 3 do
        ignore (Manager.create_instance mgr)
      done;
    let client = Manager.hw_client mgr in
    match
      Vtpm_tpm.Client.start_osap client ~entity_handle:Vtpm_tpm.Types.kh_srk
        ~usage_secret:mgr.Manager.hw_srk_auth
    with
    | Ok s -> s.Vtpm_tpm.Client.key
    | Error e -> invalid_arg (Fmt.str "osap: %a" Vtpm_tpm.Client.pp_error e)
  in
  check_b "session key independent of instance churn" true
    (session_key ~churn:false = session_key ~churn:true)

(* --- Compiled index as the monitor's only evaluator ------------------------------- *)

let test_fig2_compiled_series_flat () =
  (* Per-request latency at 4096 rules stays within 15% of the 16-rule
     point — rule-count independence — while the linear reference grows. *)
  let f2, _ = Experiments.fig2 ~rule_counts:[ 16; 4096 ] ~reps:50 () in
  let compiled = List.assoc "compiled" f2 in
  let small = List.assoc 16.0 compiled and big = List.assoc 4096.0 compiled in
  check_b
    (Printf.sprintf "compiled: %.2fus @16 vs %.2fus @4096 within 15%%" small big)
    true
    (Float.abs (big -. small) /. small <= 0.15);
  let linear = List.assoc "linear" f2 in
  check_b "linear series grows with rules" true
    (List.assoc 4096.0 linear > 2.0 *. List.assoc 16.0 linear)

let test_fig2_linear_reference_exact () =
  (* The linear series is each compiled request plus the difference
     between a linear scan's charge and the index's, both taken from
     [Policy.eval]/[Policy.eval_indexed] on the same decision. *)
  let counts = [ 16; 256 ] in
  let f2, _ = Experiments.fig2 ~rule_counts:counts ~reps:40 () in
  let linear = List.assoc "linear" f2 and compiled = List.assoc "compiled" f2 in
  List.iter
    (fun n ->
      let p = Policy.synthetic ~n in
      let scanned eval =
        (eval ~subject:(Subject.Guest 1) ~label:"tenant" ~ordinal:Vtpm_tpm.Types.ord_pcr_read
           ~measured_ok:(fun () -> true))
          .Policy.scanned
      in
      let extra =
        (Vtpm_util.Cost.monitor_rule_scan_us
        *. float_of_int (scanned (Policy.eval p) - scanned (Policy.eval_indexed (Policy.compile p))))
        -. Vtpm_util.Cost.monitor_index_lookup_us
      in
      let x = float_of_int n in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "linear - compiled at %d rules" n)
        extra
        (List.assoc x linear -. List.assoc x compiled))
    counts

let test_fig9_production_beats_linear () =
  let f9, _ = Experiments.fig9 ~vm_counts:[ 1; 8 ] ~rules:256 ~total_ops:240 () in
  let linear = List.assoc "linear" f9 and production = List.assoc "production" f9 in
  List.iter2
    (fun (x, l) (_, p) ->
      check_b (Printf.sprintf "production %.0f > linear %.0f ops/s at %.0f VMs" p l x) true (p > l))
    linear production

(* Differential: the production monitor (compiled index, decision cache
   in front) against the linear [Policy.eval] oracle with a live gate,
   over random sequences of requests, out-of-band kernel swaps, rebinds,
   policy reloads and subject teardown. The verdict must match on every
   request: in particular no cached Allow survives a kernel swap. *)
type diff_op =
  | Request of int * int  (** guest index, ordinal *)
  | Swap_kernel of int * bool  (** guest index, back to its first image? *)
  | Rebind of int
  | Reload of int  (** policy index *)
  | Forget of int

let diff_guests = 3
let diff_labels = [| "l0"; "l1"; "l0" |]

let diff_ordinals =
  Vtpm_tpm.Types.[| ord_extend; ord_pcr_read; ord_quote; ord_seal; ord_save_state; ord_get_random |]

let diff_policy_gen =
  let subject_sels =
    [| "guest:1"; "guest:2"; "guest:3"; "guest:*"; "dom0:vtpm-manager"; "dom0:*"; "label:l0"; "label:l1"; "*" |]
  in
  let command_sels =
    [| "*"; "class:measurement"; "class:sealing"; "class:admin"; "class:attestation"; "TPM_Extend"; "TPM_PCRRead" |]
  in
  QCheck.Gen.(
    map
      (fun (default_allow, rules) ->
        String.concat "\n"
          ((if default_allow then "default allow" else "default deny")
          :: List.map
               (fun (v, s, c, g) ->
                 Printf.sprintf "%s %s %s%s"
                   (if v then "allow" else "deny")
                   subject_sels.(s mod Array.length subject_sels)
                   command_sels.(c mod Array.length command_sels)
                   (if g then " when measured" else ""))
               rules))
      (pair bool (list_size (int_range 1 12) (quad bool (int_bound 100) (int_bound 100) bool))))

let diff_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 12,
          map2
            (fun g o -> Request (g, diff_ordinals.(o)))
            (int_bound (diff_guests - 1))
            (int_bound (Array.length diff_ordinals - 1)) );
        (3, map2 (fun g back -> Swap_kernel (g, back)) (int_bound (diff_guests - 1)) bool);
        (2, map (fun g -> Rebind g) (int_bound (diff_guests - 1)));
        (1, map (fun i -> Reload i) (int_bound 2));
        (1, map (fun g -> Forget g) (int_bound (diff_guests - 1)));
      ])

let diff_op_print = function
  | Request (g, o) -> Printf.sprintf "request g%d %s" g (Vtpm_tpm.Types.ordinal_name o)
  | Swap_kernel (g, back) -> Printf.sprintf "swap g%d %s" g (if back then "good" else "evil")
  | Rebind g -> Printf.sprintf "rebind g%d" g
  | Reload i -> Printf.sprintf "reload p%d" i
  | Forget g -> Printf.sprintf "forget g%d" g

let prop_monitor_matches_linear_oracle =
  QCheck.Test.make ~name:"production monitor == linear Policy.eval oracle" ~count:120
    (QCheck.make
       ~print:(fun (ps, ops) ->
         String.concat "\n---\n" ps ^ "\n===\n" ^ String.concat "\n" (List.map diff_op_print ops))
       QCheck.Gen.(pair (list_repeat 3 diff_policy_gen) (list_size (int_range 1 60) diff_op_gen)))
    (fun (sources, ops) ->
      let policies = Array.of_list (List.map Policy.parse_exn sources) in
      let xen = Vtpm_xen.Hypervisor.create () in
      let mgr = Manager.create ~rsa_bits:256 ~seed:61 ~cost:xen.Vtpm_xen.Hypervisor.cost () in
      let monitor = Monitor.create ~xen ~mgr ~policy:policies.(0) () in
      Monitor.register_process monitor ~process:"vtpm-manager" ~token:"tok";
      let oracle = ref policies.(0) in
      let doms =
        Array.init diff_guests (fun i ->
            let d =
              Result.get_ok
                (Vtpm_xen.Hypervisor.create_domain xen ~caller:0 ~name:(Printf.sprintf "g%d" i)
                   ~label:diff_labels.(i) ())
            in
            let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
            Vtpm_xen.Domain.set_kernel dom ~image:"good";
            dom)
      in
      (* The oracle's own record of each binding's reference measurement. *)
      let reference =
        Array.mapi
          (fun i (dom : Vtpm_xen.Domain.t) ->
            ignore
              (Result.get_ok
                 (Binding.bind monitor.Monitor.bindings ~vtpm_id:(10 + i) ~domid:dom.Vtpm_xen.Domain.id
                    ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest));
            dom.Vtpm_xen.Domain.kernel_digest)
          doms
      in
      let oracle_verdict subject ~label ~ordinal ~gate =
        (Policy.eval !oracle ~subject ~label ~ordinal ~measured_ok:gate).Policy.verdict
      in
      List.for_all
        (fun op ->
          match op with
          | Request (g, ordinal) ->
              let dom = doms.(g) in
              let subject = Subject.Guest dom.Vtpm_xen.Domain.id in
              let binding = Binding.lookup_domid monitor.Monitor.bindings dom.Vtpm_xen.Domain.id in
              let got, _ = Monitor.decide monitor ~subject ~ordinal ~binding in
              got
              = oracle_verdict subject ~label:diff_labels.(g) ~ordinal ~gate:(fun () ->
                    String.equal dom.Vtpm_xen.Domain.kernel_digest reference.(g))
          | Swap_kernel (g, back) ->
              Vtpm_xen.Domain.set_kernel doms.(g) ~image:(if back then "good" else "rootkit");
              true
          | Rebind g ->
              let dom = doms.(g) in
              let allowed =
                oracle_verdict (Subject.Dom0_process "vtpm-manager") ~label:"dom0:vtpm-manager"
                  ~ordinal:Vtpm_tpm.Types.ord_save_state ~gate:(fun () -> true)
                = Policy.Allow
              in
              let r =
                Monitor.management monitor ~process:"vtpm-manager" ~token:"tok"
                  (Monitor.Rebind { vtpm_id = 10 + g; new_domid = dom.Vtpm_xen.Domain.id })
              in
              if Result.is_ok r then reference.(g) <- dom.Vtpm_xen.Domain.kernel_digest;
              Result.is_ok r = allowed
          | Reload i ->
              Monitor.set_policy monitor policies.(i);
              oracle := policies.(i);
              true
          | Forget g ->
              Monitor.forget_subject monitor (Subject.Guest doms.(g).Vtpm_xen.Domain.id);
              true)
        ops)

(* On a synthetic guarded policy each decision scans a handful of
   candidates and pays the gate, and a kernel swap with no other call
   makes the next guarded request deny — there is no cached Allow to
   outlive it. *)
let test_gated_decisions_indexed_and_live () =
  let xen = Vtpm_xen.Hypervisor.create () in
  let mgr = Manager.create ~rsa_bits:256 ~seed:61 ~cost:xen.Vtpm_xen.Hypervisor.cost () in
  let monitor = Monitor.create ~xen ~mgr ~policy:(Policy.synthetic_guarded ~n:64) () in
  let d =
    Result.get_ok (Vtpm_xen.Hypervisor.create_domain xen ~caller:0 ~name:"g" ~label:"t" ())
  in
  let dom = Vtpm_xen.Hypervisor.domain_exn xen d in
  ignore
    (Result.get_ok
       (Binding.bind monitor.Monitor.bindings ~vtpm_id:1 ~domid:d
          ~reference_measurement:dom.Vtpm_xen.Domain.kernel_digest));
  let binding = Binding.lookup_domid monitor.Monitor.bindings d in
  let decide () =
    fst (Monitor.decide monitor ~subject:(Subject.Guest d) ~ordinal:Vtpm_tpm.Types.ord_pcr_read ~binding)
  in
  for _ = 1 to 3 do
    check_b "measured guest allowed" true (decide () = Policy.Allow)
  done;
  Vtpm_xen.Domain.set_kernel dom ~image:"rootkit";
  check_b "next guarded request denied" true (decide () = Policy.Deny);
  let s = Monitor.stats monitor in
  check_i "guarded decisions never served from cache" 0 s.Monitor.cache_hits;
  check_i "gate paid on every request" 4 s.Monitor.gate_checks;
  check_b "a handful of candidates per request" true (s.Monitor.rules_scanned <= 4 * 5)

let suite =
  [
    Alcotest.test_case "lanes: single lane is serial charge" `Quick
      test_single_lane_is_serial_charge;
    Alcotest.test_case "lanes: instances overlap across lanes" `Quick
      test_lanes_overlap_different_instances;
    Alcotest.test_case "lanes: same instance stays serial" `Quick
      test_lanes_same_instance_stays_serial;
    Alcotest.test_case "fig8: 1-lane series equals figure 1" `Quick
      test_fig8_one_lane_matches_fig1;
    Alcotest.test_case "fig8: 8 lanes >= 4x at 32 VMs" `Quick test_fig8_eight_lanes_scale;
    Alcotest.test_case "batching: per-instance order preserved" `Quick
      test_batch_preserves_per_instance_order;
    Alcotest.test_case "faults: self-heal completes with 4 lanes" `Quick
      test_fault_self_heal_with_lanes;
    Alcotest.test_case "flood: goodput holds with lanes + batching" `Quick
      test_flood_goodput_with_lanes_and_batching;
    Alcotest.test_case "supervisor: wedge confined to one lane" `Quick
      test_wedge_quarantine_confined_to_lane;
    Alcotest.test_case "sched: tick_n fair parallel shares" `Quick
      test_sched_tick_n_fair_shares;
    Alcotest.test_case "manager: domid index equals linear scan" `Quick
      test_domid_index_matches_linear_scan;
    Alcotest.test_case "quota: remaining never allocates" `Quick
      test_quota_remaining_does_not_allocate;
    Alcotest.test_case "manager: hw client deterministic" `Quick
      test_hw_client_deterministic_across_churn;
    Alcotest.test_case "fig2: compiled series flat in rules" `Quick
      test_fig2_compiled_series_flat;
    Alcotest.test_case "fig2: linear reference is exact" `Quick
      test_fig2_linear_reference_exact;
    Alcotest.test_case "fig9: production beats linear reference" `Quick
      test_fig9_production_beats_linear;
    QCheck_alcotest.to_alcotest prop_monitor_matches_linear_oracle;
    Alcotest.test_case "monitor: gated decisions indexed and live" `Quick
      test_gated_decisions_indexed_and_live;
    Alcotest.test_case "xtea: ctr on a 716-byte state within budget" `Quick
      test_xtea_ctr_allocation_budget;
    Alcotest.test_case "migration: protected hop within budget" `Quick
      test_protected_hop_allocation_budget;
    Alcotest.test_case "request path: one mediated command within budget" `Quick
      test_mediated_command_allocation_budget;
  ]
