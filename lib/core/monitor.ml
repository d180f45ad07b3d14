(* The improved reference monitor — the paper's contribution.

   Sits between the vTPM backend and the manager. For every request it:

   1. derives the subject from the hypervisor-attested sender (never from
      the claimed instance number in the frame);
   2. resolves the target instance from the binding table;
   3. evaluates the policy through its compiled first-match index (with a
      decision cache for measurement-independent decisions and a live
      PCR-backed measurement gate for guarded ones);
   4. appends a hash-chained audit record;
   5. only then lets the manager execute the command.

   Management operations (state save/restore, migration, rebinding, audit
   export) are mediated by the same policy using the subject's dom0
   process identity, authenticated by a registered credential. *)

open Vtpm_xen

type stats = {
  mutable lookups : int;
  mutable cache_hits : int;
  mutable rules_scanned : int;
  mutable allowed : int;
  mutable denied : int;
  mutable gate_checks : int;
  mutable throttled : int;
  mutable overloaded : int; (* submissions rejected at queue admission *)
  mutable shed : int; (* queued requests dropped past their deadline *)
  mutable batches : int; (* multi-request drains served by the driver *)
  mutable batched_requests : int; (* requests served inside those drains *)
  mutable transport_tampers : int; (* ring/grant integrity violations detected *)
}

(* What the router needs about a sender besides the policy decision,
   resolved on its first request and reused while neither the binding
   table nor the manager's placement has moved ([routes] is emptied when
   either does): the binding, the subject and its audit name, the bound
   instance, and the group's audit tag with the reasons it has tagged. *)
type route = {
  r_binding : Binding.binding;
  r_bound : Binding.binding option; (* [Some r_binding], for [decide] *)
  r_vtpm : int option; (* [Some] bound instance id, for the audit entry *)
  r_subject : Subject.t;
  r_name : string; (* [Subject.to_string r_subject] *)
  r_instance : (Vtpm_mgr.Manager.instance, Vtpm_util.Verror.t) result;
  r_gtag : string; (* ";group:<label>" on a sharded host, else "" *)
  mutable r_tagged : (string * string) list;
      (* reason -> reason ^ r_gtag, keyed by the reason string itself
         (decisions hand out shared reason strings); at most
         [tagged_max] entries *)
}

type t = {
  xen : Hypervisor.t;
  mgr : Vtpm_mgr.Manager.t;
  mutable policy : Policy.t;
  mutable index : Policy.index; (* compiled from [policy]: the only evaluator *)
  bindings : Binding.t;
  audit : Audit.t;
  credentials : Subject.Credentials.t;
  cache : (Subject.t, (int, Policy.verdict) Hashtbl.t) Hashtbl.t;
      (* subject -> ordinal -> verdict, measurement-independent verdicts
         only: a decision that consulted the gate is never cached, so no
         stale Allow can outlive a kernel swap *)
  reasons : (int, string) Hashtbl.t;
      (* rule line -> "rule@<line>" audit reason, formatted once:
         formatting it per decision took half a gated decision's time *)
  mutable cache_enabled : bool;
  mutable audit_enabled : bool;
  mutable quota : Quota.t option; (* None: no rate limiting *)
  group_quotas : (int, Quota.t) Hashtbl.t;
      (* per-vTPM-group token buckets: a grouped tenant's burst drains
         only its own bucket; empty = no group limiting (seed behavior) *)
  mutable supervisor : Vtpm_mgr.Supervisor.t option;
      (* None: requests execute directly on the manager *)
  mutable freshness : Vtpm_mgr.Freshness.t option;
      (* None: migration streams carry no rollback counters (seed
         behavior); Some: v2 envelopes only, strictly-newer admission *)
  stats : stats;
  routes : route Vtpm_util.Itbl.t; (* sender domid -> route *)
  mutable routes_bindings : int; (* Binding.generation the routes were resolved at *)
  mutable routes_placement : int; (* Manager.placement the routes were resolved at *)
}

let create ~(xen : Hypervisor.t) ~(mgr : Vtpm_mgr.Manager.t) ?(policy = Policy.default_improved)
    () =
  let cost = xen.Hypervisor.cost in
  {
    xen;
    mgr;
    policy;
    index = Policy.compile policy;
    bindings = Binding.create ~cost;
    audit = Audit.create ~cost;
    credentials = Subject.Credentials.create ();
    cache = Hashtbl.create 256;
    reasons = Hashtbl.create 16;
    cache_enabled = true;
    audit_enabled = true;
    quota = None;
    group_quotas = Hashtbl.create 8;
    supervisor = None;
    freshness = None;
    stats =
      {
        lookups = 0;
        cache_hits = 0;
        rules_scanned = 0;
        allowed = 0;
        denied = 0;
        gate_checks = 0;
        throttled = 0;
        overloaded = 0;
        shed = 0;
        batches = 0;
        batched_requests = 0;
        transport_tampers = 0;
      };
    routes = Vtpm_util.Itbl.create 64;
    routes_bindings = -1;
    routes_placement = -1;
  }

let reset_cache t = Hashtbl.reset t.cache

let set_policy t policy =
  t.policy <- policy;
  (* A policy reload invalidates every cached verdict and recompiles the
     index. *)
  reset_cache t;
  Hashtbl.reset t.reasons;
  Vtpm_util.Itbl.reset t.routes;
  t.index <- Policy.compile policy

let set_cache_enabled t v =
  t.cache_enabled <- v;
  if not v then reset_cache t

let set_audit_enabled t v = t.audit_enabled <- v

(* Enable token-bucket rate limiting for all mediated requests. *)
let set_quota t ~rate_per_s ~burst =
  t.quota <- Some (Quota.create ~rate_per_s ~burst ~cost:t.xen.Hypervisor.cost ())

let clear_quota t = t.quota <- None

(* Route execution through a supervisor (circuit breaker, quarantine,
   degraded read-only service). Its lifecycle events land in the audit
   log under their own reasons, the read-only predicate is our command
   classification, and recovery actions are the "allowed" entries. *)
let set_supervisor t (sup : Vtpm_mgr.Supervisor.t) =
  t.supervisor <- Some sup;
  Vtpm_mgr.Supervisor.set_on_event sup (fun ~vtpm_id ev ->
      if t.audit_enabled then
        let allowed =
          match ev with
          | Vtpm_mgr.Supervisor.Restart | Vtpm_mgr.Supervisor.Breaker_close
          | Vtpm_mgr.Supervisor.Degraded_read | Vtpm_mgr.Supervisor.Migration_hold
          | Vtpm_mgr.Supervisor.Migration_commit | Vtpm_mgr.Supervisor.Migration_abort ->
              true
          | _ -> false
        in
        Audit.append t.audit ~subject:"supervisor" ~operation:"supervise"
          ~instance:(Some vtpm_id) ~allowed
          ~reason:(Vtpm_mgr.Supervisor.event_name ev))

let clear_supervisor t = t.supervisor <- None

(* Opt-in rollback defense for migration streams. With a freshness
   tracker installed, exports stamp monotonic counters into the protected
   envelope and imports refuse anything not strictly newer than last-seen
   (legacy v1 envelopes included — downgrade defense). Off by default:
   the seed's stream format and cost sequence stay bit-identical. *)
let set_freshness t f = t.freshness <- f

(* Convenience: create a tracker over the manager and anchor its
   last-seen table in the hardware TPM. *)
let enable_freshness ?nv_index t : (Vtpm_mgr.Freshness.t, string) result =
  let f = Vtpm_mgr.Freshness.create t.mgr in
  match Vtpm_mgr.Freshness.anchor_setup ?nv_index f with
  | Error e -> Error (Vtpm_util.Verror.to_string e)
  | Ok () ->
      t.freshness <- Some f;
      Ok f

let set_audit_cap t cap = Audit.set_max_entries t.audit cap

(* Hook the driver's admission-control events into the audit log, so
   shedding and overload rejection appear under their own reasons next to
   policy denials and rate limiting. *)
let wire_backpressure t (backend : Vtpm_mgr.Driver.backend) =
  Vtpm_mgr.Driver.set_on_backpressure backend (fun bp domid ->
      let subject = Subject.Guest domid in
      let reason, op =
        match bp with
        | Vtpm_mgr.Driver.Rejected -> ("overloaded", "queue-admission")
        | Vtpm_mgr.Driver.Shed -> ("shed-deadline", "queue-service")
      in
      (match bp with
      | Vtpm_mgr.Driver.Rejected -> t.stats.overloaded <- t.stats.overloaded + 1
      | Vtpm_mgr.Driver.Shed -> t.stats.shed <- t.stats.shed + 1);
      if t.audit_enabled then
        Audit.append t.audit ~subject:(Subject.to_string subject) ~operation:op
          ~instance:None ~allowed:false ~reason);
  (* Batch drains are a service event, not a violation: record them as
     allowed entries so the audit trail shows where ring round-trips were
     amortised. *)
  Vtpm_mgr.Driver.set_on_batch backend (fun domid n ->
      t.stats.batches <- t.stats.batches + 1;
      t.stats.batched_requests <- t.stats.batched_requests + n;
      if t.audit_enabled then
        Audit.append t.audit
          ~subject:(Subject.to_string (Subject.Guest domid))
          ~operation:"queue-service" ~instance:None ~allowed:true
          ~reason:(Printf.sprintf "batch-drain:%d" n))

(* Turn on the driver's transport-integrity validation and route every
   detected violation (remapped or revoked ring grant, corrupted producer
   index, injected frame) into the audit log as a denial against the
   affected frontend. The encrypted-VM-era defense: the backend stops
   trusting what dom0-side tools can rewrite. *)
let wire_transport_guard t (backend : Vtpm_mgr.Driver.backend) =
  Vtpm_mgr.Driver.set_validate_transport backend true;
  Vtpm_mgr.Driver.set_on_transport_tamper backend (fun domid reason ->
      t.stats.transport_tampers <- t.stats.transport_tampers + 1;
      if t.audit_enabled then
        Audit.append t.audit
          ~subject:(Subject.to_string (Subject.Guest domid))
          ~operation:"transport-tamper" ~instance:None ~allowed:false ~reason)

(* Subject teardown: drop the quota bucket and cached decisions when a
   domain is destroyed, so per-subject state never outlives its owner. *)
let forget_subject t (subject : Subject.t) =
  (match t.quota with Some q -> Quota.forget q subject | None -> ());
  Hashtbl.remove t.cache subject

let stats t = t.stats

(* Per-lane view of the manager's execution pool: (commands, busy us) in
   lane order. *)
let lane_stats t = Vtpm_mgr.Manager.lane_stats t.mgr

(* Per-shard view when the manager is sharded: one entry per vTPM group. *)
let shard_stats t = Vtpm_mgr.Manager.shard_stats t.mgr

let reset_stats t =
  let s = t.stats in
  s.lookups <- 0;
  s.cache_hits <- 0;
  s.rules_scanned <- 0;
  s.allowed <- 0;
  s.denied <- 0;
  s.gate_checks <- 0;
  s.throttled <- 0;
  s.overloaded <- 0;
  s.shed <- 0;
  s.batches <- 0;
  s.batched_requests <- 0;
  s.transport_tampers <- 0

(* The measurement gate: the guest's *current* kernel digest must match
   the reference recorded when the vTPM was bound. [measured_ok] is the
   charged, counted gate [decide] consults. *)
let measurement_matches t ~(subject : Subject.t) ~(binding : Binding.binding option) =
  match (subject, binding) with
  | Subject.Dom0_process _, _ -> true (* gates constrain guests *)
  | Subject.Guest d, Some b -> (
      match Hypervisor.find_domain t.xen d with
      | Ok dom -> String.equal dom.Domain.kernel_digest b.Binding.reference_measurement
      | Error _ -> false)
  | Subject.Guest _, None -> false

let measured_ok t ~subject ~binding () =
  t.stats.gate_checks <- t.stats.gate_checks + 1;
  Vtpm_util.Cost.charge t.xen.Hypervisor.cost Vtpm_util.Cost.monitor_measure_gate_us;
  measurement_matches t ~subject ~binding

(* Policy check through the compiled index, with the decision cache in
   front. Only measurement-independent decisions are cached; one that
   consulted the gate is evaluated live every time, against the kernel
   digest the domain has now. The simulated charge follows the path
   taken: a hit pays the lookup; a miss pays the lookup, the index
   lookup, the candidates scanned and, when consulted, the gate. Returns
   the verdict and the reason string for the audit trail. *)
let decide t ~(subject : Subject.t) ~(ordinal : int) ~(binding : Binding.binding option) :
    Policy.verdict * string =
  let s = t.stats in
  let cost = t.xen.Hypervisor.cost in
  s.lookups <- s.lookups + 1;
  let cached = if t.cache_enabled then Hashtbl.find_opt t.cache subject else None in
  match match cached with Some verdicts -> Hashtbl.find_opt verdicts ordinal | None -> None with
  | Some verdict ->
      s.cache_hits <- s.cache_hits + 1;
      Vtpm_util.Cost.charge cost Vtpm_util.Cost.monitor_lookup_us;
      (verdict, "cached")
  | None ->
      let label = Subject.label ~xen:t.xen subject in
      let measured_ok = measured_ok t ~subject ~binding in
      let d = Policy.eval_indexed t.index ~subject ~label ~ordinal ~measured_ok in
      s.rules_scanned <- s.rules_scanned + d.Policy.scanned;
      Vtpm_util.Cost.charge cost
        (Vtpm_util.Cost.monitor_lookup_us +. Vtpm_util.Cost.monitor_index_lookup_us
        +. (Vtpm_util.Cost.monitor_rule_scan_us *. float_of_int d.Policy.scanned));
      if t.cache_enabled && not d.Policy.needs_measurement then begin
        let verdicts =
          match cached with
          | Some verdicts -> verdicts
          | None ->
              let verdicts = Hashtbl.create 8 in
              Hashtbl.replace t.cache subject verdicts;
              verdicts
        in
        Hashtbl.replace verdicts ordinal d.Policy.verdict
      end;
      let reason =
        match d.Policy.matched_line with
        | None -> "default"
        | Some l -> (
            match Hashtbl.find_opt t.reasons l with
            | Some r -> r
            | None ->
                let r = "rule@" ^ string_of_int l in
                Hashtbl.replace t.reasons l r;
                r)
      in
      (d.Policy.verdict, reason)

(* [name] is the subject's audit name ([Subject.to_string]). *)
let audit_and_count t ~name ~operation ~instance ~allowed ~reason =
  let s = t.stats in
  if allowed then s.allowed <- s.allowed + 1 else s.denied <- s.denied + 1;
  if t.audit_enabled then Audit.append t.audit ~subject:name ~operation ~instance ~allowed ~reason

(* --- XenStore tamper detection ------------------------------------------

   The improved monitor is *immune* to device-node rewrites (it routes on
   the attested sender), but silent immunity hides an ongoing attack. A
   XenStore watch on the vTPM device subtree compares every write against
   the binding table and raises an audit alert on divergence, so the
   re-pointing attempt itself becomes evidence. *)

let watch_token = "vtpm-monitor-tamper-watch"

let enable_tamper_detection t =
  Xenstore.watch t.xen.Hypervisor.store ~token:watch_token ~path:"/local/domain"
    (fun path ->
      (* Only instance nodes are authoritative-shadowed state. *)
      match String.split_on_char '/' path with
      | [ ""; "local"; "domain"; domid_str; "device"; "vtpm"; "0"; "instance" ] -> (
          match int_of_string_opt domid_str with
          | None -> ()
          | Some domid -> (
              let node_value =
                Result.value ~default:"?"
                  (Xenstore.read t.xen.Hypervisor.store ~caller:Hypervisor.dom0_id path)
              in
              match Binding.lookup_domid t.bindings domid with
              | Some b when string_of_int b.Binding.vtpm_id <> node_value ->
                  Audit.append t.audit ~subject:"xenstore"
                    ~operation:"tamper-alert"
                    ~instance:(Some b.Binding.vtpm_id) ~allowed:false
                    ~reason:
                      (Printf.sprintf "instance node of domain %d rewritten to %s (bound: %d)"
                         domid node_value b.Binding.vtpm_id)
              | _ -> ()))
      | _ -> ())

let disable_tamper_detection t =
  Xenstore.unwatch t.xen.Hypervisor.store ~token:watch_token

(* Rate-limit check, applied after the policy allows. *)
let quota_ok t subject =
  match t.quota with
  | None -> true
  | Some q ->
      let ok = Quota.admit q subject in
      if not ok then t.stats.throttled <- t.stats.throttled + 1;
      ok

let set_group_quota t ~group_id ~rate_per_s ~burst =
  Hashtbl.replace t.group_quotas group_id
    (Quota.create ~rate_per_s ~burst ~cost:t.xen.Hypervisor.cost ())

let clear_group_quota t ~group_id = Hashtbl.remove t.group_quotas group_id

(* Group rate-limit check: the routed instance's whole group shares one
   bucket, admitted under a synthetic per-group subject so tenants never
   drain each other's tokens. An empty table (the default) changes
   nothing. *)
let group_quota_ok t vtpm_id =
  Hashtbl.length t.group_quotas = 0
  ||
  let gid =
    match Vtpm_mgr.Manager.find t.mgr vtpm_id with
    | Ok inst -> inst.Vtpm_mgr.Manager.group_id
    | Error _ -> 0
  in
  gid = 0
  ||
  match Hashtbl.find_opt t.group_quotas gid with
  | None -> true
  | Some q ->
      let ok = Quota.admit q (Subject.Dom0_process (Printf.sprintf "group-%d" gid)) in
      if not ok then t.stats.throttled <- t.stats.throttled + 1;
      ok

(* Sharded hosts tag every audited wire decision with the routed
   instance's group, giving each tenant a filterable audit stream. The
   empty suffix on unsharded hosts keeps seed audit lines byte-identical. *)
let group_suffix t vtpm_id =
  match Vtpm_mgr.Manager.shards t.mgr with
  | None -> ""
  | Some _ -> (
      match Vtpm_mgr.Manager.find t.mgr vtpm_id with
      | Error _ -> ""
      | Ok inst -> (
          match Vtpm_mgr.Manager.shard_of t.mgr inst with
          | None -> ""
          | Some s -> ";" ^ Vtpm_mgr.Group.audit_tag s))

(* --- The wire-request router (installed into the vTPM backend) ----------- *)

let tagged_max = 8

let rec find_tagged r reason = function
  | (k, v) :: rest -> if k == reason then v else find_tagged r reason rest
  | [] ->
      let v = reason ^ r.r_gtag in
      if List.length r.r_tagged < tagged_max then r.r_tagged <- (reason, v) :: r.r_tagged;
      v

(* [reason ^ r.r_gtag], formatted once per route and reason. *)
let tag r reason = if String.length r.r_gtag = 0 then reason else find_tagged r reason r.r_tagged

(* The sender's route: reused while the binding table and the placement
   are where they were when [routes] was filled, resolved afresh
   otherwise; [None] for a sender with no binding. *)
let route_of t sender =
  let bindings = Binding.generation t.bindings and placement = Vtpm_mgr.Manager.placement t.mgr in
  if t.routes_bindings <> bindings || t.routes_placement <> placement then begin
    Vtpm_util.Itbl.reset t.routes;
    t.routes_bindings <- bindings;
    t.routes_placement <- placement
  end;
  match Vtpm_util.Itbl.find_opt t.routes sender with
  | Some _ as found -> found
  | None -> (
      match Binding.lookup_domid t.bindings sender with
      | None -> None
      | Some b as bound ->
          let subject = Subject.Guest sender in
          let r =
            {
              r_binding = b;
              r_bound = bound;
              r_vtpm = Some b.Binding.vtpm_id;
              r_subject = subject;
              r_name = Subject.to_string subject;
              r_instance = Vtpm_mgr.Manager.find t.mgr b.Binding.vtpm_id;
              r_gtag = group_suffix t b.Binding.vtpm_id;
              r_tagged = [];
            }
          in
          Vtpm_util.Itbl.replace t.routes sender r;
          Some r)

let router t : Vtpm_mgr.Driver.router =
 fun ~sender ~claimed_instance ~wire ->
  match route_of t sender with
  | None ->
      audit_and_count t ~name:(Subject.to_string (Subject.Guest sender))
        ~operation:"unbound-request" ~instance:None ~allowed:false ~reason:"no vTPM binding";
      Error "no vTPM bound to requesting domain"
  | Some r -> (
      let b = r.r_binding and subject = r.r_subject and name = r.r_name in
      match Vtpm_tpm.Wire.peek_header wire with
      | None ->
          audit_and_count t ~name ~operation:"malformed" ~instance:r.r_vtpm
            ~allowed:false ~reason:"short frame";
          Error "malformed TPM request"
      | Some { Vtpm_tpm.Wire.ordinal; _ } -> (
          let op_name = Vtpm_tpm.Types.ordinal_name ordinal in
          (* A claimed id that disagrees with the binding is noise at best,
             an attack at worst; route by binding either way and log. *)
          let mismatch = claimed_instance <> b.Binding.vtpm_id in
          match decide t ~subject ~ordinal ~binding:r.r_bound with
          | Policy.Deny, reason ->
              audit_and_count t ~name ~operation:op_name ~instance:r.r_vtpm
                ~allowed:false ~reason:(tag r reason);
              Error (Printf.sprintf "policy denied %s (%s)" op_name reason)
          | Policy.Allow, _ when not (quota_ok t subject) ->
              audit_and_count t ~name ~operation:op_name ~instance:r.r_vtpm
                ~allowed:false ~reason:(tag r "rate-limited");
              Error (Printf.sprintf "rate limit exceeded for %s" name)
          | Policy.Allow, _ when not (group_quota_ok t b.Binding.vtpm_id) ->
              audit_and_count t ~name ~operation:op_name ~instance:r.r_vtpm
                ~allowed:false ~reason:(tag r "group-rate-limited");
              Error (Printf.sprintf "group rate limit exceeded for %s" name)
          | Policy.Allow, reason -> (
              let reason =
                if mismatch then reason ^ ";claimed-id-mismatch" ^ r.r_gtag else tag r reason
              in
              audit_and_count t ~name ~operation:op_name ~instance:r.r_vtpm
                ~allowed:true ~reason;
              match t.supervisor with
              | Some sup -> (
                  match Vtpm_mgr.Supervisor.execute sup ~vtpm_id:b.Binding.vtpm_id ~wire with
                  | Ok resp -> Ok resp
                  | Error e -> Error (Vtpm_util.Verror.to_string e))
              | None -> (
                  match r.r_instance with
                  | Error e -> Error (Vtpm_util.Verror.to_string e)
                  | Ok inst -> (
                      match Vtpm_mgr.Manager.execute_wire t.mgr inst ~wire with
                      | Ok resp -> Ok resp
                      | Error e -> Error (Vtpm_util.Verror.to_string e))))))

(* --- Management interface -------------------------------------------------- *)

type management_op =
  | Save_instance of { vtpm_id : int }
  | Restore_instance of { blob : string }
  | Migrate_out of { vtpm_id : int; dest_key : Vtpm_crypto.Rsa.public option }
  | Migrate_in of { stream : string }
  | Migrate_receive of { stream : string }
  | Migrate_activate of { vtpm_id : int }
  | Migrate_abort of { vtpm_id : int }
  | Rebind of { vtpm_id : int; new_domid : Domain.domid }
  | Export_audit

let management_op_name = function
  | Save_instance _ -> "mgmt:save"
  | Restore_instance _ -> "mgmt:restore"
  | Migrate_out _ -> "mgmt:migrate-out"
  | Migrate_in _ -> "mgmt:migrate-in"
  | Migrate_receive _ -> "mgmt:migrate-receive"
  | Migrate_activate _ -> "mgmt:migrate-activate"
  | Migrate_abort _ -> "mgmt:migrate-abort"
  | Rebind _ -> "mgmt:rebind"
  | Export_audit -> "mgmt:export-audit"

type management_result =
  | M_blob of string
  | M_instance of int
  | M_audit of Audit.entry list
  | M_unit

let register_process t ~process ~token = Subject.Credentials.register t.credentials ~process ~token

(* All management operations are policed as Admin-class commands under the
   caller's dom0 process identity; the credential gate comes first. *)
let management t ~(process : string) ~(token : string) (op : management_op) :
    (management_result, string) result =
  let subject = Subject.Dom0_process process in
  let name = Subject.to_string subject in
  let op_name = management_op_name op in
  if not (Subject.Credentials.verify t.credentials ~process ~token) then begin
    audit_and_count t ~name ~operation:op_name ~instance:None ~allowed:false
      ~reason:"bad credential";
    Error "management credential rejected"
  end
  else begin
    (* Map the op onto the Admin class for policy purposes. *)
    let ordinal = Vtpm_tpm.Types.ord_save_state in
    match decide t ~subject ~ordinal ~binding:None with
    | Policy.Deny, reason ->
        audit_and_count t ~name ~operation:op_name ~instance:None ~allowed:false ~reason;
        Error (Printf.sprintf "policy denied %s (%s)" op_name reason)
    | Policy.Allow, reason -> (
        audit_and_count t ~name ~operation:op_name ~instance:None ~allowed:true ~reason;
        match op with
        | Save_instance { vtpm_id } -> (
            match Vtpm_mgr.Manager.find t.mgr vtpm_id with
            | Error e -> Error (Vtpm_util.Verror.to_string e)
            | Ok inst ->
                Result.map
                  (fun b -> M_blob b)
                  (Vtpm_mgr.Stateproc.save t.mgr inst ~format:Vtpm_mgr.Stateproc.Sealed))
        | Restore_instance { blob } -> (
            match Vtpm_mgr.Stateproc.load t.mgr blob with
            | Error e -> Error e
            | Ok (engine, _) ->
                let inst = Vtpm_mgr.Manager.create_instance t.mgr in
                let inst = { inst with Vtpm_mgr.Manager.engine } in
                Vtpm_mgr.Manager.install_instance t.mgr inst;
                Ok (M_instance inst.Vtpm_mgr.Manager.vtpm_id))
        | Migrate_out { vtpm_id; dest_key } -> (
            match Vtpm_mgr.Manager.find t.mgr vtpm_id with
            | Error e -> Error (Vtpm_util.Verror.to_string e)
            | Ok inst -> (
                match
                  Vtpm_mgr.Migration.export t.mgr ?fresh:t.freshness inst
                    ~mode:Vtpm_mgr.Migration.Protected ~dest_key
                with
                | Error e ->
                    audit_and_count t ~name ~operation:op_name ~instance:(Some vtpm_id)
                      ~allowed:false ~reason:("export-rejected: " ^ e);
                    Error e
                | Ok stream ->
                    Vtpm_mgr.Migration.finalize_source t.mgr inst;
                    (match Binding.lookup_instance t.bindings vtpm_id with
                    | Some b -> Binding.unbind t.bindings ~domid:b.Binding.domid
                    | None -> ());
                    Ok (M_blob stream)))
        | Migrate_in { stream } -> (
            match Vtpm_mgr.Migration.import t.mgr ?fresh:t.freshness stream with
            | Ok i -> Ok (M_instance i.Vtpm_mgr.Manager.vtpm_id)
            | Error e ->
                (* A refused stream (MAC, downgrade, stale counter) is an
                   attack surface event, not a mere failure: audit it as a
                   denial so rollback/replay attempts leave evidence. *)
                audit_and_count t ~name ~operation:op_name ~instance:None ~allowed:false
                  ~reason:("import-rejected: " ^ e);
                Error e)
        | Migrate_receive { stream } -> (
            match Vtpm_mgr.Migration.receive t.mgr ?fresh:t.freshness stream with
            | Ok i -> Ok (M_instance i.Vtpm_mgr.Manager.vtpm_id)
            | Error e ->
                audit_and_count t ~name ~operation:op_name ~instance:None ~allowed:false
                  ~reason:("import-rejected: " ^ e);
                Error e)
        | Migrate_activate { vtpm_id } -> (
            match Vtpm_mgr.Manager.find t.mgr vtpm_id with
            | Error e -> Error (Vtpm_util.Verror.to_string e)
            | Ok inst when inst.Vtpm_mgr.Manager.state <> Vtpm_mgr.Manager.Suspended ->
                Error (Printf.sprintf "vTPM %d is not a quarantined import" vtpm_id)
            | Ok inst ->
                Vtpm_mgr.Migration.activate inst;
                Ok M_unit)
        | Migrate_abort { vtpm_id } -> (
            match Vtpm_mgr.Manager.find t.mgr vtpm_id with
            | Error e -> Error (Vtpm_util.Verror.to_string e)
            | Ok inst when inst.Vtpm_mgr.Manager.state <> Vtpm_mgr.Manager.Suspended ->
                Error (Printf.sprintf "vTPM %d is not a quarantined import" vtpm_id)
            | Ok inst ->
                Vtpm_mgr.Migration.abort_import t.mgr inst;
                Ok M_unit)
        | Rebind { vtpm_id; new_domid } -> (
            (match Binding.lookup_instance t.bindings vtpm_id with
            | Some b -> Binding.unbind t.bindings ~domid:b.Binding.domid
            | None -> ());
            match Hypervisor.find_domain t.xen new_domid with
            | Error e -> Error e
            | Ok dom -> (
                match
                  Binding.bind t.bindings ~vtpm_id ~domid:new_domid
                    ~reference_measurement:dom.Domain.kernel_digest
                with
                | Ok _ -> Ok M_unit
                | Error e -> Error (Vtpm_util.Verror.to_string e)))
        | Export_audit -> Ok (M_audit (Audit.entries t.audit)))
  end
