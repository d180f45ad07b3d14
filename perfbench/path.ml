(* The guest request path as the benchmark sees it: clients over the split
   driver, and — in the traced run only — probes around the two public
   seams of that path (the client's transport function and the backend's
   [router] field), plus the replays that split the router's time into
   monitor decision, audit append and engine execution. *)

open Vtpm_access
module Client = Vtpm_tpm.Client
module Driver = Vtpm_mgr.Driver

(* Counters taken at the seams while the trace is on. *)
type probe = {
  mutable requests : int;  (** router calls *)
  mutable rings_scanned : int;  (** connected rings the pump walks, summed per request *)
  mutable wire_bytes : int;  (** TPM request + response bytes through the transport *)
  mutable exchanges : int;  (** transport calls *)
  decide_inputs : (int * int) Queue.t;  (** (sender domid, ordinal), sampled *)
  engine_inputs : (int * string) Queue.t;  (** (sender domid, unauthorized wire), sampled *)
}

let probe =
  {
    requests = 0;
    rings_scanned = 0;
    wire_bytes = 0;
    exchanges = 0;
    decide_inputs = Queue.create ();
    engine_inputs = Queue.create ();
  }

let max_samples = 20_000

(* The ordinals whose execution the engine replay times: the measured-boot
   commands, which carry no authorization and change no session state. *)
let replayable ordinal =
  ordinal = Vtpm_tpm.Types.ord_extend
  || ordinal = Vtpm_tpm.Types.ord_pcr_read
  || ordinal = Vtpm_tpm.Types.ord_get_random

(* A TPM client over the guest's split-driver connection, the same
   transport [Host.guest_client] builds, wrapped in a transport span. *)
let client (host : Host.t) (g : Host.guest) ~seed =
  let raw = Driver.client_transport host.Host.backend g.Host.conn in
  Client.create ~seed (fun wire ->
      if not !Trace.on then raw wire
      else begin
        probe.exchanges <- probe.exchanges + 1;
        let resp = Trace.span Trace.Transport (fun () -> raw wire) in
        probe.wire_bytes <- probe.wire_bytes + String.length wire + String.length resp;
        resp
      end)

(* Wrap the backend's router: a span around every routed request, and
   the inputs the replays need. *)
let instrument (host : Host.t) =
  let backend = host.Host.backend in
  let inner = backend.Driver.router in
  backend.Driver.router <-
    (fun ~sender ~claimed_instance ~wire ->
      if not !Trace.on then inner ~sender ~claimed_instance ~wire
      else begin
        probe.requests <- probe.requests + 1;
        List.iter
          (fun (c : Driver.connection) ->
            if c.Driver.connected then probe.rings_scanned <- probe.rings_scanned + 1)
          backend.Driver.connections;
        (match Vtpm_tpm.Wire.peek_header wire with
        | Some h when Queue.length probe.decide_inputs < max_samples ->
            let ordinal = h.Vtpm_tpm.Wire.ordinal in
            Queue.add (sender, ordinal) probe.decide_inputs;
            if replayable ordinal then Queue.add (sender, wire) probe.engine_inputs
        | _ -> ());
        Trace.span Trace.Route (fun () -> inner ~sender ~claimed_instance ~wire)
      end)

let mean_us_per f xs =
  let n = List.length xs in
  if n = 0 then 0.0
  else begin
    let t0 = Common.now_ns () in
    List.iter f xs;
    Common.ns_to_us (Common.now_ns () - t0) /. float_of_int n
  end

(* Replay the recorded decisions through [Monitor.decide] on the live
   monitor (its cache state is the run's), the retained audit entries
   into a scratch log, and the recorded measured-boot commands on
   clones of the guests' engines. *)
let replay_layers (host : Host.t) =
  let m = Host.monitor_exn host in
  let decide =
    List.of_seq (Queue.to_seq probe.decide_inputs)
    |> List.map (fun (d, ordinal) -> (d, ordinal, Binding.lookup_domid m.Monitor.bindings d))
  in
  let decide_us =
    mean_us_per
      (fun (d, ordinal, binding) ->
        ignore (Monitor.decide m ~subject:(Subject.Guest d) ~ordinal ~binding))
      decide
  in
  let entries = Audit.entries m.Monitor.audit in
  let scratch = Audit.create ~cost:(Vtpm_util.Cost.create ()) in
  let append_us =
    mean_us_per
      (fun (e : Audit.entry) ->
        Audit.append scratch ~subject:e.Audit.subject ~operation:e.Audit.operation
          ~instance:e.Audit.instance ~allowed:e.Audit.allowed ~reason:e.Audit.reason)
      entries
  in
  (* Size of an entry in the exported (on-disk) form. *)
  let bytes_per_entry =
    Common.ratio (String.length (Audit.export m.Monitor.audit)) (List.length entries)
  in
  let clones = Hashtbl.create 16 in
  let engine_for d =
    match Hashtbl.find_opt clones d with
    | Some e -> e
    | None ->
        let inst = Option.get (Vtpm_mgr.Manager.instance_for_domid host.Host.mgr d) in
        let e =
          Result.get_ok
            (Vtpm_tpm.Engine.deserialize_state
               (Vtpm_tpm.Engine.serialize_state inst.Vtpm_mgr.Manager.engine))
        in
        Hashtbl.replace clones d e;
        e
  in
  let cmds =
    List.of_seq (Queue.to_seq probe.engine_inputs)
    |> List.map (fun (d, wire) -> (engine_for d, Vtpm_tpm.Wire.decode_request wire))
  in
  let exec_us =
    mean_us_per (fun (e, req) -> ignore (Vtpm_tpm.Engine.execute e ~locality:0 req)) cmds
  in
  Common.metric "monitor.decide_us" decide_us;
  Common.metric "audit.append_us" append_us;
  Common.metric "audit.bytes_per_entry" bytes_per_entry;
  Common.metric "engine.exec_us" exec_us

(* Per-layer metrics of the request path, from the traced phase. *)
let report ~ops ~(stats0 : Monitor.stats) ~audit0 (host : Host.t) =
  let m = Host.monitor_exn host in
  let s = Monitor.stats m in
  let mediated = s.Monitor.allowed + s.Monitor.denied - (stats0.Monitor.allowed + stats0.Monitor.denied) in
  let lookups = s.Monitor.lookups - stats0.Monitor.lookups in
  Common.metric "client.self_us" (Trace.self_us Trace.Op);
  Common.metric "client.exchanges_per_op" (Common.ratio probe.exchanges ops);
  Common.metric "driver.self_us" (Trace.self_us Trace.Transport);
  Common.metric "driver.rings_scanned_per_req"
    (Common.ratio probe.rings_scanned probe.requests);
  Common.metric "driver.wire_bytes_per_req" (Common.ratio probe.wire_bytes probe.exchanges);
  Common.metric "monitor.route_us" (Trace.dur_us Trace.Route);
  Common.metric "monitor.rules_scanned_per_req"
    (Common.ratio (s.Monitor.rules_scanned - stats0.Monitor.rules_scanned) lookups);
  Common.metric "monitor.cache_hit_ratio"
    (Common.ratio (s.Monitor.cache_hits - stats0.Monitor.cache_hits) lookups);
  Common.metric "monitor.gate_checks_per_req"
    (Common.ratio (s.Monitor.gate_checks - stats0.Monitor.gate_checks) lookups);
  Common.metric "monitor.denied" (float_of_int (s.Monitor.denied - stats0.Monitor.denied));
  Common.metric "audit.entries_per_req"
    (Common.ratio (Audit.length m.Monitor.audit - audit0) mediated);
  replay_layers host

let copy_stats (s : Monitor.stats) = { s with Monitor.lookups = s.Monitor.lookups }

(* --- End-of-run checks ------------------------------------------------------ *)

(* The retained audit chain verifies from its recorded base to the live
   head. *)
let check_audit_chain (host : Host.t) =
  let a = (Host.monitor_exn host).Monitor.audit in
  Common.invariant
    (Audit.verify_chain ~base:(Audit.base a) ~expected_head:(Audit.head a) (Audit.entries a)
    = Ok ())
    "audit chain does not verify"

(* Final PCRs 0-15 of guest [idx]'s instance, read from its engine, for
   the oracle to compare with its own chain. *)
let log_final_pcrs (mgr : Vtpm_mgr.Manager.t) ~idx ~vtpm_id =
  match Vtpm_mgr.Manager.find mgr vtpm_id with
  | Error _ -> Common.invariant false "instance of guest %d vanished" idx
  | Ok inst ->
      for pcr = 0 to 15 do
        match Vtpm_tpm.Engine.pcr_value inst.Vtpm_mgr.Manager.engine pcr with
        | Ok v -> Common.log "F %d %d %s" idx pcr (Common.hex v)
        | Error _ -> Common.invariant false "guest %d pcr %d unreadable" idx pcr
      done
