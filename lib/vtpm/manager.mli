(** The vTPM manager: one software TPM instance per guest, plus the
    platform's hardware TPM at the root.

    Deliberately policy-free: *who* may reach *which* instance with
    *which* command is decided by a router installed by the access-control
    layer ([Vtpm_access.Monitor] or [Vtpm_access.Baseline]). The manager
    provides mechanism: instance table, execution, lifecycle, state
    capture. *)

type instance_state = Active | Suspended | Wedged

type instance = {
  vtpm_id : int;
  engine : Vtpm_tpm.Engine.t;
  mutable state : instance_state;
  mutable bound_domid : Vtpm_xen.Domain.domid option;
  mutable group_id : int;  (** owning vTPM group/shard; 0 = ungrouped *)
  created_at : float;  (** simulated time *)
}

type t = {
  instances : (int, instance) Hashtbl.t;
  domid_index : (Vtpm_xen.Domain.domid, int * int) Hashtbl.t;
      (** [bound_domid] mirror: domid -> (group_id, vtpm_id), maintained
          by {!bind_domid}/{!unbind_domid}/{!install_instance}/
          {!destroy_instance}/{!crash}/{!assign_group} — one O(1) lookup
          routes a frontend to both its shard and its instance *)
  mutable next_id : int;
  hw_tpm : Vtpm_tpm.Engine.t;  (** the physical TPM under the manager *)
  hw_srk_auth : string;
  hw_owner_auth : string;
  rsa_bits : int;
  cost : Vtpm_util.Cost.t;
  mutable seed : int;
  creation_seed : int;  (** seed at [create] time; never bumped *)
  mutable lanes : Vtpm_util.Cost.Lanes.pool;
  mutable shards : Group.t option;
      (** vTPM group registry: when set, grouped instances execute on
          their shard's private lane pool instead of [lanes]; [None]
          (the default) keeps every charge byte-identical to the seed *)
  mutable hw_faults : Vtpm_xen.Faults.t option;
      (** hardware-TPM fault injector consulted by {!hw_transport};
          [None] (the default) keeps the transport byte-identical *)
  mutable hw_ops : int;  (** hardware round trips attempted under faults *)
  mutable hw_power_cycles : int;
}

val manager_pcr : int
(** Hardware-TPM PCR holding the manager's own measurement; sealed vTPM
    state binds to it, so a tampered manager cannot unseal. *)

val create : ?rsa_bits:int -> seed:int -> cost:Vtpm_util.Cost.t -> unit -> t
(** Initializes the hardware TPM: startup, ownership, manager
    measurement. *)

val find : t -> int -> (instance, Vtpm_util.Verror.t) result
val create_instance : t -> instance

val adopt : t -> engine:Vtpm_tpm.Engine.t -> state:instance_state -> instance
(** Install a carried engine (a migration import) as a new instance in
    [state]. Takes the id and key-seed step {!create_instance} would and
    charges the same attach cost, so later instances' keys and the
    simulated clock are as if {!create_instance} had run, but no key is
    generated: the engine keeps the EK it arrived with. *)

val destroy_instance : t -> int -> unit
(** Removes the instance and its domid-index entry. *)

(** {1 Execution lanes}

    A configurable pool of simulated worker lanes on the shared cost
    meter. Instances map to lanes by the pool's placement policy (the
    default [Fixed_hash] is the seed's [vtpm_id mod lanes]); commands
    for the same instance stay strictly ordered while different
    instances on different lanes overlap in simulated time. The default
    single lane reproduces the serial manager bit-exactly. When a shard
    registry is installed ({!set_shards}), grouped instances execute on
    their shard's private pool instead. *)

val set_lanes : ?placement:Vtpm_util.Cost.Lanes.placement -> t -> int -> unit
(** Replace the manager-wide pool with [n] fresh lanes (default
    placement [Fixed_hash]); raises [Invalid_argument] if [n < 1]. The
    outgoing pool's in-flight horizons are drained into the meter first,
    so a mid-run swap cannot lose simulated time already dispatched. *)

val lane_count : t -> int
(** Lanes in the manager-wide pool. *)

val lane_of : t -> vtpm_id:int -> int
(** Current lane of the instance, within its own pool (shard pool when
    grouped). *)

val lane_placement : t -> Vtpm_util.Cost.Lanes.placement
val lane_steals : t -> int

val parallel_for : t -> vtpm_id:int -> bool
(** True when re-homing work onto the instance's own lane changes
    anything: its pool (shard pool when grouped) has more than one lane,
    or it is grouped at all — a shard must not leak charges onto the
    global meter even with a single lane. *)

val lane_stats : t -> (int * float) array
(** Per lane of the manager-wide pool: commands executed and total busy
    microseconds. Self-syncing: in-flight horizons are drained into the
    meter first, so the numbers can never lag the pool. *)

val sync_lanes : t -> unit
(** Advance the meter past all in-flight lane work, shard pools
    included (elapsed = max over lanes); call before reading elapsed
    time at the end of a workload. *)

val charge_lane : t -> vtpm_id:int -> float -> unit
(** Charge non-command work (degraded reads, restarts) to the instance's
    lane — in its shard's pool when grouped — instead of the global
    meter. *)

(** {1 vTPM groups (manager shards)} *)

val set_shards : t -> Group.t option -> unit
(** Install (or remove) the group registry. [None] — the default — keeps
    every instance on the manager-wide pool, byte-identical to the
    seed. *)

val shards : t -> Group.t option

val assign_group : t -> instance -> label:string -> Group.shard
(** Move an instance into the group for [label] (minting the shard on
    first sight), updating membership counts and the domid routing
    index. Raises [Invalid_argument] when no registry is installed. *)

val shard_of : t -> instance -> Group.shard option
(** The instance's shard, when sharding is enabled and it is grouped. *)

val shard_stats : t -> (int * string * int * (int * float) array) list
(** Per shard: group id, label, members, per-lane (executed, busy_us). *)

(** {1 Domain binding}

    All [bound_domid] mutations go through these so the domid index can
    never disagree with the instance table. *)

val bind_domid : t -> instance -> Vtpm_xen.Domain.domid -> unit
val unbind_domid : t -> instance -> unit

val install_instance : t -> instance -> unit
(** Install or replace an instance record wholesale (checkpoint restore,
    migration import, state resume), keeping the index in step. *)

val wedge : instance -> unit
(** Mark an instance hung: it refuses every command until restored from a
    checkpoint or destroyed. The manager domain itself stays up. *)

val is_wedged : instance -> bool

val crash : t -> unit
(** Simulated manager-domain crash: drops every in-memory instance. The
    hardware TPM (a physical chip) survives, so sealed checkpoints still
    load — see {!Checkpoint}. *)

val instances : t -> instance list
val instance_for_domid : t -> Vtpm_xen.Domain.domid -> instance option

val route_for_domid : t -> Vtpm_xen.Domain.domid -> (int * instance) option
(** O(1) shard-aware frontend routing: (group_id, instance) for a bound
    domid, group_id 0 when unsharded. *)

val command_cost : int -> float
(** Simulated execution cost of a TPM ordinal. *)

val execute_wire : t -> instance -> wire:string -> (string, Vtpm_util.Verror.t) result
(** Run one TPM wire request on an instance (guest locality 0), charging
    simulated time. Suspended and wedged instances refuse. *)

(** {1 Hardware-TPM access for the manager's own needs} *)

val set_hw_faults : t -> Vtpm_xen.Faults.t option -> unit
(** Arm (or disarm) hardware-TPM fault injection on {!hw_transport}. The
    injector's [Hw_*] classes are consulted once per round trip; with
    [None] the transport draws nothing and behaves exactly as the seed. *)

val hw_power_cycle : t -> unit
(** Chip power cycle / reset: volatile auth sessions are wiped and the
    part restarted; NV, counters, keys and the measured PCR state
    persist, so sealed blobs bound to {!manager_pcr} still unseal. *)

val hw_transport : t -> Vtpm_tpm.Client.transport
(** May raise [Failure "hw-tpm: ..."] when an injected power loss or
    reset cuts the exchange — surfaced by {!Vtpm_tpm.Client.exchange} as
    a transient [Transport] error. *)

val hw_client : t -> Vtpm_tpm.Client.t
