(** Adversarial interleaving fuzzer.

    Where {!Attack} proves each Table 2 adversary loses in isolation,
    this module drives random {e schedules} mixing legitimate vTPM
    traffic with the encrypted-VM-era attacks — frame forgery, ring
    capture/replay, producer-index corruption racing the batch pump,
    grant remapping and revocation, rogue management calls and
    migration-stream bit-flips — against the full improved stack with
    every concurrency feature enabled (execution lanes, batched pumping,
    policy index + guard cache, supervisor, freshness-protected
    migration, rotating anchored audit log).

    A trace is a plain [(tag, arg)] integer list: total to decode, so
    QCheck shrinking stays in-domain, and trivially serializable for
    deterministic replay of failing schedules. *)

type trace = (int * int) list

(** One decoded schedule step. *)
type op =
  | Victim_read  (** legitimate victim PCR read via the bounded queue *)
  | Victim_extend of int  (** legitimate victim measurement; drives the shadow model *)
  | Bystander_read  (** co-tenant read — must never see victim state *)
  | Pump  (** one backend batch-pump round *)
  | Forge  (** bystander frame claiming the victim's instance number *)
  | Inject of int  (** captured extend frame re-injected by a dom0 mapping *)
  | Index_corrupt of int  (** producer-index shift (phantom slots) *)
  | Grant_remap of int  (** ring grant's backing frame swapped *)
  | Grant_revoke  (** ring grant force-revoked mid-connection *)
  | Rogue_mgmt  (** unauthenticated dom0 management call *)
  | Migration_bitflip of int  (** one bit flipped on the stream in the drain window *)
  | Anchor_commit  (** legitimate audit-head anchor through {!Vtpm_access.Anchor_svc} *)
  | Hw_fault of int
      (** arm a one-shot hardware-TPM fault (busy / stall / power loss /
          NV bit rot / reset) against the next chip round trip *)

val op_tags : int
(** Number of op tags the decoder folds into. *)

val decode : int * int -> op
(** Total: every integer pair is a valid op. *)

val describe : int * int -> string

val is_attack : int * int -> bool

type report = {
  ops : int;
  submitted : int;
  served_ok : int;  (** pumped entries whose exchange completed *)
  served_failed : int;  (** pumped entries failed in-flight (audited transport denials) *)
  rejected : int;  (** refused at queue admission *)
  attack_ops : int;
  bypasses : int;  (** adversary wins observed — must be 0 *)
  tampers : int;  (** transport violations detected and audited *)
  migrations : int;
  rotations : int;  (** audit retention rotations survived *)
  kick_faults : int;  (** notifications dropped or duplicated by the injector *)
  attempts_by_kind : (string * int) list;  (** attack attempts per adversary, sorted *)
  wins_by_kind : (string * int) list;  (** adversary wins per kind — must be [] *)
  violations : string list;  (** empty iff the invariant bundle held *)
}

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit

val run_trace : ?seed:int -> ?kick_faults:float -> trace -> report
(** Build a fresh full-stack improved host (victim + bystander guests,
    lanes, batching, index, guard cache, supervisor, freshness, anchored
    rotating audit), run the schedule, then check the invariant bundle:

    - victim PCR 10 equals the shadow model (own served extends only) —
      both through the transport and directly against the engine;
    - the bystander's PCR never moves and no read leaks victim state;
    - request conservation: admitted = served (+ shed) with the queues
      empty, and the victim link heals after the last tamper;
    - detected tampers all audited; audit chain verifies against the
      hardware anchor across retention rotation;
    - tampered migration streams refused, refusals audited at the
      destination, source back to [Active];
    - pump liveness: every admitted request is served within
      {!max_wait_rounds} pump rounds, and once an exchange has been
      answered no connected ring still holds an unconsumed request.

    [kick_faults] drops and duplicates that share of event-channel
    notifications in both directions (default: none). A dropped
    response kick makes the self-healing frontend re-send an executed
    command, so under it only the liveness and conservation invariants
    are meaningful; the shadow-model ones assume exactly-once delivery.

    Violations are reported, not raised; liveness ones start with
    ["pump liveness"]. *)

val max_wait_rounds : int

val max_migrations_per_trace : int

(** {1 Deterministic soaks} *)

val gen_trace : ?attack_frac:float -> seed:int -> index:int -> unit -> trace
(** Deterministic pseudo-random schedule — the soak corpus.
    [attack_frac] fixes the per-op probability of an attack tag (the
    fig11 x-axis); default is uniform over the whole tag space. *)

type soak = {
  sk_traces : int;
  sk_ops : int;
  sk_submitted : int;
  sk_served : int;
  sk_served_ok : int;
  sk_attacks : int;
  sk_bypasses : int;
  sk_tampers : int;
  sk_migrations : int;
  sk_rotations : int;
  sk_attempts_by_kind : (string * int) list;
  sk_wins_by_kind : (string * int) list;
  sk_failures : (int * string list) list;  (** (trace index, violations) *)
}

val soak : ?seed:int -> ?attack_frac:float -> traces:int -> unit -> soak
(** Run [traces] generated schedules; [sk_failures = []] means the
    invariant bundle held on every one. *)

(** {1 Replay artifacts}

    Failing traces serialize to a line format ([tag arg] per line under
    a version header; [#] starts a comment) so a shrunk reproducer can
    be checked in as a fixture and re-run byte-for-byte. *)

val trace_header : string

val trace_to_string : trace -> string
(** Includes a per-line [#] comment naming the decoded op. *)

val trace_of_string : string -> (trace, string) result

val save_trace : string -> trace -> unit
val load_trace : string -> (trace, string) result

val replay : ?seed:int -> string -> (report, string) result
(** [replay ~seed path] = {!run_trace} on the loaded trace. *)

(** {1 QCheck surface} *)

val arb_trace : trace QCheck.arbitrary
(** Schedules of 4—36 steps with integral shrinking: a failing
    interleaving minimizes to the shortest prefix/subset that still
    violates the bundle. *)
