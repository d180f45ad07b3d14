(** Shared I/O ring, modelled on Xen's single-page [io/ring.h] rings.

    A ring lives in a frame owned by the frontend and granted to the
    backend; requests flow front→back, responses back→front. Capacity is
    bounded like the real single-page ring, so back-pressure (full ring →
    request refused) is observable in the throughput experiments.

    The model also keeps what a shared *page* physically has: explicit
    producer/consumer indices, stale frames left in consumed slots, and
    per-slot provenance. The adversarial-access surface
    ({!snoop_requests}, {!inject_request}, {!corrupt_req_prod}) is what a
    rogue dom0 tool holding a mapping of the page can do; the validated
    backend pop ({!pop_request_validated}) is the hardened read that
    detects it. *)

type slot = {
  id : int;
  payload : string;
  pusher : Domain.domid;
      (** which domain wrote the frame — the frontend for genuine pushes,
          the injecting domain for {!inject_request} *)
}

type t

val default_capacity : int

val create : ?capacity:int -> frontend:Domain.domid -> backend:Domain.domid -> unit -> t

val frontend : t -> Domain.domid
(** The frontend identity recorded at connect time — the unforgeable
    sender the improved monitor routes on. *)

val backend : t -> Domain.domid

val request_space : t -> int
val pending_requests : t -> int
val pending_responses : t -> int

val req_prod : t -> int
(** The page's request producer index (monotonic, like the real ring's). *)

val req_cons : t -> int

val has_unconsumed_requests : t -> bool
(** Whether the backend has anything to consume: the indices disagree or
    frames are queued (Xen's [RING_HAS_UNCONSUMED_REQUESTS]). While it is
    false, {!pop_request} and {!pop_request_validated} return nothing and
    change nothing, and only a producer-side write ({!push_request},
    {!inject_request}, {!corrupt_req_prod}) can make it true. *)

(** {1 Frontend side} *)

val push_request : t -> string -> (int, string) result
(** Returns the slot id used to match the response, or ["ring full"]. *)

val pop_response : t -> slot option

val request_pending : t -> id:int -> bool
(** True while the request with [id] is still queued (not yet popped by
    the backend) — distinguishes a lost kick from a lost request. *)

(** {1 Backend side} *)

val pop_request : t -> slot option
(** The naive (2006-era) backend read: trusts [req_prod] up to the one
    sanity check real backends carried — an index delta beyond the ring
    size is refused outright (no wrap-around read). A corrupted delta
    {e within} the ring size is believed: once genuine frames run out,
    the stale frame still occupying the page slot is re-served (its id
    re-registered so the duplicate response flows) — the replay
    vulnerability the validated pop closes. *)

val pop_request_validated : t -> (slot option, string) result
(** Hardened pop: any divergence between the producer index and the
    frames actually pushed (out-of-bounds index, phantom slots) is an
    integrity error; stale frames are never served. *)

val push_response : t -> id:int -> string -> (unit, string) result
(** Fails with ["unknown slot id <n>"] for an id that was never pushed
    (or already answered), and ["ring full"] on back-pressure. *)

val index_consistent : t -> bool
(** Whether the producer index agrees with the frames actually pushed. *)

val sanitize_indices : t -> unit
(** Recovery after detected tamper: re-derive [req_prod] from the frames
    genuinely pushed, neutralizing phantom slots. *)

(** {1 Adversarial access (a dom0 mapping of the ring page)} *)

val snoop_requests : t -> slot list
(** Non-destructive read of pending request frames, oldest first. *)

val snoop_responses : t -> slot list

val inject_request : t -> pusher:Domain.domid -> string -> (int, string) result
(** Write a frame into the ring as [pusher] — the capture-and-replay
    primitive. Indistinguishable from a frontend push except for the
    recorded provenance. *)

val corrupt_req_prod : t -> delta:int -> unit
(** Shift the producer index without pushing frames. *)
