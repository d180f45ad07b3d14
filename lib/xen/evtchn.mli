(** Event channels: the hypervisor-mediated notification primitive.

    The property the improved access control leans on: the *remote end* of
    an interdomain channel is hypervisor state. A guest can say anything
    in a message body, but cannot lie about which channel — and therefore
    which domid — a notification arrived on.

    Channels are indexed per domain by port and each endpoint links its
    peer, so a holder of a channel record notifies and polls without any
    lookup, and domain teardown touches only that domain's channels.
    Ports are never reused: a record found once stays the channel at its
    port. *)

type port = int

type channel = private {
  port : port;
  local : Domain.domid;
  remote : Domain.domid;
  remote_port : port;
  mutable pending : int;
  mutable closed : bool;
  peer : channel;  (** the other end of the bound pair *)
}

type t

val create : unit -> t

val bind_interdomain : t -> a:Domain.domid -> b:Domain.domid -> port * port
(** Allocate a bound pair; returns [(port in a, port in b)]. *)

val find : t -> domid:Domain.domid -> port:port -> channel option

val notify : t -> domid:Domain.domid -> port:port -> (unit, string) result
(** Raise a notification toward the peer; fails on closed or unknown
    channels. *)

val notify_on : channel -> (unit, string) result
(** {!notify} on a held endpoint: the same result and errors, no lookup. *)

val take : channel -> bool
(** Consume one pending notification on a held endpoint: [true] exactly
    when {!poll} on its port would return [Some _]. *)

val poll : t -> domid:Domain.domid -> port:port -> Domain.domid option
(** Consume one pending notification; returns the unforgeable remote
    domid, or [None] when nothing is pending. *)

val remote_domid : t -> domid:Domain.domid -> port:port -> Domain.domid option
(** The hypervisor-attested identity of the peer. *)

val close : t -> domid:Domain.domid -> port:port -> unit
(** Close both endpoints of the pair and drop undelivered notifications.
    Idempotent: closing a closed or unknown channel is a no-op. *)

val close_all_for : t -> Domain.domid -> unit
(** Tear down every channel touching a domain (domain destruction): its
    endpoints and their peers are marked closed, pending counts kept. Runs
    in the domain's own channel count, not the host's. *)
