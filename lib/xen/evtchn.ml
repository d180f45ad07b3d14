(* Event channels: the hypervisor-mediated notification primitive.

   The property the improved access control leans on is that the *remote
   end* of an interdomain channel is hypervisor state: a guest can say
   anything it likes in a message body, but it cannot lie about which
   channel (and therefore which domid) the notification arrived on.

   Channels are indexed per domain, by port, in int-keyed tables, and
   each endpoint links its peer: a notify or poll on a held channel record
   runs no lookup at all, one by (domid, port) two int lookups, and
   tearing a domain down touches only that domain's channels. Ports are
   never reused, so a record found once stays the channel at that port. *)

module Itbl = Vtpm_util.Itbl

type port = int

type channel = {
  port : port;
  local : Domain.domid;
  remote : Domain.domid;
  remote_port : port;
  mutable pending : int; (* count of undelivered notifications *)
  mutable closed : bool;
  peer : channel; (* the other end of the bound pair *)
}

(* One domain's endpoints: port -> channel, and the next port to hand out. *)
type endpoints = { ports : channel Itbl.t; mutable next_port : port }

type t = { doms : endpoints Itbl.t }

let create () = { doms = Itbl.create 32 }

let endpoints t domid =
  match Itbl.find_opt t.doms domid with
  | Some e -> e
  | None ->
      let e = { ports = Itbl.create 4; next_port = 1 } in
      Itbl.replace t.doms domid e;
      e

let fresh_port t domid =
  let e = endpoints t domid in
  let p = e.next_port in
  e.next_port <- p + 1;
  p

(* Allocate a bound interdomain pair; returns (port in a, port in b). *)
let bind_interdomain t ~(a : Domain.domid) ~(b : Domain.domid) : port * port =
  let pa = fresh_port t a in
  let pb = fresh_port t b in
  let rec ca = { port = pa; local = a; remote = b; remote_port = pb; pending = 0; closed = false; peer = cb }
  and cb = { port = pb; local = b; remote = a; remote_port = pa; pending = 0; closed = false; peer = ca } in
  Itbl.replace (endpoints t a).ports pa ca;
  Itbl.replace (endpoints t b).ports pb cb;
  (pa, pb)

let find t ~domid ~port =
  match Itbl.find_opt t.doms domid with
  | None -> None
  | Some e -> Itbl.find_opt e.ports port

(* Raise a notification from a held endpoint; lands pending on the peer. *)
let notify_on (ch : channel) : (unit, string) result =
  if ch.closed then Error "event channel closed"
  else if ch.peer.closed then Error "peer endpoint closed"
  else begin
    ch.peer.pending <- ch.peer.pending + 1;
    Ok ()
  end

(* Raise a notification from [domid]'s [port]. Fails on closed or unknown
   channels. *)
let notify t ~domid ~port : (unit, string) result =
  match find t ~domid ~port with
  | None -> Error (Printf.sprintf "domain %d has no event channel %d" domid port)
  | Some ch -> notify_on ch

(* Consume one pending notification on a held endpoint. *)
let take (ch : channel) =
  if (not ch.closed) && ch.pending > 0 then begin
    ch.pending <- ch.pending - 1;
    true
  end
  else false

(* Consume one pending notification; returns the unforgeable remote domid. *)
let poll t ~domid ~port : Domain.domid option =
  match find t ~domid ~port with Some ch when take ch -> Some ch.remote | _ -> None

(* The hypervisor-attested identity of the peer on a channel. *)
let remote_domid t ~domid ~port : Domain.domid option =
  Option.map (fun ch -> ch.remote) (find t ~domid ~port)

(* Close both ends and drop undelivered notifications — a reopened pair
   must not see stale kicks from a previous connection. Idempotent:
   closing an already-closed (or unknown) channel is a no-op. *)
let close t ~domid ~port =
  match find t ~domid ~port with
  | None -> ()
  | Some ch ->
      if not ch.closed then begin
        ch.closed <- true;
        ch.pending <- 0;
        ch.peer.closed <- true;
        ch.peer.pending <- 0
      end

(* Tear down every channel touching [domid] (domain destruction): its own
   endpoints and their peers, which are exactly the channels whose remote
   end is [domid]. Other domains' tables are not walked. *)
let close_all_for t domid =
  match Itbl.find_opt t.doms domid with
  | None -> ()
  | Some e ->
      Itbl.iter
        (fun _ ch ->
          ch.closed <- true;
          ch.peer.closed <- true)
        e.ports
