(* Hash-chained audit log.

   Every monitor decision appends an entry whose hash covers the previous
   entry's hash, so truncation or in-place tampering of a dumped log is
   detectable given the latest head hash (which the manager can anchor in
   hardware-TPM NV or a monotonic counter). *)

type entry = {
  seq : int;
  time_us : float; (* simulated time of the decision *)
  subject : string;
  operation : string; (* ordinal name or management op *)
  instance : int option;
  allowed : bool;
  reason : string;
  prev_hash : string;
  hash : string;
}

type t = {
  mutable entries : entry list; (* newest first *)
  mutable head : string;
  mutable seq : int;
  cost : Vtpm_util.Cost.t;
  mutable max_entries : int option; (* retention cap; None = unbounded *)
  mutable base : string; (* chain anchor of the oldest retained entry *)
  mutable rotations : int;
  mutable dropped : int; (* entries compacted away across all rotations *)
}

let genesis = Vtpm_crypto.Sha256.digest "vtpm-audit-genesis"

let create ~cost =
  {
    entries = [];
    head = genesis;
    seq = 0;
    cost;
    max_entries = None;
    base = genesis;
    rotations = 0;
    dropped = 0;
  }

(* Per-entry digest: a binary length-delimited encoding, built in one
   reused scratch block and fed to a reused SHA-256 context in a single
   call. No [Printf], no hex round-trip of the previous hash, no
   intermediate string — this runs on every mediated request and is pure
   wall-clock overhead. The encoding is unambiguous: fixed-width binary
   for numerics (seq:8 time:8 instance-flag:1 instance:8 allowed:1), a
   4-byte length prefix before each variable field (subject, operation,
   reason), the raw 32-byte previous hash last. *)
let digest_ctx = lazy (Vtpm_crypto.Sha256.init ())
let digest_scratch = ref (Bytes.create 256)

(* A length-prefixed field at [off]; returns the offset after it. *)
let put_field b off s =
  let n = String.length s in
  Bytes.set_int32_be b off (Int32.of_int n);
  Bytes.blit_string s 0 b (off + 4) n;
  off + 4 + n

let entry_digest ~seq ~time_us ~subject ~operation ~instance ~allowed ~reason ~prev_hash =
  let len =
    26 + 12 + String.length subject + String.length operation + String.length reason
    + String.length prev_hash
  in
  if Bytes.length !digest_scratch < len then digest_scratch := Bytes.create (2 * len);
  let b = !digest_scratch in
  Bytes.set_int64_be b 0 (Int64.of_int seq);
  Bytes.set_int64_be b 8 (Int64.bits_of_float time_us);
  (match instance with
  | Some i ->
      Bytes.set b 16 '\x01';
      Bytes.set_int64_be b 17 (Int64.of_int i)
  | None ->
      Bytes.set b 16 '\x00';
      Bytes.set_int64_be b 17 0L);
  Bytes.set b 25 (if allowed then '\x01' else '\x00');
  let off = put_field b 26 subject in
  let off = put_field b off operation in
  let off = put_field b off reason in
  Bytes.blit_string prev_hash 0 b off (String.length prev_hash);
  let ctx = Lazy.force digest_ctx in
  Vtpm_crypto.Sha256.reset ctx;
  Vtpm_crypto.Sha256.feed_bytes ctx b ~off:0 ~len;
  Vtpm_crypto.Sha256.finalize ctx

(* Keep the newest [n] entries (the list is newest first): one
   tail-recursive pass returning the kept list, how many were kept and
   the oldest kept entry — no [List.length]/[List.rev] re-walks and no
   stack growth at large retention caps. *)
let take_newest n entries =
  let rec go i acc oldest = function
    | x :: rest when i < n -> go (i + 1) (x :: acc) (Some x) rest
    | _ -> (List.rev acc, i, oldest)
  in
  go 0 [] None entries

let retained t = t.seq - t.dropped

(* Rotation/compaction: once the retained window exceeds the cap, keep the
   newest half of the cap and record the dropped prefix's chain anchor in
   [base]. The chain over the retained entries stays verifiable from
   [base] to [head]; the head itself never changes, so an anchored head
   (hardware-TPM NV) stays valid across rotation. Compacting to half the
   cap amortizes the list surgery over many appends. *)
let rotate_if_needed t =
  match t.max_entries with
  | Some m when retained t > m ->
      let keep = max 1 (m / 2) in
      let kept, kept_len, oldest = take_newest keep t.entries in
      t.dropped <- t.dropped + (retained t - kept_len);
      t.entries <- kept;
      t.rotations <- t.rotations + 1;
      t.base <- (match oldest with Some e -> e.prev_hash | None -> t.head)
  | _ -> ()

let append t ~subject ~operation ~instance ~allowed ~reason =
  Vtpm_util.Cost.charge t.cost Vtpm_util.Cost.audit_append_us;
  let seq = t.seq in
  let time_us = Vtpm_util.Cost.now t.cost in
  let prev_hash = t.head in
  let hash = entry_digest ~seq ~time_us ~subject ~operation ~instance ~allowed ~reason ~prev_hash in
  let e = { seq; time_us; subject; operation; instance; allowed; reason; prev_hash; hash } in
  t.entries <- e :: t.entries;
  t.head <- hash;
  t.seq <- seq + 1;
  rotate_if_needed t

let set_max_entries t cap =
  t.max_entries <- cap;
  rotate_if_needed t

let length t = t.seq
let head t = t.head
let base t = t.base
let retained_entries t = retained t
let rotations t = t.rotations
let dropped t = t.dropped
let entries_newest_first t = t.entries
let entries t = List.rev t.entries

(* Verify chain integrity of a (possibly exported) entry list against an
   expected head. Returns the sequence number of the first bad link.
   [base] anchors the verification: genesis for a never-rotated log, the
   log's recorded {!base} for the retained window after rotation. *)
let verify_chain ?(expected_head : string option) ?(base = genesis) (es : entry list) :
    (unit, int) result =
  let rec go prev = function
    | [] -> (
        match expected_head with
        | Some h when not (String.equal h prev) -> Error (-1)
        | _ -> Ok ())
    | (e : entry) :: rest ->
        let recomputed =
          entry_digest ~seq:e.seq ~time_us:e.time_us ~subject:e.subject ~operation:e.operation
            ~instance:e.instance ~allowed:e.allowed ~reason:e.reason ~prev_hash:prev
        in
        if String.equal recomputed e.hash then go e.hash rest else Error e.seq
  in
  go base es

(* --- Export / import ---------------------------------------------------------

   A line-oriented on-disk form: free-text fields are hex-escaped so the
   '|' separator is unambiguous. [verify_chain] applies to imported lists
   exactly as to live ones. *)

let entry_to_line (e : entry) =
  String.concat "|"
    [
      string_of_int e.seq;
      Printf.sprintf "%.3f" e.time_us;
      Vtpm_util.Hex.encode e.subject;
      Vtpm_util.Hex.encode e.operation;
      (match e.instance with Some i -> string_of_int i | None -> "-");
      (if e.allowed then "1" else "0");
      Vtpm_util.Hex.encode e.reason;
      Vtpm_util.Hex.encode e.prev_hash;
      Vtpm_util.Hex.encode e.hash;
    ]

let entry_of_line (line : string) : (entry, string) result =
  match String.split_on_char '|' line with
  | [ seq; time_us; subject; operation; instance; allowed; reason; prev_hash; hash ] -> (
      match
        ( int_of_string_opt seq,
          float_of_string_opt time_us,
          (match instance with
          | "-" -> Some None
          | s -> Option.map Option.some (int_of_string_opt s)),
          match allowed with "1" -> Some true | "0" -> Some false | _ -> None )
      with
      | Some seq, Some time_us, Some instance, Some allowed -> (
          match
            ( Vtpm_util.Hex.decode subject,
              Vtpm_util.Hex.decode operation,
              Vtpm_util.Hex.decode reason,
              Vtpm_util.Hex.decode prev_hash,
              Vtpm_util.Hex.decode hash )
          with
          | subject, operation, reason, prev_hash, hash ->
              Ok { seq; time_us; subject; operation; instance; allowed; reason; prev_hash; hash }
          | exception Invalid_argument m -> Error m)
      | _ -> Error "malformed audit line")
  | _ -> Error "wrong field count in audit line"

let export (t : t) : string =
  String.concat "\n" (List.map entry_to_line (entries t)) ^ "\n"

let import (s : string) : (entry list, string) result =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> ( match entry_of_line l with Ok e -> go (e :: acc) rest | Error m -> Error m)
  in
  go [] lines

let pp_entry ppf (e : entry) =
  Fmt.pf ppf "#%04d %10.1fus %-14s %-22s inst=%-3s %s %s" e.seq e.time_us e.subject e.operation
    (match e.instance with Some i -> string_of_int i | None -> "-")
    (if e.allowed then "ALLOW" else "DENY ")
    e.reason
