open Csim

type outer_impl = Outer_anderson | Outer_afek

let outer_impl_name = function
  | Outer_anderson -> "anderson"
  | Outer_afek -> "afek"

let outer_impl_of_name = function
  | "anderson" -> Some Outer_anderson
  | "afek" -> Some Outer_afek
  | _ -> None

(* The outer register has [1 + max_shards] components.  Component 0
   holds the current {e configuration} — epoch number, component->shard
   map and the {e boundary}: a full C-item snapshot of everything
   applied before the epoch began.  Components [1+s] hold shard [s]'s
   view, tagged with the epoch it was published under.  Publishing a
   new configuration is a single outer-register update, so the epoch
   switch is atomic: a scan that decodes the new map also sees the new
   boundary, i.e. all migrated state. *)
type 'a config = {
  cepoch : int;
  cowner : int array;  (* component -> owning shard, this epoch *)
  coff : int array;  (* per shard: first owned component *)
  boundary : 'a Composite.Item.t array;  (* all C items at epoch start *)
  cversion : int;
}

type 'a slot =
  | Config of 'a config
  | View of {
      vepoch : int;
      voff : int;  (* first component of the slice, per its epoch *)
      view : 'a Composite.Item.t array;
      vversion : int;
    }

let slot_version = function Config c -> c.cversion | View v -> v.vversion

type 'a cache = { snap : 'a Composite.Item.t array; versions : int array }

(* A snapshot published by a combiner, tagged with the value the
   scan-start counter was bumped to immediately before its collect
   began.  The record is immutable after publication; adopters copy
   [snap] on the way out. *)
type 'a shared = { stamp : int; sview : 'a cache }

module Pad = Composite.Padded_atomic

(* Bounded exponential backoff for spin waits — the same shape as the
   ABD retransmit policy (PR 6): the delay doubles from [base] up to
   [cap] and collapses back to [base] on progress.  Every full wave
   spent at the cap bumps the [stalls] counter, so a waiter burning a
   core on a descheduled applier shows up in the accounting instead of
   spinning invisibly. *)
module Backoff = struct
  type t = { mutable delay : int; cap : int; stalls : int Atomic.t }

  let base = 1
  let default_cap = 4096

  let make ?(cap = default_cap) stalls = { delay = base; cap; stalls }
  let reset b = b.delay <- base

  let once b =
    if b.delay >= b.cap then begin
      (* Saturated: the waited-on domain may be starved for the very
         CPU we are spinning on (single-core hosts, oversubscribed
         pools).  Count the stall and yield the timeslice instead of
         burning it. *)
      Atomic.incr b.stalls;
      Unix.sleepf 50e-6
    end
    else begin
      for _ = 1 to b.delay do
        Domain.cpu_relax ()
      done;
      b.delay <- min b.cap (b.delay * 2)
    end

  let stall_count b = Atomic.get b.stalls
end

type stats = {
  posted : int;
  coalesced : int;
  applied : int;
  pending : int;
  publishes : int;
  batch_installs : int;
  hits : int;
  misses : int;
  stale : int;
  full_scans : int;
  scans_requested : int;
  scans_combined : int;
  scans_performed : int;
  stalls : int;
}

type 'a t = {
  components : int;
  max_shards : int;
  readers : int;
  cache_enabled : bool;
  combine : bool;
  migrate : bool;  (* false = the publish-map-without-state mutant *)
  note : (string -> unit) option;
  (* Current layout.  The arrays themselves are immutable; the fields
     are swapped wholesale by [reshard] while it holds every drain
     token.  A post never reads it: it goes to its component's mailbox,
     which whichever shard owns the component in the current epoch
     drains.  [update] reads [owner] only to pick the token to take, and
     trusts it only if the epoch is unchanged once the token is held. *)
  mutable cur_shards : int;
  mutable slice_off : int array;  (* per shard: first owned component *)
  mutable slice_len : int array;  (* per shard: number of owned components *)
  mutable owner : int array;  (* component -> owning shard *)
  mutable states : 'a Composite.Item.t array array;  (* token-holder-private *)
  mutable last_boundary : 'a Composite.Item.t array;  (* at last epoch start *)
  outer : 'a slot Composite.Snapshot.t;
  (* Bumped by the shard's token holder BEFORE each publish: a reader that
     finds a cell equal to its cached version knows no publish of that
     slot has intervened (cells can run ahead of the outer register,
     never behind it).  Cell 0 guards the configuration slot, so one
     bump there invalidates every pre-reshard cache. *)
  version_cells : int Atomic.t array;  (* 1 + max_shards; padded *)
  mailboxes : ('a * int) option Atomic.t array;  (* per comp: value, ticket *)
  tickets : int array;  (* per component; touched only by its writer *)
  acked : (int * int) Atomic.t array;  (* per comp: last applied ticket, id *)
  next_id : int array;  (* per component; touched only by a token holder *)
  (* Drain tokens, one per shard slot: holding [tokens.(s)] is the only
     way to run [drain_shard t s].  The CAS that takes a token and the
     store that releases it hand the shard's [states], [next_id] and the
     outer slot's writer-local state from one drainer to the next. *)
  tokens : bool Atomic.t array;  (* max_shards; padded *)
  posted : int Atomic.t array;  (* per component *)
  coalesced : int Atomic.t array;  (* per component *)
  applied : int Atomic.t array;  (* per component *)
  publishes : int Atomic.t array;  (* per shard slot *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  stale : int Atomic.t;
  full_scans : int Atomic.t;
  (* Scan-sharing state: the combiner lock serializes outer collects,
     [scan_started] stamps them, [shared_slot] publishes the latest. *)
  scan_started : int Atomic.t;
  combiner_lock : bool Atomic.t;
  shared_slot : 'a shared option Atomic.t;
  requested : int Atomic.t;
  combined : int Atomic.t;
  performed : int Atomic.t;
  r_requested : int Atomic.t array;  (* per reader *)
  r_combined : int Atomic.t array;
  r_performed : int Atomic.t array;
  caches : 'a cache option array;  (* per reader; touched only by it *)
  stalls : int Atomic.t;  (* backoff waves that hit the cap *)
  stop : bool Atomic.t;
  mutable appliers : unit Domain.t list;
  cur_epoch : int Atomic.t;
  reconfig : Mutex.t;
  (* Cumulative stats at the start of each epoch, newest first:
     (epoch, shard count during the epoch, totals at its start). *)
  mutable epoch_log : (int * int * stats) list;
}

let components t = t.components
let shards t = t.cur_shards
let max_shards t = t.max_shards
let readers t = t.readers
let combining t = t.combine
let shard_of t k = t.owner.(k)
let epoch t = Atomic.get t.cur_epoch

(* Contiguous partition; shard sizes differ by at most one. *)
let layout ~components ~shards =
  let q = components / shards and rem = components mod shards in
  let slice_off = Array.make shards 0 and slice_len = Array.make shards 0 in
  let off = ref 0 in
  for s = 0 to shards - 1 do
    slice_off.(s) <- !off;
    slice_len.(s) <- (q + if s < rem then 1 else 0);
    off := !off + slice_len.(s)
  done;
  let owner = Array.make components 0 in
  for s = 0 to shards - 1 do
    for k = slice_off.(s) to slice_off.(s) + slice_len.(s) - 1 do
      owner.(k) <- s
    done
  done;
  (slice_off, slice_len, owner)

let zero_stats =
  {
    posted = 0;
    coalesced = 0;
    applied = 0;
    pending = 0;
    publishes = 0;
    batch_installs = 0;
    hits = 0;
    misses = 0;
    stale = 0;
    full_scans = 0;
    scans_requested = 0;
    scans_combined = 0;
    scans_performed = 0;
    stalls = 0;
  }

let create ?(outer = Outer_afek) ?(cache = true) ?(combine = true)
    ?(migrate = true) ?max_shards ?note ~shards ~readers ~init () =
  let components = Array.length init in
  if components < 1 then invalid_arg "Serve.create: need at least 1 component";
  let max_shards = match max_shards with Some m -> m | None -> shards in
  if shards < 1 || shards > max_shards then
    invalid_arg
      (Printf.sprintf "Serve.create: shards = %d not in 1..max_shards = %d"
         shards max_shards);
  if max_shards > components then
    invalid_arg
      (Printf.sprintf "Serve.create: max_shards = %d > components = %d"
         max_shards components);
  if readers < 1 then invalid_arg "Serve.create: readers must be >= 1";
  let slice_off, slice_len, owner = layout ~components ~shards in
  let states =
    Array.init shards (fun s ->
        Array.init slice_len.(s) (fun i ->
            Composite.Item.initial init.(slice_off.(s) + i)))
  in
  let boundary = Array.init components (fun k -> Composite.Item.initial init.(k)) in
  let outer_init =
    Array.init (1 + max_shards) (fun i ->
        if i = 0 then
          Config
            {
              cepoch = 0;
              cowner = Array.copy owner;
              coff = Array.copy slice_off;
              boundary = Array.copy boundary;
              cversion = 0;
            }
        else if i - 1 < shards then
          View
            {
              vepoch = 0;
              voff = slice_off.(i - 1);
              view = Array.copy states.(i - 1);
              vversion = 0;
            }
        else View { vepoch = -1; voff = 0; view = [||]; vversion = 0 })
  in
  let mem = Composite.Multicore.padded_memory () in
  let outer_h =
    match outer with
    | Outer_afek -> Composite.Afek.create mem ~bits_per_value:64 ~init:outer_init
    | Outer_anderson ->
      Composite.Anderson.handle
        (Composite.Anderson.create mem ~readers ~bits_per_value:64
           ~init:outer_init)
  in
  let outer_h =
    if outer_h.Composite.Snapshot.readers = max_int then
      { outer_h with Composite.Snapshot.readers }
    else outer_h
  in
  {
    components;
    max_shards;
    readers;
    cache_enabled = cache;
    combine;
    migrate;
    note;
    cur_shards = shards;
    slice_off;
    slice_len;
    owner;
    states;
    last_boundary = boundary;
    outer = outer_h;
    version_cells = Pad.array (1 + max_shards) 0;
    mailboxes = Pad.array components None;
    tickets = Array.make components 0;
    acked = Pad.array components (0, 0);
    next_id = Array.make components 0;
    tokens = Pad.array max_shards false;
    posted = Pad.array components 0;
    coalesced = Pad.array components 0;
    applied = Pad.array components 0;
    publishes = Pad.array max_shards 0;
    hits = Pad.make 0;
    misses = Pad.make 0;
    stale = Pad.make 0;
    full_scans = Pad.make 0;
    scan_started = Pad.make 0;
    combiner_lock = Pad.make false;
    shared_slot = Pad.make None;
    requested = Pad.make 0;
    combined = Pad.make 0;
    performed = Pad.make 0;
    r_requested = Pad.array readers 0;
    r_combined = Pad.array readers 0;
    r_performed = Pad.array readers 0;
    caches = Array.make readers None;
    stalls = Pad.make 0;
    stop = Pad.make false;
    appliers = [];
    cur_epoch = Pad.make 0;
    reconfig = Mutex.create ();
    epoch_log = [ (0, shards, zero_stats) ];
  }

let with_span t name f =
  match t.note with
  | None -> f ()
  | Some n ->
    n (Trace.span_begin name);
    let r = f () in
    n (Trace.span_end name);
    r

(* ------------------------------------------------------------------ *)
(* Write path: mailboxes, coalescing, drain tokens, appliers           *)
(* ------------------------------------------------------------------ *)

let post t ~writer v =
  if writer < 0 || writer >= t.components then
    invalid_arg "Serve.post: bad writer";
  t.tickets.(writer) <- t.tickets.(writer) + 1;
  Atomic.incr t.posted.(writer);
  (* The exchange hands the mailbox over wait-free: whatever it returns
     was never taken by a drainer (its own exchange would have got it
     first), so "applied" and "coalesced" partition the posts exactly. *)
  match Atomic.exchange t.mailboxes.(writer) (Some (v, t.tickets.(writer))) with
  | None -> ()
  | Some _ -> Atomic.incr t.coalesced.(writer)

(* One pass over the owned mailboxes; returns whether anything was
   applied.  The caller holds shard [s]'s drain token.  Each mailbox has
   one writer and is emptied only by the holder of its owning shard's
   token, so the value it holds is always that writer's latest post and
   applied tickets rise per component without any check here.  An empty
   mailbox costs one load, not an exchange (a post landing after the
   load is picked up by the next pass), and an idle pass allocates
   nothing: the applier runs it on every poll. *)
let drain_shard t s =
  let off = t.slice_off.(s) and len = t.slice_len.(s) in
  let acks = ref [] in
  for i = 0 to len - 1 do
    let k = off + i in
    match Atomic.get t.mailboxes.(k) with
    | None -> ()
    | Some _ -> (
      match Atomic.exchange t.mailboxes.(k) None with
      | None -> ()
      | Some (v, ticket) ->
        t.next_id.(k) <- t.next_id.(k) + 1;
        let id = t.next_id.(k) in
        t.states.(s).(i) <- { Composite.Item.v; id };
        Atomic.incr t.applied.(k);
        acks := (k, ticket, id) :: !acks)
  done;
  match !acks with
  | [] -> false
  | acks ->
    (* Freshness invariant: bump the cell BEFORE the publish.  A cell
       can then read ahead of the outer register (a harmless forced
       miss) but never behind it, which is what makes a single collect
       of the cells a sound cache validation. *)
    let version = 1 + Atomic.fetch_and_add t.version_cells.(1 + s) 1 in
    let (_ : int) =
      t.outer.Composite.Snapshot.update ~writer:(1 + s)
        (View
           {
             vepoch = Atomic.get t.cur_epoch;
             voff = off;
             view = Array.copy t.states.(s);
             vversion = version;
           })
    in
    Atomic.incr t.publishes.(s);
    (* Acks only after the publish: a synchronous update that saw its
       ticket acked knows its value is in the outer register. *)
    List.iter (fun (k, ticket, id) -> Atomic.set t.acked.(k) (ticket, id)) acks;
    true

(* Drain tokens.  [try_token] is one test-and-test-and-set; [take_token]
   waits for the token with backoff and allocates only when it is
   contended. *)
let try_token t s =
  let tok = t.tokens.(s) in
  (not (Atomic.get tok)) && Atomic.compare_and_set tok false true

let take_token t s =
  if not (try_token t s) then begin
    let b = Backoff.make t.stalls in
    while not (try_token t s) do
      Backoff.once b
    done
  end

let release_token t s = Atomic.set t.tokens.(s) false

(* With shard [s]'s token held: drain the shard unless a reshard has
   moved the epoch past [epoch] (the caller picked [s] from that
   epoch's layout, which has since been swapped), then release. *)
let drain_held t ~epoch s =
  if Atomic.get t.cur_epoch = epoch then ignore (drain_shard t s : bool);
  release_token t s

let drain t =
  if t.appliers <> [] then
    invalid_arg "Serve.drain: appliers are running; drain is for manual mode";
  (* A reshard during this loop drained every mailbox in its boundary
     sweep, so skipping the stale indices loses nothing. *)
  let epoch = Atomic.get t.cur_epoch in
  for s = 0 to t.cur_shards - 1 do
    take_token t s;
    drain_held t ~epoch s
  done

let applier t s () =
  let b = Backoff.make t.stalls in
  while not (Atomic.get t.stop) do
    (* A busy token means a synchronous update is draining this shard
       itself: back off as if idle. *)
    if try_token t s then begin
      let progressed = drain_shard t s in
      release_token t s;
      if progressed then Backoff.reset b else Backoff.once b
    end
    else Backoff.once b
  done;
  (* One sweep after the stop flag, waiting for the token if an update
     holds it: posts that raced with shutdown must still be applied. *)
  take_token t s;
  ignore (drain_shard t s : bool);
  release_token t s

let start t =
  Mutex.lock t.reconfig;
  if t.appliers <> [] then begin
    Mutex.unlock t.reconfig;
    invalid_arg "Serve.start: already started"
  end;
  Atomic.set t.stop false;
  t.appliers <- List.init t.cur_shards (fun s -> Domain.spawn (applier t s));
  Mutex.unlock t.reconfig

let shutdown t =
  Mutex.lock t.reconfig;
  Atomic.set t.stop true;
  List.iter Domain.join t.appliers;
  t.appliers <- [];
  Mutex.unlock t.reconfig

(* A synchronous write publishes itself: until its ticket is acked, the
   writer drains its own shard whenever the shard's token is free, so it
   never waits on an applier.  The epoch is read before the owner and
   re-read under the token.  [reshard] swaps the layout only while it
   holds every token and bumps the epoch before releasing them, so an
   unchanged epoch means [owner.(writer)] and the layout [drain_shard]
   reads belong to this epoch; otherwise the writer retries in the new
   one.  The linearization point is still the publish, which the ack
   follows. *)
let update t ~writer v =
  post t ~writer v;
  let ticket = t.tickets.(writer) in
  let b = Backoff.make t.stalls in
  let rec wait () =
    let tk, id = Atomic.get t.acked.(writer) in
    if tk >= ticket then id
    else begin
      let epoch = Atomic.get t.cur_epoch in
      let s = t.owner.(writer) in
      if try_token t s then drain_held t ~epoch s else Backoff.once b;
      wait ()
    end
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Accounting                                                           *)
(* ------------------------------------------------------------------ *)

type writer_stats = { w_posted : int; w_coalesced : int; w_applied : int }

type reader_stats = {
  r_requested : int;
  r_combined : int;
  r_performed : int;
}

let sum a = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 a

let stats t =
  let pending =
    Array.fold_left
      (fun acc mb -> if Atomic.get mb = None then acc else acc + 1)
      0 t.mailboxes
  in
  {
    posted = sum t.posted;
    coalesced = sum t.coalesced;
    applied = sum t.applied;
    pending;
    publishes = sum t.publishes;
    batch_installs = 0;
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    stale = Atomic.get t.stale;
    full_scans = Atomic.get t.full_scans;
    scans_requested = Atomic.get t.requested;
    scans_combined = Atomic.get t.combined;
    scans_performed = Atomic.get t.performed;
    stalls = Atomic.get t.stalls;
  }

let writer_stats t ~writer =
  if writer < 0 || writer >= t.components then
    invalid_arg "Serve.writer_stats: bad writer";
  {
    w_posted = Atomic.get t.posted.(writer);
    w_coalesced = Atomic.get t.coalesced.(writer);
    w_applied = Atomic.get t.applied.(writer);
  }

let reader_stats t ~reader =
  if reader < 0 || reader >= t.readers then
    invalid_arg "Serve.reader_stats: bad reader";
  {
    r_requested = Atomic.get t.r_requested.(reader);
    r_combined = Atomic.get t.r_combined.(reader);
    r_performed = Atomic.get t.r_performed.(reader);
  }

(* ------------------------------------------------------------------ *)
(* Reconfiguration: live resharding                                     *)
(* ------------------------------------------------------------------ *)

type epoch_stats = {
  e_epoch : int;
  e_shards : int;
  e_posted : int;
  e_coalesced : int;
  e_applied : int;
  e_carried_in : int;
  e_carried_out : int;
  e_publishes : int;
  e_scans_requested : int;
  e_scans_combined : int;
  e_scans_performed : int;
  e_inflight_in : int;
  e_inflight_out : int;
}

(* Carried work at a boundary is {e derived} from the monotone
   counters: posts accepted but neither applied nor coalesced yet, and
   scans requested but not yet resolved.  Deriving (rather than
   counting cells) is what makes the per-epoch identities exact under
   open-loop load — a post between its counter bump and its mailbox
   exchange is pending by definition.  Negative carry would mean a
   counter was double-bumped; the checks treat it as a violation. *)
let carried (st : stats) = st.posted - st.applied - st.coalesced

let inflight (st : stats) =
  st.scans_requested - st.scans_combined - st.scans_performed

let epoch_stats t =
  Mutex.lock t.reconfig;
  let log = t.epoch_log in
  Mutex.unlock t.reconfig;
  let now = stats t in
  (* [log] is newest-first: close each epoch against the next entry's
     start (or the live totals for the open epoch). *)
  let rec build (upper : stats) acc = function
    | [] -> acc
    | (e, shards, (at : stats)) :: rest ->
      let es =
        {
          e_epoch = e;
          e_shards = shards;
          e_posted = upper.posted - at.posted;
          e_coalesced = upper.coalesced - at.coalesced;
          e_applied = upper.applied - at.applied;
          e_carried_in = carried at;
          e_carried_out = carried upper;
          e_publishes = upper.publishes - at.publishes;
          e_scans_requested = upper.scans_requested - at.scans_requested;
          e_scans_combined = upper.scans_combined - at.scans_combined;
          e_scans_performed = upper.scans_performed - at.scans_performed;
          e_inflight_in = inflight at;
          e_inflight_out = inflight upper;
        }
      in
      build at (es :: acc) rest
  in
  Array.of_list (build now [] log)

(* The quiescent identities, first failure wins.  Checked per epoch as
   well as over the lifetime: a counter double-bumped across a reshard
   boundary cancels out in the totals but shows up as a negative carry
   or a broken per-epoch identity. *)
let check_identities t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_epoch (e : epoch_stats) =
    if
      e.e_posted < 0 || e.e_applied < 0 || e.e_coalesced < 0
      || e.e_publishes < 0 || e.e_carried_in < 0 || e.e_carried_out < 0
      || e.e_scans_requested < 0 || e.e_scans_combined < 0
      || e.e_scans_performed < 0 || e.e_inflight_in < 0
      || e.e_inflight_out < 0
    then fail "serve: epoch %d has a negative counter delta" e.e_epoch
    else if
      e.e_posted + e.e_carried_in
      <> e.e_applied + e.e_coalesced + e.e_carried_out
    then
      fail
        "serve: epoch %d: posted %d + carried_in %d <> applied %d + \
         coalesced %d + carried_out %d"
        e.e_epoch e.e_posted e.e_carried_in e.e_applied e.e_coalesced
        e.e_carried_out
    else if
      e.e_scans_requested + e.e_inflight_in
      <> e.e_scans_combined + e.e_scans_performed + e.e_inflight_out
    then
      fail
        "serve: epoch %d: scans_requested %d + inflight_in %d <> combined \
         %d + performed %d + inflight_out %d"
        e.e_epoch e.e_scans_requested e.e_inflight_in e.e_scans_combined
        e.e_scans_performed e.e_inflight_out
    else Ok ()
  in
  let st = stats t in
  if st.pending <> 0 then
    fail "serve: %d posts still pending after drain" st.pending
  else if st.posted <> st.applied + st.coalesced then
    fail "serve: posted %d <> applied %d + coalesced %d" st.posted st.applied
      st.coalesced
  else if st.scans_requested <> st.scans_combined + st.scans_performed then
    fail "serve: scans_requested %d <> combined %d + performed %d"
      st.scans_requested st.scans_combined st.scans_performed
  else if st.full_scans <> st.scans_performed then
    fail "serve: full_scans %d <> performed %d" st.full_scans
      st.scans_performed
  else if (not t.combine) && st.scans_combined <> 0 then
    fail "serve: %d scans combined with scan-sharing off" st.scans_combined
  else
    let eps = epoch_stats t in
    let last = eps.(Array.length eps - 1) in
    match
      Array.fold_left
        (fun acc e -> Result.bind acc (fun () -> check_epoch e))
        (Ok ()) eps
    with
    | Error _ as broken -> broken
    | Ok () ->
      if last.e_carried_out <> 0 || last.e_inflight_out <> 0 then
        fail "serve: final epoch %d still carries work out (posts %d, scans %d)"
          last.e_epoch last.e_carried_out last.e_inflight_out
      else Ok ()

let reshard t ~shards:s' =
  if s' < 1 || s' > t.max_shards then
    invalid_arg
      (Printf.sprintf "Serve.reshard: shards = %d not in 1..max_shards = %d" s'
         t.max_shards);
  Mutex.lock t.reconfig;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reconfig) @@ fun () ->
  let e = Atomic.get t.cur_epoch in
  with_span t (Printf.sprintf "reshard.e%d" (e + 1)) @@ fun () ->
  let running = t.appliers <> [] in
  (* 1. Quiesce the appliers of the closing epoch, then take every drain
     token — all [max_shards] of them, not only the closing epoch's, so
     that an update which read the new owner map before the epoch bump
     cannot drain under it.  From here to the release this thread is
     the only drainer.  Posts and scans keep flowing: posts land in
     mailboxes and are drained into the new layout; scans decode
     whichever configuration the outer register holds when they
     collect; synchronous updates wait for the tokens and then drain
     themselves in the new epoch. *)
  if running then begin
    Atomic.set t.stop true;
    List.iter Domain.join t.appliers;
    t.appliers <- []
  end;
  for s = 0 to t.max_shards - 1 do
    take_token t s
  done;
  (* One sweep to shrink the carried residue (not for correctness:
     anything still pending is drained in the new epoch, whose shards
     own every mailbox between them). *)
  for s = 0 to t.cur_shards - 1 do
    ignore (drain_shard t s : bool)
  done;
  (* 2. Boundary: everything applied up to this instant, as C items
     with their auxiliary ids. *)
  let boundary =
    Array.init t.components (fun k ->
        let s = t.owner.(k) in
        t.states.(s).(k - t.slice_off.(s)))
  in
  (* The mutant publishes the new map but ships the PREVIOUS epoch's
     boundary: state applied during the closing epoch is dropped from
     both the published configuration and the new shard states — the
     checkers must flag the resulting new-old inversions. *)
  let migrated = if t.migrate then boundary else t.last_boundary in
  let slice_off, slice_len, owner = layout ~components:t.components ~shards:s' in
  let states =
    Array.init s' (fun s ->
        Array.init slice_len.(s) (fun i -> migrated.(slice_off.(s) + i)))
  in
  (* 3. Publish the new configuration: bump the config version cell
     first (every validated cache and shared snapshot of the old epoch
     goes stale), then one outer-register update — the atomic epoch
     switch.  A scan that sees the new map sees the migrated boundary
     in the same collect. *)
  let record_boundary = stats t in
  let cversion = 1 + Atomic.fetch_and_add t.version_cells.(0) 1 in
  let (_ : int) =
    t.outer.Composite.Snapshot.update ~writer:0
      (Config
         {
           cepoch = e + 1;
           cowner = Array.copy owner;
           coff = Array.copy slice_off;
           boundary = Array.copy migrated;
           cversion;
         })
  in
  (* 4. Install the new layout, bump the epoch, and only then release
     the tokens: a drainer that takes a token afterwards sees the new
     epoch, and one that read the old epoch retries.  Then respawn. *)
  t.cur_shards <- s';
  t.slice_off <- slice_off;
  t.slice_len <- slice_len;
  t.owner <- owner;
  t.states <- states;
  t.last_boundary <- migrated;
  Atomic.set t.cur_epoch (e + 1);
  t.epoch_log <- (e + 1, s', record_boundary) :: t.epoch_log;
  for s = 0 to t.max_shards - 1 do
    release_token t s
  done;
  if running then begin
    Atomic.set t.stop false;
    t.appliers <- List.init s' (fun s -> Domain.spawn (applier t s))
  end

(* ------------------------------------------------------------------ *)
(* Read path: scan-sharing, full scans and the validated cache          *)
(* ------------------------------------------------------------------ *)

(* The actual outer-register collect — the only place that pays the
   snapshot construction.  The collect is one linearizable scan of the
   [1 + max_shards]-component outer register; decoding picks, for each
   component, the owning shard's view if that shard has published under
   the configuration's epoch, and the configuration's boundary
   otherwise (the shard has not published since the switch, so its
   components' state IS the boundary state).  A view tagged with a
   NEWER epoch than the configuration cannot appear: drainers only
   publish after the configuration carrying their epoch, and the
   collect is atomic. *)
let raw_full_scan t ~reader =
  Atomic.incr t.full_scans;
  let slots = t.outer.Composite.Snapshot.scan_items ~reader in
  let versions =
    Array.map (fun it -> slot_version it.Composite.Item.v) slots
  in
  let cfg =
    match slots.(0).Composite.Item.v with
    | Config c -> c
    | View _ -> assert false
  in
  let snap =
    Array.init t.components (fun k ->
        let s = cfg.cowner.(k) in
        match slots.(1 + s).Composite.Item.v with
        | View w when w.vepoch = cfg.cepoch -> w.view.(k - w.voff)
        | _ -> cfg.boundary.(k))
  in
  { snap; versions }

(* Single collect of the version cells.  Sound because cells are bumped
   before publishes and versions are strictly monotone: if every cell
   still equals the cached version at its read point, every slot has
   held the cached value continuously since before this scan began, so
   at the instant the collect started the outer register held exactly
   the cached state.  Cell 0 guards the configuration, so a reshard
   invalidates every cache with a single bump. *)
let cache_fresh t c =
  let ok = ref true in
  for i = 0 to t.max_shards do
    if Atomic.get t.version_cells.(i) <> c.versions.(i) then ok := false
  done;
  !ok

(* Scan-sharing.  A reader that needs the outer register's state either
   performs the collect itself (it is the combiner) or receives one
   combiner's published snapshot.  Receiving is sound in exactly two
   cases, and the protocol only ever uses these:

   - {e validated adoption}: the published snapshot's version vector
     still matches a fresh collect of the version cells, so by the
     cache-freshness argument the snapshot is the register state right
     now — the adopter's own cell collect is its linearization point,
     inside its own interval.

   - {e stamped adoption}: the snapshot's stamp proves its collect
     {e started} after this reader read the stamp counter (the counter
     is monotone and bumped before each collect, so reading [s0] means
     every later bump — and hence every collect stamped [> s0] — began
     after the read).  A collect's linearization point lies inside the
     collect, hence inside the enlisted reader's interval too.

   A reader that arrives while a collect is in flight spins for a
   {e bounded} number of backoff waves: it adopts the moment the
   in-flight result validates or a strictly newer collect publishes,
   and once the budget is exhausted it reverts to a private collect of
   its own — the
   lock only gates who publishes into the shared slot, never whether a
   reader makes progress, so the combining path stays wait-free even
   when a combiner is preempted mid-collect (on few-core hosts an
   unbounded enlistment would burn whole scheduler quanta waiting for a
   descheduled combiner).  Exactly one of [combined]/[performed] is
   bumped per request, so [requested = combined + performed]. *)
let enlist_budget = 128

let shared_scan t ~reader =
  Atomic.incr t.requested;
  Atomic.incr t.r_requested.(reader);
  let adopt sh =
    Atomic.incr t.combined;
    Atomic.incr t.r_combined.(reader);
    sh.sview
  in
  (* Collect on our own behalf; as the combiner ([stamp] given) also
     publish the result and release the lock. *)
  let perform ?stamp () =
    let c =
      with_span t
        (Printf.sprintf "scan.collect.r%d" reader)
        (fun () -> raw_full_scan t ~reader)
    in
    (match stamp with
    | None -> ()
    | Some stamp ->
      Atomic.set t.shared_slot (Some { stamp; sview = c });
      Atomic.set t.combiner_lock false);
    Atomic.incr t.performed;
    Atomic.incr t.r_performed.(reader);
    c
  in
  if not t.combine then perform ()
  else
    let budget = ref enlist_budget in
    (* Short cap: the enlist wait must stay cheap relative to a private
       collect, since reverting to one is its progress guarantee. *)
    let b = Backoff.make ~cap:64 t.stalls in
    let rec attempt () =
      match Atomic.get t.shared_slot with
      | Some sh when cache_fresh t sh.sview -> adopt sh
      | _ -> (
        let s0 = Atomic.get t.scan_started in
        if Atomic.compare_and_set t.combiner_lock false true then
          match Atomic.get t.shared_slot with
          | Some sh when sh.stamp > s0 ->
            (* Published between our stamp read and the lock: that
               collect started after us, adopt it. *)
            Atomic.set t.combiner_lock false;
            adopt sh
          | _ -> perform ~stamp:(1 + Atomic.fetch_and_add t.scan_started 1) ()
        else if !budget <= 0 then perform ()
        else
          (* Enlist: a combiner's collect is in flight. *)
          with_span t
            (Printf.sprintf "scan.enlist.r%d" reader)
            (fun () ->
              let rec await () =
                match Atomic.get t.shared_slot with
                | Some sh when sh.stamp > s0 -> adopt sh
                | Some sh when cache_fresh t sh.sview -> adopt sh
                | _ ->
                  if !budget <= 0 then perform ()
                  else if Atomic.get t.combiner_lock then begin
                    decr budget;
                    Backoff.once b;
                    await ()
                  end
                  else attempt ()
              in
              await ()))
    in
    attempt ()

let scan_items t ~reader =
  if reader < 0 || reader >= t.readers then
    invalid_arg "Serve.scan_items: bad reader";
  if not t.cache_enabled then (shared_scan t ~reader).snap
  else
    match t.caches.(reader) with
    | None ->
      Atomic.incr t.misses;
      let c = shared_scan t ~reader in
      t.caches.(reader) <- Some c;
      Array.copy c.snap
    | Some c ->
      if cache_fresh t c then begin
        Atomic.incr t.hits;
        Array.copy c.snap
      end
      else begin
        Atomic.incr t.stale;
        let c = shared_scan t ~reader in
        t.caches.(reader) <- Some c;
        Array.copy c.snap
      end

let scan t ~reader = Composite.Item.values (scan_items t ~reader)

let caps t =
  {
    Composite.Composite_intf.epoch = (fun () -> epoch t);
    reconfigure = Some (fun ~shards -> reshard t ~shards);
  }

let handle t =
  {
    Composite.Snapshot.components = t.components;
    readers = t.readers;
    scan_items = (fun ~reader -> scan_items t ~reader);
    update = (fun ~writer v -> update t ~writer v);
    caps = caps t;
  }

let observe t m =
  let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
  let s = stats t in
  c "serve.posted" s.posted;
  c "serve.coalesced" s.coalesced;
  c "serve.applied" s.applied;
  c "serve.publishes" s.publishes;
  c "serve.cache.hit" s.hits;
  c "serve.cache.miss" s.misses;
  c "serve.cache.stale" s.stale;
  c "serve.full_scans" s.full_scans;
  c "serve.scan.requested" s.scans_requested;
  c "serve.scan.combined" s.scans_combined;
  c "serve.scan.performed" s.scans_performed;
  c "serve.stalls" s.stalls;
  c "serve.reshards" (epoch t)
