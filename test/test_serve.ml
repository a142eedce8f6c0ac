(* Tests for the snapshot serving layer (lib/serve) and its campaign
   wrapper: exact coalesce/cache accounting in manual-drain mode,
   linearizability of the sharded + cached service under real domains
   (Shrinking checker and, where feasible, the generic oracle), and the
   validation-disabled mutant being caught.  Also covers the unified
   Backend registry and the Multi_writer unified handle (the API
   satellites of the same change). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------------------------------------------------------------- *)
(* Shape and argument validation                                     *)
(* ---------------------------------------------------------------- *)

let test_partition () =
  (* 5 components over 3 shards: contiguous slices of sizes 2/2/1. *)
  let srv = Serve.create ~shards:3 ~readers:1 ~init:[| 0; 1; 2; 3; 4 |] () in
  check int "components" 5 (Serve.components srv);
  check int "shards" 3 (Serve.shards srv);
  check int "readers" 1 (Serve.readers srv);
  let owners = List.init 5 (Serve.shard_of srv) in
  check (Alcotest.list int) "contiguous partition" [ 0; 0; 1; 1; 2 ] owners;
  (* Slice sizes differ by at most one for any shape. *)
  List.iter
    (fun (c, s) ->
      let srv = Serve.create ~shards:s ~readers:1 ~init:(Array.make c 0) () in
      let sizes = Array.make s 0 in
      for k = 0 to c - 1 do
        let o = Serve.shard_of srv k in
        sizes.(o) <- sizes.(o) + 1
      done;
      let mn = Array.fold_left min max_int sizes in
      let mx = Array.fold_left max 0 sizes in
      check bool
        (Printf.sprintf "balanced C=%d S=%d" c s)
        true
        (mx - mn <= 1 && Array.for_all (fun n -> n >= 1) sizes))
    [ (1, 1); (4, 2); (7, 3); (8, 8); (9, 4) ]

let test_create_validation () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool "shards = 0" true
    (rejects (fun () -> Serve.create ~shards:0 ~readers:1 ~init:[| 0 |] ()));
  check bool "shards > C" true
    (rejects (fun () -> Serve.create ~shards:3 ~readers:1 ~init:[| 0; 1 |] ()));
  check bool "readers = 0" true
    (rejects (fun () -> Serve.create ~shards:1 ~readers:0 ~init:[| 0 |] ()));
  check bool "empty init" true
    (rejects (fun () -> Serve.create ~shards:1 ~readers:1 ~init:[||] ()))

let test_lifecycle_guards () =
  let srv = Serve.create ~shards:2 ~readers:1 ~init:[| 0; 0 |] () in
  Serve.start srv;
  check bool "double start rejected" true
    (try Serve.start srv; false with Invalid_argument _ -> true);
  check bool "manual drain rejected while running" true
    (try Serve.drain srv; false with Invalid_argument _ -> true);
  Serve.shutdown srv

(* ---------------------------------------------------------------- *)
(* Coalescing accounting (manual drain: fully deterministic)         *)
(* ---------------------------------------------------------------- *)

let test_coalesce_counters () =
  let srv = Serve.create ~shards:2 ~readers:1 ~init:[| 0; 0; 0 |] () in
  (* Two posts to component 0 before any drain: the second supersedes
     the first in the mailbox, so exactly one is coalesced and one
     applied. *)
  Serve.post srv ~writer:0 7;
  Serve.post srv ~writer:0 8;
  Serve.post srv ~writer:2 9;
  let st = Serve.stats srv in
  check int "posted before drain" 3 st.Serve.posted;
  check int "pending before drain" 2 st.Serve.pending;
  check int "applied before drain" 0 st.Serve.applied;
  Serve.drain srv;
  let st = Serve.stats srv in
  check int "posted" 3 st.Serve.posted;
  check int "coalesced" 1 st.Serve.coalesced;
  check int "applied" 2 st.Serve.applied;
  check int "pending" 0 st.Serve.pending;
  (* One publish per shard that had work: components 0 and 2 live on
     different shards of the 2-shard partition. *)
  check int "publishes" 2 st.Serve.publishes;
  check (Alcotest.array int) "latest values win" [| 8; 0; 9 |]
    (Serve.scan srv ~reader:0);
  (* Per-writer split agrees with the totals. *)
  let w0 = Serve.writer_stats srv ~writer:0 in
  check int "w0 posted" 2 w0.Serve.w_posted;
  check int "w0 coalesced" 1 w0.Serve.w_coalesced;
  check int "w0 applied" 1 w0.Serve.w_applied

(* The drain is one pass over the owned mailboxes: it coalesces
   nothing itself (coalescing happens only in a post's exchange), and
   over empty mailboxes it allocates nothing — the applier runs it on
   every idle poll. *)
let test_drain_single_pass () =
  let c = 64 in
  let srv = Serve.create ~shards:1 ~readers:1 ~init:(Array.make c 0) () in
  List.iter (fun k -> Serve.post srv ~writer:k (k + 100)) [ 0; 31; 63 ];
  Serve.drain srv;
  let st = Serve.stats srv in
  check int "posted" 3 st.Serve.posted;
  check int "pending" 0 st.Serve.pending;
  check int "no drain-side coalescing" 0 st.Serve.coalesced;
  check int "posted = applied + coalesced" st.Serve.posted
    (st.Serve.applied + st.Serve.coalesced);
  check int "one publish" 1 st.Serve.publishes;
  let v = Serve.scan srv ~reader:0 in
  check (Alcotest.list int) "posted values land" [ 100; 131; 163 ]
    [ v.(0); v.(31); v.(63) ];
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    Serve.drain srv
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  check bool
    (Printf.sprintf "idle drain: %.2f minor words per call < 1" per_call)
    true (per_call < 1.);
  check int "idle drains publish nothing" 1 (Serve.stats srv).Serve.publishes

let test_accounting_invariant_under_domains () =
  (* posted = applied + coalesced + pending at every quiescent point,
     including after a real concurrent run (pending = 0 after
     shutdown's final drain). *)
  let srv = Serve.create ~shards:2 ~readers:1 ~init:[| 0; 0; 0; 0 |] () in
  Serve.start srv;
  let writers =
    List.init 4 (fun k ->
        Domain.spawn (fun () ->
            for s = 1 to 100 do
              Serve.post srv ~writer:k ((k * 1000) + s)
            done;
            ignore (Serve.update srv ~writer:k ((k * 1000) + 999))))
  in
  List.iter Domain.join writers;
  Serve.shutdown srv;
  let st = Serve.stats srv in
  check int "all posts accepted" 404 st.Serve.posted;
  check int "nothing left pending" 0 st.Serve.pending;
  check int "posted = applied + coalesced" st.Serve.posted
    (st.Serve.applied + st.Serve.coalesced);
  (* The closing synchronous update makes the final state the last
     write of each component. *)
  check (Alcotest.array int) "final state"
    [| 999; 1999; 2999; 3999 |]
    (Serve.scan srv ~reader:0)

(* ---------------------------------------------------------------- *)
(* Synchronous writes drain their own shard                          *)
(* ---------------------------------------------------------------- *)

let test_update_manual_mode () =
  (* No [start]: the update takes its shard's drain token and publishes
     itself, draining the other writer's coalesced posts in the same
     pass. *)
  let srv = Serve.create ~shards:1 ~readers:1 ~init:[| 0; 0 |] () in
  Serve.post srv ~writer:0 7;
  Serve.post srv ~writer:0 8;
  let id = Serve.update srv ~writer:1 9 in
  let st = Serve.stats srv in
  check int "applied" 2 st.Serve.applied;
  check int "coalesced" 1 st.Serve.coalesced;
  check int "publishes" 1 st.Serve.publishes;
  check int "pending" 0 st.Serve.pending;
  let items = Serve.scan_items srv ~reader:0 in
  check int "returned id is w1's acked id" items.(1).Composite.Item.id id;
  check int "w1's first applied write" 1 id;
  check (Alcotest.array int) "scan shows both values" [| 8; 9 |]
    (Composite.Item.values items)

(* [update] racing the appliers, a second drainer and live reshards on
   real domains.  Three writer domains mix [update] and [post] on one
   component each; after every update they raise their component's
   floor to the returned id.  Two reader domains read the floors, then
   scan: a scan started after an update returned must hold an id at
   least the returned one (read-your-writes).  A reconfigurer walks
   2 -> 4 -> 1 -> 3 while the writers run; with [~manual:true] no
   applier runs and a fourth domain calls [Serve.drain] in a loop,
   racing the writers' own drains for the shard tokens.  The watchdog
   turns a lost ack (an update spinning forever) into a failure. *)
let self_drain_stress ~manual =
  let writers = 3 and min_ops = 1000 in
  let srv =
    Serve.create ~shards:2 ~max_shards:4 ~readers:2 ~init:(Array.make 4 0) ()
  in
  if not manual then Serve.start srv;
  let floors = Array.init writers (fun _ -> Atomic.make 0) in
  let resharded = Atomic.make false and writers_left = Atomic.make writers in
  let ryw_violations = Atomic.make 0 and non_increasing = Atomic.make 0 in
  let writer k =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.decr writers_left)
          (fun () ->
            let last = ref 0 and i = ref 0 in
            while !i < min_ops || not (Atomic.get resharded) do
              incr i;
              if !i mod 3 = 0 then Serve.post srv ~writer:k ((1000 * k) + !i)
              else begin
                let id = Serve.update srv ~writer:k ((1000 * k) + !i) in
                if id <= !last then Atomic.incr non_increasing;
                last := id;
                Atomic.set floors.(k) id
              end
            done;
            (* End on a synchronous write, so the final state is known. *)
            ignore (Serve.update srv ~writer:k (-k - 1) : int)))
  in
  let reader j =
    Domain.spawn (fun () ->
        while Atomic.get writers_left > 0 do
          let floor = Array.map Atomic.get floors in
          let items = Serve.scan_items srv ~reader:j in
          Array.iteri
            (fun k f ->
              if items.(k).Composite.Item.id < f then
                Atomic.incr ryw_violations)
            floor
        done)
  in
  let reconfigurer =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set resharded true)
          (fun () ->
            List.iter
              (fun s ->
                Unix.sleepf 2e-3;
                Serve.reshard srv ~shards:s)
              [ 4; 1; 3 ]))
  in
  let drainer =
    if manual then
      [
        Domain.spawn (fun () ->
            while Atomic.get writers_left > 0 do
              Serve.drain srv
            done);
      ]
    else []
  in
  let domains =
    List.init writers writer @ List.init 2 reader @ (reconfigurer :: drainer)
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while Atomic.get writers_left > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 1e-3
  done;
  if Atomic.get writers_left > 0 then
    Alcotest.failf "watchdog: %d writers still running after 30 s"
      (Atomic.get writers_left);
  List.iter Domain.join domains;
  if not manual then Serve.shutdown srv;
  let label s =
    Printf.sprintf "%s: %s" (if manual then "manual" else "appliers") s
  in
  check int (label "read-your-writes") 0 (Atomic.get ryw_violations);
  check int (label "update ids strictly increase") 0
    (Atomic.get non_increasing);
  check (Alcotest.array int) (label "final state") [| -1; -2; -3; 0 |]
    (Serve.scan srv ~reader:0);
  let st = Serve.stats srv in
  check int (label "pending") 0 st.Serve.pending;
  check int (label "posted = applied + coalesced") st.Serve.posted
    (st.Serve.applied + st.Serve.coalesced);
  check int
    (label "requested = combined + performed")
    st.Serve.scans_requested
    (st.Serve.scans_combined + st.Serve.scans_performed);
  let es = Serve.epoch_stats srv in
  check int (label "epochs") 4 (Array.length es);
  check (Alcotest.list int) (label "shards per epoch") [ 2; 4; 1; 3 ]
    (Array.to_list (Array.map (fun e -> e.Serve.e_shards) es));
  Array.iter
    (fun (e : Serve.epoch_stats) ->
      let l = label (Printf.sprintf "epoch %d" e.Serve.e_epoch) in
      check int (l ^ " post identity")
        (e.Serve.e_posted + e.Serve.e_carried_in)
        (e.Serve.e_applied + e.Serve.e_coalesced + e.Serve.e_carried_out);
      check int (l ^ " scan identity")
        (e.Serve.e_scans_requested + e.Serve.e_inflight_in)
        (e.Serve.e_scans_combined + e.Serve.e_scans_performed
       + e.Serve.e_inflight_out);
      check bool (l ^ " non-negative") true
        (e.Serve.e_posted >= 0 && e.Serve.e_applied >= 0
        && e.Serve.e_coalesced >= 0 && e.Serve.e_carried_in >= 0
        && e.Serve.e_carried_out >= 0 && e.Serve.e_publishes >= 0
        && e.Serve.e_inflight_in >= 0 && e.Serve.e_inflight_out >= 0))
    es;
  check int (label "final carry") 0 es.(3).Serve.e_carried_out

(* ---------------------------------------------------------------- *)
(* Cache accounting (manual drain)                                   *)
(* ---------------------------------------------------------------- *)

let test_cache_hit_miss_stale () =
  (* combine:false pins the pre-combining baseline accounting (with
     scan-sharing on, reader 1's first scan would adopt the shared slot
     and never reach the outer register). *)
  let srv =
    Serve.create ~combine:false ~shards:2 ~readers:2 ~init:[| 1; 2; 3 |] ()
  in
  check (Alcotest.array int) "first scan (miss)" [| 1; 2; 3 |]
    (Serve.scan srv ~reader:0);
  check (Alcotest.array int) "second scan (hit)" [| 1; 2; 3 |]
    (Serve.scan srv ~reader:0);
  check (Alcotest.array int) "third scan (hit)" [| 1; 2; 3 |]
    (Serve.scan srv ~reader:0);
  Serve.post srv ~writer:1 20;
  Serve.drain srv;
  check (Alcotest.array int) "post-drain scan (stale)" [| 1; 20; 3 |]
    (Serve.scan srv ~reader:0);
  (* The other reader has its own cache: its first scan is a miss. *)
  check (Alcotest.array int) "reader 1 first scan" [| 1; 20; 3 |]
    (Serve.scan srv ~reader:1);
  let st = Serve.stats srv in
  check int "misses" 2 st.Serve.misses;
  check int "hits" 2 st.Serve.hits;
  check int "stale" 1 st.Serve.stale;
  check int "full scans" 3 st.Serve.full_scans

let test_cache_disabled () =
  let srv =
    Serve.create ~combine:false ~cache:false ~shards:1 ~readers:1 ~init:[| 5 |]
      ()
  in
  for _ = 1 to 4 do
    check (Alcotest.array int) "uncached scan" [| 5 |] (Serve.scan srv ~reader:0)
  done;
  let st = Serve.stats srv in
  check int "no hits" 0 st.Serve.hits;
  check int "no misses" 0 st.Serve.misses;
  check int "every scan pays the outer register" 4 st.Serve.full_scans

let test_observe_metrics () =
  let srv = Serve.create ~shards:1 ~readers:1 ~init:[| 0 |] () in
  ignore (Serve.scan srv ~reader:0);
  ignore (Serve.scan srv ~reader:0);
  Serve.post srv ~writer:0 1;
  Serve.post srv ~writer:0 2;
  Serve.drain srv;
  let m = Obs.Metrics.create () in
  Serve.observe srv m;
  let v name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
  check int "serve.posted" 2 (v "serve.posted");
  check int "serve.coalesced" 1 (v "serve.coalesced");
  check int "serve.cache.hit" 1 (v "serve.cache.hit");
  check int "serve.cache.miss" 1 (v "serve.cache.miss")

(* The one statement of the quiescent identities: a post still in its
   mailbox is named as pending, not reported as a broken
   [posted = applied + coalesced]. *)
let test_check_identities () =
  let srv = Serve.create ~shards:2 ~readers:1 ~init:[| 0; 0; 0 |] () in
  check bool "fresh service" true (Serve.check_identities srv = Ok ());
  Serve.post srv ~writer:0 7;
  Serve.post srv ~writer:2 9;
  (match Serve.check_identities srv with
  | Ok () -> Alcotest.fail "pending posts accepted"
  | Error m ->
    check bool
      (Printf.sprintf "error names the pending count: %s" m)
      true
      (contains m "2 posts still pending"));
  Serve.drain srv;
  ignore (Serve.scan srv ~reader:0);
  check bool "quiescent after drain" true (Serve.check_identities srv = Ok ())

(* ---------------------------------------------------------------- *)
(* Scan-sharing accounting (manual drain: fully deterministic)       *)
(* ---------------------------------------------------------------- *)

let scan_identity st =
  st.Serve.scans_requested = st.Serve.scans_combined + st.Serve.scans_performed

let test_combining_accounting () =
  (* Single-threaded, so the combiner lock is never contended and the
     exact adoption pattern is deterministic: reader 1's misses adopt
     reader 0's published collects via validation. *)
  let srv = Serve.create ~shards:2 ~readers:2 ~init:[| 1; 2; 3 |] () in
  check bool "combining on by default" true (Serve.combining srv);
  check (Alcotest.array int) "r0 first scan performs" [| 1; 2; 3 |]
    (Serve.scan srv ~reader:0);
  check (Alcotest.array int) "r1 first scan adopts" [| 1; 2; 3 |]
    (Serve.scan srv ~reader:1);
  let st = Serve.stats srv in
  check int "requested" 2 st.Serve.scans_requested;
  check int "performed" 1 st.Serve.scans_performed;
  check int "combined" 1 st.Serve.scans_combined;
  check int "outer register paid once" 1 st.Serve.full_scans;
  Serve.post srv ~writer:1 20;
  Serve.drain srv;
  (* Both caches and the shared slot are now stale: r0 performs a fresh
     collect (republishing the slot), r1 adopts it. *)
  check (Alcotest.array int) "r0 stale scan performs" [| 1; 20; 3 |]
    (Serve.scan srv ~reader:0);
  check (Alcotest.array int) "r1 stale scan adopts" [| 1; 20; 3 |]
    (Serve.scan srv ~reader:1);
  let st = Serve.stats srv in
  check int "requested'" 4 st.Serve.scans_requested;
  check int "performed'" 2 st.Serve.scans_performed;
  check int "combined'" 2 st.Serve.scans_combined;
  check bool "identity" true (scan_identity st);
  check int "full_scans = performed" st.Serve.scans_performed
    st.Serve.full_scans;
  (* Per-reader attribution sums to the totals and shows who combined. *)
  let r0 = Serve.reader_stats srv ~reader:0 in
  let r1 = Serve.reader_stats srv ~reader:1 in
  check int "r0 performed" 2 r0.Serve.r_performed;
  check int "r0 combined" 0 r0.Serve.r_combined;
  check int "r1 combined" 2 r1.Serve.r_combined;
  check int "per-reader requested sums" st.Serve.scans_requested
    (r0.Serve.r_requested + r1.Serve.r_requested);
  (* Cache hits never enter the scan machinery. *)
  ignore (Serve.scan srv ~reader:0);
  let st' = Serve.stats srv in
  check int "hit bypasses requested" st.Serve.scans_requested
    st'.Serve.scans_requested;
  check int "hit counted" 1 st'.Serve.hits

let test_combining_negative_control () =
  (* combine:false is the differential baseline: nothing is ever
     combined and every request pays the outer register. *)
  let srv =
    Serve.create ~combine:false ~cache:false ~shards:2 ~readers:2
      ~init:[| 0; 0; 0 |] ()
  in
  check bool "combining off" false (Serve.combining srv);
  for _ = 1 to 3 do
    ignore (Serve.scan srv ~reader:0);
    ignore (Serve.scan srv ~reader:1)
  done;
  let st = Serve.stats srv in
  check int "no combined scans" 0 st.Serve.scans_combined;
  check int "requested = performed" st.Serve.scans_requested
    st.Serve.scans_performed;
  check int "performed = full scans" st.Serve.scans_performed
    st.Serve.full_scans;
  check int "six requests" 6 st.Serve.scans_requested

let test_combining_uncached_adoption () =
  (* With caching off and combining on, the shared slot acts as the
     service-wide validated cache: a quiescent service pays the outer
     register once, then serves every reader by adoption. *)
  let srv =
    Serve.create ~cache:false ~shards:1 ~readers:2 ~init:[| 7 |] ()
  in
  for _ = 1 to 3 do
    check (Alcotest.array int) "r0" [| 7 |] (Serve.scan srv ~reader:0);
    check (Alcotest.array int) "r1" [| 7 |] (Serve.scan srv ~reader:1)
  done;
  let st = Serve.stats srv in
  check int "one real collect" 1 st.Serve.full_scans;
  check int "everything else adopted" 5 st.Serve.scans_combined;
  check bool "identity" true (scan_identity st)

let test_combining_span_markers () =
  (* The note hook receives balanced per-reader span markers around
     combiner collects, so profiles can attribute shared scans. *)
  let notes = ref [] in
  let srv =
    Serve.create ~note:(fun s -> notes := s :: !notes) ~cache:false ~shards:1
      ~readers:1 ~init:[| 0 |] ()
  in
  ignore (Serve.scan srv ~reader:0);
  Serve.post srv ~writer:0 1;
  Serve.drain srv;
  ignore (Serve.scan srv ~reader:0);
  let markers = List.rev_map Csim.Trace.span_of_note !notes in
  let collects_b, collects_e =
    List.fold_left
      (fun (b, e) m ->
        match m with
        | Some (`B, "scan.collect.r0") -> (b + 1, e)
        | Some (`E, "scan.collect.r0") -> (b, e + 1)
        | _ -> (b, e))
      (0, 0) markers
  in
  check int "collect spans open" 2 collects_b;
  check int "collect spans balanced" collects_b collects_e

let qcheck_combining_identity_under_domains =
  QCheck2.Test.make ~count:6
    ~name:"requested = combined + performed under domains"
    QCheck2.Gen.(
      tup4 (int_range 2 5) (int_range 1 3) (int_range 2 5) (int_range 1 3))
    (fun (c, shards_raw, reader_ops, writer_ops) ->
      let shards = 1 + ((shards_raw - 1) mod c) in
      let init = Array.init c (fun k -> k) in
      let srv = Serve.create ~shards ~readers:3 ~init () in
      Serve.start srv;
      let domains =
        List.init c (fun k ->
            Domain.spawn (fun () ->
                for s = 1 to writer_ops do
                  ignore (Serve.update srv ~writer:k ((k * 100) + s))
                done))
        @ List.init 3 (fun j ->
              Domain.spawn (fun () ->
                  for _ = 1 to reader_ops do
                    ignore (Serve.scan_items srv ~reader:j)
                  done))
      in
      List.iter Domain.join domains;
      Serve.shutdown srv;
      let st = Serve.stats srv in
      let readers_sum =
        List.init 3 (fun j -> Serve.reader_stats srv ~reader:j)
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 readers_sum in
      scan_identity st
      && st.Serve.full_scans = st.Serve.scans_performed
      && sum (fun r -> r.Serve.r_requested) = st.Serve.scans_requested
      && sum (fun r -> r.Serve.r_combined) = st.Serve.scans_combined
      && sum (fun r -> r.Serve.r_performed) = st.Serve.scans_performed
      && st.Serve.posted = st.Serve.applied + st.Serve.coalesced
      && st.Serve.pending = 0)

(* ---------------------------------------------------------------- *)
(* Anderson as differential oracle of the Afek fast path             *)
(* ---------------------------------------------------------------- *)

let test_differential_anderson_afek () =
  (* Random serve workloads in manual-drain mode are deterministic, so
     the Anderson- and Afek-backed services must agree scan for scan —
     the exponential construction is the oracle of the fast path. *)
  let lcg = ref 12345 in
  let rand n =
    lcg := ((!lcg * 1103515245) + 12347) land 0x3FFFFFFF;
    !lcg mod n
  in
  let c = 5 and shards = 2 and readers = 2 in
  let init = Array.init c (fun k -> k * 10) in
  let mk outer = Serve.create ~outer ~shards ~readers ~init () in
  let a = mk Serve.Outer_anderson and f = mk Serve.Outer_afek in
  let scans = ref 0 in
  for _ = 1 to 200 do
    match rand 4 with
    | 0 ->
      let k = rand c and v = rand 1000 in
      Serve.post a ~writer:k v;
      Serve.post f ~writer:k v
    | 1 ->
      let ws = List.init (1 + rand c) (fun _ -> (rand c, rand 1000)) in
      List.iter
        (fun (k, v) ->
          Serve.post a ~writer:k v;
          Serve.post f ~writer:k v)
        ws
    | 2 ->
      Serve.drain a;
      Serve.drain f
    | _ ->
      let r = rand readers in
      incr scans;
      check (Alcotest.array int)
        (Printf.sprintf "scan %d agrees" !scans)
        (Serve.scan a ~reader:r) (Serve.scan f ~reader:r)
  done;
  check bool "exercised scans" true (!scans > 20);
  let sa = Serve.stats a and sf = Serve.stats f in
  check int "posted agree" sa.Serve.posted sf.Serve.posted;
  check int "applied agree" sa.Serve.applied sf.Serve.applied;
  check int "coalesced agree" sa.Serve.coalesced sf.Serve.coalesced

(* ---------------------------------------------------------------- *)
(* Linearizability under real domains                                *)
(* ---------------------------------------------------------------- *)

(* Each lifetime below is the campaign's own [stress] with an empty
   reshard schedule: paced on writer progress, since cached scans are
   far cheaper than synchronous updates and unpaced readers would
   finish before any write completes. *)
module SC = Workload.Serve_campaign

let test_stress_per_shard_count () =
  let init = [| 10; 20; 30; 40 |] in
  List.iter
    (fun shards ->
      let srv = Serve.create ~shards ~readers:2 ~init () in
      let h = SC.stress srv ~schedule:[] ~writer_ops:3 ~reader_ops:3 ~init in
      check int
        (Printf.sprintf "S=%d: no shrinking violations" shards)
        0
        (List.length (History.Shrinking.check ~equal:Int.equal h));
      check bool
        (Printf.sprintf "S=%d: generic oracle" shards)
        true
        (History.Linearize.is_linearizable
           (History.Linearize.snapshot_spec ~equal:Int.equal)
           ~init
           (History.Snapshot_history.to_ops h)))
    [ 1; 2; 4 ]

let qcheck_stress_random_shapes =
  QCheck2.Test.make ~count:6
    ~name:"random service shapes stay linearizable under domains"
    QCheck2.Gen.(
      tup4 (int_range 1 5) (int_range 1 3) (int_range 1 3) (int_range 1 3))
    (fun (c, shards_raw, writer_ops, reader_ops) ->
      let shards = 1 + ((shards_raw - 1) mod c) in
      let init = Array.init c (fun k -> k * 100) in
      let srv = Serve.create ~shards ~readers:2 ~init () in
      let h = SC.stress srv ~schedule:[] ~writer_ops ~reader_ops ~init in
      History.Shrinking.check ~equal:Int.equal h = [])

let qcheck_differential_stress =
  QCheck2.Test.make ~count:4
    ~name:"anderson-backed service linearizable under domains (oracle leg)"
    QCheck2.Gen.(tup2 (int_range 2 4) (int_range 1 3))
    (fun (c, writer_ops) ->
      let init = Array.init c (fun k -> k * 100) in
      let srv =
        Serve.create ~outer:Serve.Outer_anderson ~shards:(min 2 c) ~readers:2
          ~init ()
      in
      let h = SC.stress srv ~schedule:[] ~writer_ops ~reader_ops:2 ~init in
      History.Shrinking.check ~equal:Int.equal h = [])

let test_campaign_clean () =
  let cfg =
    {
      Workload.Serve_campaign.default with
      shards = 2;
      components = 4;
      readers = 2;
      writer_ops = 3;
      reader_ops = 3;
      runs = 3;
    }
  in
  let r = Workload.Serve_campaign.run ~jobs:2 cfg in
  check int "runs" 3 r.Workload.Serve_campaign.runs;
  check int "flagged" 0 r.Workload.Serve_campaign.flagged_runs;
  check int "oracle failures" 0 r.Workload.Serve_campaign.generic_failures;
  check int "accounting failures" 0
    r.Workload.Serve_campaign.accounting_failures;
  (* A static service never reshards, so there is nothing to minimize. *)
  check int "no epochs" 0 r.Workload.Serve_campaign.epochs_completed;
  check bool "nothing minimized" true
    (r.Workload.Serve_campaign.minimized = None);
  (* 4 writers x 3 ops + 2 readers x 3 ops, per run. *)
  check int "ops checked" (3 * ((4 * 3) + (2 * 3)))
    r.Workload.Serve_campaign.ops_checked

let test_campaign_rejects_bad_shapes () =
  (* Checked before any work: a zero count would report a vacuous
     clean campaign. *)
  List.iter
    (fun (label, cfg) ->
      check bool label true
        (try
           ignore (Workload.Serve_campaign.run cfg);
           false
         with Invalid_argument _ -> true))
    Workload.Serve_campaign.
      [
        ("runs = 0", { default with runs = 0 });
        ("components = 0", { default with components = 0 });
        ("readers = 0", { default with readers = 0 });
        ("writer_ops < 0", { default with writer_ops = -1 });
        ("reader_ops < 0", { default with reader_ops = -3 });
      ]

let test_campaign_jobs_deterministic () =
  (* Clean campaigns report identically at every job count (the same
     property Campaign.run has: index-ordered merge of fixed-size
     runs). *)
  let cfg =
    {
      Workload.Serve_campaign.default with
      shards = 2;
      components = 3;
      readers = 2;
      writer_ops = 2;
      reader_ops = 2;
      runs = 4;
    }
  in
  let strip (r : Workload.Serve_campaign.result) =
    ( (r.Workload.Serve_campaign.runs, r.Workload.Serve_campaign.ops_checked),
      ( r.Workload.Serve_campaign.flagged_runs,
        r.Workload.Serve_campaign.generic_failures ) )
  in
  let r1 = strip (Workload.Serve_campaign.run ~jobs:1 cfg) in
  let r3 = strip (Workload.Serve_campaign.run ~jobs:3 cfg) in
  check
    Alcotest.(pair (pair int int) (pair int int))
    "jobs=1 = jobs=3" r1 r3

let test_mutant_caught () =
  (* Blind cache reuse (validate = false, cache = true) must produce
     histories the Shrinking checker flags.  The interleaving is real
     concurrency, so allow a few attempts — each campaign runs several
     paced lifetimes and in practice flags nearly every one. *)
  let cfg =
    {
      Workload.Serve_campaign.default with
      shards = 2;
      components = 3;
      readers = 2;
      writer_ops = 10;
      reader_ops = 10;
      runs = 3;
      validate = false;
      check_generic = false;
    }
  in
  let rec attempt n =
    let r = Workload.Serve_campaign.run cfg in
    if r.Workload.Serve_campaign.flagged_runs > 0 then r
    else if n > 1 then attempt (n - 1)
    else r
  in
  let r = attempt 3 in
  check bool "mutant flagged" true (r.Workload.Serve_campaign.flagged_runs > 0);
  check bool "an example history is rendered" true
    (r.Workload.Serve_campaign.example <> None)

(* ---------------------------------------------------------------- *)
(* API satellites: Backend registry, unified handles                 *)
(* ---------------------------------------------------------------- *)

let test_backend_registry () =
  check (Alcotest.list Alcotest.string) "registered names"
    [ "byz"; "multicore"; "net"; "shm" ]
    (Workload.Backend.names ());
  (match Workload.Backend.find "shm" with
  | Ok b ->
    check bool "shm is the plain deterministic substrate" true
      (b.Workload.Backend.caps = Workload.Backend.static_caps)
  | Error e -> Alcotest.failf "shm not found: %s" e);
  (* Capabilities are data on the descriptor: the net substrate is the
     messaging one and the only reconfigurable one among the built-ins. *)
  (match Workload.Backend.find "net" with
  | Ok b ->
    check bool "net caps" true
      (b.Workload.Backend.caps.Workload.Backend.messaging
      && b.Workload.Backend.caps.Workload.Backend.reconfigurable
      && not b.Workload.Backend.caps.Workload.Backend.adversarial)
  | Error e -> Alcotest.failf "net not found: %s" e);
  (match Workload.Backend.find "byz" with
  | Ok b ->
    check bool "byz caps" true
      b.Workload.Backend.caps.Workload.Backend.adversarial
  | Error e -> Alcotest.failf "byz not found: %s" e);
  (match Workload.Backend.find "multicore" with
  | Ok b ->
    check bool "multicore caps" true
      (b.Workload.Backend.caps.Workload.Backend.real_parallelism
      && b.Workload.Backend.provision = Workload.Backend.Domains)
  | Error e -> Alcotest.failf "multicore not found: %s" e);
  (match Workload.Backend.find "bogus" with
  | Ok _ -> Alcotest.fail "bogus resolved"
  | Error e ->
    check bool "error names the unknown backend" true (contains e "bogus");
    check bool "error lists the registry" true
      (contains e "multicore, net, shm"));
  let net = Workload.Backend.net ~replicas:5 ~crash:1 ~loss:0.1 () in
  check Alcotest.string "net label" "net(n=5,f=1,loss=0.10)"
    (Workload.Backend.label net);
  check bool "quorum validation" true
    (try ignore (Workload.Backend.net ~replicas:3 ~crash:2 ()); false
     with Invalid_argument _ -> true)

let test_multi_writer_handle () =
  let mw =
    Composite.Multicore.multi_writer ~components:2 ~writers_per_component:2
      ~readers:1 ~init:[| 0; 0 |]
  in
  let h = Composite.Multi_writer.handle mw in
  check int "C*W write ports" 2 h.Composite.Snapshot.components;
  ignore (h.Composite.Snapshot.update ~writer:0 11);
  (* writer 3 = component 1, writer index 1 *)
  ignore (h.Composite.Snapshot.update ~writer:3 22);
  check (Alcotest.array int) "values via unified handle" [| 11; 22 |]
    (Composite.Snapshot.scan h ~reader:0);
  check bool "bad port rejected" true
    (try ignore (h.Composite.Snapshot.update ~writer:4 0); false
     with Invalid_argument _ -> true)

let test_unified_handle_interop () =
  (* One polymorphic consumer accepts a construction handle and a serve
     handle alike: Composite_intf.t is the single handle type. *)
  let total (h : int Composite.Composite_intf.t) =
    Array.fold_left ( + ) 0 (Composite.Snapshot.scan h ~reader:0)
  in
  let a = Composite.Multicore.afek ~init:[| 1; 2 |] in
  let srv = Serve.create ~shards:1 ~readers:1 ~init:[| 3; 4 |] () in
  check int "construction handle" 3 (total a);
  check int "serve handle" 7 (total (Serve.handle srv))

let () =
  Alcotest.run "serve"
    [
      ( "shape",
        [
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "lifecycle guards" `Quick test_lifecycle_guards;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "coalesce counters" `Quick test_coalesce_counters;
          Alcotest.test_case "drain is one allocation-free pass" `Quick
            test_drain_single_pass;
          Alcotest.test_case "invariant under domains" `Quick
            test_accounting_invariant_under_domains;
          Alcotest.test_case "update in manual mode" `Quick
            test_update_manual_mode;
          Alcotest.test_case "cache hit/miss/stale" `Quick
            test_cache_hit_miss_stale;
          Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
          Alcotest.test_case "observe metrics" `Quick test_observe_metrics;
          Alcotest.test_case "check identities" `Quick test_check_identities;
        ] );
      ( "scan-sharing",
        [
          Alcotest.test_case "combining accounting" `Quick
            test_combining_accounting;
          Alcotest.test_case "combining negative control" `Quick
            test_combining_negative_control;
          Alcotest.test_case "uncached adoption" `Quick
            test_combining_uncached_adoption;
          Alcotest.test_case "span markers" `Quick test_combining_span_markers;
          QCheck_alcotest.to_alcotest qcheck_combining_identity_under_domains;
        ] );
      ( "self-drain",
        [
          Alcotest.test_case "stress with appliers" `Quick (fun () ->
              self_drain_stress ~manual:false);
          Alcotest.test_case "stress racing manual drain" `Quick (fun () ->
              self_drain_stress ~manual:true);
        ] );
      ( "differential",
        [
          Alcotest.test_case "anderson vs afek agree" `Quick
            test_differential_anderson_afek;
          QCheck_alcotest.to_alcotest qcheck_differential_stress;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "stress per shard count" `Quick
            test_stress_per_shard_count;
          QCheck_alcotest.to_alcotest qcheck_stress_random_shapes;
          Alcotest.test_case "campaign clean" `Quick test_campaign_clean;
          Alcotest.test_case "campaign rejects bad shapes" `Quick
            test_campaign_rejects_bad_shapes;
          Alcotest.test_case "campaign jobs deterministic" `Quick
            test_campaign_jobs_deterministic;
          Alcotest.test_case "mutant caught" `Quick test_mutant_caught;
        ] );
      ( "api",
        [
          Alcotest.test_case "backend registry" `Quick test_backend_registry;
          Alcotest.test_case "multi-writer unified handle" `Quick
            test_multi_writer_handle;
          Alcotest.test_case "unified handle interop" `Quick
            test_unified_handle_interop;
        ] );
    ]
