(* Tests for elastic sharding: the epoch-record reshard protocol in
   lib/serve (deterministic single-thread reshards, live reshards under
   real-domain load with Shrinking + Wing–Gong checks across the epoch
   boundary, per-epoch accounting identities, the publish-map-without-
   state mutant being caught, the campaign with a reshard schedule)
   and the capability API that exposes it
   ([Composite_intf.caps]). *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* The serving campaign: its lifetime runner [SC.stress] drives every
   live test below (a reconfigurer domain walks the schedule while
   writers/readers run, with epoch-aware pacing). *)
module SC = Workload.Serve_campaign

(* ---------------------------------------------------------------- *)
(* Capability record                                                  *)
(* ---------------------------------------------------------------- *)

let test_caps_static () =
  let h = Composite.Multicore.afek ~init:[| 1; 2 |] in
  check int "static epoch" 0 (Composite.Composite_intf.epoch h);
  check bool "static not reconfigurable" false
    (Composite.Composite_intf.reconfigurable h);
  check bool "reconfigure rejected" true
    (try
       Composite.Composite_intf.reconfigure h ~shards:1;
       false
     with Invalid_argument _ -> true)

let test_caps_serve () =
  let srv =
    Serve.create ~shards:1 ~max_shards:3 ~readers:1 ~init:[| 0; 0; 0 |] ()
  in
  let h = Serve.handle srv in
  check bool "serve reconfigurable" true
    (Composite.Composite_intf.reconfigurable h);
  check int "epoch 0" 0 (Composite.Composite_intf.epoch h);
  Composite.Composite_intf.reconfigure h ~shards:3;
  check int "epoch 1 via caps" 1 (Composite.Composite_intf.epoch h);
  check int "shards grew" 3 (Serve.shards srv);
  check int "epoch agrees" 1 (Serve.epoch srv)

(* ---------------------------------------------------------------- *)
(* Deterministic single-thread reshards                               *)
(* ---------------------------------------------------------------- *)

let test_manual_grow_shrink () =
  let srv =
    Serve.create ~shards:1 ~max_shards:4 ~readers:2 ~init:[| 1; 2; 3; 4; 5 |] ()
  in
  Serve.post srv ~writer:0 10;
  Serve.post srv ~writer:3 40;
  Serve.drain srv;
  check (Alcotest.array int) "pre-reshard scan" [| 10; 2; 3; 40; 5 |]
    (Serve.scan srv ~reader:0);
  (* Grow 1 -> 4: everything applied before the boundary must be
     visible through the new epoch's map. *)
  Serve.reshard srv ~shards:4;
  check int "epoch" 1 (Serve.epoch srv);
  check int "shards" 4 (Serve.shards srv);
  check (Alcotest.array int) "post-grow scan sees migrated state"
    [| 10; 2; 3; 40; 5 |]
    (Serve.scan srv ~reader:0);
  (* Writes keep working against the new layout. *)
  Serve.post srv ~writer:2 30;
  Serve.drain srv;
  check (Alcotest.array int) "post-grow write" [| 10; 2; 30; 40; 5 |]
    (Serve.scan srv ~reader:0);
  (* Shrink 4 -> 2. *)
  Serve.reshard srv ~shards:2;
  check int "epoch'" 2 (Serve.epoch srv);
  check (Alcotest.array int) "post-shrink scan" [| 10; 2; 30; 40; 5 |]
    (Serve.scan srv ~reader:1);
  Serve.post srv ~writer:4 50;
  Serve.drain srv;
  check (Alcotest.array int) "post-shrink write" [| 10; 2; 30; 40; 50 |]
    (Serve.scan srv ~reader:0);
  (* Accounting closes across all three epochs. *)
  let st = Serve.stats srv in
  check int "posted = applied + coalesced" st.Serve.posted
    (st.Serve.applied + st.Serve.coalesced);
  check int "nothing pending" 0 st.Serve.pending

let test_reshard_validation () =
  let srv = Serve.create ~shards:2 ~max_shards:3 ~readers:1 ~init:[| 0; 0; 0 |] () in
  let rejects f = try f (); false with Invalid_argument _ -> true in
  check bool "shards = 0 rejected" true
    (rejects (fun () -> Serve.reshard srv ~shards:0));
  check bool "shards > max_shards rejected" true
    (rejects (fun () -> Serve.reshard srv ~shards:4));
  check bool "max_shards > C rejected" true
    (rejects (fun () ->
         ignore (Serve.create ~shards:1 ~max_shards:3 ~readers:1 ~init:[| 0; 0 |] ())));
  (* Resharding to the current count is a legal (epoch-bumping)
     reconfiguration. *)
  Serve.reshard srv ~shards:2;
  check int "same-count reshard bumps epoch" 1 (Serve.epoch srv)

let test_pending_crosses_boundary () =
  (* Posts sitting in mailboxes when the epoch switches are drained
     into the NEW layout: nothing is stranded, identities close. *)
  let srv =
    Serve.create ~shards:3 ~max_shards:3 ~readers:1
      ~init:[| 0; 0; 0; 0; 0; 0 |] ()
  in
  Serve.post srv ~writer:1 11;
  Serve.post srv ~writer:5 55;
  (* No drain: the reshard's own boundary sweep applies them. *)
  Serve.reshard srv ~shards:1;
  Serve.drain srv;
  check (Alcotest.array int) "pending posts visible after shrink"
    [| 0; 11; 0; 0; 0; 55 |]
    (Serve.scan srv ~reader:0);
  let st = Serve.stats srv in
  check int "pending" 0 st.Serve.pending;
  check int "identity" st.Serve.posted (st.Serve.applied + st.Serve.coalesced)

let test_epoch_stats_identities () =
  let srv =
    Serve.create ~shards:1 ~max_shards:4 ~readers:1 ~init:[| 0; 0; 0; 0 |] ()
  in
  Serve.post srv ~writer:0 1;
  Serve.post srv ~writer:0 2;
  (* epoch 0 closes with one post still pending (posted=3, applied=1,
     coalesced=1 after the boundary sweep drains the mailbox). *)
  Serve.drain srv;
  Serve.post srv ~writer:1 9;
  Serve.reshard srv ~shards:4;
  ignore (Serve.scan srv ~reader:0);
  Serve.post srv ~writer:2 5;
  Serve.drain srv;
  let es = Serve.epoch_stats srv in
  check int "one entry per epoch" 2 (Array.length es);
  Array.iter
    (fun (e : Serve.epoch_stats) ->
      check bool
        (Printf.sprintf "epoch %d: posted identity" e.Serve.e_epoch)
        true
        (e.Serve.e_posted + e.Serve.e_carried_in
        = e.Serve.e_applied + e.Serve.e_coalesced + e.Serve.e_carried_out);
      check bool
        (Printf.sprintf "epoch %d: scan identity" e.Serve.e_epoch)
        true
        (e.Serve.e_scans_requested + e.Serve.e_inflight_in
        = e.Serve.e_scans_combined + e.Serve.e_scans_performed
          + e.Serve.e_inflight_out);
      check bool
        (Printf.sprintf "epoch %d: non-negative fields" e.Serve.e_epoch)
        true
        (e.Serve.e_posted >= 0 && e.Serve.e_applied >= 0
        && e.Serve.e_coalesced >= 0 && e.Serve.e_carried_in >= 0
        && e.Serve.e_carried_out >= 0 && e.Serve.e_inflight_in >= 0
        && e.Serve.e_inflight_out >= 0))
    es;
  check int "epoch 0 shards" 1 es.(0).Serve.e_shards;
  check int "epoch 1 shards" 4 es.(1).Serve.e_shards;
  (* The boundary sweep drains everything reachable, so nothing is
     carried here; the carried-residue case is covered under load. *)
  check int "quiescent final carry" 0 es.(1).Serve.e_carried_out

(* ---------------------------------------------------------------- *)
(* Live reshards under real-domain load                               *)
(* ---------------------------------------------------------------- *)

let test_live_grow_shrink_linearizable () =
  let init = [| 10; 20; 30; 40; 50 |] in
  List.iter
    (fun schedule ->
      let srv = Serve.create ~shards:2 ~max_shards:5 ~readers:2 ~init () in
      let h =
        SC.stress srv ~schedule ~writer_ops:4 ~reader_ops:4 ~init
      in
      let label = String.concat "->" (List.map string_of_int schedule) in
      check int
        (Printf.sprintf "%s: no shrinking violations" label)
        0
        (List.length (History.Shrinking.check ~equal:Int.equal h));
      check bool
        (Printf.sprintf "%s: generic oracle" label)
        true
        (History.Linearize.is_linearizable
           (History.Linearize.snapshot_spec ~equal:Int.equal)
           ~init
           (History.Snapshot_history.to_ops h));
      let st = Serve.stats srv in
      check int
        (Printf.sprintf "%s: identity" label)
        st.Serve.posted
        (st.Serve.applied + st.Serve.coalesced);
      check int (Printf.sprintf "%s: pending" label) 0 st.Serve.pending)
    [ [ 5 ]; [ 1 ]; [ 4; 1; 3 ] ]

let qcheck_random_schedules_clean =
  QCheck2.Test.make ~count:5
    ~name:"random grow/shrink schedules never flag"
    QCheck2.Gen.(
      tup3 (int_range 2 5) (list_size (int_range 1 3) (int_range 1 5))
        (int_range 1 3))
    (fun (c, raw_schedule, writer_ops) ->
      let init = Array.init c (fun k -> k * 100) in
      let schedule = List.map (fun s -> 1 + ((s - 1) mod c)) raw_schedule in
      let srv = Serve.create ~shards:1 ~max_shards:c ~readers:2 ~init () in
      let h =
        SC.stress srv ~schedule ~writer_ops ~reader_ops:3 ~init
      in
      History.Shrinking.check ~equal:Int.equal h = []
      && Serve.check_identities srv = Ok ())

let test_mutant_always_caught () =
  (* ~migrate:false publishes the new shard map with the previous
     epoch's boundary: a synchronous update acknowledged in epoch 0
     vanishes from epoch-1 scans until its component is re-written.
     Deterministic single-thread pin: always caught, no concurrency
     needed. *)
  let init = [| 0; 0; 0 |] in
  let srv =
    Serve.create ~migrate:false ~shards:1 ~max_shards:3 ~readers:1 ~init ()
  in
  let recorded =
    Composite.Snapshot.record
      ~clock:(let c = ref 0 in fun () -> incr c; !c)
      ~initial:init (Serve.handle srv)
  in
  recorded.Composite.Snapshot.rupdate ~writer:0 7;
  (* The write is acknowledged (it is in the outer register).  Now the
     broken reshard drops it. *)
  Serve.reshard srv ~shards:3;
  let post = recorded.Composite.Snapshot.rscan ~reader:0 in
  Serve.drain srv;
  check (Alcotest.array int) "the acked write vanished (mutant)" [| 0; 0; 0 |]
    post;
  let h = Composite.Snapshot.history recorded in
  check bool "shrinking checker flags the lost write" true
    (History.Shrinking.check ~equal:Int.equal h <> []);
  check bool "generic oracle flags it too" true
    (not
       (History.Linearize.is_linearizable
          (History.Linearize.snapshot_spec ~equal:Int.equal)
          ~init
          (History.Snapshot_history.to_ops h)))

let test_mutant_caught_under_load () =
  (* The same mutant under real concurrency, via the campaign-shaped
     driver: reshard after the writers finish, then scan. *)
  let init = [| 0; 0 |] in
  let rec attempt n =
    let srv =
      Serve.create ~migrate:false ~shards:1 ~max_shards:2 ~readers:2 ~init ()
    in
    let h =
      SC.stress srv ~schedule:[ 2; 1; 2 ] ~writer_ops:6
        ~reader_ops:6 ~init
    in
    let flagged = History.Shrinking.check ~equal:Int.equal h <> [] in
    if flagged || n <= 1 then flagged else attempt (n - 1)
  in
  check bool "mutant flagged under load" true (attempt 5)

(* ---------------------------------------------------------------- *)
(* The campaign (Workload.Serve_campaign with a schedule)             *)
(* ---------------------------------------------------------------- *)

let grow_shrink = { SC.default with SC.schedule = [ 4; 1; 3 ] }

let test_campaign_clean () =
  let cfg = { grow_shrink with SC.runs = 3; writer_ops = 3; reader_ops = 3 } in
  let m = Obs.Metrics.create () in
  let r = SC.run ~jobs:2 ~metrics:m cfg in
  check int "all lifetimes ran" 3 r.SC.runs;
  check int "no shrinking flags" 0 r.SC.flagged_runs;
  check int "no generic-oracle failures" 0 r.SC.generic_failures;
  check int "no accounting failures" 0 r.SC.accounting_failures;
  check int "every lifetime walked the whole schedule"
    (3 * List.length cfg.SC.schedule)
    r.SC.epochs_completed;
  check bool "histories non-trivial" true (r.SC.ops_checked > 0);
  check bool "nothing to minimize" true (r.SC.minimized = None);
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter m name) in
  check int "runs counter" 3 (counter "serve_campaign.runs");
  check bool "serve counters merged" true (counter "serve.reshards" > 0)

let test_campaign_mutant_flagged () =
  (* The publish-before-migrate mutant must be flagged by at least one
     checker, and the failing schedule must ddmin to a non-empty
     minimal witness. *)
  let cfg =
    { grow_shrink with SC.runs = 4; migrate = false; minimize_budget = 12 }
  in
  let r = SC.run ~jobs:2 cfg in
  check bool "mutant flagged" true (SC.failures r > 0);
  (match r.SC.minimized with
  | None -> Alcotest.failf "no minimized schedule despite failures"
  | Some s ->
    check bool "minimal witness is non-empty" true (s <> []);
    check bool "witness no longer than the original" true
      (List.length s <= List.length grow_shrink.SC.schedule));
  if r.SC.flagged_runs > 0 then
    check bool "a flagged run carries an example" true (r.SC.example <> None)

let () =
  Alcotest.run "reshard"
    [
      ( "caps",
        [
          Alcotest.test_case "static handles" `Quick test_caps_static;
          Alcotest.test_case "serve handle" `Quick test_caps_serve;
        ] );
      ( "manual",
        [
          Alcotest.test_case "grow and shrink" `Quick test_manual_grow_shrink;
          Alcotest.test_case "validation" `Quick test_reshard_validation;
          Alcotest.test_case "pending crosses the boundary" `Quick
            test_pending_crosses_boundary;
          Alcotest.test_case "per-epoch identities" `Quick
            test_epoch_stats_identities;
        ] );
      ( "live",
        [
          Alcotest.test_case "grow/shrink under load linearizable" `Quick
            test_live_grow_shrink_linearizable;
          QCheck_alcotest.to_alcotest qcheck_random_schedules_clean;
        ] );
      ( "mutant",
        [
          Alcotest.test_case "publish-before-migrate pinned" `Quick
            test_mutant_always_caught;
          Alcotest.test_case "caught under load" `Quick
            test_mutant_caught_under_load;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "clean schedules pass" `Quick test_campaign_clean;
          Alcotest.test_case "mutant flagged and minimized" `Quick
            test_campaign_mutant_flagged;
        ] );
    ]
