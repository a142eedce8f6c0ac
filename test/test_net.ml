(* The message-passing backend: the simulated network, the ABD
   emulation, and the composite constructions running over it. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk_env ?loss ?crashes ?log ~replicas ~seed () =
  Net.Sim.create ?loss ?crashes ?log ~replicas ~seed ()

(* ------------------------------------------------------------------ *)
(* Solo register semantics and exact message complexity               *)
(* ------------------------------------------------------------------ *)

let test_solo_write_read () =
  let env = mk_env ~replicas:3 ~seed:1 () in
  let abd = Net.Abd.create env in
  let mem = Net.Abd.memory abd in
  let got = ref (-1) in
  let stats =
    Net.Sim.run env
      [|
        (fun () ->
          let cell = mem.Csim.Memory.make ~name:"x" ~bits:64 0 in
          cell.Csim.Memory.write 42;
          got := cell.Csim.Memory.read ();
          check int "peek sees the write" 42 (cell.Csim.Memory.peek ()));
      |]
  in
  check int "read returns the written value" 42 !got;
  check int "no losses on a clean network" 0 stats.Net.Sim.lost;
  (* One write (2n) + one read (4n) on n = 3 replicas. *)
  check int "ABD message bound" ((2 * 3) + (4 * 3)) stats.Net.Sim.sent

let test_message_bound_per_op () =
  List.iter
    (fun n ->
      (* Write alone: n requests + n acks after the drain. *)
      let env = mk_env ~replicas:n ~seed:7 () in
      let abd = Net.Abd.create env in
      let mem = Net.Abd.memory abd in
      let cellr = ref None in
      let s_write =
        Net.Sim.run env
          [|
            (fun () ->
              let cell = mem.Csim.Memory.make ~name:"x" ~bits:64 0 in
              cellr := Some cell;
              cell.Csim.Memory.write 1);
          |]
      in
      check int
        (Printf.sprintf "write sends 2n messages (n=%d)" n)
        (2 * n) s_write.Net.Sim.sent;
      (* Read alone: query round + write-back round, 4n total. *)
      let s_read =
        Net.Sim.run env
          [| (fun () -> ignore ((Option.get !cellr).Csim.Memory.read ())) |]
      in
      check int
        (Printf.sprintf "read sends 4n messages (n=%d)" n)
        (4 * n) s_read.Net.Sim.sent;
      check int "two quorum phases per read" 3 (Net.Abd.stats abd).Net.Abd.rounds)
    [ 3; 5; 7 ]

let test_determinism () =
  let run () =
    let env = mk_env ~loss:0.2 ~crashes:[ (2, 4) ] ~replicas:5 ~seed:11 () in
    let abd = Net.Abd.create env in
    let mem = Net.Abd.memory abd in
    let outs = Array.make 2 [] in
    let stats =
      Net.Sim.run env ~policy:(Csim.Schedule.Random 99)
        [|
          (fun () ->
            let c = mem.Csim.Memory.make ~name:"a" ~bits:64 0 in
            for v = 1 to 5 do
              c.Csim.Memory.write v;
              outs.(0) <- c.Csim.Memory.read () :: outs.(0)
            done);
          (fun () ->
            let c = mem.Csim.Memory.make ~name:"b" ~bits:64 0 in
            for v = 1 to 5 do
              c.Csim.Memory.write (100 + v);
              outs.(1) <- c.Csim.Memory.read () :: outs.(1)
            done);
        |]
    in
    (stats, outs)
  in
  let s1, o1 = run () in
  let s2, o2 = run () in
  check bool "same stats on same seed" true (s1 = s2);
  check bool "same outputs on same seed" true (o1 = o2);
  check bool "losses actually happened" true (s1.Net.Sim.lost > 0)

let test_crash_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check bool "majority crash rejected" true
    (expect_invalid (fun () -> mk_env ~replicas:3 ~crashes:[ (0, 1); (1, 2) ] ~seed:0 ()));
  check bool "out-of-range replica rejected" true
    (expect_invalid (fun () -> mk_env ~replicas:3 ~crashes:[ (3, 1) ] ~seed:0 ()));
  check bool "duplicate crash rejected" true
    (expect_invalid (fun () -> mk_env ~replicas:5 ~crashes:[ (1, 1); (1, 2) ] ~seed:0 ()));
  check bool "bad loss rejected" true
    (expect_invalid (fun () -> mk_env ~replicas:3 ~loss:1.0 ~seed:0 ()));
  check bool "minority crash accepted" true
    (Option.is_some (try Some (mk_env ~replicas:5 ~crashes:[ (3, 0); (4, 2) ] ~seed:0 ()) with Invalid_argument _ -> None))

let test_crash_masked () =
  (* A crashed minority never blocks termination, and reads still see
     the latest completed write. *)
  let env = mk_env ~crashes:[ (4, 0); (3, 2) ] ~replicas:5 ~seed:3 () in
  let abd = Net.Abd.create env in
  let mem = Net.Abd.memory abd in
  let out = ref [] in
  let (_ : Net.Sim.stats) =
    Net.Sim.run env ~policy:(Csim.Schedule.Random 17)
      [|
        (fun () ->
          let c = mem.Csim.Memory.make ~name:"x" ~bits:64 0 in
          for v = 1 to 8 do
            c.Csim.Memory.write v;
            out := c.Csim.Memory.read () :: !out
          done);
      |]
  in
  check bool "solo client reads its own writes" true
    (!out = [ 8; 7; 6; 5; 4; 3; 2; 1 ])

(* ------------------------------------------------------------------ *)
(* Linearizability of the emulated register under network faults       *)
(* ------------------------------------------------------------------ *)

(* One ABD register, several clients, random delivery order, message
   loss and a minority crash: every completed history must linearize
   against the sequential register spec.  This is the ground-truth
   oracle check (Wing–Gong search), independent of the Shrinking
   machinery the campaigns use. *)
let qcheck_abd_linearizable =
  QCheck2.Test.make ~count:40
    ~name:"ABD register linearizes under loss + reorder + crash"
    QCheck2.Gen.(
      quad
        (int_range 0 1) (* 0 = 3 replicas no crash, 1 = 5 replicas f=2 *)
        (int_range 0 2) (* loss knob: 0.0 / 0.1 / 0.25 *)
        (int_range 2 3) (* clients *)
        (int_range 0 1_000_000) (* seed *))
    (fun (topo, lossk, clients, seed) ->
      let replicas, crashes =
        if topo = 0 then (3, []) else (5, [ (4, 2); (3, 5) ])
      in
      let loss = [| 0.0; 0.1; 0.25 |].(lossk) in
      let env = mk_env ~loss ~crashes ~replicas ~seed () in
      let abd = Net.Abd.create env in
      let mem = Net.Abd.memory abd in
      let ops = ref [] in
      let record ~proc ~label ~input ~output ~inv ~res =
        ops := History.Oprec.v ~proc ~label ~input ~output ~inv ~res :: !ops
      in
      let cellr = ref None in
      let client proc () =
        let cell =
          match !cellr with
          | Some c -> c
          | None ->
              let c = mem.Csim.Memory.make ~name:"r" ~bits:64 0 in
              cellr := Some c;
              c
        in
        (* 4 ops per client: writes carry globally distinct values. *)
        for i = 1 to 2 do
          let v = (100 * (proc + 1)) + i in
          let inv = Net.Sim.now env in
          cell.Csim.Memory.write v;
          record ~proc ~label:"write"
            ~input:(History.Linearize.Reg_write v)
            ~output:History.Linearize.Reg_done ~inv ~res:(Net.Sim.now env);
          let inv = Net.Sim.now env in
          let got = cell.Csim.Memory.read () in
          record ~proc ~label:"read" ~input:History.Linearize.Reg_read
            ~output:(History.Linearize.Reg_value got) ~inv
            ~res:(Net.Sim.now env)
        done
      in
      let (_ : Net.Sim.stats) =
        Net.Sim.run env
          ~policy:(Csim.Schedule.Random (seed lxor 0x5ca1ab1e))
          (Array.init clients client)
      in
      History.Linearize.is_linearizable
        (History.Linearize.register_spec ~equal:Int.equal)
        ~init:0 (List.rev !ops))

(* ------------------------------------------------------------------ *)
(* Online quorum reconfiguration                                       *)
(* ------------------------------------------------------------------ *)

let test_reconfig_solo () =
  let env = mk_env ~replicas:5 ~seed:21 () in
  let abd = Net.Abd.create ~members:[ 0; 1; 2 ] env in
  let mem = Net.Abd.memory abd in
  check int "initial quorum over members only" 2 (Net.Abd.quorum_size abd);
  let out = ref [] in
  let (_ : Net.Sim.stats) =
    Net.Sim.run env
      [|
        (fun () ->
          let c = mem.Csim.Memory.make ~name:"x" ~bits:64 0 in
          c.Csim.Memory.write 7;
          out := c.Csim.Memory.read () :: !out;
          (* Full handover: the write must survive into a disjoint
             member set via the state transfer. *)
          Net.Abd.reconfigure abd ~members:[ 2; 3; 4 ];
          out := c.Csim.Memory.read () :: !out;
          c.Csim.Memory.write 9;
          (* And shrink back down to a singleton of the new set. *)
          Net.Abd.reconfigure abd ~members:[ 3 ];
          out := c.Csim.Memory.read () :: !out);
      |]
  in
  check bool "reads straddle both handovers" true (!out = [ 9; 7; 7 ]);
  check int "epoch counts installs" 2 (Net.Abd.epoch abd);
  check bool "members reflect the last install" true
    (Net.Abd.members abd = [ 3 ]);
  check int "singleton quorum" 1 (Net.Abd.quorum_size abd)

let test_reconfig_validation () =
  let expect_invalid f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  let env = mk_env ~replicas:3 ~seed:0 () in
  check bool "empty member set rejected" true
    (expect_invalid (fun () -> ignore (Net.Abd.create ~members:[] env)));
  let env = mk_env ~replicas:3 ~seed:0 () in
  check bool "out-of-range member rejected" true
    (expect_invalid (fun () -> ignore (Net.Abd.create ~members:[ 0; 3 ] env)));
  let env = mk_env ~replicas:5 ~seed:0 () in
  check bool "Fixed quorum wider than member set rejected" true
    (expect_invalid (fun () ->
         ignore
           (Net.Abd.create ~quorum:(Net.Abd.Fixed 4) ~members:[ 0; 1; 2 ] env)));
  let env = mk_env ~replicas:5 ~seed:0 () in
  let abd = Net.Abd.create ~quorum:(Net.Abd.Fixed 2) ~members:[ 0; 1; 2 ] env in
  check bool "reconfigure below the Fixed quorum rejected" true
    (expect_invalid (fun () -> Net.Abd.reconfigure abd ~members:[ 3 ]))

(* Clients hammer one ABD register while another client walks the
   membership through join, handover and shrink — under loss, reorder
   and a crash of a replica that has already left.  Every completed
   history must still linearize against the register spec, and the
   per-epoch accounting must telescope exactly. *)
let test_reconfig_under_load_linearizable () =
  List.iter
    (fun seed ->
      (* Replica 0 crashes after it has left the member set. *)
      let env =
        mk_env ~loss:0.15 ~crashes:[ (0, 40) ] ~replicas:5 ~seed ()
      in
      let abd = Net.Abd.create ~members:[ 0; 1; 2 ] env in
      let mem = Net.Abd.memory abd in
      let ops = ref [] in
      let record ~proc ~label ~input ~output ~inv ~res =
        ops := History.Oprec.v ~proc ~label ~input ~output ~inv ~res :: !ops
      in
      let cellr = ref None in
      let cell () =
        match !cellr with
        | Some c -> c
        | None ->
          let c = mem.Csim.Memory.make ~name:"r" ~bits:64 0 in
          cellr := Some c;
          c
      in
      let client proc () =
        let cell = cell () in
        for i = 1 to 3 do
          let v = (100 * (proc + 1)) + i in
          let inv = Net.Sim.now env in
          cell.Csim.Memory.write v;
          record ~proc ~label:"write"
            ~input:(History.Linearize.Reg_write v)
            ~output:History.Linearize.Reg_done ~inv ~res:(Net.Sim.now env);
          let inv = Net.Sim.now env in
          let got = cell.Csim.Memory.read () in
          record ~proc ~label:"read" ~input:History.Linearize.Reg_read
            ~output:(History.Linearize.Reg_value got) ~inv
            ~res:(Net.Sim.now env)
        done
      in
      let reconfigurer () =
        ignore (cell ());
        Net.Abd.reconfigure abd ~members:[ 1; 2; 3 ];
        Net.Abd.reconfigure abd ~members:[ 2; 3; 4 ];
        Net.Abd.reconfigure abd ~members:[ 3; 4 ]
      in
      let (_ : Net.Sim.stats) =
        Net.Sim.run env
          ~policy:(Csim.Schedule.Random (seed lxor 0xe1a57))
          [| client 0; client 1; reconfigurer |]
      in
      check bool
        (Printf.sprintf "linearizable across reconfigurations (seed %d)" seed)
        true
        (History.Linearize.is_linearizable
           (History.Linearize.register_spec ~equal:Int.equal)
           ~init:0 (List.rev !ops));
      check int "three installs" 3 (Net.Abd.epoch abd);
      (* Accounting: one epoch_info per epoch, deltas telescoping to
         the cumulative totals, transfer work booked where it ran. *)
      let eps = Net.Abd.epochs abd in
      check int "one info per epoch" 4 (List.length eps);
      let st = Net.Abd.stats abd in
      let sum f = List.fold_left (fun a e -> a + f e) 0 eps in
      check int "reads telescope" st.Net.Abd.reads
        (sum (fun e -> e.Net.Abd.ei_reads));
      check int "writes telescope" st.Net.Abd.writes
        (sum (fun e -> e.Net.Abd.ei_writes));
      check int "rounds telescope" st.Net.Abd.rounds
        (sum (fun e -> e.Net.Abd.ei_rounds));
      check int "sent telescopes" (Net.Sim.totals env).Net.Sim.sent
        (sum (fun e -> e.Net.Abd.ei_sent));
      List.iter
        (fun e ->
          check bool "non-negative epoch deltas" true
            (e.Net.Abd.ei_reads >= 0 && e.Net.Abd.ei_writes >= 0
           && e.Net.Abd.ei_rounds >= 0 && e.Net.Abd.ei_sent >= 0);
          (* Every epoch after the first opens with a full transfer of
             the one allocated register. *)
          check int "transfer covers all registers"
            (if e.Net.Abd.ei_epoch = 0 then 0 else 1)
            e.Net.Abd.ei_transferred)
        eps)
    [ 5; 23; 71 ]

(* Anderson's composite register running over the ABD memory while the
   quorum system reconfigures underneath it: scans stay valid snapshots
   (Shrinking Lemma) end to end. *)
let test_reconfig_composite_smoke () =
  let env = mk_env ~loss:0.1 ~replicas:5 ~seed:13 () in
  let abd = Net.Abd.create ~members:[ 0; 1; 2 ] env in
  let mem = Net.Abd.memory abd in
  let rec_r = ref None in
  (* Built lazily by whichever client runs first, so construction's
     register traffic happens inside [Sim.run]. *)
  let get_rec () =
    match !rec_r with
    | Some r -> r
    | None ->
      let reg =
        Composite.Anderson.create mem ~readers:2 ~bits_per_value:16
          ~init:[| 0; 0 |]
      in
      let r =
        Composite.Snapshot.record
          ~clock:(fun () -> Net.Sim.now env)
          ~initial:[| 0; 0 |]
          (Composite.Anderson.handle reg)
      in
      rec_r := Some r;
      r
  in
  let writer w () =
    let r = get_rec () in
    for v = 1 to 3 do
      r.Composite.Snapshot.rupdate ~writer:w ((10 * w) + v)
    done
  in
  let scanner p () =
    let r = get_rec () in
    for _ = 1 to 2 do
      ignore (r.Composite.Snapshot.rscan ~reader:p)
    done
  in
  let reconfigurer () =
    ignore (get_rec ());
    Net.Abd.reconfigure abd ~members:[ 2; 3; 4 ]
  in
  let (_ : Net.Sim.stats) =
    Net.Sim.run env
      ~policy:(Csim.Schedule.Random 4242)
      [| writer 0; writer 1; scanner 0; scanner 1; reconfigurer |]
  in
  match
    History.Shrinking.check ~equal:Int.equal
      (Composite.Snapshot.history (get_rec ()))
  with
  | [] -> ()
  | vs ->
    Alcotest.failf "composite over reconfiguring ABD: %d violations"
      (List.length vs)

(* ------------------------------------------------------------------ *)
(* Negative control: the broken quorum variant must be caught          *)
(* ------------------------------------------------------------------ *)

let broken_profile () =
  List.find Workload.Netchaos.broken_quorum
    (Workload.Netchaos.default_profiles ~replicas:3)

let test_broken_quorum_flagged () =
  let cfg =
    {
      Workload.Netchaos.default with
      impls = [ Workload.Campaign.Impl_anderson ];
      profiles = [ broken_profile () ];
      seeds = 10;
      minimize_budget = 800;
    }
  in
  let r = Workload.Netchaos.run cfg in
  check bool "broken quorum is flagged" true
    (r.Workload.Netchaos.total_flagged > 0);
  check int "no stuck runs" 0 r.Workload.Netchaos.total_stuck;
  match r.Workload.Netchaos.cells with
  | [ cell ] -> (
      match cell.Workload.Netchaos.counterexample with
      | None -> Alcotest.fail "flagged cell carries no counterexample"
      | Some cx ->
          check bool "minimizer shrank the schedule" true
            (Array.length cx.Workload.Netchaos.cx_script
            <= cx.Workload.Netchaos.cx_original_entries);
          (* The quorum override names the accused variant and is never
             minimized away. *)
          check bool "quorum override survives minimization" true
            (cx.Workload.Netchaos.cx_case.Workload.Netchaos.prof
               .Workload.Netchaos.quorum
            = Some 1);
          (* The one-line script round-trips and replays to the same
             verdict. *)
          let line = Workload.Netchaos.cx_to_string cx in
          let cx' =
            match Workload.Netchaos.cx_of_string line with
            | Ok cx' -> cx'
            | Error e -> Alcotest.fail ("cx_of_string: " ^ e)
          in
          check bool "round-tripped script replays to Flagged" true
            (match
               Workload.Netchaos.replay cx'.Workload.Netchaos.cx_case
                 ~script:cx'.Workload.Netchaos.cx_script
             with
            | Workload.Fault_campaign.Flagged _ -> true
            | _ -> false);
          Fault_goldens.check_rejects Workload.Netchaos.cx_of_string
            [
              ( "impl=anderson n=0 quorum=majority c=2 r=2 writes=2 scans=2 \
                 seed=1 script=",
                "net replay script: n=0 is below 1" );
              ( "impl=anderson n=3 quorum=majority c=2 r=2 writes=2 scans=2 \
                 seed=1 crashes=0:1,1:1 script=",
                "net replay script: Net.Sim.create: 2 silent replica(s) among \
                 3 \xe2\x80\x94 need f < n/2" );
              ( "impl=anderson n=3 quorum=4 c=2 r=2 writes=2 scans=2 seed=1 \
                 script=",
                "net replay script: bad quorum \"4\"" );
            ])
  | cells ->
      Alcotest.failf "expected 1 cell, got %d" (List.length cells)

(* A pinned, pre-minimized counterexample from the broken-quorum
   variant (captured by `net --broken-quorum --loss 0.3`): 54 scheduler
   picks that drive Anderson-over-ABD with a 1-replica write quorum
   into two Write Precedence violations.  Replaying it is a regression
   lock on the scheduler's canonical action enumeration — if the
   enumeration order ever changes, this diverges rather than silently
   passing. *)
let pinned_cx =
  "impl=anderson n=3 quorum=1 c=2 r=2 writes=2 scans=2 seed=5 label=cli \
   loss=0.3 crashes= \
   script=2,1,0,2,4,0,0,2,2,8,6,1,6,9,2,8,2,3,0,7,6,4,2,0,0,4,0,0,3,3,0,5,3,1,3,1,3,3,3,0,3,1,4,1,3,2,0,0,2,0,0,0,2,1"

let test_pinned_replay () =
  let cx =
    match Workload.Netchaos.cx_of_string pinned_cx with
    | Ok cx -> cx
    | Error e -> Alcotest.fail ("pinned cx_of_string: " ^ e)
  in
  match
    Workload.Netchaos.replay cx.Workload.Netchaos.cx_case
      ~script:cx.Workload.Netchaos.cx_script
  with
  | Workload.Fault_campaign.Flagged vs ->
      check bool "pinned script yields violations" true (vs <> [])
  | Workload.Fault_campaign.Passed -> Alcotest.fail "pinned counterexample passed"
  | Workload.Fault_campaign.Stuck_run m -> Alcotest.failf "pinned replay stuck: %s" m
  | Workload.Fault_campaign.Diverged m ->
      Alcotest.failf
        "pinned replay diverged (action enumeration changed?): %s" m

(* Every default [Netchaos] profile x {anderson, afek} x seeds 1-4, run
   as [Netchaos.run_once] records it: the network totals, the recorded
   schedule's length and MD5, and the rendered outcome.  A change to the
   scheduler's action enumeration, purge timing or any ABD message moves
   at least one of these lines. *)
let pinned_schedules =
  [
    "anderson none s1: steps=414 sent=420 delivered=414 lost=0 to_crashed=0 expired=6 timeouts=0 sched=418/f399644b195fb80498168aa101a8e60b -> passed";
    "anderson none s2: steps=415 sent=420 delivered=415 lost=0 to_crashed=0 expired=5 timeouts=0 sched=419/e7ce1043d45b4725d371e4cb4214a6da -> passed";
    "anderson none s3: steps=415 sent=420 delivered=415 lost=0 to_crashed=0 expired=5 timeouts=0 sched=419/07793434656f31a11bd8cc7b6dce7ef9 -> passed";
    "anderson none s4: steps=414 sent=420 delivered=414 lost=0 to_crashed=0 expired=6 timeouts=0 sched=418/0825cea29badd3f00dfbd8cc0c2b6d4b -> passed";
    "afek none s1: steps=427 sent=432 delivered=427 lost=0 to_crashed=0 expired=5 timeouts=0 sched=431/c78a2b771dd94fc93d7608f431980fa7 -> passed";
    "afek none s2: steps=475 sent=480 delivered=475 lost=0 to_crashed=0 expired=5 timeouts=0 sched=479/f1ae466a2c66be97a26637f85320db9b -> passed";
    "afek none s3: steps=474 sent=480 delivered=474 lost=0 to_crashed=0 expired=6 timeouts=0 sched=478/597cf78a43fe3d9b8ac1bc9cce123b03 -> passed";
    "afek none s4: steps=451 sent=456 delivered=451 lost=0 to_crashed=0 expired=5 timeouts=0 sched=455/391b42bf7cca60c61e584518cff9dd3b -> passed";
    "anderson loss s1: steps=381 sent=440 delivered=366 lost=71 to_crashed=0 expired=3 timeouts=15 sched=370/aeef84aded27c1e2f9c7d615c5eec9b0 -> passed";
    "anderson loss s2: steps=374 sent=426 delivered=364 lost=60 to_crashed=0 expired=2 timeouts=10 sched=368/dc77b488bdc8e727fb6c81293b2376fc -> passed";
    "anderson loss s3: steps=389 sent=442 delivered=375 lost=66 to_crashed=0 expired=1 timeouts=14 sched=379/1e52d8230876a7e42b3c3994e7a254db -> passed";
    "anderson loss s4: steps=379 sent=434 delivered=366 lost=65 to_crashed=0 expired=3 timeouts=13 sched=370/648348a30e41a3a7bfd6b38288f8a399 -> passed";
    "afek loss s1: steps=404 sent=462 delivered=387 lost=72 to_crashed=0 expired=3 timeouts=17 sched=391/e4852159e73abb7326ec6740db73228b -> passed";
    "afek loss s2: steps=401 sent=459 delivered=392 lost=63 to_crashed=0 expired=4 timeouts=9 sched=396/1c144ac2f28e00ea47c213987c955ca6 -> passed";
    "afek loss s3: steps=367 sent=419 delivered=358 lost=60 to_crashed=0 expired=1 timeouts=9 sched=362/d1f85ad733e4958ee57ae0de0e857fc4 -> passed";
    "afek loss s4: steps=397 sent=458 delivered=387 lost=69 to_crashed=0 expired=2 timeouts=10 sched=391/ea4fe4df37f0413bf7b285abc7cce45c -> passed";
    "anderson crash-last s1: steps=353 sent=353 delivered=286 lost=0 to_crashed=67 expired=0 timeouts=0 sched=357/6056d7776eecc189252a607652d7c582 -> passed";
    "anderson crash-last s2: steps=353 sent=353 delivered=286 lost=0 to_crashed=67 expired=0 timeouts=0 sched=357/d9bd545d621d5aeccc13c9fe2f90c8a7 -> passed";
    "anderson crash-last s3: steps=353 sent=353 delivered=286 lost=0 to_crashed=67 expired=0 timeouts=0 sched=357/90a96daee0007fbf3cfd327d62f00d78 -> passed";
    "anderson crash-last s4: steps=353 sent=353 delivered=286 lost=0 to_crashed=67 expired=0 timeouts=0 sched=357/674b0b9f21668763e128a614ad55339f -> passed";
    "afek crash-last s1: steps=443 sent=443 delivered=358 lost=0 to_crashed=85 expired=0 timeouts=0 sched=447/f5bfe02d364170d8558eaf9385767343 -> passed";
    "afek crash-last s2: steps=343 sent=343 delivered=278 lost=0 to_crashed=65 expired=0 timeouts=0 sched=347/a85e73f20a1db94192d22d242a283a40 -> passed";
    "afek crash-last s3: steps=363 sent=363 delivered=294 lost=0 to_crashed=69 expired=0 timeouts=0 sched=367/e897cce456b6eb88c3de27fe0f844079 -> passed";
    "afek crash-last s4: steps=383 sent=383 delivered=310 lost=0 to_crashed=73 expired=0 timeouts=0 sched=387/ac0fc99a9ec7a95e82c600257ae1d6c3 -> passed";
    "anderson crash+loss s1: steps=427 sent=442 delivered=301 lost=50 to_crashed=91 expired=0 timeouts=35 sched=396/7677de30c6f3d6bba289dfc0c9d8d3c3 -> passed";
    "anderson crash+loss s2: steps=426 sent=434 delivered=301 lost=39 to_crashed=94 expired=0 timeouts=31 sched=399/f1406e412858cf735f5577cd7fe0f893 -> passed";
    "anderson crash+loss s3: steps=419 sent=432 delivered=299 lost=43 to_crashed=90 expired=0 timeouts=30 sched=393/526e5e4ff4f07527e520888b305d4a63 -> passed";
    "anderson crash+loss s4: steps=426 sent=442 delivered=301 lost=49 to_crashed=92 expired=0 timeouts=33 sched=397/af43931a0920f5406d659c361b1b268f -> passed";
    "afek crash+loss s1: steps=443 sent=457 delivered=312 lost=50 to_crashed=95 expired=0 timeouts=36 sched=411/36f74b6d3abcfefa409aaa3ac0c306f7 -> passed";
    "afek crash+loss s2: steps=468 sent=481 delivered=342 lost=41 to_crashed=98 expired=0 timeouts=28 sched=444/e5cd9d1aa6161536843aa43d9ca029bb -> passed";
    "afek crash+loss s3: steps=468 sent=480 delivered=326 lost=50 to_crashed=104 expired=0 timeouts=38 sched=434/75675969c38363b2516cef4f8b22d0b4 -> passed";
    "afek crash+loss s4: steps=465 sent=479 delivered=328 lost=51 to_crashed=100 expired=0 timeouts=37 sched=432/20c5afbd6799b190ec6cee5bd2ddab39 -> passed";
    "anderson broken-quorum s1: steps=303 sent=416 delivered=293 lost=121 to_crashed=0 expired=2 timeouts=10 sched=297/8089eb64587a34b6a47c0676f9cc9232 -> passed";
    "anderson broken-quorum s2: steps=322 sent=444 delivered=305 lost=133 to_crashed=0 expired=6 timeouts=17 sched=309/1c78ed05ef2caf09dc2abb8a53b29bbe -> passed";
    "anderson broken-quorum s3: steps=292 sent=417 delivered=282 lost=130 to_crashed=0 expired=5 timeouts=10 sched=286/eba5d03128533c16006fed6180ea2159 -> passed";
    "anderson broken-quorum s4: steps=296 sent=414 delivered=286 lost=124 to_crashed=0 expired=4 timeouts=10 sched=290/06e492c7adfc8d98812198e46af0444d -> passed";
    "afek broken-quorum s1: steps=380 sent=526 delivered=361 lost=161 to_crashed=0 expired=4 timeouts=19 sched=365/b428c62193ff8124fb048c59538b269c -> passed";
    "afek broken-quorum s2: steps=315 sent=445 delivered=304 lost=134 to_crashed=0 expired=7 timeouts=11 sched=308/20f5a3b13f5e83d8244d470e1beb8e8f -> passed";
    "afek broken-quorum s3: steps=317 sent=458 delivered=307 lost=147 to_crashed=0 expired=4 timeouts=10 sched=311/2165eb4cfe9cef1d90764df6f532d91d -> passed";
    "afek broken-quorum s4: steps=334 sent=465 delivered=324 lost=137 to_crashed=0 expired=4 timeouts=10 sched=328/d154b3f6434a0ac54048c136ef59df0f -> passed";
  ]

let netchaos_case ?(impl = Workload.Campaign.Impl_anderson) ~profile ~seed ()
    =
  let d = Workload.Netchaos.default in
  {
    Workload.Netchaos.impl;
    prof =
      List.find
        (fun p -> p.Workload.Netchaos.label = profile)
        d.Workload.Netchaos.profiles;
    replicas = d.replicas;
    components = d.components;
    readers = d.readers;
    writes_per_writer = d.writes_per_writer;
    scans_per_reader = d.scans_per_reader;
    seed;
  }

let test_schedules_pinned () =
  let d = Workload.Netchaos.default in
  let line impl profile seed =
    let r =
      Workload.Netchaos.run_once (netchaos_case ~impl ~profile ~seed ())
    in
    let t = r.Workload.Netchaos.net in
    let sched = r.Workload.Netchaos.schedule in
    Printf.sprintf
      "%s %s s%d: steps=%d sent=%d delivered=%d lost=%d to_crashed=%d \
       expired=%d timeouts=%d sched=%d/%s -> %s"
      (Workload.Campaign.impl_name impl)
      profile seed t.Net.Sim.steps t.sent t.delivered t.lost t.to_crashed
      t.expired t.timeouts (Array.length sched)
      (Digest.to_hex
         (Digest.string
            (String.concat ","
               (Array.to_list (Array.map string_of_int sched)))))
      (Workload.Fault_campaign.render_outcome r.Workload.Netchaos.outcome)
  in
  let got =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun impl ->
            List.init 4 (fun i ->
                line impl p.Workload.Netchaos.label (i + 1)))
          d.Workload.Netchaos.impls)
      d.Workload.Netchaos.profiles
  in
  check (Alcotest.list Alcotest.string) "pinned network runs" pinned_schedules
    got

(* One network case end to end — ABD over the simulated network plus the
   judge — with every allocation counted.  With a rescan of the flight
   queue on every step, [Hashtbl] replica stores and span names built on
   every op it allocated 30,150 minor words; the bound is 80% of that. *)
let test_case_allocation_bound () =
  let case = netchaos_case ~profile:"loss" ~seed:5 () in
  ignore (Workload.Netchaos.run_once case);
  let before = Gc.minor_words () in
  let r = Workload.Netchaos.run_once case in
  let words = Gc.minor_words () -. before in
  check int "same run as ever (sends)" 423 r.Workload.Netchaos.net.Net.Sim.sent;
  check bool
    (Printf.sprintf "%.0f minor words per case <= 24120" words)
    true (words <= 24_120.)

(* ------------------------------------------------------------------ *)
(* Campaign over the net backend: job-count independence               *)
(* ------------------------------------------------------------------ *)

let test_campaign_net_jobs_identical () =
  let cfg =
    {
      Workload.Campaign.default with
      backend =
        Workload.Backend.net ~replicas:5 ~crash:1 ~loss:0.1 ();
      schedules = 6;
    }
  in
  let r1 = Workload.Campaign.run ~jobs:1 cfg in
  let r4 = Workload.Campaign.run ~jobs:4 cfg in
  check bool "net campaign result independent of jobs" true (r1 = r4);
  check int "no violations over the net backend" 0
    r1.Workload.Campaign.flagged_runs;
  check int "no stuck runs over the net backend" 0
    r1.Workload.Campaign.stuck_runs

(* ------------------------------------------------------------------ *)
(* Scheduler cost and unwinding                                         *)
(* ------------------------------------------------------------------ *)

(* The fixed run of [test_determinism]: two ABD clients, 5 replicas,
   20% loss and a crash.  With a list-backed flight queue and
   per-step action lists it allocated 45.6k minor words; the bound is
   half of that. *)
let test_allocation_bound () =
  let run () =
    let env =
      mk_env ~loss:0.2 ~crashes:[ (2, 4) ] ~replicas:5 ~seed:11 ()
    in
    let abd = Net.Abd.create env in
    let mem = Net.Abd.memory abd in
    let client name base () =
      let c = mem.Csim.Memory.make ~name ~bits:64 0 in
      for v = 1 to 5 do
        c.Csim.Memory.write (base + v);
        ignore (c.Csim.Memory.read ())
      done
    in
    Net.Sim.run env ~policy:(Csim.Schedule.Random 99)
      [| client "a" 0; client "b" 100 |]
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let st = run () in
  let words = Gc.minor_words () -. before in
  check int "same run as ever (sends)" 290 st.Net.Sim.sent;
  check int "same run as ever (steps)" 256 st.Net.Sim.steps;
  check bool
    (Printf.sprintf "%.0f minor words per run <= 22800" words)
    true (words <= 22_800.)

type Net.Sim.payload += Ping

(* A client blocked in [recv] when [run] raises is unwound: its
   finaliser runs exactly once. *)
let test_recv_unwound () =
  let silent () =
    let env = mk_env ~replicas:1 ~seed:1 () in
    Net.Sim.set_handler env (fun ~replica:_ ~src:_ _ -> []);
    env
  in
  let finals = ref 0 in
  let waiter () =
    Fun.protect
      ~finally:(fun () -> incr finals)
      (fun () ->
        Net.Sim.send 0 Ping;
        while true do
          ignore (Net.Sim.recv ())
        done)
  in
  (* Nothing ever answers, so timeouts run the step budget out. *)
  let stuck =
    try
      ignore (Net.Sim.run (silent ()) ~max_steps:50 [| waiter |]);
      false
    with Net.Sim.Stuck _ -> true
  in
  check bool "stuck detected" true stuck;
  check int "the stuck client was unwound once" 1 !finals;
  finals := 0;
  (* Client 0 starts and blocks in [recv]; action 5 does not exist. *)
  let bad =
    try
      ignore
        (Net.Sim.run (silent ())
           ~policy:
             (Csim.Schedule.Scripted ([| 0; 5 |], Csim.Schedule.Round_robin))
           [| waiter; waiter |]);
      false
    with Csim.Schedule.Bad_script _ -> true
  in
  check bool "bad script rejected" true bad;
  check int "the blocked client was unwound once" 1 !finals

(* Every message is between a replica and a started client, which is
   what lets the scheduler count its actions without a scan: a handler
   reply to a client that has not started is rejected. *)
let test_reply_to_unstarted_rejected () =
  let env = mk_env ~replicas:1 ~seed:1 () in
  Net.Sim.set_handler env (fun ~replica:_ ~src:_ _ -> [ (1, Ping) ]);
  let client () =
    Net.Sim.send 0 Ping;
    ignore (Net.Sim.recv ())
  in
  (* Start client 0, then deliver its request (action 1: client 1 is
     still unstarted at action 0). *)
  let rejected =
    try
      ignore
        (Net.Sim.run env
           ~policy:
             (Csim.Schedule.Scripted ([| 0; 1 |], Csim.Schedule.Round_robin))
           [| client; client |]);
      false
    with Invalid_argument _ -> true
  in
  check bool "reply to an unstarted client rejected" true rejected

(* ------------------------------------------------------------------ *)
(* Golden campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* [Fault_goldens.net] — report, counterexamples, replay lines and
   metrics — as rendered when each fault substrate still had its own
   campaign module: the shared engine must reproduce every string byte
   for byte. *)
let pinned_net_campaign =
  {
    Fault_goldens.report =
      String.concat "\n"
        [
          "anderson           none             runs=6    flagged=0    stuck=0    msgs=2520 lost=0";
          "anderson           broken-quorum    runs=6    flagged=1    stuck=0    msgs=2490 lost=739";
          "anderson           forge            runs=6    flagged=6    stuck=0    msgs=2520 lost=0";
          "total: runs=18 flagged=7 stuck=0";
        ];
    cx_lines =
      [
        "impl=anderson n=3 quorum=1 c=2 r=2 writes=2 scans=2 seed=5 label=broken-quorum loss=0.3 crashes= byz= script=2,1,0,2,4,0,0,2,2,8,6,1,6,9,2,8,2,3,0,7,6,4,2,0,0,4,0,0,3,3,0,5,3,1,3,1,3,3,3,0,3,1,4,1,3,2,0,0,2,0,0,0,2,1";
        "impl=anderson n=3 quorum=majority c=2 r=2 writes=2 scans=2 seed=1 label=forge loss=0 crashes= byz=0:forge script=";
      ];
    cx_reports =
      [
        String.concat "\n"
          [
            "minimized counterexample: impl=anderson profile=broken-quorum n=3 quorum=1";
            "fault elements: 1 (from 1)  message-schedule entries: 54 (from 292)  minimizer replays: 200";
            "loss=0.3 crashes=[] byz=[] seed=5";
            "violations of the minimized run:";
            "Write Precedence: Read by p0 orders a 1-Write against a 0-Write that precedes it";
            "Write Precedence: Read by p0 orders a 1-Write against a 0-Write that precedes it";
            "replay with:";
            "  net --replay 'impl=anderson n=3 quorum=1 c=2 r=2 writes=2 scans=2 seed=5 label=broken-quorum loss=0.3 crashes= byz= script=2,1,0,2,4,0,0,2,2,8,6,1,6,9,2,8,2,3,0,7,6,4,2,0,0,4,0,0,3,3,0,5,3,1,3,1,3,3,3,0,3,1,4,1,3,2,0,0,2,0,0,0,2,1'";
          ];
        String.concat "\n"
          [
            "minimized counterexample: impl=anderson profile=forge n=3 quorum=majority";
            "fault elements: 1 (from 1)  message-schedule entries: 0 (from 418)  minimizer replays: 22";
            "loss=0 crashes=[] byz=[0:forge] seed=1";
            "violations of the minimized run:";
            "Proximity: Read by p0 returned overwritten id 0 for component 1 (Write id 1 precedes the Read)";
            "Proximity: Read by p0 returned overwritten id 0 for component 1 (Write id 2 precedes the Read)";
            "Proximity: Read by p0 returned overwritten id 0 for component 0 (Write id 1 precedes the Read)";
            "Proximity: Read by p1 returned overwritten id 0 for component 1 (Write id 1 precedes the Read)";
            "Proximity: Read by p1 returned overwritten id 0 for component 1 (Write id 2 precedes the Read)";
            "Proximity: Read by p1 returned overwritten id 0 for component 0 (Write id 1 precedes the Read)";
            "Proximity: Read by p1 returned overwritten id 0 for component 0 (Write id 2 precedes the Read)";
            "Read Precedence: Reads by p0 and p0 obtained inconsistent snapshots (component 1)";
            "Read Precedence: Reads by p0 and p1 obtained inconsistent snapshots (component 1)";
            "replay with:";
            "  net --replay 'impl=anderson n=3 quorum=majority c=2 r=2 writes=2 scans=2 seed=1 label=forge loss=0 crashes= byz=0:forge script='";
          ];
      ];
    metrics =
      String.concat "\n"
        [
          "{\"type\":\"counter\",\"name\":\"netchaos.byz.replica0\",\"value\":420}";
          "{\"type\":\"counter\",\"name\":\"netchaos.byz_lies\",\"value\":420}";
          "{\"type\":\"counter\",\"name\":\"netchaos.flagged\",\"value\":7}";
          "{\"type\":\"counter\",\"name\":\"netchaos.msgs_lost\",\"value\":739}";
          "{\"type\":\"counter\",\"name\":\"netchaos.msgs_sent\",\"value\":7530}";
          "{\"type\":\"counter\",\"name\":\"netchaos.runs\",\"value\":18}";
          "{\"type\":\"histogram\",\"name\":\"netchaos.scan.latency\",\"value\":{\"count\":72,\"min\":52,\"max\":281,\"mean\":176.54166666666666,\"p10\":63,\"p50\":188,\"p90\":244,\"p99\":280,\"p999\":280}}";
          "{\"type\":\"histogram\",\"name\":\"netchaos.schedule_entries\",\"value\":{\"count\":18,\"min\":274,\"max\":419,\"mean\":373.3333333333333,\"p10\":280,\"p50\":416,\"p90\":416,\"p99\":416,\"p999\":416}}";
          "{\"type\":\"counter\",\"name\":\"netchaos.stuck\",\"value\":0}";
          "{\"type\":\"histogram\",\"name\":\"netchaos.update.latency\",\"value\":{\"count\":72,\"min\":3,\"max\":192,\"mean\":73.38888888888889,\"p10\":6,\"p50\":35,\"p90\":172,\"p99\":192,\"p999\":192}}";
          "";
        ];
  }

let test_golden_replayed () =
  Fault_goldens.check_replayed "net" (Fault_goldens.net_replayed ())

let test_golden_campaign () =
  Fault_goldens.check_same "net" ~expected:pinned_net_campaign
    (Fault_goldens.net ~jobs:1)

let () =
  Alcotest.run "net"
    [
      ( "abd",
        [
          Alcotest.test_case "solo write/read" `Quick test_solo_write_read;
          Alcotest.test_case "exact message bound" `Quick
            test_message_bound_per_op;
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
          Alcotest.test_case "fault validation" `Quick test_crash_validation;
          Alcotest.test_case "minority crash masked" `Quick test_crash_masked;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "allocation bound" `Quick test_allocation_bound;
          Alcotest.test_case "blocked client unwound" `Quick test_recv_unwound;
          Alcotest.test_case "reply to unstarted client rejected" `Quick
            test_reply_to_unstarted_rejected;
        ] );
      ( "linearizability",
        [ QCheck_alcotest.to_alcotest qcheck_abd_linearizable ] );
      ( "reconfig",
        [
          Alcotest.test_case "solo handover + shrink" `Quick test_reconfig_solo;
          Alcotest.test_case "member-set validation" `Quick
            test_reconfig_validation;
          Alcotest.test_case "linearizable under load + crash" `Quick
            test_reconfig_under_load_linearizable;
          Alcotest.test_case "composite over reconfiguring quorums" `Quick
            test_reconfig_composite_smoke;
        ] );
      ( "netchaos",
        [
          Alcotest.test_case "broken quorum flagged + minimized" `Slow
            test_broken_quorum_flagged;
          Alcotest.test_case "pinned counterexample replays" `Quick
            test_pinned_replay;
          Alcotest.test_case "schedules pinned" `Quick test_schedules_pinned;
          Alcotest.test_case "case allocation bound" `Quick
            test_case_allocation_bound;
          Alcotest.test_case "campaign jobs-independent" `Slow
            test_campaign_net_jobs_identical;
          Alcotest.test_case "golden campaign" `Quick test_golden_campaign;
          Alcotest.test_case "golden violations equal a fresh replay" `Quick
            test_golden_replayed;
        ] );
    ]
