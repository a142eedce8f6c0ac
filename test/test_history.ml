(* Unit tests for operation records, the generic linearizability
   checker, and the regularity checker (lib/history). *)

open History

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let op ?(proc = 0) ?(label = "op") input output inv res =
  Oprec.v ~proc ~label ~input ~output ~inv ~res

(* ------------------------------------------------------------------ *)
(* Oprec                                                                *)
(* ------------------------------------------------------------------ *)

let test_precedence () =
  let a = op 0 () 0 10 and b = op 0 () 10 20 and c = op 0 () 5 15 in
  check bool "a precedes b" true (Oprec.precedes a b);
  check bool "b not precedes a" false (Oprec.precedes b a);
  check bool "a concurrent c" true (Oprec.concurrent a c);
  check bool "b concurrent c" true (Oprec.concurrent b c)

let test_bad_interval () =
  Alcotest.check_raises "res < inv" (Invalid_argument "Oprec.v: res < inv")
    (fun () -> ignore (op 0 () 10 5))

let test_well_formed () =
  let mk proc inv res = Oprec.v ~proc ~label:"" ~input:() ~output:() ~inv ~res in
  check bool "serial per proc" true
    (Oprec.well_formed [ mk 0 0 5; mk 0 5 9; mk 1 2 3 ]);
  check bool "overlap same proc" false
    (Oprec.well_formed [ mk 0 0 5; mk 0 4 9 ])

let test_tighten_intervals () =
  let open Csim in
  let env = Sim.create () in
  let c = Sim.make_cell env "c" 0 in
  let t0 = ref 0 and t1 = ref 0 in
  let (_ : Sim.stats) =
    Sim.run_solo env (fun () ->
        t0 := Sim.now env;
        Sim.write c 1;
        Sim.write c 2;
        t1 := Sim.now env)
  in
  let o = Oprec.v ~proc:0 ~label:"w" ~input:() ~output:() ~inv:!t0 ~res:(!t1 + 5) in
  match Oprec.tighten_intervals (Sim.trace env) [ o ] with
  | [ o' ] ->
    check int "inv tightened to first event" 0 o'.Oprec.inv;
    check int "res tightened to one past last" 2 o'.Oprec.res
  | _ -> Alcotest.fail "expected one op"

(* ------------------------------------------------------------------ *)
(* Generic checker: registers                                           *)
(* ------------------------------------------------------------------ *)

let reg_spec = Linearize.register_spec ~equal:Int.equal

let wr ?proc v inv res =
  op ?proc ~label:"w" (Linearize.Reg_write v) Linearize.Reg_done inv res

let rd ?proc v inv res =
  op ?proc ~label:"r" Linearize.Reg_read (Linearize.Reg_value v) inv res

let test_register_sequential () =
  check bool "write then read" true
    (Linearize.is_linearizable reg_spec ~init:0 [ wr 1 0 1; rd 1 2 3 ]);
  check bool "read initial" true
    (Linearize.is_linearizable reg_spec ~init:7 [ rd 7 0 1 ]);
  check bool "stale read rejected" false
    (Linearize.is_linearizable reg_spec ~init:0 [ wr 1 0 1; rd 0 2 3 ])

let test_register_overlap () =
  (* A read overlapping a write may return old or new. *)
  check bool "overlapping read old" true
    (Linearize.is_linearizable reg_spec ~init:0 [ wr 1 0 10; rd 0 2 3 ]);
  check bool "overlapping read new" true
    (Linearize.is_linearizable reg_spec ~init:0 [ wr 1 0 10; rd 1 2 3 ]);
  check bool "overlapping read other" false
    (Linearize.is_linearizable reg_spec ~init:0 [ wr 1 0 10; rd 9 2 3 ])

let test_register_new_old_inversion () =
  (* Two sequential reads during one write must not observe new then
     old — the classic atomicity (vs regularity) separation. *)
  let ops = [ wr 1 0 100; rd 1 ~proc:1 10 20; rd 0 ~proc:1 30 40 ] in
  check bool "new-then-old not atomic" false
    (Linearize.is_linearizable reg_spec ~init:0 ops);
  check bool "but it is regular" true (Regularity.check ~equal:Int.equal ~init:0 ops)

let test_regularity_violation () =
  (* A read overlapping nothing must return the latest preceding value. *)
  let ops = [ wr 1 0 1; rd 0 2 3 ] in
  check bool "stale non-overlapping read is not regular" false
    (Regularity.check ~equal:Int.equal ~init:0 ops);
  check int "one violation" 1
    (List.length (Regularity.violations ~equal:Int.equal ~init:0 ops));
  (* Any value from an overlapping write is fine. *)
  check bool "overlap allows new" true
    (Regularity.check ~equal:Int.equal ~init:0 [ wr 5 0 10; rd 5 1 2 ])

(* ------------------------------------------------------------------ *)
(* Generic checker: snapshots                                           *)
(* ------------------------------------------------------------------ *)

let snap_spec = Linearize.snapshot_spec ~equal:Int.equal

let up ?proc k v inv res =
  op ?proc ~label:"up" (Linearize.Update (k, v)) Linearize.Done inv res

let sc ?proc vs inv res =
  op ?proc ~label:"sc" Linearize.Scan (Linearize.View (Array.of_list vs)) inv res

let test_snapshot_sequential () =
  check bool "scan initial" true
    (Linearize.is_linearizable snap_spec ~init:[| 0; 0 |] [ sc [ 0; 0 ] 0 1 ]);
  check bool "update then scan" true
    (Linearize.is_linearizable snap_spec ~init:[| 0; 0 |]
       [ up 0 5 0 1; sc [ 5; 0 ] 2 3 ]);
  check bool "scan missing update" false
    (Linearize.is_linearizable snap_spec ~init:[| 0; 0 |]
       [ up 0 5 0 1; sc [ 0; 0 ] 2 3 ])

let test_snapshot_torn_read () =
  (* The canonical torn snapshot: two sequential updates; a scan
     overlapping neither boundary cannot see {new first, old second}
     once the second update precedes a visible first... construct the
     classic inconsistency: scan sees u1 but not u0 although u0
     completed before u1 started. *)
  let ops = [ up 0 1 0 1; up 1 2 2 3; sc [ 0; 2 ] 4 5 ] in
  check bool "torn snapshot rejected" false
    (Linearize.is_linearizable snap_spec ~init:[| 0; 0 |] ops)

let test_snapshot_concurrent_ok () =
  let ops = [ up 0 1 0 10; up 1 2 0 10; sc [ 1; 0 ] 2 3 ] in
  check bool "partial concurrent view ok" true
    (Linearize.is_linearizable snap_spec ~init:[| 0; 0 |] ops)

let test_snapshot_read_precedence_violation () =
  (* Two sequential scans observing updates in opposite orders. *)
  let ops =
    [
      up 0 1 0 100; up 1 2 0 100;
      sc [ 1; 0 ] ~proc:1 10 20; sc [ 0; 2 ] ~proc:1 30 40;
    ]
  in
  check bool "inconsistent snapshot pair rejected" false
    (Linearize.is_linearizable snap_spec ~init:[| 0; 0 |] ops)

let test_witness_order () =
  match Linearize.check snap_spec ~init:[| 0 |] [ up 0 9 0 1; sc [ 9 ] 2 3 ] with
  | Linearize.Linearizable order ->
    check int "witness contains both ops" 2 (List.length order);
    (match order with
    | first :: _ ->
      check bool "update first" true (first.Oprec.label = "up")
    | [] -> Alcotest.fail "empty witness")
  | _ -> Alcotest.fail "expected linearizable"

let test_too_large () =
  let ops = List.init 63 (fun i -> up 0 i (2 * i) ((2 * i) + 1)) in
  (match Linearize.check snap_spec ~init:[| 0 |] ops with
  | Linearize.Too_large -> ()
  | _ -> Alcotest.fail "expected Too_large");
  Alcotest.check_raises "is_linearizable raises"
    (Invalid_argument "Linearize.is_linearizable: history too large")
    (fun () -> ignore (Linearize.is_linearizable snap_spec ~init:[| 0 |] ops))

let test_counter_spec () =
  let spec = Linearize.counter_spec in
  let inc d inv res = op ~label:"i" (Linearize.Incr d) Linearize.Incr_done inv res in
  let get v inv res = op ~label:"g" Linearize.Get (Linearize.Count v) inv res in
  check bool "increments sum" true
    (Linearize.is_linearizable spec ~init:0 [ inc 2 0 1; inc 3 2 3; get 5 4 5 ]);
  check bool "concurrent get sees either" true
    (Linearize.is_linearizable spec ~init:0 [ inc 2 0 10; get 0 1 2 ]);
  check bool "impossible count" false
    (Linearize.is_linearizable spec ~init:0 [ inc 2 0 1; get 1 2 3 ])

let test_memoization_scales () =
  (* 24 concurrent ops with a state space that would explode without
     memoization: all updates to the same component with the same value,
     scans matching. *)
  let ops =
    List.init 12 (fun i -> up 0 1 0 (100 + i))
    @ List.init 12 (fun i -> sc [ 1 ] 50 (60 + i))
  in
  check bool "completes quickly" true
    (match Linearize.check snap_spec ~init:[| 1 |] ops with
    | Linearize.Linearizable _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Generic checker on recorded campaign histories                       *)
(* ------------------------------------------------------------------ *)

(* The history one shared-memory campaign schedule records, at the
   shape the verify-campaign benchmark checks: C = 2, R = 2, two writes
   per writer, two scans per reader, [Schedule.Random seed]. *)
let recorded_history impl seed =
  let open Csim in
  let env = Sim.create ~trace:false () in
  let rec_, procs =
    Workload.Campaign.workload
      ~clock:(fun () -> Sim.now env)
      impl (Memory.of_sim env) ~components:2 ~readers:2 ~writes:2 ~scans:2
  in
  let (_ : Sim.stats) =
    Sim.run env ~policy:(Schedule.Random seed) ~max_steps:1_000_000 procs
  in
  Composite.Snapshot.history rec_

(* Verdicts and witnesses of [Linearize.check] over seeds 1-100 of each
   implementation: the count of each verdict, and an MD5 over every
   witness's (label, proc, inv) sequence in seed order.  The memo and
   search order may change how fast a verdict comes, never which one or
   which witness. *)
let test_pinned_verdicts () =
  let init = [| 10; 20 |] in
  List.iter
    (fun (impl, lin, not_lin, digest) ->
      let name = Workload.Campaign.impl_name impl in
      let buf = Buffer.create 4096 in
      let yes = ref 0 and no = ref 0 in
      for seed = 1 to 100 do
        let ops =
          History.Snapshot_history.to_ops (recorded_history impl seed)
        in
        match Linearize.check snap_spec ~init ops with
        | Linearize.Linearizable w ->
          incr yes;
          List.iter
            (fun (o : _ Oprec.t) ->
              Printf.bprintf buf "%s/%d/%d;" o.Oprec.label o.Oprec.proc
                o.Oprec.inv)
            w;
          Buffer.add_char buf '|'
        | Linearize.Not_linearizable ->
          incr no;
          Buffer.add_string buf "X|"
        | Linearize.Too_large -> Alcotest.fail "8-op history too large"
      done;
      check int (name ^ ": linearizable") lin !yes;
      check int (name ^ ": not linearizable") not_lin !no;
      check Alcotest.string (name ^ ": witnesses") digest
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [
      (Workload.Campaign.Impl_anderson, 100, 0, "9170eaed07b0ac25d3d9733a0fbebf80");
      (Workload.Campaign.Impl_afek, 100, 0, "7cc42d968f487ed939cd6fef45fcbe92");
      (Workload.Campaign.Impl_unsafe_collect, 84, 16, "1f09de453d3cec0a8f104fa00f8cbd95");
    ]

(* One check of an 8-op history must not go to the major heap: its
   search visits at most 2^8 masks, so a memo sized to the search stays
   in the minor heap.  The first non-linearizable unsafe-collect
   history is used, because a rejected history memoizes every state the
   search backs out of.  A memo created at 4,096 buckets put ~4,100
   words per check straight into the major heap. *)
let test_check_major_words () =
  let init = [| 10; 20 |] in
  let ops =
    let rec first seed =
      let ops =
        History.Snapshot_history.to_ops
          (recorded_history Workload.Campaign.Impl_unsafe_collect seed)
      in
      match Linearize.check snap_spec ~init ops with
      | Linearize.Not_linearizable -> ops
      | _ -> first (seed + 1)
    in
    first 1
  in
  check int "an 8-op history" 8 (List.length ops);
  let calls = 1_000 in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Linearize.check snap_spec ~init ops))
  done;
  let per_call =
    ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int calls
  in
  if per_call > 64. then
    Alcotest.failf "%.1f major words per check, bound 64" per_call

(* ------------------------------------------------------------------ *)
(* qcheck: random histories agree with a reference simulation            *)
(* ------------------------------------------------------------------ *)

let qcheck_sequential_histories =
  (* Any history generated by a sequential execution is linearizable. *)
  QCheck2.Test.make ~count:200 ~name:"sequential histories linearizable"
    QCheck2.Gen.(list_size (int_range 1 15) (pair (int_range 0 2) (int_range 0 9)))
    (fun cmds ->
      let state = [| 0; 0; 0 |] in
      let t = ref 0 in
      let ops =
        List.map
          (fun (k, v) ->
            let inv = !t in
            incr t;
            let res = !t in
            incr t;
            if v = 0 then begin
              (* scan *)
              sc (Array.to_list state) inv res
            end
            else begin
              state.(k) <- v;
              up k v inv res
            end)
          cmds
      in
      Linearize.is_linearizable snap_spec ~init:[| 0; 0; 0 |] ops)

let qcheck_shuffled_reads =
  (* Concurrent scans of a fixed state all agree. *)
  QCheck2.Test.make ~count:100 ~name:"concurrent identical scans linearizable"
    QCheck2.Gen.(int_range 1 10)
    (fun n ->
      let ops = List.init n (fun i -> sc [ 3; 4 ] ~proc:i 0 10) in
      Linearize.is_linearizable snap_spec ~init:[| 3; 4 |] ops)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "history"
    [
      ( "oprec",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "bad interval" `Quick test_bad_interval;
          Alcotest.test_case "well-formed" `Quick test_well_formed;
          Alcotest.test_case "tighten intervals" `Quick test_tighten_intervals;
        ] );
      ( "register",
        [
          Alcotest.test_case "sequential" `Quick test_register_sequential;
          Alcotest.test_case "overlap" `Quick test_register_overlap;
          Alcotest.test_case "new-old inversion" `Quick
            test_register_new_old_inversion;
          Alcotest.test_case "regularity violations" `Quick
            test_regularity_violation;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "sequential" `Quick test_snapshot_sequential;
          Alcotest.test_case "torn read" `Quick test_snapshot_torn_read;
          Alcotest.test_case "concurrent ok" `Quick test_snapshot_concurrent_ok;
          Alcotest.test_case "read precedence" `Quick
            test_snapshot_read_precedence_violation;
          Alcotest.test_case "witness order" `Quick test_witness_order;
          Alcotest.test_case "too large" `Quick test_too_large;
          Alcotest.test_case "counter spec" `Quick test_counter_spec;
          Alcotest.test_case "memoization" `Quick test_memoization_scales;
        ] );
      ( "linearize",
        [
          Alcotest.test_case "verdicts and witnesses pinned" `Quick
            test_pinned_verdicts;
          Alcotest.test_case "major heap per check" `Quick
            test_check_major_words;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_sequential_histories; qcheck_shuffled_reads ] );
    ]
