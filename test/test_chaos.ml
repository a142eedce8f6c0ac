(* The chaos layer: faulty-memory wrappers (lib/sim/faults.ml), the
   stall/resume + starvation machinery they ride on, and the chaos
   campaign with its counterexample minimizer (lib/workload/chaos.ml).

   The headline assertions mirror the robustness claim: on atomic
   memory the paper's constructions survive every process-fault
   profile (crash, stall — that is the theorem), while every
   memory-fault profile, and the deliberately unsafe double collect
   even on healthy memory, is caught by the Shrinking oracle — and the
   minimized counterexample replays deterministically. *)

open Csim

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Faulty cells over direct memory                                      *)
(* ------------------------------------------------------------------ *)

let wrap_one ?(seed = 1) injections =
  let mem, counters = Faults.wrap ~seed injections (Memory.direct ()) in
  (mem, counters)

let inj ?(target = Faults.All) kind = { Faults.kind; target }

let test_lost_write () =
  let mem, counters = wrap_one [ inj (Faults.Lost_write { prob = 1.0 }) ] in
  let c = mem.Memory.make ~name:"c" ~bits:8 0 in
  c.Memory.write 5;
  check int "write dropped" 0 (c.Memory.read ());
  check int "counted" 1 counters.Faults.lost;
  check int "total fired" 1 (Faults.fired counters)

let test_stuck_at () =
  let mem, counters = wrap_one [ inj (Faults.Stuck_at { after = 1 }) ] in
  let c = mem.Memory.make ~name:"c" ~bits:8 0 in
  c.Memory.write 1;
  check int "first write lands" 1 (c.Memory.read ());
  c.Memory.write 2;
  c.Memory.write 3;
  check int "then frozen" 1 (c.Memory.read ());
  check int "two frozen writes" 2 counters.Faults.frozen

let test_corrupt_read () =
  let mem, counters = wrap_one [ inj (Faults.Corrupt { prob = 1.0 }) ] in
  let c = mem.Memory.make ~name:"c" ~bits:8 7 in
  c.Memory.write 42;
  check int "read glitches to the initial value" 7 (c.Memory.read ());
  check int "peek sees the truth" 42 (c.Memory.peek ());
  check bool "counted" true (counters.Faults.corrupted > 0)

let test_stutter_reverts () =
  let mem, counters = wrap_one [ inj (Faults.Stutter { prob = 1.0 }) ] in
  let c = mem.Memory.make ~name:"c" ~bits:8 0 in
  c.Memory.write 1;
  (* The previous value (0) is re-delivered right after the write. *)
  check int "old write re-delivered late" 0 (c.Memory.read ());
  check int "counted" 1 counters.Faults.stuttered

let test_regular_weakening () =
  let mem, counters = wrap_one ~seed:3 [ inj (Faults.Regular { window = 2 }) ] in
  let c = mem.Memory.make ~name:"c" ~bits:8 0 in
  let ok = ref true in
  for v = 1 to 20 do
    c.Memory.write v;
    for _ = 1 to 3 do
      let r = c.Memory.read () in
      (* A read returns the current or the previous value, nothing else. *)
      if r <> v && r <> v - 1 then ok := false
    done
  done;
  check bool "reads are new-or-old only" true !ok;
  check bool "some reads were stale" true (counters.Faults.stale > 0)

let test_targeting () =
  let mem, counters =
    wrap_one
      [
        inj ~target:(Faults.Prefix "Y") (Faults.Lost_write { prob = 1.0 });
        inj ~target:(Faults.Exact "Z") (Faults.Corrupt { prob = 1.0 });
      ]
  in
  let y = mem.Memory.make ~name:"Y[0]" ~bits:8 0 in
  let z = mem.Memory.make ~name:"Z" ~bits:8 0 in
  let z2 = mem.Memory.make ~name:"Z2" ~bits:8 0 in
  y.Memory.write 1;
  z.Memory.write 1;
  z2.Memory.write 1;
  check int "prefix match loses the write" 0 (y.Memory.read ());
  check int "exact match corrupts the read" 0 (z.Memory.read ());
  check int "near-miss name untouched" 1 (z2.Memory.read ());
  check int "fired" 2 (Faults.fired counters)

let test_healthy_passthrough () =
  let mem, counters = wrap_one [] in
  let c = mem.Memory.make ~name:"c" ~bits:8 0 in
  c.Memory.write 9;
  check int "no-injection wrapper is transparent" 9 (c.Memory.read ());
  check int "nothing fired" 0 (Faults.fired counters)

let test_spec_roundtrip () =
  List.iter
    (fun i ->
      match Faults.injection_of_string (Faults.injection_to_string i) with
      | Ok i' ->
        check bool
          ("round-trips: " ^ Faults.injection_to_string i)
          true (i = i')
      | Error e -> Alcotest.fail e)
    [
      inj (Faults.Lost_write { prob = 0.25 });
      inj (Faults.Stuck_at { after = 3 });
      inj ~target:(Faults.Prefix "Y") (Faults.Stutter { prob = 0.5 });
      inj ~target:(Faults.Exact "Z[1]") (Faults.Regular { window = 2 });
      inj (Faults.Corrupt { prob = 0.05 });
    ];
  List.iter
    (fun s ->
      match Faults.injection_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted bad spec " ^ s))
    [ "lost"; "lost:2.0"; "stuck:-1"; "frob:0.1"; "regular:x" ]

(* ------------------------------------------------------------------ *)
(* Faults inside the simulator                                          *)
(* ------------------------------------------------------------------ *)

let test_faults_deterministic_in_sim () =
  (* Same schedule seed + same fault seed = same trace and counters. *)
  let run () =
    let env = Sim.create () in
    let mem, counters =
      Faults.wrap ~seed:5
        [ inj (Faults.Lost_write { prob = 0.3 }) ]
        (Memory.of_sim env)
    in
    let c = mem.Memory.make ~name:"c" ~bits:8 0 in
    let out = ref [] in
    let writer () =
      for v = 1 to 10 do
        c.Memory.write v
      done
    in
    let reader () =
      for _ = 1 to 10 do
        out := c.Memory.read () :: !out
      done
    in
    let (_ : Sim.stats) =
      Sim.run env ~policy:(Schedule.Random 11) [| writer; reader |]
    in
    (!out, counters.Faults.lost)
  in
  let a = run () and b = run () in
  check bool "identical replays" true (a = b);
  check bool "faults actually fired" true (snd a > 0)

(* ------------------------------------------------------------------ *)
(* The campaign: correct implementations survive process faults         *)
(* ------------------------------------------------------------------ *)

let process_fault_profiles =
  List.filter
    (fun p -> not (Workload.Chaos.faulty_memory p))
    (Workload.Chaos.default_profiles ~components:2 ~readers:2)

let memory_fault_profiles =
  List.filter Workload.Chaos.faulty_memory
    (Workload.Chaos.default_profiles ~components:2 ~readers:2)

let test_profile_taxonomy () =
  (* "none", three crash variants, three stall variants / five memory
     fault kinds — keep the split honest if profiles are added. *)
  check bool "several process-fault profiles" true
    (List.length process_fault_profiles >= 7);
  check int "one profile per fault kind" 5 (List.length memory_fault_profiles);
  check bool "none profile is a process-fault profile" true
    (List.exists (fun (p : Workload.Chaos.profile) -> p.label = "none")
       process_fault_profiles)

let test_correct_impls_survive_process_faults () =
  (* The acceptance matrix: anderson and afek, all-atomic memory, every
     fault-free and crash/stall config — zero violations, zero stuck. *)
  let r =
    Workload.Chaos.run
      {
        Workload.Chaos.default with
        impls = [ Workload.Campaign.Impl_anderson; Workload.Campaign.Impl_afek ];
        profiles = process_fault_profiles;
        seeds = 6;
        minimize_budget = 0;
      }
  in
  check bool "ran the full matrix" true (r.Workload.Chaos.total_runs >= 84);
  check int "zero linearizability violations" 0 r.Workload.Chaos.total_flagged;
  check int "zero stuck runs" 0 r.Workload.Chaos.total_stuck

(* ------------------------------------------------------------------ *)
(* The campaign: violations are caught, minimized, and replayable       *)
(* ------------------------------------------------------------------ *)

let flagged_cx ~impl ~profiles ~seeds =
  let r =
    Workload.Chaos.run
      { Workload.Chaos.default with impls = [ impl ]; profiles; seeds }
  in
  check bool "campaign flags at least one run" true
    (r.Workload.Chaos.total_flagged > 0);
  let cell =
    List.find
      (fun (c : Workload.Chaos.cell) -> c.counterexample <> None)
      r.Workload.Chaos.cells
  in
  Option.get cell.Workload.Chaos.counterexample

let violations_of = function
  | Workload.Fault_campaign.Flagged vs ->
    Format.asprintf "%a"
      (Format.pp_print_list History.Shrinking.pp_violation)
      vs
  | Workload.Fault_campaign.Passed -> Alcotest.fail "replay passed: not reproduced"
  | Workload.Fault_campaign.Stuck_run m -> Alcotest.fail ("replay stuck: " ^ m)
  | Workload.Fault_campaign.Diverged m -> Alcotest.fail ("replay diverged: " ^ m)

let assert_deterministic_replay (cx : Workload.Chaos.counterexample) =
  let v1 =
    violations_of
      (Workload.Chaos.replay cx.Workload.Chaos.cx_case
         ~script:cx.Workload.Chaos.cx_script)
  in
  let v2 =
    violations_of
      (Workload.Chaos.replay cx.Workload.Chaos.cx_case
         ~script:cx.Workload.Chaos.cx_script)
  in
  check bool "violations nonempty" true (String.length v1 > 0);
  check bool "identical violations on re-replay" true (String.equal v1 v2);
  check bool "minimized schedule no longer than the original" true
    (Array.length cx.Workload.Chaos.cx_script
    <= cx.Workload.Chaos.cx_original_entries)

let test_unsafe_collect_caught_minimized () =
  (* The negative control: no injected faults at all, yet the unsafe
     double collect must be flagged, and its minimized counterexample
     must replay deterministically via Schedule.Scripted. *)
  let cx =
    flagged_cx ~impl:Workload.Campaign.Impl_unsafe_collect
      ~profiles:[ Workload.Chaos.profile "none" ]
      ~seeds:10
  in
  assert_deterministic_replay cx;
  check int "nothing to shrink in an empty fault set" 0
    cx.Workload.Chaos.cx_original_elements

let test_lost_writes_caught_minimized () =
  (* Faulty memory under the paper's own construction: the oracle must
     detect that the atomicity assumption was broken. *)
  let profiles =
    List.filter
      (fun (p : Workload.Chaos.profile) -> p.label = "lost-writes")
      memory_fault_profiles
  in
  check int "profile exists" 1 (List.length profiles);
  let cx =
    flagged_cx ~impl:Workload.Campaign.Impl_anderson ~profiles ~seeds:10
  in
  assert_deterministic_replay cx

let test_regular_weakening_caught_minimized () =
  let profiles =
    List.filter
      (fun (p : Workload.Chaos.profile) -> p.label = "regular-weakening")
      memory_fault_profiles
  in
  let cx =
    flagged_cx ~impl:Workload.Campaign.Impl_anderson ~profiles ~seeds:10
  in
  assert_deterministic_replay cx

let test_minimize_rejects_passing_case () =
  let case =
    {
      Workload.Chaos.impl = Workload.Campaign.Impl_anderson;
      prof = Workload.Chaos.profile "none";
      components = 2;
      readers = 1;
      writes_per_writer = 1;
      scans_per_reader = 1;
      fault_seed = 1;
    }
  in
  let raised =
    try
      ignore (Workload.Chaos.minimize ~budget:100 case ~script:[||]);
      false
    with Invalid_argument _ -> true
  in
  check bool "minimizing a passing case is refused" true raised

let test_cx_script_roundtrip () =
  let cx =
    flagged_cx ~impl:Workload.Campaign.Impl_anderson
      ~profiles:
        (List.filter
           (fun (p : Workload.Chaos.profile) -> p.label = "lost-writes")
           memory_fault_profiles)
      ~seeds:10
  in
  let s = Workload.Chaos.cx_to_string cx in
  match Workload.Chaos.cx_of_string s with
  | Error e -> Alcotest.fail e
  | Ok cx' ->
    check bool "serialized form round-trips" true
      (String.equal s (Workload.Chaos.cx_to_string cx'));
    (* The parsed counterexample reproduces the same violations. *)
    let v =
      violations_of
        (Workload.Chaos.replay cx'.Workload.Chaos.cx_case
           ~script:cx'.Workload.Chaos.cx_script)
    in
    let v0 =
      violations_of
        (Workload.Chaos.replay cx.Workload.Chaos.cx_case
           ~script:cx.Workload.Chaos.cx_script)
    in
    check bool "parsed replay matches" true (String.equal v v0);
    Fault_goldens.check_rejects Workload.Chaos.cx_of_string
      [
        ( "impl=anderson c=-1 r=2 writes=2 scans=2 fault-seed=1 script=",
          "replay script: c=-1 is below 1" );
        ( "impl=anderson c=2 r=2 writes=2 scans=2 fault-seed=1 crashes=99:1 \
           script=",
          "replay script: Sim.run: crash names process 99, but process ids \
           range over 0..3" );
        ( "impl=anderson c=2 r=2 writes=2 scans=2 fault-seed=3 label=none \
           faults= craches=0:2 stalls= script=0,2",
          "replay script: unknown key craches=" );
        ( "impl=anderson c=2 r=2 writes=2 scans=2 fault-seed=1 c=3",
          "replay script: duplicate c=" );
        ( "impl=anderson c=2 r=2 writes=2 scans=2 fault-seed=1 0,2",
          "replay script: \"0,2\" is not a key=value field" );
      ]

(* ------------------------------------------------------------------ *)
(* ddmin                                                                *)
(* ------------------------------------------------------------------ *)

(* A list of small naturals, a threshold at most its sum (so the list
   itself "fails": its sum reaches the threshold) and a test budget. *)
let gen_ddmin_input =
  QCheck2.Gen.(
    let* xs = list_size (int_range 0 30) (int_range 0 20) in
    let* t = int_range 0 (List.fold_left ( + ) 0 xs) in
    let* budget = int_range 0 60 in
    return (xs, t, budget))

let print_ddmin_input (xs, t, budget) =
  Printf.sprintf "xs=[%s] threshold=%d budget=%d"
    (String.concat ";" (List.map string_of_int xs))
    t budget

let reaches t ys = List.fold_left ( + ) 0 ys >= t

let qcheck_ddmin_budget =
  QCheck2.Test.make ~count:300 ~print:print_ddmin_input
    ~name:"ddmin keeps failing within its budget; budget 0 is the identity"
    gen_ddmin_input (fun (xs, t, budget) ->
      let ys, spent = Workload.Fault_campaign.ddmin ~budget ~test:(reaches t) xs in
      reaches t ys && spent <= budget
      && Workload.Fault_campaign.ddmin ~budget:0 ~test:(reaches t) xs = (xs, 0))

let qcheck_ddmin_one_minimal =
  QCheck2.Test.make ~count:300 ~print:print_ddmin_input
    ~name:"ddmin with ample budget is 1-minimal" gen_ddmin_input
    (fun (xs, t, _) ->
      let ys, _ =
        Workload.Fault_campaign.ddmin ~budget:100_000 ~test:(reaches t) xs
      in
      reaches t ys
      && List.for_all
           (fun i -> not (reaches t (List.filteri (fun j _ -> j <> i) ys)))
           (List.init (List.length ys) Fun.id))

(* [ddmin] as it was before it cached rejections: every candidate is
   passed to [test].  The reference the cached one must decide like. *)
let uncached_ddmin ~budget ~test xs =
  let spent = ref 0 in
  let try_test ys =
    if !spent >= budget then false
    else begin
      incr spent;
      test ys
    end
  in
  let rec sweep chunk i xs =
    let n = List.length xs in
    if i >= n then xs
    else begin
      let candidate = List.filteri (fun j _ -> j < i || j >= i + chunk) xs in
      if List.length candidate < n && try_test candidate then
        sweep chunk i candidate
      else sweep chunk (i + chunk) xs
    end
  in
  let rec shrink xs chunk =
    if chunk = 0 || xs = [] then xs
    else begin
      let n = List.length xs in
      let xs = sweep chunk 0 xs in
      if List.length xs < n then
        shrink xs (min chunk (max 1 (List.length xs / 2)))
      else shrink xs (chunk / 2)
    end
  in
  let r = shrink xs (max 1 (List.length xs / 2)) in
  (r, !spent)

(* [ddmin] with a test that counts its calls and notes a repeat. *)
let counted_ddmin ~budget ~test xs =
  let seen = Hashtbl.create 16 and calls = ref 0 and repeated = ref false in
  let test ys =
    incr calls;
    if Hashtbl.mem seen ys then repeated := true;
    Hashtbl.replace seen ys ();
    test ys
  in
  let r = Workload.Fault_campaign.ddmin ~budget ~test xs in
  (r, !calls, !repeated)

(* Lists over a 3-value alphabet, so deleting different chunks often
   leaves equal lists, and a threshold at most their sum. *)
let gen_repetitive_input =
  QCheck2.Gen.(
    let* xs = list_size (int_range 0 30) (int_range 0 2) in
    let* t = int_range 0 (List.fold_left ( + ) 0 xs) in
    return (xs, t))

let qcheck_ddmin_cache_decides_alike =
  QCheck2.Test.make ~count:200
    ~print:(fun (xs, t) -> print_ddmin_input (xs, t, 0))
    ~name:"cached ddmin decides like the uncached one; no candidate twice"
    gen_repetitive_input (fun (xs, t) ->
      let _, ample = uncached_ddmin ~budget:max_int ~test:(reaches t) xs in
      List.for_all
        (fun budget ->
          let r, calls, repeated = counted_ddmin ~budget ~test:(reaches t) xs in
          r = uncached_ddmin ~budget ~test:(reaches t) xs
          && (not repeated) && calls <= snd r)
        (List.init (ample + 2) Fun.id))

(* On [0;0;0;1;1] with "sum >= 1", the empty list is rejected while
   [[0;1;1]] is swept and asked again of the final [[1]]: the second
   answer comes from the cache, and still counts against the budget. *)
let test_ddmin_cache_answers () =
  let xs = [ 0; 0; 0; 1; 1 ] in
  let (r, spent), calls, repeated =
    counted_ddmin ~budget:100 ~test:(reaches 1) xs
  in
  Alcotest.(check (list int)) "shrunk" [ 1 ] r;
  Alcotest.(check (pair (list int) int))
    "same as uncached" (uncached_ddmin ~budget:100 ~test:(reaches 1) xs) (r, spent);
  Alcotest.(check bool) "no candidate reaches test twice" false repeated;
  Alcotest.(check bool)
    (Printf.sprintf "some answer from the cache (%d judged, %d tested)" spent calls)
    true (calls < spent)

(* ------------------------------------------------------------------ *)
(* Pinned shared-memory replays                                         *)
(* ------------------------------------------------------------------ *)

(* A minimized anderson [lost-writes] counterexample and its rendered
   violations, both captured from the campaign before the simulator
   parked on a payload-free effect.  Replaying the line is a
   regression lock on when accesses happen relative to scheduler
   picks. *)
let pinned_shm_cx =
  "impl=anderson c=2 r=2 writes=2 scans=2 fault-seed=3 label=lost-writes \
   faults=lost:0.15 crashes= stalls= script=0,2"

let pinned_shm_violations =
  String.concat "\n"
    [
      "Proximity: Read by p0 returned overwritten id 1 for component 1 \
       (Write id 2 precedes the Read)";
      "Proximity: Read by p1 returned overwritten id 1 for component 1 \
       (Write id 2 precedes the Read)";
      "Write Precedence: Read by p0 orders a 1-Write against a 0-Write \
       that precedes it";
      "Write Precedence: Read by p1 orders a 1-Write against a 0-Write \
       that precedes it";
    ]

let test_pinned_shm_replay () =
  match Workload.Chaos.cx_of_string pinned_shm_cx with
  | Error e -> Alcotest.fail ("pinned cx_of_string: " ^ e)
  | Ok cx ->
    check Alcotest.string "same rendered violations" pinned_shm_violations
      (Workload.Chaos.render_outcome
         (Workload.Chaos.replay cx.Workload.Chaos.cx_case
            ~script:cx.Workload.Chaos.cx_script))

(* Minimizing the pinned counterexample again: its script is already
   1-minimal, so the schedule pass keeps no candidate (the script keeps
   its length) and the minimizer must replay the result to render its
   violations. *)
let test_minimize_nothing_kept () =
  match Workload.Chaos.cx_of_string pinned_shm_cx with
  | Error e -> Alcotest.fail ("pinned cx_of_string: " ^ e)
  | Ok cx ->
    let again =
      Workload.Chaos.minimize ~budget:200 cx.cx_case ~script:cx.cx_script
    in
    check Alcotest.(array int) "schedule pass kept nothing" cx.cx_script
      again.cx_script;
    check Alcotest.string "violations from the fallback replay"
      pinned_shm_violations again.cx_violations

let test_golden_replayed () =
  Fault_goldens.check_replayed "chaos" (Fault_goldens.chaos_replayed ())

(* The chaos workload of [Chaos.run] on one fixed case that mixes a
   memory fault, a crash and two stalls, recorded under the given
   policy: the run's stats and every scheduler pick. *)
let chaos_schedule policy =
  let case =
    {
      Workload.Chaos.impl = Workload.Campaign.Impl_anderson;
      prof =
        Workload.Chaos.profile "mixed" ~crashes:[ (3, 5) ]
          ~stalls:[ (0, 2, 25); (1, 3, 15) ]
          ~injections:[ inj (Faults.Lost_write { prob = 0.15 }) ];
      components = 2;
      readers = 2;
      writes_per_writer = 3;
      scans_per_reader = 3;
      fault_seed = 3;
    }
  in
  let env = Sim.create ~trace:false () in
  let who () = try Sim.self () with Sim.Not_in_simulation -> 0 in
  let mem, _ =
    Faults.wrap ~seed:case.fault_seed ~who case.prof.injections
      (Memory.of_sim env)
  in
  let init = Array.init case.components (fun k -> (k + 1) * 10) in
  let handle =
    Workload.Campaign.make_handle case.impl mem ~readers:case.readers ~init
  in
  let r =
    Composite.Snapshot.record ~clock:(fun () -> Sim.now env) ~initial:init
      handle
  in
  let procs =
    Array.init (case.components + case.readers) (fun i ->
        if i < case.components then fun () ->
          for s = 1 to case.writes_per_writer do
            r.Composite.Snapshot.rupdate ~writer:i (((i + 1) * 1000) + s)
          done
        else fun () ->
          for _ = 1 to case.scans_per_reader do
            ignore (r.Composite.Snapshot.rscan ~reader:(i - case.components))
          done)
  in
  let d = Schedule.driver policy in
  let picks = Buffer.create 64 in
  let recording =
    Schedule.Choose
      (fun ~enabled ~step ->
        let p = Schedule.pick d ~enabled ~step in
        Buffer.add_string picks (string_of_int p);
        p)
  in
  let st =
    Sim.run env ~policy:recording ~crashes:case.prof.crashes
      ~stalls:case.prof.stalls procs
  in
  (st.Sim.steps, st.Sim.switches, Buffer.contents picks)

let test_pinned_shm_schedules () =
  let pinned = Alcotest.(triple int int string) in
  check pinned "random seed 3"
    (44, 12, "32031121023332222222222222222220000000000000")
    (chaos_schedule (Schedule.Random 3));
  check pinned "starving seed 4"
    (44, 18, "00111222322222222323232322220220200000000000")
    (chaos_schedule (Schedule.Starving 4))

(* ------------------------------------------------------------------ *)
(* Golden campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* [Fault_goldens.chaos] — report, counterexamples, replay lines and
   metrics — as rendered when each fault substrate still had its own
   campaign module: the shared engine must reproduce every string byte
   for byte. *)
let pinned_chaos_campaign =
  {
    Fault_goldens.report =
      String.concat "\n"
        [
          "anderson           none               runs=4    flagged=0    stuck=0    faults-fired=0";
          "anderson           crash-writer0      runs=4    flagged=0    stuck=0    faults-fired=0";
          "anderson           lost-writes        runs=4    flagged=1    stuck=0    faults-fired=3";
          "unsafe-collect     none               runs=4    flagged=1    stuck=0    faults-fired=0";
          "unsafe-collect     crash-writer0      runs=4    flagged=1    stuck=0    faults-fired=0";
          "unsafe-collect     lost-writes        runs=4    flagged=1    stuck=0    faults-fired=2";
          "total: runs=24 flagged=4 stuck=0";
        ];
    cx_lines =
      [
        "impl=anderson c=2 r=2 writes=2 scans=2 fault-seed=3 label=lost-writes faults=lost:0.15 crashes= stalls= script=0,2";
        "impl=unsafe-collect c=2 r=2 writes=2 scans=2 fault-seed=3 label=none faults= crashes= stalls= script=2";
        "impl=unsafe-collect c=2 r=2 writes=2 scans=2 fault-seed=3 label=crash-writer0 faults= crashes= stalls= script=2";
        "impl=unsafe-collect c=2 r=2 writes=2 scans=2 fault-seed=3 label=lost-writes faults= crashes= stalls= script=2";
      ];
    cx_reports =
      [
        String.concat "\n"
          [
            "minimized counterexample: impl=anderson profile=lost-writes";
            "fault stack: lost:0.15 over sim";
            "chaos elements: 1 (from 1)  schedule entries: 2 (from 40)  minimizer replays: 15";
            "faults=[lost:0.15] crashes=[] stalls=[] fault-seed=3";
            "violations of the minimized run:";
            "Proximity: Read by p0 returned overwritten id 1 for component 1 (Write id 2 precedes the Read)";
            "Proximity: Read by p1 returned overwritten id 1 for component 1 (Write id 2 precedes the Read)";
            "Write Precedence: Read by p0 orders a 1-Write against a 0-Write that precedes it";
            "Write Precedence: Read by p1 orders a 1-Write against a 0-Write that precedes it";
            "replay with:";
            "  chaos --replay 'impl=anderson c=2 r=2 writes=2 scans=2 fault-seed=3 label=lost-writes faults=lost:0.15 crashes= stalls= script=0,2'";
          ];
        String.concat "\n"
          [
            "minimized counterexample: impl=unsafe-collect profile=none";
            "fault stack: pass-through over sim";
            "chaos elements: 0 (from 0)  schedule entries: 1 (from 12)  minimizer replays: 8";
            "faults=[] crashes=[] stalls=[] fault-seed=3";
            "violations of the minimized run:";
            "Write Precedence: Read by p0 orders a 0-Write against a 1-Write that precedes it";
            "replay with:";
            "  chaos --replay 'impl=unsafe-collect c=2 r=2 writes=2 scans=2 fault-seed=3 label=none faults= crashes= stalls= script=2'";
          ];
        String.concat "\n"
          [
            "minimized counterexample: impl=unsafe-collect profile=crash-writer0";
            "fault stack: pass-through over sim";
            "chaos elements: 0 (from 1)  schedule entries: 1 (from 12)  minimizer replays: 9";
            "faults=[] crashes=[] stalls=[] fault-seed=3";
            "violations of the minimized run:";
            "Write Precedence: Read by p0 orders a 0-Write against a 1-Write that precedes it";
            "replay with:";
            "  chaos --replay 'impl=unsafe-collect c=2 r=2 writes=2 scans=2 fault-seed=3 label=crash-writer0 faults= crashes= stalls= script=2'";
          ];
        String.concat "\n"
          [
            "minimized counterexample: impl=unsafe-collect profile=lost-writes";
            "fault stack: pass-through over sim";
            "chaos elements: 0 (from 1)  schedule entries: 1 (from 12)  minimizer replays: 9";
            "faults=[] crashes=[] stalls=[] fault-seed=3";
            "violations of the minimized run:";
            "Write Precedence: Read by p0 orders a 0-Write against a 1-Write that precedes it";
            "replay with:";
            "  chaos --replay 'impl=unsafe-collect c=2 r=2 writes=2 scans=2 fault-seed=3 label=lost-writes faults= crashes= stalls= script=2'";
          ];
      ];
    metrics =
      String.concat "\n"
        [
          "{\"type\":\"counter\",\"name\":\"chaos.faults_fired\",\"value\":5}";
          "{\"type\":\"counter\",\"name\":\"chaos.flagged\",\"value\":4}";
          "{\"type\":\"counter\",\"name\":\"chaos.minimize_replays\",\"value\":41}";
          "{\"type\":\"counter\",\"name\":\"chaos.runs\",\"value\":24}";
          "{\"type\":\"histogram\",\"name\":\"chaos.schedule_entries\",\"value\":{\"count\":24,\"min\":12,\"max\":40,\"mean\":24.666666666666668,\"p10\":12,\"p50\":12,\"p90\":40,\"p99\":40,\"p999\":40}}";
          "{\"type\":\"counter\",\"name\":\"chaos.stuck\",\"value\":0}";
          "";
        ];
  }

let test_golden_campaign () =
  Fault_goldens.check_same "chaos" ~expected:pinned_chaos_campaign
    (Fault_goldens.chaos ~jobs:1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "chaos"
    [
      ( "faulty cells",
        [
          Alcotest.test_case "lost write" `Quick test_lost_write;
          Alcotest.test_case "stuck-at" `Quick test_stuck_at;
          Alcotest.test_case "corrupt read" `Quick test_corrupt_read;
          Alcotest.test_case "stutter reverts" `Quick test_stutter_reverts;
          Alcotest.test_case "regular weakening" `Quick test_regular_weakening;
          Alcotest.test_case "targeting" `Quick test_targeting;
          Alcotest.test_case "healthy passthrough" `Quick
            test_healthy_passthrough;
          Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "deterministic in the simulator" `Quick
            test_faults_deterministic_in_sim;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "profile taxonomy" `Quick test_profile_taxonomy;
          Alcotest.test_case
            "anderson & afek survive every process-fault profile" `Quick
            test_correct_impls_survive_process_faults;
          Alcotest.test_case "unsafe collect caught & minimized" `Quick
            test_unsafe_collect_caught_minimized;
          Alcotest.test_case "lost writes caught & minimized" `Quick
            test_lost_writes_caught_minimized;
          Alcotest.test_case "regular weakening caught & minimized" `Quick
            test_regular_weakening_caught_minimized;
          Alcotest.test_case "minimizer refuses passing cases" `Quick
            test_minimize_rejects_passing_case;
          Alcotest.test_case "counterexample script round-trip" `Quick
            test_cx_script_roundtrip;
        ] );
      ( "ddmin",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_ddmin_budget;
            qcheck_ddmin_one_minimal;
            qcheck_ddmin_cache_decides_alike;
          ]
        @ [ Alcotest.test_case "cache answers" `Quick test_ddmin_cache_answers ] );
      ( "pinned",
        [
          Alcotest.test_case "shm counterexample replays" `Quick
            test_pinned_shm_replay;
          Alcotest.test_case "shm schedules and stats" `Quick
            test_pinned_shm_schedules;
          Alcotest.test_case "golden campaign" `Quick test_golden_campaign;
          Alcotest.test_case "golden violations equal a fresh replay" `Quick
            test_golden_replayed;
          Alcotest.test_case "minimizing a minimal script replays it" `Quick
            test_minimize_nothing_kept;
        ] );
    ]
