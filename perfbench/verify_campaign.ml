(* verify-campaign: a fixed, seeded batch of verification cases, run at
   one job through the public campaign engines.

   - [Workload.Chaos] over anderson and afek: in-model profiles (none,
     crashes, stalls) must stay clean; [lost-writes] must be flagged,
     and every flagged case is ddmin-minimized.
   - [Workload.Netchaos] over the ABD emulation: loss and loss plus a
     minority crash must stay clean; a broken (non-majority) quorum must
     be flagged and every flagged case minimized.
   - [Workload.Byzchaos]: the Kshemkalyani et al. construction with
     f = 1 must survive f lying replicas per link and break at f + 1.
   - [Workload.Campaign] with the generic Wing-Gong oracle on
     ([check_generic]): anderson and afek must stay clean, the unsafe
     double collect must be flagged.

   Each case is one call of the engine's [run] with a one-seed config,
   so its time to a verdict is measured through the same entry point a
   user calls.  The batch is repeated until the window closes; every
   figure is over all cases of all repetitions. *)

open Workload

type kind =
  | Shm of Chaos.profile
  | Net of Netchaos.profile
  | Byz of Byzchaos.profile
  | Lin  (* one [Campaign.run] schedule, generic oracle on *)

type expect = Clean | Flagged

type case = { kind : kind; impl : Campaign.impl; seed : int; expect : expect }

let components = 2
let readers = 2
let writes = 2
let scans = 2
let ops_per_case = (components * writes) + (readers * scans)
let replicas = 3
let budget = 3_000

(* Cases per (impl, profile) cell.  Measured per-case flag rates over
   2 000 seeds: lost-writes 18% (afek) to 22% (anderson), broken quorum
   7% (afek) to 10% (anderson).  The must-flag cells are sized so that
   none of them goes unflagged for any seed in practice (0.93^200 is
   below 1e-6).  The lost-writes cells are also the larger so that
   about 2 800 counterexamples are minimized per pass and their p90 does
   not move with the few slowest of them.  The chaos cases make up 93%
   of the batch, so that the p50 and the p90 of the time to a verdict
   both fall among them: the network (3%), generic-oracle (2%) and
   Byzantine (2%) cases take up to forty times as long, and a
   percentile on the edge between two engines moved by a fifth from
   run to run. *)
let shm_seeds = 100
let lost_writes_seeds = 7000
let net_seeds = 25
let broken_quorum_seeds = 200
let byz_seeds = 60

(* The unsafe double collect is flagged on 16% of seeds. *)
let lin_seeds = 100

let lin_cells =
  [
    (Campaign.Impl_anderson, Clean);
    (Campaign.Impl_afek, Clean);
    (Campaign.Impl_unsafe_collect, Flagged);
  ]

let impls = [ Campaign.Impl_anderson; Campaign.Impl_afek ]

let shm_profiles =
  let by_label l =
    List.find (fun p -> p.Chaos.label = l) (Chaos.default_profiles ~components ~readers)
  in
  [
    (by_label "none", Clean);
    (by_label "crash-writer0", Clean);
    (by_label "crash-reader", Clean);
    (by_label "stall-writers", Clean);
    (by_label "lost-writes", Flagged);
  ]

let net_profiles =
  let by_label l = List.find (fun p -> p.Netchaos.label = l) (Netchaos.default_profiles ~replicas) in
  [ (by_label "loss", Clean); (by_label "crash+loss", Clean); (by_label "broken-quorum", Flagged) ]

(* [liars k]: replicas 0 .. k-1 of every link answer their initial
   state on every read, as in the construction's own boundary test. *)
let byz_profiles =
  let liars k =
    List.init k (fun r ->
        {
          Csim.Faults.kind = Csim.Faults.Corrupt { prob = 1.0 };
          target = Csim.Faults.Contains (Printf.sprintf ".rep%d" r);
        })
  in
  [
    (Byzchaos.profile "f1-liars" ~expect:Byzchaos.Survive (liars 1), Clean);
    (Byzchaos.profile "f2-liars" ~expect:Byzchaos.Break (liars 2), Flagged);
  ]

let batch ~seed =
  let base = 1 + (seed * 100_003) in
  let cells mk profiles n =
    List.concat_map
      (fun impl ->
        List.concat_map
          (fun (p, expect) ->
            List.init (n p) (fun i -> { kind = mk p; impl; seed = base + i; expect }))
          profiles)
      impls
  in
  let shm_seeds p = if p.Chaos.label = "lost-writes" then lost_writes_seeds else shm_seeds in
  Array.of_list
    (cells (fun p -> Shm p) shm_profiles shm_seeds
    @ cells (fun p -> Net p) net_profiles (fun p ->
          if Netchaos.broken_quorum p then broken_quorum_seeds else net_seeds)
    @ cells (fun p -> Byz p) byz_profiles (fun _ -> byz_seeds)
    @ List.concat_map
        (fun (impl, expect) ->
          List.init lin_seeds (fun i -> { kind = Lin; impl; seed = base + i; expect }))
        lin_cells)

let label c =
  Campaign.impl_name c.impl ^ "/"
  ^
  match c.kind with
  | Shm p -> "shm:" ^ p.Chaos.label
  | Net p -> "net:" ^ p.Netchaos.label
  | Byz p -> "byz:" ^ p.Byzchaos.label
  | Lin -> "verify:generic"

let fingerprint cases =
  Util.fingerprint
    (String.concat ";" (Array.to_list (Array.map (fun c -> Printf.sprintf "%s@%d" (label c) c.seed) cases)))

(* ------------------------------------------------------------------ *)
(* One case through its engine                                          *)
(* ------------------------------------------------------------------ *)

let chaos_config p impl seed minimize_budget =
  {
    Chaos.default with
    impls = [ impl ];
    profiles = [ p ];
    components;
    readers;
    writes_per_writer = writes;
    scans_per_reader = scans;
    seeds = 1;
    base_seed = seed;
    minimize_budget;
  }

let net_config p impl seed minimize_budget =
  {
    Netchaos.default with
    impls = [ impl ];
    profiles = [ p ];
    replicas;
    components;
    readers;
    writes_per_writer = writes;
    scans_per_reader = scans;
    seeds = 1;
    base_seed = seed;
    minimize_budget;
  }

let byz_config p impl seed =
  {
    Byzchaos.default with
    impls = [ impl ];
    profiles = [ p ];
    components;
    readers;
    writes_per_writer = writes;
    scans_per_reader = scans;
    seeds = 1;
    base_seed = seed;
    minimize_budget = 0;
  }

let lin_config impl seed =
  {
    Campaign.default with
    impl;
    components;
    readers;
    writes_per_writer = writes;
    scans_per_reader = scans;
    schedules = 1;
    base_seed = seed;
    check_generic = true;
  }

(* [true] iff the case was flagged (or got stuck). *)
let verdict c =
  match c.kind with
  | Shm p ->
    let r = Chaos.run (chaos_config p c.impl c.seed 0) in
    r.Chaos.total_flagged + r.Chaos.total_stuck > 0
  | Net p ->
    let r = Netchaos.run (net_config p c.impl c.seed 0) in
    r.Netchaos.total_flagged + r.Netchaos.total_stuck > 0
  | Byz p ->
    let r = Byzchaos.run (byz_config p c.impl c.seed) in
    r.Byzchaos.total_flagged + r.Byzchaos.total_stuck > 0
  | Lin ->
    let r = Campaign.run (lin_config c.impl c.seed) in
    if r.Campaign.disagreements + r.Campaign.witness_failures > 0 then
      Util.check false "verify-campaign: %s@%d: %d checker disagreements, %d witness failures"
        (label c) c.seed r.Campaign.disagreements r.Campaign.witness_failures;
    r.Campaign.flagged_runs + r.Campaign.generic_failures + r.Campaign.stuck_runs > 0

(* Minimize a flagged case through its engine.  Returns the replay
   count and the engine's wall time; with [check], also checks that the
   counterexample round-trips through its one-line script and that the
   replay of the parsed script reproduces the same violations. *)
let minimize ~check c =
  let timed f =
    let a = Util.now_ns () in
    let r = f () in
    (r, Util.now_ns () - a)
  in
  let missing () =
    Util.check false "verify-campaign: %s@%d: no counterexample" (label c) c.seed;
    (0, 0)
  in
  let round_trip ~to_string ~of_string ~replay ~violations cx =
    let line = to_string cx in
    match of_string line with
    | Error e -> Util.check false "verify-campaign: %s@%d: script does not parse: %s" (label c) c.seed e
    | Ok cx' ->
      Util.check (to_string cx' = line) "verify-campaign: %s@%d: script does not round-trip" (label c)
        c.seed;
      let again = Chaos.render_outcome (replay cx') in
      Util.check (again = violations) "verify-campaign: %s@%d: replay gives %S, minimizer saw %S"
        (label c) c.seed again violations
  in
  match c.kind with
  | Shm p -> (
    let r, ns = timed (fun () -> Chaos.run (chaos_config p c.impl c.seed budget)) in
    match (List.hd r.Chaos.cells).Chaos.counterexample with
    | None -> missing ()
    | Some cx ->
      if check then
        round_trip ~to_string:Chaos.cx_to_string ~of_string:Chaos.cx_of_string
          ~replay:(fun cx -> Chaos.replay cx.Chaos.cx_case ~script:cx.Chaos.cx_script)
          ~violations:cx.Chaos.cx_violations cx;
      (cx.Chaos.cx_replays, ns))
  | Net p -> (
    let r, ns = timed (fun () -> Netchaos.run (net_config p c.impl c.seed budget)) in
    match (List.hd r.Netchaos.cells).Netchaos.counterexample with
    | None -> missing ()
    | Some cx ->
      if check then
        round_trip ~to_string:Netchaos.cx_to_string ~of_string:Netchaos.cx_of_string
          ~replay:(fun cx -> Netchaos.replay cx.Netchaos.cx_case ~script:cx.Netchaos.cx_script)
          ~violations:cx.Netchaos.cx_violations cx;
      (cx.Netchaos.cx_replays, ns))
  | Byz _ | Lin -> (0, 0)

(* ------------------------------------------------------------------ *)
(* Per-layer probes (traced run only)                                   *)
(* ------------------------------------------------------------------ *)

type probe = {
  mutable sim_ns : int;
  mutable shrinking_ns : int;
  mutable linearize_ns : int;
  mutable schedules : int;
  mutable accesses : int;
  mutable hist_ops : int;
}

(* Re-run a shared-memory case with the benchmark's own harness, set up
   as [Chaos.run] sets up a one-seed case (the same trace ring, fault
   stack, recording driver over [Schedule.Random seed] and crash-victim
   completion), and time the simulator and the checkers separately.
   The generic oracle, which the [Lin] cases run inside
   [Campaign.run], is timed here on these histories of the same shape. *)
let probe_shm pr (p : Chaos.profile) impl seed =
  let env = Csim.Sim.create ~trace_capacity:4096 () in
  let who () = try Csim.Sim.self () with Csim.Sim.Not_in_simulation -> 0 in
  let mem, _ = Csim.Faults.wrap ~seed ~who p.Chaos.injections (Csim.Memory.of_sim env) in
  let init = Array.init components (fun k -> (k + 1) * 10) in
  let rec_ =
    Composite.Snapshot.record
      ~clock:(fun () -> Csim.Sim.now env)
      ~initial:init
      (Campaign.make_handle impl mem ~readers ~init)
  in
  let procs =
    Array.init (components + readers) (fun i ->
        if i < components then fun () ->
          for s = 1 to writes do
            rec_.Composite.Snapshot.rupdate ~writer:i (((i + 1) * 1000) + s)
          done
        else fun () ->
          for _ = 1 to scans do
            ignore (rec_.Composite.Snapshot.rscan ~reader:(i - components))
          done)
  in
  let picks = ref [] in
  let d = Csim.Schedule.driver (Csim.Schedule.Random seed) in
  let policy =
    Csim.Schedule.Choose
      (fun ~enabled ~step ->
        let p = Csim.Schedule.pick d ~enabled ~step in
        picks := p :: !picks;
        p)
  in
  let a = Util.now_ns () in
  match
    Csim.Sim.run env ~policy ~max_steps:Chaos.default.Chaos.max_steps ~crashes:p.Chaos.crashes
      ~stalls:p.Chaos.stalls procs
  with
  | exception Csim.Sim.Stuck _ -> ()
  | _ ->
    ignore (Sys.opaque_identity (Array.of_list (List.rev !picks)));
    let b = Util.now_ns () in
    let h = Composite.Snapshot.history rec_ in
    let h = if p.Chaos.crashes <> [] then Resilience.complete_dangling ~components h else h in
    ignore (Sys.opaque_identity (History.Shrinking.check ~equal:Int.equal h));
    let c = Util.now_ns () in
    ignore
      (Sys.opaque_identity
         (History.Linearize.check
            (History.Linearize.snapshot_spec ~equal:Int.equal)
            ~init
            (History.Snapshot_history.to_ops h)));
    let d = Util.now_ns () in
    pr.sim_ns <- pr.sim_ns + (b - a);
    pr.shrinking_ns <- pr.shrinking_ns + (c - b);
    pr.linearize_ns <- pr.linearize_ns + (d - c);
    pr.schedules <- pr.schedules + 1;
    pr.accesses <- pr.accesses + Csim.Sim.total_accesses env;
    pr.hist_ops <- pr.hist_ops + History.Snapshot_history.size h

(* Exact message count per history op over the batch's network cases. *)
let msgs_per_op cases =
  let sent = ref 0 and ops = ref 0 in
  Array.iter
    (fun c ->
      match c.kind with
      | Net p ->
        let r =
          Netchaos.run_once
            {
              Netchaos.impl = c.impl;
              prof = p;
              replicas;
              components;
              readers;
              writes_per_writer = writes;
              scans_per_reader = scans;
              seed = c.seed;
            }
        in
        sent := !sent + r.Netchaos.net.Net.Sim.sent;
        ops := !ops + ops_per_case
      | Shm _ | Byz _ | Lin -> ())
    cases;
  Util.ratio !sent !ops

(* ------------------------------------------------------------------ *)
(* The measured loop                                                    *)
(* ------------------------------------------------------------------ *)

(* Wall times over the repetitions of a phase, in ns, one histogram per
   cell (impl x profile, see [label]): the time to a verdict per case,
   and for flagged shared-memory cases the time to a minimized
   counterexample. *)
type times = {
  verdict : (string, Hist.t) Hashtbl.t;
  minimize : (string, Hist.t) Hashtbl.t;
  mutable verdict_ns : int;  (* summed, for the rate *)
  mutable factor : float;  (* host-reference factor of the latest block *)
  mutable ops : int;
  mutable reps : int;
  mutable rss_mb : float;
}

(* Crashed simulated processes leak memory (see README.md), so the peak
   resident set keeps growing with the repetitions a run fits.  It is
   read after a fixed number of repetitions instead, which makes it
   independent of the host's speed. *)
let rss_after_reps = 2

let cell_add tbl c ns =
  let key = label c in
  let h =
    match Hashtbl.find_opt tbl key with
    | Some h -> h
    | None ->
      let h = Hist.create () in
      Hashtbl.add tbl key h;
      h
  in
  Hist.add h ns

(* [cells_us tbl q]: the geometric mean over the cells of each cell's
   [q]th percentile, in us.  The cells' times differ by up to forty
   times, so a percentile over the pooled cases sits on the edge between
   two cells' modes and jumps between them from run to run (on one host
   the pooled p50 spread 0.17-0.26 over 10 runs); each cell's own
   percentile moves only with that cell's speed.  Every cell weighs the
   same, so a change to any one engine shows. *)
let cells_us tbl q =
  let logs = Hashtbl.fold (fun _ h acc -> log (Hist.percentile h q /. 1e3) :: acc) tbl [] in
  exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

(* Cases, and minimizations, between two blocks of the host
   reference.  Every time is recorded scaled by the factor of the
   latest block. *)
let ref_every = 512
let ref_every_minimize = 64

let resample times = times.factor <- Util.Ref.factor (Util.Ref.sample 1.)
let scaled times ns = int_of_float (Float.round (float_of_int ns *. times.factor))

(* One pass over the batch: every case's verdict, then the ddmin
   minimization of every flagged shared-memory case.  The first pass
   ([first]) fixes the verdicts and checks each counterexample's
   script; later passes must reproduce the verdicts. *)
let pass ~first ?probe ~minimized cases flagged times =
  Array.iteri
    (fun i c ->
      if i mod ref_every = 0 then resample times;
      let a = Util.now_ns () in
      let f = verdict c in
      let ns = scaled times (Util.now_ns () - a) in
      cell_add times.verdict c ns;
      times.verdict_ns <- times.verdict_ns + ns;
      times.ops <- times.ops + ops_per_case;
      if first then flagged.(i) <- f
      else if f <> flagged.(i) then
        Util.check false "verify-campaign: %s@%d changed its verdict on a repeat" (label c) c.seed)
    cases;
  let k = ref 0 in
  Array.iteri
    (fun i c ->
      match c.kind with
      | Shm _ when flagged.(i) ->
        if !k mod ref_every_minimize = 0 then resample times;
        incr k;
        let replays, ns = minimize ~check:first c in
        cell_add times.minimize c (scaled times ns);
        if first then minimized := (replays, ns) :: !minimized
      | _ -> ())
    cases;
  Option.iter
    (fun pr ->
      Array.iter (fun c -> match c.kind with Shm p -> probe_shm pr p c.impl c.seed | _ -> ()) cases)
    probe;
  times.reps <- times.reps + 1;
  if times.reps = rss_after_reps then times.rss_mb <- Util.rss_peak_mb ()

(* Verdicts: a must-stay-clean case that is flagged is a wrong verdict;
   a must-flag cell (impl x profile) none of whose cases is flagged is
   one wrong verdict. *)
let wrong_verdicts cases flagged =
  let wrong = ref 0 in
  let cells = Hashtbl.create 16 in
  Array.iteri
    (fun i c ->
      let key = label c in
      match c.expect with
      | Clean ->
        if flagged.(i) then begin
          incr wrong;
          Printf.printf "verify-campaign: %s@%d flagged, expected clean\n" key c.seed
        end
      | Flagged ->
        Hashtbl.replace cells key (flagged.(i) || Option.value ~default:false (Hashtbl.find_opt cells key)))
    cases;
  Hashtbl.iter
    (fun key any ->
      if not any then begin
        incr wrong;
        Printf.printf "verify-campaign: no case of %s was flagged\n" key
      end)
    cells;
  !wrong

(* Set-up: the verdicts of the first [warmup_cases] cases of every cell,
   which loads and warms each engine, the checkers and every fault
   stack.  Made before the window and again before every pass, at
   least [setups] times in all, each scaled by the factor of a block
   of the host reference taken just before it; the median is
   reported.  With 4
   cases a cell, which cases the seed drew moved set-up time by half
   (22 against 33 ms); 16 average that out. *)
let warmup_cases = 16
let setups = 9

let setup cases =
  let a = Util.now_ns () in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      let k = Option.value ~default:0 (Hashtbl.find_opt seen (label c)) in
      if k < warmup_cases then begin
        Hashtbl.replace seen (label c) (k + 1);
        ignore (verdict c)
      end)
    cases;
  float_of_int (Util.now_ns () - a) /. 1e9

type phase = {
  ops_per_s : float;
  times : times;
  setup_s : float;
  flagged : bool array;
}

let phase ?probe ~minimized ~cases ~window_s () =
  let setup_times = ref [] in
  let timed_setup () =
    let f = Util.Ref.factor (Util.Ref.sample 1.) in
    setup_times := (setup cases *. f) :: !setup_times
  in
  timed_setup ();
  let flagged = Array.make (Array.length cases) false in
  let times =
    {
      verdict = Hashtbl.create 32;
      minimize = Hashtbl.create 4;
      verdict_ns = 0;
      factor = 1.;
      ops = 0;
      reps = 0;
      rss_mb = Float.nan;
    }
  in
  let stop = Util.now_ns () + int_of_float (window_s *. 1e9) in
  while Util.now_ns () < stop || times.reps < max 3 rss_after_reps do
    if times.reps > 0 then timed_setup ();
    pass ~first:(times.reps = 0) ?probe ~minimized cases flagged times
  done;
  while List.length !setup_times < setups do
    timed_setup ()
  done;
  {
    ops_per_s = float_of_int times.ops /. (float_of_int times.verdict_ns /. 1e9);
    times;
    setup_s = Util.median !setup_times;
    flagged;
  }

(* Outside the window: minimize the first flagged network case of each
   impl, as the campaign engine itself does per cell, with the same
   round-trip and replay checks.  One network ddmin replays thousands of
   message schedules; doing all of them would make the run's memory
   peak depend on how many of the batch's cases happen to flag. *)
let minimize_net cases flagged minimized =
  let done_ = Hashtbl.create 2 in
  Array.iteri
    (fun i c ->
      match c.kind with
      | Net _ when flagged.(i) && not (Hashtbl.mem done_ c.impl) ->
        Hashtbl.add done_ c.impl ();
        minimized := minimize ~check:true c :: !minimized
      | _ -> ())
    cases

let run ~seed ~seconds ~trace =
  let cases = batch ~seed in
  Printf.printf "verify-campaign: inputs %s (%d cases), nproc %d, domains started 0 (one job)\n%!"
    (fingerprint cases) (Array.length cases) (Util.nproc ());
  let minimized = ref [] in
  let finish (p : phase) =
    minimize_net cases p.flagged minimized;
    let nflag = Array.fold_left (fun a f -> if f then a + 1 else a) 0 p.flagged in
    let wrong = wrong_verdicts cases p.flagged in
    Util.check (wrong = 0) "verify-campaign: %d wrong verdicts" wrong;
    let replays = List.fold_left (fun a (r, _) -> a + r) 0 !minimized in
    let min_ns = List.fold_left (fun a (_, ns) -> a + ns) 0 !minimized in
    Printf.printf
      "verify-campaign: %d repetitions; %d of %d cases flagged; %d counterexamples minimized in %.4f s (minimize_s), %d replays; error_frac %.4f\n%!"
      p.times.reps nflag (Array.length cases) (List.length !minimized)
      (float_of_int min_ns /. 1e9)
      replays
      (float_of_int wrong /. float_of_int (Array.length cases));
    (wrong, replays, min_ns)
  in
  if not trace then begin
    let p = phase ~minimized ~cases ~window_s:seconds () in
    let wrong, _, _ = finish p in
    let per_cell what tbl =
      List.iter
        (fun (key, h) ->
          Printf.printf "verify-campaign: %s %-34s n %7d p50 %9.2f us p90 %9.2f us\n" what key
            (Hist.count h) (Hist.percentile h 50. /. 1e3) (Hist.percentile h 90. /. 1e3))
        (List.sort (fun (a, _) (b, _) -> compare a b) (List.of_seq (Hashtbl.to_seq tbl)))
    in
    per_cell "verdict " p.times.verdict;
    per_cell "minimize" p.times.minimize;
    let open Util in
    ( Array.length cases,
      wrong,
      [
        m "ops_per_s" "1/s" p.ops_per_s;
        m "scan_p50_us" "us" (cells_us p.times.verdict 50.);
        m "scan_p90_us" "us" (cells_us p.times.verdict 90.);
        m "write_p50_us" "us" (cells_us p.times.minimize 50.);
        m "write_p90_us" "us" (cells_us p.times.minimize 90.);
        m "setup_s" "s" p.setup_s;
        m "rss_peak_mb" "MB" p.times.rss_mb;
      ] )
  end
  else begin
    let plain = phase ~minimized:(ref []) ~cases ~window_s:(seconds /. 2.) () in
    let pr =
      { sim_ns = 0; shrinking_ns = 0; linearize_ns = 0; schedules = 0; accesses = 0; hist_ops = 0 }
    in
    let traced = phase ~probe:pr ~minimized ~cases ~window_s:(seconds /. 2.) () in
    let wrong, replays, min_ns = finish traced in
    let per_schedule ns = float_of_int ns /. float_of_int (max 1 pr.schedules) /. 1e3 in
    let open Util in
    ( Array.length cases,
      wrong,
      [
        m "sim.run_us" "us" (per_schedule pr.sim_ns);
        m "sim.accesses_per_op" "count" (ratio pr.accesses pr.hist_ops);
        m "history.shrinking_us" "us" (per_schedule pr.shrinking_ns);
        m "history.linearize_us" "us" (per_schedule pr.linearize_ns);
        m "campaign.minimize.replays" "count" (float_of_int replays);
        m "campaign.minimize.replay_us" "us" (float_of_int min_ns /. float_of_int (max 1 replays) /. 1e3);
        m "campaign.minimize_s" "s" (float_of_int min_ns /. 1e9);
        m "net.msgs_per_op" "count" (msgs_per_op cases);
        m "trace.overhead" "ratio" (traced.ops_per_s /. plain.ops_per_s);
      ] )
  end
