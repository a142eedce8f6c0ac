(* serve-direct: in-process use of [Serve] with no socket and no other
   domain.

   S = 1 shard over C = 64 components, in [Serve]'s manual mode: no
   applier domain is started, and the one client, on the calling
   domain, is reader 0, the writer of every component and the applier.
   It issues 90% [scan_items], 5% [post] and 5% writes to publication:
   a [post] followed by [Serve.drain], which runs on the caller the
   same shard drain an applier domain runs (mailboxes and batch cells
   into the outer register, then the publish).  This drives the
   validated cache, the scan enlist/perform path, the Afek outer
   collect and the mailbox/applier publish, and nothing of [Edge],
   [Csim] or [History].

   One domain, not three: with two client domains and the applier
   domain (the shape first tried), or one client and the applier,
   whether the OS had the applier running when a synchronous [update]
   arrived decided the figures.  On a shared 2-vCPU host update p90
   spread 0.16-0.29 over runs of unchanged code, and whole runs fell
   into the [Serve.Backoff] sleep regime (update p50 250-290 us against
   2.8 us, the rate down thirtyfold).  The handoff to an applier domain
   and the update acknowledgement are measured through [edge-mixed],
   whose service runs its applier. *)

let components = 64
let schedule_len = 65_536
let warmup_ops = 2_000

(* Rounds per run, each on a fresh service, with the host reference
   sampled between them: many short rounds follow the host's slow and
   fast spells more closely than a few long ones. *)
let rounds = 30

(* [Write] is a post and a drain, timed together. *)
type kind = Scan | Post | Write

(* The client's op schedule: the only thing the seed decides.  The
   client cycles through it until the window closes.  It is long enough
   (about 3 300 writes, against 400 in 8 192 ops) that each seed's mix
   and spacing of writes is close to every other's, so the write
   percentiles depend on the seed as little as possible. *)
let schedule ~seed =
  let prng = Csim.Schedule.Prng.make (seed * 7919) in
  Array.init schedule_len (fun _ ->
      let u = Csim.Schedule.Prng.int prng 100 in
      let kind = if u < 90 then Scan else if u < 95 then Post else Write in
      (kind, Csim.Schedule.Prng.int prng components))

let fingerprint sched =
  let b = Buffer.create (schedule_len * 4) in
  Array.iter
    (fun (k, c) ->
      Buffer.add_char b (match k with Scan -> 's' | Post -> 'p' | Write -> 'w');
      Buffer.add_string b (string_of_int c))
    sched;
  Util.fingerprint (Buffer.contents b)

type client = {
  sched : (kind * int) array;
  mutable pos : int;
  mutable next_value : int;
  last : int array;  (* last value written, per component; -1 none *)
  lat : Hist.t array;  (* by kind index; scans in [scan_scale] units *)
}

let kind_index = function Scan -> 0 | Post -> 1 | Write -> 2

(* A [scan_items] cache hit takes under 0.1 us, about as long as the two
   clock reads around it.  Scans are therefore timed by the run of
   consecutive scans in the schedule (ten on average), and each scan of
   the run is recorded at the run's mean, in tenths of a nanosecond. *)
let scan_scale = 10

let make_client sched =
  {
    sched;
    pos = 0;
    next_value = 1_000_000_000;
    last = Array.make components (-1);
    lat = Array.init 3 (fun _ -> Hist.create ());
  }

let step srv c =
  let kind, comp = c.sched.(c.pos) in
  c.pos <- (if c.pos + 1 = schedule_len then 0 else c.pos + 1);
  (match kind with
  | Scan -> ignore (Serve.scan_items srv ~reader:0)
  | Post ->
    c.next_value <- c.next_value + 1;
    Serve.post srv ~writer:comp c.next_value;
    c.last.(comp) <- c.next_value
  | Write ->
    c.next_value <- c.next_value + 1;
    Serve.post srv ~writer:comp c.next_value;
    Serve.drain srv;
    c.last.(comp) <- c.next_value);
  kind

let init = Array.init components (fun k -> k)

(* One service lifetime up to the end of its warm-up: create, then
   [warmup_ops] of the schedule. *)
let setup sched =
  let t0 = Util.now_ns () in
  let srv = Serve.create ~shards:1 ~readers:1 ~init () in
  let c = make_client sched in
  for _ = 1 to warmup_ops do
    ignore (step srv c)
  done;
  (srv, c, float_of_int (Util.now_ns () - t0) /. 1e9)

(* [combine f a b] applies [f] field by field ([pending] from [b]). *)
let combine f (a : Serve.stats) (b : Serve.stats) =
  {
    Serve.posted = f a.posted b.posted;
    coalesced = f a.coalesced b.coalesced;
    applied = f a.applied b.applied;
    pending = b.pending;
    publishes = f a.publishes b.publishes;
    batch_installs = f a.batch_installs b.batch_installs;
    hits = f a.hits b.hits;
    misses = f a.misses b.misses;
    stale = f a.stale b.stale;
    full_scans = f a.full_scans b.full_scans;
    scans_requested = f a.scans_requested b.scans_requested;
    scans_combined = f a.scans_combined b.scans_combined;
    scans_performed = f a.scans_performed b.scans_performed;
    stalls = f a.stalls b.stalls;
  }

(* One round: a fresh service, measured for [window_ns]; returns its
   set-up time, its measured time, one latency histogram per op kind and
   the service counters over the window. *)
let round ~sched ~window_ns =
  let srv, c, setup_s = setup sched in
  let before = Serve.stats srv in
  let t0 = Util.now_ns () in
  let stop = t0 + window_ns in
  let rec loop () =
    let a = Util.now_ns () in
    let b =
      if fst c.sched.(c.pos) = Scan then begin
        let n = ref 0 in
        while fst c.sched.(c.pos) = Scan && !n < schedule_len do
          ignore (step srv c);
          incr n
        done;
        let b = Util.now_ns () in
        Hist.add_n c.lat.(0) ((b - a) * scan_scale / !n) !n;
        b
      end
      else begin
        let kind = step srv c in
        let b = Util.now_ns () in
        Hist.add c.lat.(kind_index kind) (b - a);
        b
      end
    in
    if b < stop then loop () else b
  in
  let elapsed_s = float_of_int (loop () - t0) /. 1e9 in
  let after = Serve.stats srv in
  Serve.drain srv;
  (* Quiescence identities and the final scan. *)
  let st = Serve.stats srv in
  Util.check (st.pending = 0) "serve-direct: %d posts pending after a drain" st.pending;
  Util.check
    (st.posted = st.applied + st.coalesced)
    "serve-direct: posted %d <> applied %d + coalesced %d" st.posted st.applied
    st.coalesced;
  Util.check
    (st.scans_requested = st.scans_combined + st.scans_performed)
    "serve-direct: scans_requested %d <> combined %d + performed %d"
    st.scans_requested st.scans_combined st.scans_performed;
  let final = Serve.scan srv ~reader:0 in
  Array.iteri
    (fun k v ->
      let expect = if c.last.(k) < 0 then init.(k) else c.last.(k) in
      Util.check (v = expect) "serve-direct: component %d reads %d, last written %d" k v expect)
    final;
  let window = combine (fun a b -> b - a) before after in
  Printf.printf
    "serve-direct: round: %.0f ops/s, scan p50 %.3f us, write p50 %.2f us, hits %d, misses %d\n%!"
    (float_of_int (Array.fold_left (fun a h -> a + Hist.count h) 0 c.lat) /. elapsed_s)
    (Hist.percentile c.lat.(0) 50. /. 1e3 /. float_of_int scan_scale)
    (Hist.percentile c.lat.(2) 50. /. 1e3)
    window.hits (window.misses + window.stale);
  (setup_s, elapsed_s, c.lat, window)

type phase = {
  ops_per_s : float;
  scan_p50 : float;
  scan_p90 : float;
  write_p50 : float;
  write_p90 : float;
  setup_s : float;
  ops : int;
  stats : Serve.stats;  (* summed over the rounds' windows *)
}

(* The window is split over [rounds] rounds, each with its own
   service.  The host reference is sampled before each round and after
   the last, and each round's timings are scaled by the factor of the
   two blocks around it (the spare set-ups by the first block's).  The
   rate is all rounds' ops over all rounds' scaled time, and each
   percentile is over every (scaled) op of every round; set-up time is
   the median over the rounds' set-ups and [Util.spare_setups] more. *)
let phase ~sched ~window_s =
  let window_ns = int_of_float (window_s *. 1e9) / rounds in
  let first = Util.Ref.sample 10. in
  let spare =
    List.init Util.spare_setups (fun _ ->
        let _, _, t = setup sched in
        t *. Util.Ref.factor first)
  in
  let prev = ref first in
  let rounds =
    List.init rounds (fun _ ->
        let r = round ~sched ~window_ns in
        let next = Util.Ref.sample 10. in
        let f = Util.Ref.factor ((!prev +. next) /. 2.) in
        prev := next;
        (r, f))
  in
  let lat = Array.init 3 (fun _ -> Hist.create ()) in
  List.iter
    (fun ((_, _, l, _), f) -> Array.iteri (fun k h -> Hist.merge_scaled ~into:lat.(k) h f) l)
    rounds;
  let ops = Array.fold_left (fun a h -> a + Hist.count h) 0 lat in
  let elapsed_s = List.fold_left (fun a ((_, e, _, _), f) -> a +. (e *. f)) 0. rounds in
  let us ?(scale = 1) k p = Hist.percentile lat.(k) p /. 1e3 /. float_of_int scale in
  let stats = List.map (fun ((_, _, _, st), _) -> st) rounds in
  {
    ops_per_s = float_of_int ops /. elapsed_s;
    scan_p50 = us ~scale:scan_scale 0 50.;
    scan_p90 = us ~scale:scan_scale 0 90.;
    write_p50 = us 2 50.;
    write_p90 = us 2 90.;
    setup_s = Util.median (spare @ List.map (fun ((s, _, _, _), f) -> s *. f) rounds);
    ops;
    stats = List.fold_left (combine ( + )) (List.hd stats) (List.tl stats);
  }

let run ~seed ~seconds ~trace =
  let sched = schedule ~seed in
  Printf.printf
    "serve-direct: inputs %s, nproc %d, domains started 0 (client and drain on the main domain)\n%!"
    (fingerprint sched) (Util.nproc ());
  let regime (p : phase) =
    Printf.printf
      "serve-direct: regime: serve.stalls=%d scans_combined=%d scans_requested=%d hits=%d\n%!"
      p.stats.stalls p.stats.scans_combined p.stats.scans_requested p.stats.hits
  in
  if not trace then begin
    let p = phase ~sched ~window_s:seconds in
    regime p;
    let open Util in
    ( p.ops,
      0,
      [
        m "ops_per_s" "1/s" p.ops_per_s;
        m "scan_p50_us" "us" p.scan_p50;
        m "scan_p90_us" "us" p.scan_p90;
        m "write_p50_us" "us" p.write_p50;
        m "write_p90_us" "us" p.write_p90;
        m "setup_s" "s" p.setup_s;
        m "rss_peak_mb" "MB" (rss_peak_mb ());
      ] )
  end
  else begin
    (* Every number this workload's layers give is an exact counter, so
       the traced phase adds no probes; the overhead stays as a check
       that the two phases ran in the same regime. *)
    let plain = phase ~sched ~window_s:(seconds /. 2.) in
    let traced = phase ~sched ~window_s:(seconds /. 2.) in
    regime traced;
    let s = traced.stats in
    let scans = s.hits + s.misses + s.stale in
    let open Util in
    ( plain.ops + traced.ops,
      0,
      [
        m "serve.hit_ratio" "ratio" (ratio s.hits scans);
        m "serve.combined_ratio" "ratio" (ratio s.scans_combined s.scans_requested);
        m "serve.full_scans_per_scan" "ratio" (ratio s.full_scans scans);
        m "serve.coalesced_ratio" "ratio" (ratio s.coalesced s.posted);
        m "serve.publishes_per_applied" "ratio" (ratio s.publishes s.applied);
        m "serve.stalls_per_op" "ratio" (ratio s.stalls traced.ops);
        m "trace.overhead" "ratio" (traced.ops_per_s /. plain.ops_per_s);
      ] )
  end
