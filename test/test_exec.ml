(* Tests for the parallel verification engine (lib/exec) and its users:
   pool basics, bit-identical campaign/chaos results across job counts,
   Metrics.merge properties, and the indexed Shrinking checker against
   the naive transcription on random (mostly broken) histories. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let metrics_json m = Obs.Json.to_string (Obs.Metrics.to_json m)

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_map () =
  let squares = Exec.Pool.map ~jobs:3 10 (fun i -> i * i) in
  Alcotest.(check (array int))
    "results indexed by task" [| 0; 1; 4; 9; 16; 25; 36; 49; 64; 81 |] squares;
  check int "zero tasks" 0 (Array.length (Exec.Pool.map ~jobs:4 0 (fun i -> i)));
  Alcotest.(check (array int))
    "more jobs than tasks" [| 0; 2 |]
    (Exec.Pool.map ~jobs:8 2 (fun i -> 2 * i))

let test_pool_worker_states () =
  (* Worker-private state: each worker counts its own tasks; the counts
     must sum to the task total whatever the assignment was. *)
  let _, states =
    Exec.Pool.map_workers ~jobs:3 ~worker:(fun () -> ref 0) 20 (fun c i ->
        incr c;
        i)
  in
  check int "workers" 3 (List.length states);
  check int "every task counted once" 20
    (List.fold_left (fun a c -> a + !c) 0 states)

let test_pool_exception () =
  Alcotest.check_raises "task exception propagates" (Failure "task 7")
    (fun () ->
      ignore
        (Exec.Pool.map ~jobs:2 10 (fun i ->
             if i = 7 then failwith "task 7" else i)))

let test_pool_recorder () =
  let rec_ = Exec.Pool.recorder () in
  let _ =
    Exec.Pool.map ~jobs:2 ~recorder:rec_
      ~label:(fun i -> Printf.sprintf "t%d" i)
      6
      (fun i -> i)
  in
  let spans = Exec.Pool.spans rec_ in
  check int "one span per task" 6 (List.length spans);
  check bool "labels recorded" true
    (List.exists (fun s -> s.Exec.Pool.sp_label = "t3") spans);
  (* The Chrome export must be valid JSON with one X event per span
     plus one thread-name metadata event per worker. *)
  match Obs.Json.of_string (Obs.Json.to_string (Exec.Pool.chrome_json rec_)) with
  | Error e -> Alcotest.failf "chrome_json does not re-parse: %s" e
  | Ok (Obs.Json.Arr events) ->
    let phase p =
      List.length
        (List.filter
           (fun ev -> Obs.Json.member "ph" ev = Some (Obs.Json.Str p))
           events)
    in
    check int "X events" 6 (phase "X");
    check bool "thread metadata" true (phase "M" >= 1)
  | Ok _ -> Alcotest.fail "chrome_json is not an array"

(* ------------------------------------------------------------------ *)
(* Determinism across job counts                                        *)
(* ------------------------------------------------------------------ *)

let test_campaign_determinism () =
  (* The unsafe double collect gets flagged, so this also pins the
     choice of [example] (first flagged schedule index wins). *)
  let cfg =
    {
      Workload.Campaign.default with
      impl = Workload.Campaign.Impl_unsafe_collect;
      schedules = 24;
    }
  in
  let run jobs =
    let m = Obs.Metrics.create () in
    let r = Workload.Campaign.run ~jobs ~metrics:m cfg in
    (r, metrics_json m)
  in
  let r1, m1 = run 1 in
  let r4, m4 = run 4 in
  check bool "some runs flagged (fixture is meaningful)" true
    (r1.Workload.Campaign.flagged_runs > 0);
  check bool "result records identical" true (r1 = r4);
  check string "merged metrics identical" m1 m4

let test_campaign_pool_spans () =
  let cfg = { Workload.Campaign.default with schedules = 7 } in
  let pool = Exec.Pool.recorder () in
  let (_ : Workload.Campaign.result) =
    Workload.Campaign.run ~jobs:2 ~pool cfg
  in
  check int "one span per schedule" 7 (List.length (Exec.Pool.spans pool))

let test_chaos_determinism () =
  let profiles =
    [
      Workload.Chaos.profile "none";
      Workload.Chaos.profile "lost-writes"
        ~injections:
          [
            {
              Csim.Faults.kind = Csim.Faults.Lost_write { prob = 0.3 };
              target = Csim.Faults.All;
            };
          ];
    ]
  in
  let cfg =
    {
      Workload.Chaos.default with
      impls =
        [ Workload.Campaign.Impl_anderson; Workload.Campaign.Impl_unsafe_collect ];
      profiles;
      seeds = 4;
      minimize_budget = 150;
    }
  in
  let run jobs =
    let m = Obs.Metrics.create () in
    let r = Workload.Chaos.run ~jobs ~metrics:m cfg in
    (r, metrics_json m)
  in
  let r1, m1 = run 1 in
  let r3, m3 = run 3 in
  check bool "something was flagged (fixture is meaningful)" true
    (r1.Workload.Chaos.total_flagged > 0);
  check bool "reports identical" true (r1 = r3);
  check string "merged metrics identical" m1 m3;
  (* Counterexamples (the minimizer's output) must agree too; compare
     their replayable renderings for a readable failure. *)
  let cxs r =
    List.filter_map
      (fun (c : Workload.Chaos.cell) ->
        Option.map Workload.Chaos.cx_to_string c.counterexample)
      r.Workload.Chaos.cells
  in
  Alcotest.(check (list string)) "counterexamples identical" (cxs r1) (cxs r3)

(* The three fault substrates in one table: the rendered report, every
   counterexample and replay line, and the merged metrics dump are the
   same at one job and at three. *)
let test_fault_campaigns_jobs_invariant () =
  List.iter
    (fun (name, render) ->
      Fault_goldens.check_same name ~expected:(render ~jobs:1) (render ~jobs:3))
    Fault_goldens.all

(* ------------------------------------------------------------------ *)
(* Metrics merge and snapshot stability                                 *)
(* ------------------------------------------------------------------ *)

let test_snapshot_order_stable () =
  let build names =
    let m = Obs.Metrics.create () in
    List.iter
      (fun n -> Obs.Metrics.incr ~by:(String.length n) (Obs.Metrics.counter m n))
      names;
    metrics_json m
  in
  let names = [ "zeta"; "alpha"; "mid"; "beta" ] in
  check string "to_json independent of registration order" (build names)
    (build (List.rev names))

let gen_values = QCheck2.Gen.(list_size (int_range 0 60) (int_range 0 5000))

let qcheck_merge_is_union =
  QCheck2.Test.make ~count:200
    ~name:"merge h(a)<-h(b) equals observing a@b into one registry"
    QCheck2.Gen.(pair gen_values gen_values)
    (fun (a, b) ->
      let observe_all m vs =
        let h = Obs.Metrics.histogram m "lat" in
        List.iter (Obs.Metrics.observe h) vs;
        List.iter
          (fun v -> if v mod 2 = 0 then Obs.Metrics.incr (Obs.Metrics.counter m "even"))
          vs
      in
      let m1 = Obs.Metrics.create () in
      observe_all m1 a;
      let m2 = Obs.Metrics.create () in
      observe_all m2 b;
      Obs.Metrics.merge ~into:m1 m2;
      let m0 = Obs.Metrics.create () in
      observe_all m0 (a @ b);
      String.equal (metrics_json m1) (metrics_json m0))

let qcheck_merge_commutes =
  QCheck2.Test.make ~count:200 ~name:"merge is commutative (gauges included)"
    QCheck2.Gen.(pair gen_values gen_values)
    (fun (a, b) ->
      let build vs =
        let m = Obs.Metrics.create () in
        let h = Obs.Metrics.histogram m "lat" in
        List.iter (Obs.Metrics.observe h) vs;
        (match vs with
        | [] -> ()
        | v :: _ -> Obs.Metrics.set (Obs.Metrics.gauge m "last") (float_of_int v));
        m
      in
      let ab = build a in
      Obs.Metrics.merge ~into:ab (build b);
      let ba = build b in
      Obs.Metrics.merge ~into:ba (build a);
      String.equal (metrics_json ab) (metrics_json ba))

let qcheck_merge_percentiles_monotone =
  QCheck2.Test.make ~count:200
    ~name:"count preserved and p50 <= p90 <= p99 after merge"
    QCheck2.Gen.(pair gen_values gen_values)
    (fun (a, b) ->
      QCheck2.assume (a <> [] || b <> []);
      let build vs =
        let m = Obs.Metrics.create () in
        let h = Obs.Metrics.histogram m "lat" in
        List.iter (Obs.Metrics.observe h) vs;
        m
      in
      let m = build a in
      Obs.Metrics.merge ~into:m (build b);
      let h = Obs.Metrics.histogram m "lat" in
      let p q = Obs.Metrics.percentile h q in
      Obs.Metrics.count h = List.length a + List.length b
      && p 50. <= p 90.
      && p 90. <= p 99.
      && p 99. <= Obs.Metrics.hist_max h)

(* ------------------------------------------------------------------ *)
(* Indexed vs naive Shrinking checker                                   *)
(* ------------------------------------------------------------------ *)

(* Random histories, deliberately not constrained to be legal: random
   ids (duplicates, unknown ids), random values, random intervals — so
   every violation kind and hence every indexed-checker fallback path
   is exercised.  The property is exact list equality of the two
   checkers' output. *)
let gen_history =
  let open QCheck2.Gen in
  let* components = int_range 1 3 in
  let value = int_range 0 3 in
  let interval =
    let* inv = int_range 0 40 in
    let* len = int_range 0 12 in
    return (inv, inv + len)
  in
  let* initial = array_size (return components) value in
  let write =
    let* comp = int_range 0 (components - 1) in
    let* v = value in
    let* id = int_range 1 4 in
    let* inv, res = interval in
    return (comp, v, id, inv, res)
  in
  let read =
    let* values = array_size (return components) value in
    let* ids = array_size (return components) (int_range 0 4) in
    let* inv, res = interval in
    return (values, ids, inv, res)
  in
  let* writes = list_size (int_range 0 8) write in
  let* reads = list_size (int_range 0 6) read in
  let c = History.Snapshot_history.collector ~initial in
  List.iter
    (fun (comp, v, id, inv, res) ->
      History.Snapshot_history.record_write c ~proc:comp ~comp ~value:v ~id ~inv
        ~res)
    writes;
  List.iteri
    (fun j (values, ids, inv, res) ->
      History.Snapshot_history.record_read c ~proc:(100 + j) ~values ~ids ~inv
        ~res)
    reads;
  return (History.Snapshot_history.history c)

let qcheck_indexed_equals_naive =
  QCheck2.Test.make ~count:500
    ~name:"indexed Shrinking checker = naive checker (violations, in order)"
    gen_history
    (fun h ->
      History.Shrinking.check ~equal:Int.equal h
      = History.Shrinking.check_naive ~equal:Int.equal h)

(* On clean recorded histories both checkers must agree on emptiness
   (regression guard for the no-violation fast path). *)
let test_indexed_clean_history () =
  let open Csim in
  let env = Sim.create ~trace:false () in
  let mem = Memory.of_sim env in
  let init = [| 10; 20; 30 |] in
  let handle =
    Workload.Campaign.make_handle Workload.Campaign.Impl_anderson mem
      ~readers:2 ~init
  in
  let rec_ =
    Composite.Snapshot.record ~clock:(fun () -> Sim.now env) ~initial:init
      handle
  in
  let writer k () =
    for s = 1 to 3 do
      rec_.Composite.Snapshot.rupdate ~writer:k (((k + 1) * 100) + s)
    done
  in
  let reader j () =
    for _ = 1 to 3 do
      ignore (rec_.Composite.Snapshot.rscan ~reader:j)
    done
  in
  let procs =
    Array.init 5 (fun i -> if i < 3 then writer i else reader (i - 3))
  in
  let (_ : Sim.stats) = Sim.run env ~policy:(Schedule.Random 11) procs in
  let h = Composite.Snapshot.history rec_ in
  check bool "clean" true (History.Shrinking.check ~equal:Int.equal h = []);
  check bool "naive agrees" true
    (History.Shrinking.check_naive ~equal:Int.equal h = [])

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map" `Quick test_pool_map;
          Alcotest.test_case "worker states" `Quick test_pool_worker_states;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "span recorder + chrome export" `Quick
            test_pool_recorder;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "campaign jobs=1 vs jobs=4" `Quick
            test_campaign_determinism;
          Alcotest.test_case "campaign pool spans" `Quick
            test_campaign_pool_spans;
          Alcotest.test_case "chaos jobs=1 vs jobs=3" `Quick
            test_chaos_determinism;
          Alcotest.test_case "fault campaigns jobs=1 vs jobs=3" `Quick
            test_fault_campaigns_jobs_invariant;
        ] );
      ( "metrics",
        Alcotest.test_case "snapshot order-stable" `Quick
          test_snapshot_order_stable
        :: List.map QCheck_alcotest.to_alcotest
             [
               qcheck_merge_is_union;
               qcheck_merge_commutes;
               qcheck_merge_percentiles_monotone;
             ] );
      ( "shrinking-index",
        Alcotest.test_case "clean recorded history" `Quick
          test_indexed_clean_history
        :: List.map QCheck_alcotest.to_alcotest [ qcheck_indexed_equals_naive ]
      );
    ]
