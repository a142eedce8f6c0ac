(* Unit tests for the observability layer (lib/obs) and its hooks in
   the simulator: metrics histograms, JSON printer/parser, span
   reconstruction, Chrome trace export, trace ring-buffer eviction, and
   per-cell access counters. *)

open Csim

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "ops" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  check int "counter" 42 (Obs.Metrics.counter_value c);
  check int "same handle on re-registration" 42
    (Obs.Metrics.counter_value (Obs.Metrics.counter m "ops"));
  let g = Obs.Metrics.gauge m "temp" in
  Obs.Metrics.set g 3.5;
  check (Alcotest.float 0.0) "gauge" 3.5 (Obs.Metrics.gauge_value g);
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Metrics: \"ops\" is already registered as a different metric kind")
    (fun () -> ignore (Obs.Metrics.gauge m "ops"))

let test_histogram_exact_percentiles () =
  (* Values below 64 land in exact unit buckets, so percentiles on
     1..100 are exact up to the log-bucket width (~3.1%) above 63; the
     chosen ranks all sit on bucket-aligned values. *)
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  for v = 1 to 100 do
    Obs.Metrics.observe h v
  done;
  check int "count" 100 (Obs.Metrics.count h);
  check int "min" 1 (Obs.Metrics.hist_min h);
  check int "max" 100 (Obs.Metrics.hist_max h);
  check int "p50" 50 (Obs.Metrics.percentile h 50.);
  check int "p25" 25 (Obs.Metrics.percentile h 25.);
  check int "p1" 1 (Obs.Metrics.percentile h 1.);
  let p90 = Obs.Metrics.percentile h 90. in
  check bool "p90 within bucket width" true (p90 >= 88 && p90 <= 90);
  let p99 = Obs.Metrics.percentile h 99. in
  check bool "p99 within bucket width" true (p99 >= 96 && p99 <= 99);
  check int "p100 = max" 100 (Obs.Metrics.percentile h 100.)

let test_histogram_log_buckets () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "big" in
  for _ = 1 to 10 do
    Obs.Metrics.observe h 1000
  done;
  check int "count" 10 (Obs.Metrics.count h);
  check int "max exact" 1000 (Obs.Metrics.hist_max h);
  let p50 = Obs.Metrics.percentile h 50. in
  (* One octave bucket is 1/32 of the value: 1000 lives in a bucket of
     width 32, so the reported lower bound is within 3.2%. *)
  check bool "p50 within relative error" true (p50 >= 968 && p50 <= 1000);
  Obs.Metrics.observe h (-5);
  check int "negative clamps to 0" 0 (Obs.Metrics.hist_min h)

let test_metrics_json () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:7 (Obs.Metrics.counter m "c1");
  Obs.Metrics.set (Obs.Metrics.gauge m "g1") 2.0;
  Obs.Metrics.observe (Obs.Metrics.histogram m "h1") 5;
  let j = Obs.Metrics.to_json m in
  (match Obs.Json.member "counters" j with
  | Some (Obs.Json.Obj [ ("c1", Obs.Json.Int 7) ]) -> ()
  | _ -> Alcotest.fail "counters object");
  (match Obs.Json.member "histograms" j with
  | Some hs -> (
    match Obs.Json.member "h1" hs with
    | Some h ->
      check bool "has count" true (Obs.Json.member "count" h = Some (Obs.Json.Int 1));
      check bool "has p50" true (Obs.Json.member "p50" h = Some (Obs.Json.Int 5))
    | None -> Alcotest.fail "h1 missing")
  | None -> Alcotest.fail "histograms missing");
  (* the dump is parseable by our own parser *)
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Ok j' -> check bool "roundtrip" true (j = j')
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("a", Obs.Json.Int 1);
        ("b", Obs.Json.Arr [ Obs.Json.Null; Obs.Json.Bool true ]);
        ("c", Obs.Json.Str "x\"y\n\t\\z");
        ("d", Obs.Json.Float 1.5);
        ("empty", Obs.Json.Obj []);
      ]
  in
  (match Obs.Json.of_string (Obs.Json.to_string j) with
  | Ok j' -> check bool "minified roundtrip" true (j = j')
  | Error e -> Alcotest.fail e);
  match Obs.Json.of_string (Obs.Json.to_string ~minify:false j) with
  | Ok j' -> check bool "pretty roundtrip" true (j = j')
  | Error e -> Alcotest.fail e

let test_json_float_sentinels () =
  let p f = Obs.Json.to_string (Obs.Json.Float f) in
  (* Non-finite floats print as the bare tokens Python's json module
     (which validates BENCH.json in CI) accepts — never as "nan"/"inf",
     which nothing reparses. *)
  check Alcotest.string "NaN token" "NaN" (p Float.nan);
  check Alcotest.string "Infinity token" "Infinity" (p Float.infinity);
  check Alcotest.string "-Infinity token" "-Infinity" (p Float.neg_infinity);
  (match Obs.Json.of_string "NaN" with
  | Ok (Obs.Json.Float f) -> check bool "NaN reparses" true (Float.is_nan f)
  | _ -> Alcotest.fail "NaN not parsed");
  (match Obs.Json.of_string "Infinity" with
  | Ok (Obs.Json.Float f) ->
      check bool "Infinity reparses" true (f = Float.infinity)
  | _ -> Alcotest.fail "Infinity not parsed");
  (match Obs.Json.of_string "[-Infinity]" with
  | Ok (Obs.Json.Arr [ Obs.Json.Float f ]) ->
      check bool "-Infinity reparses" true (f = Float.neg_infinity)
  | _ -> Alcotest.fail "-Infinity not parsed");
  (* Integral floats keep a decimal point so they reparse as Float, not
     Int. *)
  check Alcotest.string "integral float keeps the point" "3.0" (p 3.0);
  check Alcotest.string "negative integral float" "-17.0" (p (-17.0))

let qcheck_json_float_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"float print/parse round-trip is exact"
    QCheck2.Gen.float (fun f ->
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float f)) with
      | Ok (Obs.Json.Float f') ->
          (Float.is_nan f && Float.is_nan f') || f = f'
      | _ -> false)

let test_json_malformed () =
  let bad s =
    match Obs.Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" s)
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "[1] trailing";
  bad "\"unterminated";
  bad "nul"

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* One solo scan of a C-component register, with span markers on. *)
let traced_scan ~c =
  let env = Sim.create () in
  let mem = Memory.of_sim env in
  let reg =
    Composite.Anderson.create
      ~note:(Obs.Span.emitter env)
      mem ~readers:1 ~bits_per_value:8
      ~init:(Array.make c 0)
  in
  let (_ : Sim.stats) =
    Sim.run_solo env (fun () ->
        ignore (Composite.Anderson.scan_items reg ~reader:0))
  in
  Sim.trace env

let test_span_nesting () =
  (* A C=3 scan performs 2 scans of the C=2 register, each performing 2
     of the base register: 1 x scan@0, 2 x scan@1, 4 x scan@2, and the
     recursion depth is C - 1. *)
  let spans = Obs.Span.of_trace (traced_scan ~c:3) in
  let count name =
    List.length (List.filter (fun s -> s.Obs.Span.name = name) spans)
  in
  check int "scan@0" 1 (count "scan@0");
  check int "scan@1" 2 (count "scan@1");
  check int "scan@2" 4 (count "scan@2");
  check int "total" 7 (List.length spans);
  check int "max depth" 2 (Obs.Span.max_depth spans);
  List.iter
    (fun s ->
      check bool "closed" true s.Obs.Span.closed;
      check bool "ordered" true (s.Obs.Span.t0 <= s.Obs.Span.t1))
    spans;
  (* depth equals the recursion level encoded in the name *)
  List.iter
    (fun s ->
      let level =
        int_of_string
          (String.sub s.Obs.Span.name 5 (String.length s.Obs.Span.name - 5))
      in
      check int ("depth of " ^ s.Obs.Span.name) level s.Obs.Span.depth)
    spans

let test_span_unclosed () =
  let env = Sim.create () in
  let (_ : Sim.stats) =
    Sim.run_solo env (fun () ->
        Sim.note env ~proc:0 (Trace.span_begin "outer");
        Sim.note env ~proc:0 (Trace.span_begin "inner");
        Sim.note env ~proc:0 (Trace.span_end "inner")
        (* "outer" is never closed *))
  in
  let spans = Obs.Span.of_trace (Sim.trace env) in
  check int "two spans" 2 (List.length spans);
  let outer = List.find (fun s -> s.Obs.Span.name = "outer") spans in
  let inner = List.find (fun s -> s.Obs.Span.name = "inner") spans in
  check bool "outer unclosed" false outer.Obs.Span.closed;
  check bool "inner closed" true inner.Obs.Span.closed;
  check int "inner depth" 1 inner.Obs.Span.depth;
  (* a stray end marker with nothing open is ignored *)
  let env2 = Sim.create () in
  let (_ : Sim.stats) =
    Sim.run_solo env2 (fun () -> Sim.note env2 ~proc:0 (Trace.span_end "lonely"))
  in
  check int "stray end ignored" 0
    (List.length (Obs.Span.of_trace (Sim.trace env2)))

let test_span_markers () =
  check string "begin" "span:B:scan" (Trace.span_begin "scan");
  check string "end" "span:E:scan" (Trace.span_end "scan");
  (match Trace.span_of_note "span:B:update@2" with
  | Some (`B, "update@2") -> ()
  | _ -> Alcotest.fail "parse begin");
  (match Trace.span_of_note "span:E:x" with
  | Some (`E, "x") -> ()
  | _ -> Alcotest.fail "parse end");
  check bool "ordinary note" true (Trace.span_of_note "hello" = None)

(* ------------------------------------------------------------------ *)
(* Chrome export                                                        *)
(* ------------------------------------------------------------------ *)

let test_chrome_export () =
  let tr = traced_scan ~c:3 in
  let path = Filename.temp_file "chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Chrome.export ~path tr;
      let ic = open_in path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let j =
        match Obs.Json.of_string raw with
        | Ok j -> j
        | Error e -> Alcotest.fail ("export not valid JSON: " ^ e)
      in
      let events =
        match j with
        | Obs.Json.Arr evs -> evs
        | _ -> Alcotest.fail "export is not a JSON array"
      in
      check bool "nonempty" true (events <> []);
      (* every event is an object with the mandatory fields; B/E events
         obey stack discipline per tid *)
      let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
      let stack tid =
        match Hashtbl.find_opt stacks tid with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks tid s;
          s
      in
      let begins = ref 0 and ends = ref 0 in
      List.iter
        (fun e ->
          let field name =
            match Obs.Json.member name e with
            | Some v -> v
            | None -> Alcotest.fail ("event missing field " ^ name)
          in
          let str v =
            match v with Obs.Json.Str s -> s | _ -> Alcotest.fail "not a string"
          in
          let num v =
            match v with Obs.Json.Int n -> n | _ -> Alcotest.fail "not an int"
          in
          let name = str (field "name") in
          let ph = str (field "ph") in
          let tid = num (field "tid") in
          check int "pid" 0 (num (field "pid"));
          ignore (num (field "ts"));
          match ph with
          | "B" ->
            incr begins;
            let s = stack tid in
            s := name :: !s
          | "E" -> (
            incr ends;
            let s = stack tid in
            match !s with
            | top :: rest ->
              check string "E matches innermost B" top name;
              s := rest
            | [] -> Alcotest.fail "E without open B")
          | "i" | "M" -> ()
          | ph -> Alcotest.fail ("unexpected ph " ^ ph))
        events;
      check bool "has spans" true (!begins > 0);
      check int "balanced B/E" !begins !ends;
      Hashtbl.iter
        (fun _ s -> check int "all stacks empty at the end" 0 (List.length !s))
        stacks)

(* ------------------------------------------------------------------ *)
(* Trace ring buffer                                                    *)
(* ------------------------------------------------------------------ *)

let ev step =
  {
    Trace.step;
    proc = 0;
    kind = Trace.Write;
    cell = Printf.sprintf "c%d" step;
    value = string_of_int step;
  }

let test_ring_eviction () =
  let t = Trace.create ~capacity:3 () in
  for s = 0 to 4 do
    Trace.record t (ev s)
  done;
  check int "length" 3 (Trace.length t);
  check int "recorded" 5 (Trace.recorded t);
  check int "dropped" 2 (Trace.dropped t);
  check bool "oldest evicted" true
    (List.for_all (fun e -> e.Trace.step >= 2) (Trace.events t));
  check int "suffix retained" 3
    (List.length
       (List.filter (fun e -> e.Trace.step >= 2) (Trace.events t)));
  Trace.clear t;
  check int "cleared" 0 (Trace.length t);
  check int "recorded reset" 0 (Trace.recorded t);
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Trace.create: capacity must be >= 1") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

let test_unbounded_growth () =
  let t = Trace.create () in
  for s = 0 to 199 do
    Trace.record t (ev s)
  done;
  check int "length" 200 (Trace.length t);
  check int "dropped" 0 (Trace.dropped t);
  check int "first retained" 0 (List.hd (Trace.events t)).Trace.step

let test_trace_queries () =
  let t = Trace.create () in
  Trace.record t { (ev 0) with cell = "x"; kind = Trace.Write };
  Trace.record t { (ev 1) with cell = "x"; kind = Trace.Read };
  Trace.record t { (ev 2) with cell = "y"; kind = Trace.Write };
  Trace.record t { (ev 3) with cell = "x"; kind = Trace.Write };
  check int "accesses_of x" 3 (List.length (Trace.accesses_of t ~cell:"x"));
  check int "accesses_of missing" 0
    (List.length (Trace.accesses_of t ~cell:"z"));
  check int "writes_between inclusive" 2
    (Trace.writes_between t ~cell:"x" ~lo:0 ~hi:3);
  check int "writes_between excludes reads" 0
    (Trace.writes_between t ~cell:"x" ~lo:1 ~hi:1);
  check int "writes_between empty window" 0
    (Trace.writes_between t ~cell:"x" ~lo:2 ~hi:1);
  check int "writes_between boundary" 1
    (Trace.writes_between t ~cell:"x" ~lo:3 ~hi:3)

let test_ring_queries_see_suffix () =
  let t = Trace.create ~capacity:2 () in
  Trace.record t { (ev 0) with cell = "x" };
  Trace.record t { (ev 1) with cell = "x" };
  Trace.record t { (ev 2) with cell = "x" };
  check int "only retained writes counted" 2
    (Trace.writes_between t ~cell:"x" ~lo:0 ~hi:10)

(* ------------------------------------------------------------------ *)
(* Cell stats + profiler                                                *)
(* ------------------------------------------------------------------ *)

let test_cell_stats () =
  let env = Sim.create () in
  let a = Sim.make_cell env ~bits:8 "a" 0 in
  let b = Sim.make_cell env ~bits:8 "b" 0 in
  let (_ : Sim.stats) =
    Sim.run_solo env (fun () ->
        Sim.write a 1;
        ignore (Sim.read a);
        ignore (Sim.read a);
        ignore (Sim.read b))
  in
  let stats = Sim.cell_stats env in
  check int "two cells" 2 (List.length stats);
  (* creation order *)
  (match stats with
  | [ sa; sb ] ->
    check string "first cell" "a" sa.Sim.cell;
    check int "a reads" 2 sa.Sim.creads;
    check int "a writes" 1 sa.Sim.cwrites;
    check string "second cell" "b" sb.Sim.cell;
    check int "b reads" 1 sb.Sim.creads
  | _ -> Alcotest.fail "unexpected stats shape");
  Sim.reset_counters env;
  List.iter
    (fun s -> check int "reset" 0 (s.Sim.creads + s.Sim.cwrites))
    (Sim.cell_stats env)

let test_profile () =
  let env = Sim.create () in
  let mem = Memory.of_sim env in
  let reg =
    Composite.Anderson.create mem ~readers:1 ~bits_per_value:8
      ~init:[| 0; 0; 0 |]
  in
  let (_ : Sim.stats) =
    Sim.run env ~policy:Schedule.Round_robin
      [|
        (fun () -> ignore (Composite.Anderson.update reg ~writer:0 7));
        (fun () -> ignore (Composite.Anderson.scan_items reg ~reader:0));
      |]
  in
  let p = Obs.Profile.of_env env in
  check bool "has rows" true (p.Obs.Profile.rows <> []);
  check bool "sorted by traffic" true
    (let totals =
       List.map
         (fun r -> r.Obs.Profile.reads + r.Obs.Profile.writes)
         p.Obs.Profile.rows
     in
     totals = List.sort (fun a b -> compare b a) totals);
  check int "total = sum of rows"
    (List.fold_left
       (fun a r -> a + r.Obs.Profile.reads + r.Obs.Profile.writes)
       0 p.Obs.Profile.rows)
    p.Obs.Profile.total_accesses;
  check bool "switches observed" true (p.Obs.Profile.switches > 0);
  check int "two procs" 2 (List.length p.Obs.Profile.proc_events);
  check int "top 1" 1 (List.length (Obs.Profile.top ~n:1 p));
  (* snapshot into a registry *)
  let m = Obs.Metrics.create () in
  Obs.Profile.snapshot m ~prefix:"p" env;
  (match Obs.Json.member "counters" (Obs.Metrics.to_json m) with
  | Some (Obs.Json.Obj kvs) ->
    check bool "p.accesses present" true (List.mem_assoc "p.accesses" kvs)
  | _ -> Alcotest.fail "counters");
  (* text rendering smoke *)
  let s = Format.asprintf "%a" Obs.Profile.pp p in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "renders the header" true (contains s "switch-adj");
  check bool "renders the summary" true (contains s "total accesses")

(* ------------------------------------------------------------------ *)
(* Percentile satellites: p999/p10 in the JSON dump, merge preserves    *)
(* percentiles bucket-wise                                              *)
(* ------------------------------------------------------------------ *)

let test_hist_json_p999 () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  for v = 1 to 2000 do
    Obs.Metrics.observe h v
  done;
  let hj =
    match
      Obs.Json.member "histograms" (Obs.Metrics.to_json m)
      |> Option.map (Obs.Json.member "lat")
    with
    | Some (Some j) -> j
    | _ -> Alcotest.fail "lat histogram missing from dump"
  in
  let field name =
    match Obs.Json.member name hj with
    | Some (Obs.Json.Int n) -> n
    | _ -> Alcotest.fail ("histogram dump missing " ^ name)
  in
  check int "p10 matches percentile" (Obs.Metrics.percentile h 10.)
    (field "p10");
  check int "p999 matches percentile" (Obs.Metrics.percentile h 99.9)
    (field "p999");
  check bool "p999 above p99" true (field "p999" >= field "p99");
  (* tail resolution: with 2000 unit samples p999 must sit in the last
     octave, not collapse onto p99 *)
  check bool "p999 in the tail" true (field "p999" >= 1900);
  (* degradation: below 1000 samples p999 is the max *)
  let m2 = Obs.Metrics.create () in
  let h2 = Obs.Metrics.histogram m2 "few" in
  List.iter (Obs.Metrics.observe h2) [ 5; 9; 7 ];
  check int "p999 of 3 samples = max" 9 (Obs.Metrics.percentile h2 99.9)

let qcheck_merge_preserves_p999 =
  (* Bucket-wise merging means a merged histogram is indistinguishable
     from one that observed the concatenation — at every percentile,
     including the p999 tail. *)
  QCheck2.Test.make ~count:200
    ~name:"Metrics.merge preserves percentiles bucket-wise"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 300) (int_range 0 100_000))
        (list_size (int_range 1 300) (int_range 0 100_000)))
    (fun (xs, ys) ->
      let observe name vs =
        let m = Obs.Metrics.create () in
        List.iter (Obs.Metrics.observe (Obs.Metrics.histogram m name)) vs;
        m
      in
      let a = observe "h" xs and b = observe "h" ys in
      let whole = observe "h" (xs @ ys) in
      Obs.Metrics.merge ~into:a b;
      let p m q =
        match Obs.Metrics.find_histogram m "h" with
        | Some h -> Obs.Metrics.percentile h q
        | None -> -1
      in
      List.for_all (fun q -> p a q = p whole q) [ 10.; 50.; 90.; 99.; 99.9 ])

(* ------------------------------------------------------------------ *)
(* Span mismatch accounting                                             *)
(* ------------------------------------------------------------------ *)

let test_span_mismatch () =
  (* Crossed markers: the end marker names a different span than the
     innermost open one.  The span must still close (at the crossing
     end), but carry the disagreeing name, count into the registry, and
     be flagged by pp. *)
  let env = Sim.create () in
  let (_ : Sim.stats) =
    Sim.run_solo env (fun () ->
        Sim.note env ~proc:0 (Trace.span_begin "a");
        Sim.note env ~proc:0 (Trace.span_begin "b");
        Sim.note env ~proc:0 (Trace.span_end "a");
        (* closes "b", mismatched *)
        Sim.note env ~proc:0 (Trace.span_end "a"))
  in
  let m = Obs.Metrics.create () in
  let spans = Obs.Span.of_trace ~metrics:m (Sim.trace env) in
  check int "two spans" 2 (List.length spans);
  check int "one mismatch" 1 (Obs.Span.mismatch_count spans);
  let b = List.find (fun s -> s.Obs.Span.name = "b") spans in
  check bool "b closed" true b.Obs.Span.closed;
  check bool "b records the disagreeing end name" true
    (b.Obs.Span.mismatch = Some "a");
  let a = List.find (fun s -> s.Obs.Span.name = "a") spans in
  check bool "a clean" true (a.Obs.Span.mismatch = None);
  check int "metric incremented" 1
    (Obs.Metrics.counter_value (Obs.Metrics.counter m "span.mismatched"));
  let rendered = Format.asprintf "%a" Obs.Span.pp b in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "pp flags the mismatch" true (contains rendered "mismatched");
  (* well-nested markers count zero mismatches *)
  check int "clean trace has none" 0
    (Obs.Span.mismatch_count (Obs.Span.of_trace (traced_scan ~c:3)))

(* ------------------------------------------------------------------ *)
(* Causal collector                                                     *)
(* ------------------------------------------------------------------ *)

let test_causal_nesting () =
  let c = Obs.Causal.create () in
  (* note span (as the composite layer emits) -> op -> phase -> rpcs *)
  Obs.Causal.note c ~track:0 ~at:0 (Csim.Trace.span_begin "Scan");
  let op = Obs.Causal.start c ~kind:Obs.Causal.Op ~track:0 ~at:1 "abd.read" in
  check bool "op parented under the note span" true (op.Obs.Causal.parent <> None);
  let ph =
    Obs.Causal.start c ~parent:op ~kind:Obs.Causal.Phase ~track:0 ~at:1 "query"
  in
  check int "trace inherited" op.Obs.Causal.trace ph.Obs.Causal.trace;
  let rpcs =
    List.map
      (fun r ->
        Obs.Causal.start c ~parent:ph ~kind:Obs.Causal.Rpc ~track:0 ~at:2
          (Printf.sprintf "rpc r%d" r))
      [ 0; 1; 2 ]
  in
  (* quorum: two of three ack; the third stays open *)
  (match rpcs with
  | [ r0; r1; _r2 ] ->
    Obs.Causal.finish c ~at:5 r0;
    Obs.Causal.finish c ~at:6 r1
  | _ -> assert false);
  Obs.Causal.finish c ~at:7 ph;
  Obs.Causal.finish c ~at:7 op;
  Obs.Causal.note c ~track:0 ~at:8 (Csim.Trace.span_end "Scan");
  check int "six spans" 6 (Obs.Causal.span_count c);
  check int "one unclosed (unacked rpc)" 1 (Obs.Causal.unclosed_count c);
  check int "no mismatches" 0 (Obs.Causal.mismatched c);
  (* all spans share the note span's trace *)
  let traces =
    List.sort_uniq compare
      (List.map (fun s -> s.Obs.Causal.trace) (Obs.Causal.spans c))
  in
  check int "single trace id" 1 (List.length traces);
  (* mismatched note end markers are counted *)
  Obs.Causal.note c ~track:1 ~at:9 (Csim.Trace.span_begin "Update");
  Obs.Causal.note c ~track:1 ~at:10 (Csim.Trace.span_end "Scan");
  check int "note mismatch counted" 1 (Obs.Causal.mismatched c)

let test_causal_events () =
  let c = Obs.Causal.create () in
  Obs.Causal.note c ~track:3 ~at:0 (Csim.Trace.span_begin "Scan");
  let op = Obs.Causal.start c ~kind:Obs.Causal.Op ~track:3 ~at:1 "abd.read" in
  let rpc =
    Obs.Causal.start c ~parent:op ~kind:Obs.Causal.Rpc ~track:3 ~at:1 "rpc r0"
  in
  Obs.Causal.finish c ~at:4 rpc;
  Obs.Causal.finish c ~at:4 op;
  Obs.Causal.note c ~track:3 ~at:5 (Csim.Trace.span_end "Scan");
  let evs = Obs.Causal.to_events c in
  let str_field name e =
    match Obs.Json.member name e with
    | Some (Obs.Json.Str s) -> s
    | _ -> Alcotest.fail ("event missing string field " ^ name)
  in
  let phs = List.map (fun e -> str_field "ph" e) evs in
  check int "two X events (note + op)" 2
    (List.length (List.filter (( = ) "X") phs));
  check int "one async begin" 1 (List.length (List.filter (( = ) "b") phs));
  check int "one async end" 1 (List.length (List.filter (( = ) "e") phs));
  List.iter
    (fun e ->
      if str_field "ph" e = "X" then (
        match Obs.Json.member "dur" e with
        | Some (Obs.Json.Int d) ->
          check bool "X duration positive" true (d >= 1)
        | _ -> Alcotest.fail "X event missing dur"))
    evs;
  (* every event carries its span/trace coordinates in args *)
  List.iter
    (fun e ->
      match Obs.Json.member "args" e with
      | Some args ->
        check bool "args carry trace" true (Obs.Json.member "trace" args <> None)
      | None -> Alcotest.fail "event missing args")
    evs

(* ------------------------------------------------------------------ *)
(* Causal reconstruction across faulty network runs                     *)
(* ------------------------------------------------------------------ *)

let netcase prof =
  {
    Workload.Netchaos.impl = Workload.Campaign.Impl_anderson;
    prof;
    replicas = 3;
    components = 2;
    readers = 2;
    writes_per_writer = 2;
    scans_per_reader = 2;
    seed = 5;
  }

let test_causal_clean_run () =
  (* Fault-free: every span closes, op trees are complete, and tracing
     does not perturb the schedule (same counters with and without). *)
  let case = netcase (Workload.Netchaos.profile "none") in
  let bare = Workload.Netchaos.run_once case in
  let c = Obs.Causal.create () in
  let traced = Workload.Netchaos.run_once ~causal:c case in
  check int "same messages with tracing on"
    bare.Workload.Netchaos.net.Net.Sim.sent
    traced.Workload.Netchaos.net.Net.Sim.sent;
  check bool "clean" true
    (traced.Workload.Netchaos.outcome = Workload.Fault_campaign.Passed);
  check bool "spans collected" true (Obs.Causal.span_count c > 0);
  check int "no mismatches" 0 (Obs.Causal.mismatched c);
  (* per-replica rpcs: every phase span fathers one rpc per replica *)
  let spans = Obs.Causal.spans c in
  let rpcs =
    List.filter (fun s -> s.Obs.Causal.kind = Obs.Causal.Rpc) spans
  in
  let phases =
    List.filter (fun s -> s.Obs.Causal.kind = Obs.Causal.Phase) spans
  in
  check bool "has phases" true (phases <> []);
  check int "3 rpcs per phase" (3 * List.length phases) (List.length rpcs);
  (* ABD op and phase spans are named after the register they touch;
     the names are built only when a collector is attached. *)
  let names kind =
    List.sort_uniq compare
      (List.filter_map
         (fun s ->
           if s.Obs.Causal.kind = kind then Some s.Obs.Causal.name else None)
         spans)
  in
  let per_reg prefix = List.init 4 (fun r -> prefix ^ string_of_int r) in
  check
    (Alcotest.list Alcotest.string)
    "op span names"
    (per_reg "abd.read reg" @ per_reg "abd.write reg")
    (names Obs.Causal.Op);
  check
    (Alcotest.list Alcotest.string)
    "phase span names"
    (per_reg "query reg" @ per_reg "write reg")
    (names Obs.Causal.Phase);
  (* a quorum op abandons the slowest replica's rpc once the quorum
     acks, so unclosed spans are always rpcs — never ops, phases or
     composite note spans, which all complete in a clean run *)
  List.iter
    (fun s ->
      if not s.Obs.Causal.closed then
        check bool ("only rpcs unclosed: " ^ s.Obs.Causal.name) true
          (s.Obs.Causal.kind = Obs.Causal.Rpc))
    spans;
  check bool "at most one abandoned rpc per phase" true
    (Obs.Causal.unclosed_count c <= List.length phases)

let test_causal_crashed_run () =
  (* A crash-stopped replica leaves every subsequent rpc to it open —
     the crash is visible as unclosed-span evidence skewed onto that
     replica — while the run itself stays clean (the emulation masks a
     minority crash). *)
  let case =
    netcase (Workload.Netchaos.profile ~crashes:[ (0, 10) ] "crash")
  in
  let c = Obs.Causal.create () in
  let r = Workload.Netchaos.run_once ~causal:c case in
  check bool "masked" true (r.Workload.Netchaos.outcome = Workload.Fault_campaign.Passed);
  let unclosed =
    List.filter (fun s -> not s.Obs.Causal.closed) (Obs.Causal.spans c)
  in
  check bool "unclosed rpc evidence" true (unclosed <> []);
  check bool "every unclosed span is an rpc" true
    (List.for_all (fun s -> s.Obs.Causal.kind = Obs.Causal.Rpc) unclosed);
  (* the crashed replica collects strictly more dangling rpcs than the
     live ones, which only lose the ordinary quorum-abandonment race *)
  let dangling r =
    List.length
      (List.filter
         (fun s -> s.Obs.Causal.name = Printf.sprintf "rpc r%d" r)
         unclosed)
  in
  check bool "evidence concentrates on the crashed replica" true
    (dangling 0 > dangling 1 && dangling 0 > dangling 2);
  check int "markers still balanced" 0 (Obs.Causal.mismatched c)

let test_causal_byzantine_run () =
  (* Byzantine replicas lie but do answer, so the span tree still
     closes; the lie count is visible in the run result while the
     collector stays structurally sound. *)
  let case =
    netcase
      (Workload.Netchaos.profile ~byz:[ (1, Net.Sim.Forge_ts) ] "byz-forge")
  in
  let c = Obs.Causal.create () in
  let r = Workload.Netchaos.run_once ~causal:c case in
  check bool "the liar lied" true (r.Workload.Netchaos.byz_lies > 0);
  check bool "spans collected" true (Obs.Causal.span_count c > 0);
  check int "no crossed markers under lying faults" 0 (Obs.Causal.mismatched c);
  (* every op span has a phase child: reconstruction survives lies *)
  let spans = Obs.Causal.spans c in
  let ops = List.filter (fun s -> s.Obs.Causal.kind = Obs.Causal.Op) spans in
  check bool "has ops" true (ops <> []);
  List.iter
    (fun (op : Obs.Causal.span) ->
      check bool "op has a phase child" true
        (List.exists
           (fun s ->
             s.Obs.Causal.kind = Obs.Causal.Phase
             && s.Obs.Causal.parent = Some op.Obs.Causal.id)
           spans))
    ops

(* ------------------------------------------------------------------ *)
(* SLO budgets                                                          *)
(* ------------------------------------------------------------------ *)

let test_slo_check () =
  let m = Obs.Metrics.create () in
  (* absent histogram: vacuously ok, no observation *)
  let vs = Obs.Slo.check m in
  check bool "all vacuously ok" true (Obs.Slo.all_ok vs);
  check bool "no data recorded" true
    (List.for_all (fun v -> v.Obs.Slo.observed = None) vs);
  (* a budget graded against real samples, from both sides *)
  let h = Obs.Metrics.histogram m "x.latency" in
  for v = 1 to 1000 do
    Obs.Metrics.observe h v
  done;
  let graded limit =
    match
      Obs.Slo.check
        ~budgets:
          [
            Obs.Slo.budget ~op:"x" ~metric:"x.latency" ~pct:Obs.Slo.P999 ~limit
              ~unit_:"steps";
          ]
        m
    with
    | [ v ] -> v
    | _ -> Alcotest.fail "one verdict expected"
  in
  let good = graded 2000 in
  check bool "within budget" true good.Obs.Slo.ok;
  check bool "observed the tail" true (good.Obs.Slo.observed >= Some 990);
  let bad = graded 10 in
  check bool "violated" false bad.Obs.Slo.ok;
  check bool "violation visible in pp" true
    (let s = Format.asprintf "%a" Obs.Slo.pp_verdict bad in
     String.length s > 0
     &&
     let nl = String.length "VIOLATED" and hl = String.length s in
     let rec go i =
       i + nl <= hl && (String.sub s i nl = "VIOLATED" || go (i + 1))
     in
     go 0);
  (* verdict JSON carries the verdict *)
  match Obs.Json.member "ok" (Obs.Slo.verdict_json bad) with
  | Some (Obs.Json.Bool false) -> ()
  | _ -> Alcotest.fail "verdict_json ok field"

(* ------------------------------------------------------------------ *)
(* Baseline gate                                                        *)
(* ------------------------------------------------------------------ *)

let bench_doc rows =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "composite-registers/bench/v2");
      ("version", Obs.Json.Int 2);
      ("generated_at", Obs.Json.Str "2026-01-01T00:00:00Z");
      ("experiments", Obs.Json.Obj [ ("E1", Obs.Json.Arr rows) ]);
      ("metrics", Obs.Json.Obj []);
    ]

let row msgs ratio =
  Obs.Json.Obj
    [ ("msgs", Obs.Json.Int msgs); ("gain", Obs.Json.Float ratio) ]

let test_baseline_glob () =
  check bool "exact" true (Obs.Baseline.glob_match "msgs" "msgs");
  check bool "star suffix" true (Obs.Baseline.glob_match "*_ns" "lat_ns");
  check bool "star middle" true
    (Obs.Baseline.glob_match "E1[*].msgs" "E1[7].msgs");
  check bool "star everywhere" true (Obs.Baseline.glob_match "*seconds*" "wall_seconds_total");
  check bool "no match" false (Obs.Baseline.glob_match "*_ns" "lat_ms");
  check bool "empty pattern" false (Obs.Baseline.glob_match "" "x");
  check bool "lone star" true (Obs.Baseline.glob_match "*" "anything")

let test_baseline_identical () =
  let doc = bench_doc [ row 10 1.5 ] in
  let b = Obs.Baseline.make doc in
  check int "no issues on itself" 0
    (List.length (Obs.Baseline.compare_doc b doc));
  (* generated_at may differ: make strips it, compare ignores it *)
  let doc' = bench_doc [ row 10 1.5 ] in
  let doc' =
    match doc' with
    | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.map
           (function
             | "generated_at", _ ->
               ("generated_at", Obs.Json.Str "2030-12-31T23:59:59Z")
             | kv -> kv)
           kvs)
    | _ -> assert false
  in
  check int "timestamp not gated" 0
    (List.length (Obs.Baseline.compare_doc b doc'))

let test_baseline_policies () =
  let b = Obs.Baseline.make (bench_doc [ row 10 1.5 ]) in
  (* ints default to Exact: off by one is a regression *)
  let issues = Obs.Baseline.compare_doc b (bench_doc [ row 11 1.5 ]) in
  check int "int drift caught" 1
    (List.length (Obs.Baseline.regressions issues));
  (* floats default to Band default_band: small drift passes... *)
  let issues = Obs.Baseline.compare_doc b (bench_doc [ row 10 1.9 ]) in
  check int "float drift within band" 0
    (List.length (Obs.Baseline.regressions issues));
  (* ...large drift does not *)
  let issues = Obs.Baseline.compare_doc b (bench_doc [ row 10 4.0 ]) in
  check int "float drift out of band" 1
    (List.length (Obs.Baseline.regressions issues));
  (* explicit Skip silences the field entirely *)
  let b_skip =
    Obs.Baseline.make
      ~tolerances:[ { Obs.Baseline.pattern = "msgs"; policy = Obs.Baseline.Skip } ]
      (bench_doc [ row 10 1.5 ])
  in
  let issues = Obs.Baseline.compare_doc b_skip (bench_doc [ row 999 1.5 ]) in
  check int "skipped field never gates" 0
    (List.length (Obs.Baseline.regressions issues));
  (* default tolerances skip wall-clock-shaped names *)
  let wall v =
    Obs.Json.Obj [ ("elapsed_seconds", Obs.Json.Float v) ]
  in
  let b_wall =
    Obs.Baseline.make ~tolerances:Obs.Baseline.default_tolerances
      (bench_doc [ wall 1.0 ])
  in
  check int "*seconds* skipped by default" 0
    (List.length
       (Obs.Baseline.regressions
          (Obs.Baseline.compare_doc b_wall (bench_doc [ wall 99.0 ]))))

let test_baseline_shape_drift () =
  let b = Obs.Baseline.make (bench_doc [ row 10 1.5; row 20 1.5 ]) in
  (* a vanished row is a regression *)
  let issues = Obs.Baseline.compare_doc b (bench_doc [ row 10 1.5 ]) in
  check bool "missing row regresses" true
    (Obs.Baseline.regressions issues <> []);
  (* a new row (or field) is informational only *)
  let extra =
    Obs.Json.Obj
      [
        ("msgs", Obs.Json.Int 10);
        ("gain", Obs.Json.Float 1.5);
        ("brand_new", Obs.Json.Int 1);
      ]
  in
  let issues =
    Obs.Baseline.compare_doc b (bench_doc [ extra; row 20 1.5; row 30 1.5 ])
  in
  check int "extra row+field informational" 0
    (List.length (Obs.Baseline.regressions issues));
  check bool "but reported" true (issues <> [])

let test_baseline_roundtrip () =
  let b =
    Obs.Baseline.make ~tolerances:Obs.Baseline.default_tolerances
      (bench_doc [ row 10 1.5 ])
  in
  (match Obs.Baseline.of_json (Obs.Baseline.to_json b) with
  | Ok b' ->
    check int "tolerances survive" (List.length b.Obs.Baseline.tolerances)
      (List.length b'.Obs.Baseline.tolerances);
    check bool "snapshot survives" true
      (b.Obs.Baseline.snapshot = b'.Obs.Baseline.snapshot);
    check int "reloaded baseline still clean" 0
      (List.length
         (Obs.Baseline.regressions
            (Obs.Baseline.compare_doc b' (bench_doc [ row 10 1.5 ]))))
  | Error e -> Alcotest.fail e);
  (* file round-trip *)
  let path = Filename.temp_file "baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Baseline.save path b;
      match Obs.Baseline.load path with
      | Ok b' ->
        check bool "file snapshot survives" true
          (b.Obs.Baseline.snapshot = b'.Obs.Baseline.snapshot)
      | Error e -> Alcotest.fail e);
  match Obs.Baseline.of_json (Obs.Json.Int 3) with
  | Ok _ -> Alcotest.fail "accepted a non-baseline document"
  | Error _ -> ()

let test_campaign_metrics () =
  let m = Obs.Metrics.create () in
  let cfg =
    { Workload.Campaign.default with schedules = 5; check_generic = false }
  in
  let r = Workload.Campaign.run ~metrics:m cfg in
  let counter name =
    Obs.Metrics.counter_value (Obs.Metrics.counter m name)
  in
  check int "runs counted" r.Workload.Campaign.runs (counter "campaign.runs");
  check int "ops counted" r.Workload.Campaign.ops_checked
    (counter "campaign.ops_checked");
  check int "no flags" 0 (counter "campaign.flagged_runs");
  (* additive across calls *)
  let (_ : Workload.Campaign.result) = Workload.Campaign.run ~metrics:m cfg in
  check int "additive" (2 * r.Workload.Campaign.runs) (counter "campaign.runs")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
          Alcotest.test_case "histogram exact percentiles" `Quick
            test_histogram_exact_percentiles;
          Alcotest.test_case "histogram log buckets" `Quick
            test_histogram_log_buckets;
          Alcotest.test_case "registry to_json" `Quick test_metrics_json;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_json_malformed;
          Alcotest.test_case "non-finite float sentinels" `Quick
            test_json_float_sentinels;
          QCheck_alcotest.to_alcotest qcheck_json_float_roundtrip;
        ] );
      ( "spans",
        [
          Alcotest.test_case "marker format" `Quick test_span_markers;
          Alcotest.test_case "anderson recursion nesting" `Quick
            test_span_nesting;
          Alcotest.test_case "unclosed and stray markers" `Quick
            test_span_unclosed;
          Alcotest.test_case "mismatched end markers counted" `Quick
            test_span_mismatch;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "p10/p999 in the JSON dump" `Quick
            test_hist_json_p999;
          QCheck_alcotest.to_alcotest qcheck_merge_preserves_p999;
        ] );
      ( "causal",
        [
          Alcotest.test_case "nesting, traces and unacked rpcs" `Quick
            test_causal_nesting;
          Alcotest.test_case "chrome events well-formed" `Quick
            test_causal_events;
          Alcotest.test_case "clean net run: complete trees" `Quick
            test_causal_clean_run;
          Alcotest.test_case "crashed replica: unclosed rpc evidence" `Quick
            test_causal_crashed_run;
          Alcotest.test_case "byzantine replica: trees survive lies" `Quick
            test_causal_byzantine_run;
        ] );
      ( "slo",
        [ Alcotest.test_case "budget verdicts" `Quick test_slo_check ] );
      ( "baseline",
        [
          Alcotest.test_case "glob matching" `Quick test_baseline_glob;
          Alcotest.test_case "identical doc passes" `Quick
            test_baseline_identical;
          Alcotest.test_case "exact, band and skip policies" `Quick
            test_baseline_policies;
          Alcotest.test_case "missing vs extra rows" `Quick
            test_baseline_shape_drift;
          Alcotest.test_case "json and file round-trip" `Quick
            test_baseline_roundtrip;
        ] );
      ( "chrome",
        [ Alcotest.test_case "export well-formed" `Quick test_chrome_export ] );
      ( "trace",
        [
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "unbounded growth" `Quick test_unbounded_growth;
          Alcotest.test_case "query boundaries" `Quick test_trace_queries;
          Alcotest.test_case "ring queries see suffix" `Quick
            test_ring_queries_see_suffix;
        ] );
      ( "profile",
        [
          Alcotest.test_case "cell stats" `Quick test_cell_stats;
          Alcotest.test_case "hot-cell profile" `Quick test_profile;
          Alcotest.test_case "campaign metrics" `Quick test_campaign_metrics;
        ] );
    ]
