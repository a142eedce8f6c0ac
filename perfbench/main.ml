(* Entry point: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints what it measured in human-readable lines, then, as the last
   line, one JSON object {correct, attempted, failed, metrics}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones.  A failed correctness check exits 1.  The workloads
   scale their end-to-end timings to the nominal host themselves (see
   [Util.Ref]). *)

let end_to_end =
  [ "ops_per_s"; "scan_p50_us"; "scan_p90_us"; "write_p50_us"; "write_p90_us"; "setup_s";
    "rss_peak_mb" ]

(* A workload reports the per-layer metrics of the layers it runs; the
   others are printed as 0 with the unit below ("this layer did no work
   here"), so every traced run carries the same names. *)
let per_layer =
  [
    ("edge.backend.scan_p50_us", "us"); ("edge.backend.scan_p99_us", "us");
    ("edge.backend.write_p50_us", "us"); ("edge.backend.write_p99_us", "us");
    ("edge.backend.post_p50_us", "us"); ("edge.backend.post_p99_us", "us");
    ("edge.outside_backend_us", "us"); ("edge.wire.decode_request_ns", "ns");
    ("edge.wire.encode_response_ns", "ns"); ("serve.hit_ratio", "ratio");
    ("serve.combined_ratio", "ratio"); ("serve.full_scans_per_scan", "ratio");
    ("serve.coalesced_ratio", "ratio"); ("serve.publishes_per_applied", "ratio");
    ("serve.stalls_per_op", "ratio"); ("sim.run_us", "us"); ("sim.accesses_per_op", "count");
    ("history.shrinking_us", "us"); ("history.linearize_us", "us");
    ("campaign.minimize.replays", "count"); ("campaign.minimize.replay_us", "us");
    ("campaign.minimize_s", "s"); ("net.msgs_per_op", "count"); ("trace.overhead", "ratio");
  ]

let workloads =
  [
    ("edge-mixed", Edge_mixed.run);
    ("serve-direct", Serve_direct.run);
    ("verify-campaign", Verify_campaign.run);
  ]

let json_of_metrics ms =
  String.concat ", "
    (List.map
       (fun { Util.name; value; unit_ } ->
         let v = if Float.is_finite value then Printf.sprintf "%.17g" value else "null" in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name v unit_)
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of edge-mixed, serve-direct, verify-campaign");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" !workload;
      exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be > 0 and --trace 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let attempted, failed, ms = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  let ms =
    if traced then
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun x -> x.Util.name = name) ms with
          | Some x -> x
          | None -> Util.m name unit_ 0.)
        per_layer
    else ms
  in
  if not traced then Util.Ref.report ();
  List.iter
    (fun { Util.name; value; unit_ } -> Printf.printf "  %-32s %14.4f %s\n" name value unit_)
    ms;
  let expected = if traced then List.map fst per_layer else end_to_end in
  List.iter
    (fun x ->
      Util.check (List.mem x.Util.name expected) "metric %s is not declared" x.Util.name;
      Util.check (Float.is_finite x.Util.value) "metric %s is not finite" x.Util.name)
    ms;
  List.iter
    (fun name ->
      Util.check (List.exists (fun x -> x.Util.name = name) ms) "metric %s missing" name)
    expected;
  let correct = Util.all_checks_passed () in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_of_metrics ms);
  if not correct then exit 1
