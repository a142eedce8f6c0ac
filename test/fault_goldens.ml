(* One small, fixed campaign per fault substrate — shared-memory chaos,
   network chaos and Byzantine cells — each with clean and flagged
   cells, rendered to the strings a user sees: the report, every
   minimized counterexample and its one-line replay script, and the
   merged metrics dump.  test_chaos, test_net and test_byzantine pin
   these renderings and check each counterexample's violations against
   a fresh replay; test_exec checks they do not depend on [jobs]. *)

open Workload

type rendered = {
  report : string;
  cx_lines : string list;  (** [cx_to_string] of every counterexample *)
  cx_reports : string list;  (** [pp_counterexample] of every counterexample *)
  metrics : string;  (** [Obs.Metrics.to_json_lines] of [~metrics] *)
}

let render ~pp_report ~pp_cx ~to_string ~metrics report cxs =
  {
    report = Format.asprintf "%a" pp_report report;
    cx_lines = List.map to_string cxs;
    cx_reports = List.map (Format.asprintf "%a" pp_cx) cxs;
    metrics = Obs.Metrics.to_json_lines metrics;
  }

(* anderson and the unsafe double collect under no fault, a writer
   crash and lost writes: the unsafe collect is flagged in every cell,
   anderson only under lost writes. *)
let chaos_run ~jobs m =
  let profiles =
    List.filter
      (fun (p : Chaos.profile) ->
        List.mem p.label [ "none"; "crash-writer0"; "lost-writes" ])
      (Chaos.default_profiles ~components:2 ~readers:2)
  in
  let r =
    Chaos.run ~jobs ~metrics:m
      {
        Chaos.default with
        impls = [ Campaign.Impl_anderson; Campaign.Impl_unsafe_collect ];
        profiles;
        seeds = 4;
        minimize_budget = 200;
      }
  in
  (r, List.filter_map (fun (c : Chaos.cell) -> c.counterexample) r.cells)

let chaos ~jobs =
  let m = Obs.Metrics.create () in
  let r, cxs = chaos_run ~jobs m in
  render ~pp_report:Chaos.pp_report ~pp_cx:Chaos.pp_counterexample
    ~to_string:Chaos.cx_to_string ~metrics:m r cxs

(* anderson over ABD: clean with no faults, flagged with the broken
   quorum and with one forging replica. *)
let net_run ~jobs m =
  let profiles =
    List.filter
      (fun (p : Netchaos.profile) -> List.mem p.label [ "none"; "broken-quorum" ])
      (Netchaos.default_profiles ~replicas:3)
    @ [ Netchaos.profile "forge" ~byz:[ (0, Net.Sim.Forge_ts) ] ]
  in
  let r =
    Netchaos.run ~jobs ~metrics:m
      {
        Netchaos.default with
        impls = [ Campaign.Impl_anderson ];
        profiles;
        seeds = 6;
        minimize_budget = 200;
      }
  in
  (r, List.filter_map (fun (c : Netchaos.cell) -> c.counterexample) r.cells)

let net ~jobs =
  let m = Obs.Metrics.create () in
  let r, cxs = net_run ~jobs m in
  render ~pp_report:Netchaos.pp_report ~pp_cx:Netchaos.pp_counterexample
    ~to_string:Netchaos.cx_to_string ~metrics:m r cxs

(* anderson with one lying cell per link, masked by the f = 1
   construction, and without the construction, caught. *)
let byz_run ~jobs m =
  let profiles =
    List.filter
      (fun (p : Byzchaos.profile) ->
        List.mem p.label [ "byz1-masked"; "unprotected" ])
      (Byzchaos.default_profiles ~components:2 ~readers:2)
  in
  let r =
    Byzchaos.run ~jobs ~metrics:m
      {
        Byzchaos.default with
        impls = [ Campaign.Impl_anderson ];
        profiles;
        seeds = 2;
        minimize_budget = 200;
      }
  in
  (r, List.filter_map (fun (c : Byzchaos.cell) -> c.counterexample) r.cells)

let byz ~jobs =
  let m = Obs.Metrics.create () in
  let r, cxs = byz_run ~jobs m in
  render ~pp_report:Byzchaos.pp_report ~pp_cx:Byzchaos.pp_counterexample
    ~to_string:Byzchaos.cx_to_string ~metrics:m r cxs

let all = [ ("chaos", chaos); ("net", net); ("byz", byz) ]

(* Every counterexample of a golden campaign as (the violations the
   minimizer reported, the rendered outcome of a fresh replay of its
   minimized case and script).  The minimizer renders the outcome of
   the last candidate it kept instead of replaying; the two must agree. *)
let replayed ~violations ~replay cxs =
  List.map
    (fun cx -> (violations cx, Fault_campaign.render_outcome (replay cx)))
    cxs

let chaos_replayed () =
  replayed
    ~violations:(fun (cx : Chaos.counterexample) -> cx.cx_violations)
    ~replay:(fun cx -> Chaos.replay cx.cx_case ~script:cx.cx_script)
    (snd (chaos_run ~jobs:1 (Obs.Metrics.create ())))

let net_replayed () =
  replayed
    ~violations:(fun (cx : Netchaos.counterexample) -> cx.cx_violations)
    ~replay:(fun cx -> Netchaos.replay cx.cx_case ~script:cx.cx_script)
    (snd (net_run ~jobs:1 (Obs.Metrics.create ())))

let byz_replayed () =
  replayed
    ~violations:(fun (cx : Byzchaos.counterexample) -> cx.cx_violations)
    ~replay:(fun cx -> Byzchaos.replay cx.cx_case ~script:cx.cx_script)
    (snd (byz_run ~jobs:1 (Obs.Metrics.create ())))

let check_replayed name pairs =
  if pairs = [] then Alcotest.failf "%s: no counterexample to replay" name;
  List.iteri
    (fun i (reported, fresh) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: counterexample %d" name i)
        fresh reported)
    pairs

(* Compare two renderings field by field, so a mismatch names the
   substrate and the field. *)
let check_same name ~expected actual =
  let s = Alcotest.string and l = Alcotest.(list string) in
  let msg field = name ^ ": " ^ field in
  Alcotest.check s (msg "report") expected.report actual.report;
  Alcotest.check l (msg "replay scripts") expected.cx_lines actual.cx_lines;
  Alcotest.check l (msg "counterexample reports") expected.cx_reports
    actual.cx_reports;
  Alcotest.check s (msg "metrics dump") expected.metrics actual.metrics

(* Each replay line, which comes from outside the program, is refused
   with this error rather than crashing the replay. *)
let check_rejects of_string cases =
  List.iter
    (fun (line, expected) ->
      match of_string line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error e -> Alcotest.(check string) line expected e)
    cases
