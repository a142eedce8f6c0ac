(* composite-registers: command-line driver regenerating every
   experiment of the reproduction (see DESIGN.md section 5 and
   EXPERIMENTS.md). *)

open Cmdliner

let impl_conv =
  let parse s =
    match Workload.Campaign.impl_of_name s with
    | Some i -> Ok i
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown implementation %S (expected one of: %s)" s
             (String.concat ", "
                (List.map Workload.Campaign.impl_name
                   Workload.Campaign.all_impls))))
  in
  let print fmt i = Format.pp_print_string fmt (Workload.Campaign.impl_name i) in
  Arg.conv (parse, print)

(* Shared by the campaign-style subcommands. *)
let jobs_arg =
  Arg.(
    value
    & opt int (Exec.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains to shard runs over (default: the number of \
           recommended domains for this machine).  Results are \
           bit-identical for every value.")

(* Canonical flag spellings are shared across the campaign subcommands
   (--jobs, --seed, --schedules, --backend).  The superseded --seeds
   spelling no longer parses: it stays registered — hidden from the man
   page — only so that using it is a typed evaluation error naming the
   replacement, not an opaque unknown-option failure. *)
let schedules_term ~default ~doc =
  let canonical =
    Arg.(
      value
      & opt (some int) None
      & info [ "schedules" ] ~docv:"N" ~doc)
  in
  let retired =
    Arg.(
      value
      & opt (some int) None
      & info [ "seeds" ] ~docs:Manpage.s_none ~docv:"N"
          ~doc:"Retired spelling of $(b,--schedules); using it is an error.")
  in
  Term.term_result'
    Term.(
      const (fun c r ->
          match r with
          | Some (_ : int) ->
            Error "option '--seeds' was removed; use '--schedules' instead"
          | None -> Ok (Option.value c ~default))
      $ canonical $ retired)

(* The campaign shape and the expectation flags, checked before any
   work by [serve], [chaos], [net] and [byz]: a zero count would let
   --expect-clean pass vacuously or die inside the library, a negative
   minimizer budget would read as "off" and print a flagged cell with
   no counterexample, and the two expectations cannot both hold. *)
let check_campaign_flags ~components ~readers ~writes ~scans ~schedules
    ~minimize_budget ~expect_clean ~expect_flagged =
  let usage msg =
    prerr_endline msg;
    exit 2
  in
  List.iter
    (fun (name, v, least) ->
      if v < least then usage (Printf.sprintf "%s = %d, must be >= %d" name v least))
    [
      ("-c", components, 1);
      ("-r", readers, 1);
      ("--writes", writes, 0);
      ("--scans", scans, 0);
      ("--schedules", schedules, 1);
      ("--minimize-budget", minimize_budget, 0);
    ];
  if expect_clean && expect_flagged then
    usage "--expect-clean and --expect-flagged are mutually exclusive"

(* [byz] reports on which side of the tolerance boundary each profile
   lands, and a run without writes or without scans cannot observe a
   lie: every break profile would come out clean and the boundary would
   read VIOLATED for the shape's sake.  The other campaigns accept zero
   ops. *)
let check_byz_shape ~writes ~scans =
  if writes = 0 || scans = 0 then begin
    Printf.eprintf
      "byz: --writes = %d, --scans = %d; a Byzantine campaign needs both >= 1 \
       (an empty workload cannot observe a lie)\n"
      writes scans;
    exit 2
  end

let pool_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pool-trace" ] ~docv:"FILE"
        ~doc:
          "Export per-worker task spans as Chrome trace-event JSON \
           (pool occupancy view), loadable in ui.perfetto.dev.")

let with_pool_trace pool_trace f =
  let recorder = Exec.Pool.recorder () in
  let r = f recorder in
  (match pool_trace with
  | None -> ()
  | Some path ->
    Exec.Pool.export_chrome ~path recorder;
    Printf.printf "wrote pool trace (%d task spans) to %s\n"
      (List.length (Exec.Pool.spans recorder))
      path);
  r

(* ------------------------------------------------------------------ *)
(* verify                                                               *)
(* ------------------------------------------------------------------ *)

(* Backends resolve through the named registry; net flags imply the net
   backend, so `verify --replicas 5 --crash 1` does what it says without
   an explicit --backend.  Unknown names die listing what is
   registered. *)
let resolve_backend backend replicas crash loss =
  let name =
    match backend with
    | Some n -> n
    | None ->
      if replicas <> None || crash > 0 || loss > 0.0 then "net" else "shm"
  in
  match Workload.Backend.find name with
  | Error msg ->
    prerr_endline msg;
    exit 2
  | Ok b ->
    if b.Workload.Backend.caps.Workload.Backend.messaging then
      (* Re-derive the descriptor so the CLI parameter overrides apply. *)
      Workload.Backend.net
        ~replicas:(Option.value replicas ~default:5)
        ~crash ~loss ()
    else b

let backend_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "backend" ] ~docv:"NAME"
        ~doc:
          "Register backend, by registry name: $(b,shm) (simulator cells, \
           seeded interleavings), $(b,net) (ABD quorum emulation over the \
           simulated message-passing network), $(b,byz) (the f-tolerant \
           Byzantine construction over simulator cells, with a budgeted \
           lying adversary on the base cells) or $(b,multicore) (Atomic.t \
           registers on real domains).  Giving any of \
           --replicas/--crash/--loss implies net.")

let replicas_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "replicas" ] ~docv:"N"
        ~doc:"Server replicas for the net backend (default 5).")

let crash_arg =
  Arg.(
    value & opt int 0
    & info [ "crash" ] ~docv:"F"
        ~doc:
          "Replicas that crash-stop mid-run (net backend); must keep a \
           majority alive (F < N/2).")

let loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:"Per-message loss probability in [0,1) (net backend).")

let verify impl backend replicas crash loss components readers writes scans
    schedules seed jobs pool_trace exhaustive =
  let backend = resolve_backend backend replicas crash loss in
  if exhaustive then begin
    (if backend.Workload.Backend.caps <> Workload.Backend.static_caps then begin
       prerr_endline
         "verify --exhaustive explores shared-memory interleavings only";
       exit 2
     end);
    Printf.printf
      "exhaustively exploring all interleavings: impl=%s C=%d R=%d writes=%d \
       scans=%d\n\
       %!"
      (Workload.Campaign.impl_name impl)
      components readers writes scans;
    let r =
      Workload.Campaign.exhaustive ~impl ~components ~readers
        ~writes_per_writer:writes ~scans_per_reader:scans ()
    in
    Printf.printf "schedules executed: %d (complete: %b)\n" r.ex_runs
      r.ex_exhaustive;
    if r.ex_flagged = 0 then print_endline "all schedules linearizable."
    else begin
      Printf.printf "VIOLATION FOUND:\n%s\n"
        (Option.value ~default:"" r.ex_first_failure);
      exit 1
    end
  end
  else begin
    let cfg =
      {
        Workload.Campaign.impl;
        backend;
        components;
        readers;
        writes_per_writer = writes;
        scans_per_reader = scans;
        schedules;
        base_seed = seed;
        check_generic = components * (writes + scans) <= 40;
      }
    in
    (* No [jobs] in the banner: the whole point of the sharded campaign
       is that its output is bit-identical at every job count. *)
    Printf.printf
      "randomized campaign: impl=%s backend=%s C=%d R=%d ops/proc=%d/%d\n%!"
      (Workload.Campaign.impl_name impl)
      (Workload.Backend.label backend)
      components readers writes scans;
    let r =
      with_pool_trace pool_trace (fun pool ->
          Workload.Campaign.run ~jobs ~pool cfg)
    in
    Format.printf "%a@." Workload.Campaign.pp_result r;
    (match r.example with
    | Some ex -> Format.printf "@.example violation:@.%s@." ex
    | None -> ());
    if
      r.flagged_runs > 0 || r.generic_failures > 0 || r.witness_failures > 0
      || r.disagreements > 0
    then exit 1
  end

let verify_cmd =
  let impl =
    Arg.(
      value
      & opt impl_conv Workload.Campaign.Impl_anderson
      & info [ "impl" ] ~doc:"Implementation to verify.")
  in
  let components =
    Arg.(value & opt int 3 & info [ "c"; "components" ] ~doc:"Components.")
  in
  let readers = Arg.(value & opt int 2 & info [ "r"; "readers" ] ~doc:"Readers.") in
  let writes =
    Arg.(value & opt int 3 & info [ "writes" ] ~doc:"Writes per writer.")
  in
  let scans =
    Arg.(value & opt int 3 & info [ "scans" ] ~doc:"Scans per reader.")
  in
  let schedules =
    Arg.(value & opt int 200 & info [ "schedules" ] ~doc:"Random schedules.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed.") in
  let exhaustive =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:"Enumerate every interleaving instead of sampling.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check linearizability over many schedules (Shrinking Lemma + \
          generic oracle); experiment E6.")
    Term.(
      const verify $ impl $ backend_arg $ replicas_arg $ crash_arg $ loss_arg
      $ components $ readers $ writes $ scans $ schedules $ seed $ jobs_arg
      $ pool_trace_arg $ exhaustive)

(* ------------------------------------------------------------------ *)
(* complexity (E2/E3)                                                   *)
(* ------------------------------------------------------------------ *)

let complexity max_c readers =
  let t =
    Workload.Table.create
      ~header:
        [
          "C"; "TR measured"; "TR paper"; "TW0 measured"; "TW0 paper";
          "TW(C-1) measured"; "match";
        ]
  in
  let all_ok = ref true in
  for c = 1 to max_c do
    let tr_m = Workload.Meter.scan_cost Workload.Campaign.Impl_anderson ~c ~r:readers in
    let tr_p = Composite.Complexity.tr ~c in
    let tw_m =
      Workload.Meter.update_cost Workload.Campaign.Impl_anderson ~c ~r:readers
        ~writer:0
    in
    let tw_p = Composite.Complexity.tw0 ~c ~r:readers in
    let tw_last =
      Workload.Meter.update_cost Workload.Campaign.Impl_anderson ~c ~r:readers
        ~writer:(c - 1)
    in
    let ok = tr_m = tr_p && tw_m = tw_p in
    if not ok then all_ok := false;
    Workload.Table.add_row t
      [
        string_of_int c; string_of_int tr_m; string_of_int tr_p;
        string_of_int tw_m; string_of_int tw_p; string_of_int tw_last;
        Workload.Table.cell_bool ok;
      ]
  done;
  Printf.printf
    "E2/E3: register operations per Read / Write, measured vs the paper's \
     recurrences (R = %d)\n\n"
    readers;
  Workload.Table.print t;
  if not !all_ok then exit 1

let complexity_cmd =
  let max_c = Arg.(value & opt int 8 & info [ "max-c" ] ~doc:"Largest C.") in
  let readers = Arg.(value & opt int 3 & info [ "r"; "readers" ] ~doc:"Readers.") in
  Cmd.v
    (Cmd.info "complexity"
       ~doc:"Reproduce the time-complexity recurrences (experiments E2, E3).")
    Term.(const complexity $ max_c $ readers)

(* ------------------------------------------------------------------ *)
(* space (E4)                                                           *)
(* ------------------------------------------------------------------ *)

let space max_c bits readers =
  let t =
    Workload.Table.create
      ~header:
        [
          "C"; "registers"; "MRSW bits measured"; "MRSW bits paper";
          "SRSW bits (asymptotic)"; "match";
        ]
  in
  let all_ok = ref true in
  for c = 1 to max_c do
    let bits_m =
      Workload.Meter.space_bits Workload.Campaign.Impl_anderson ~c ~b:bits
        ~r:readers
    in
    let bits_p = Composite.Complexity.space_mrsw_bits ~c ~b:bits ~r:readers in
    let regs = Workload.Meter.space_registers Workload.Campaign.Impl_anderson ~c ~r:readers in
    let regs_p = Composite.Complexity.registers ~c ~r:readers in
    let ok = bits_m = bits_p && regs = regs_p in
    if not ok then all_ok := false;
    Workload.Table.add_row t
      [
        string_of_int c; string_of_int regs; string_of_int bits_m;
        string_of_int bits_p;
        string_of_int
          (Composite.Complexity.space_srsw_asymptotic ~c ~b:bits ~r:readers);
        Workload.Table.cell_bool ok;
      ]
  done;
  Printf.printf
    "E4: space accounting, measured vs the paper's recurrence (B = %d, R = \
     %d)\n\n"
    bits readers;
  Workload.Table.print t;
  if not !all_ok then exit 1

let space_cmd =
  let max_c = Arg.(value & opt int 8 & info [ "max-c" ] ~doc:"Largest C.") in
  let bits = Arg.(value & opt int 8 & info [ "b"; "bits" ] ~doc:"Bits per component.") in
  let readers = Arg.(value & opt int 3 & info [ "r"; "readers" ] ~doc:"Readers.") in
  Cmd.v
    (Cmd.info "space"
       ~doc:"Reproduce the space-complexity recurrence (experiment E4).")
    Term.(const space $ max_c $ bits $ readers)

(* ------------------------------------------------------------------ *)
(* compare (E5)                                                         *)
(* ------------------------------------------------------------------ *)

let compare_impls max_c readers =
  let t =
    Workload.Table.create
      ~header:
        [
          "C"; "anderson scan"; "afek scan"; "anderson update(0)";
          "afek update"; "winner (scan)";
        ]
  in
  for c = 1 to max_c do
    let a_scan = Workload.Meter.scan_cost Workload.Campaign.Impl_anderson ~c ~r:readers in
    let f_scan = Workload.Meter.scan_cost Workload.Campaign.Impl_afek ~c ~r:readers in
    let a_up =
      Workload.Meter.update_cost Workload.Campaign.Impl_anderson ~c ~r:readers ~writer:0
    in
    let f_up =
      Workload.Meter.update_cost Workload.Campaign.Impl_afek ~c ~r:readers ~writer:0
    in
    Workload.Table.add_row t
      [
        string_of_int c; string_of_int a_scan; string_of_int f_scan;
        string_of_int a_up; string_of_int f_up;
        (if a_scan <= f_scan then "anderson" else "afek");
      ]
  done;
  Printf.printf
    "E5: register operations per operation — recursive (exponential, \
     single-writer registers only) vs Afek et al. (polynomial); R = %d\n\n"
    readers;
  Workload.Table.print t

let compare_cmd =
  let max_c = Arg.(value & opt int 10 & info [ "max-c" ] ~doc:"Largest C.") in
  let readers = Arg.(value & opt int 3 & info [ "r"; "readers" ] ~doc:"Readers.") in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Anderson vs Afek et al. operation costs (experiment E5).")
    Term.(const compare_impls $ max_c $ readers)

(* ------------------------------------------------------------------ *)
(* scenario (E1)                                                        *)
(* ------------------------------------------------------------------ *)

let case_name = function
  | None -> "none"
  | Some Composite.Anderson.Case_snapshot_seq -> "snapshot (seq handshake)"
  | Some Composite.Anderson.Case_snapshot_wc -> "snapshot (wc = a.wc+2)"
  | Some Composite.Anderson.Case_ab -> "(a, b)"
  | Some Composite.Anderson.Case_cd -> "(c, d)"

let run_scenario show_trace name =
  let scenarios =
    [
      ("fig4a", Workload.Scenario.fig4a, Composite.Anderson.Case_snapshot_seq);
      ("fig4b", Workload.Scenario.fig4b, Composite.Anderson.Case_snapshot_wc);
      ("ab", Workload.Scenario.case_ab, Composite.Anderson.Case_ab);
      ("cd", Workload.Scenario.case_cd, Composite.Anderson.Case_cd);
    ]
  in
  let run_one (label, f, expected) =
    let o = f () in
    let ok = o.Workload.Scenario.case = Some expected in
    Printf.printf
      "%-6s branch taken: %-26s values=[%s] ids=[%s] linearizable=%b  %s\n"
      label
      (case_name o.Workload.Scenario.case)
      (String.concat "; "
         (Array.to_list (Array.map string_of_int o.Workload.Scenario.values)))
      (String.concat "; "
         (Array.to_list (Array.map string_of_int o.Workload.Scenario.ids)))
      o.Workload.Scenario.linearizable
      (if ok then "[as the paper predicts]" else "[UNEXPECTED BRANCH]");
    if show_trace then
      Printf.printf "\n%s\n" o.Workload.Scenario.timeline;
    ok
  in
  let selected =
    if name = "all" then scenarios
    else
      match List.filter (fun (l, _, _) -> l = name) scenarios with
      | [] ->
        Printf.eprintf "unknown scenario %S (fig4a|fig4b|ab|cd|all)\n" name;
        exit 2
      | l -> l
  in
  print_endline
    "E1: the paper's Figure 4 executions and Section 4.1 case analysis, \
     replayed:";
  let ok = List.for_all run_one selected in
  if not ok then exit 1

let scenario_cmd =
  let scenario_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"NAME" ~doc:"fig4a|fig4b|ab|cd|all")
  in
  let show_trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Also print the schedule as a Figure-4-style timeline.")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"Replay the paper's Figure 4 executions (experiment E1).")
    Term.(const run_scenario $ show_trace $ scenario_arg)

(* ------------------------------------------------------------------ *)
(* starvation                                                           *)
(* ------------------------------------------------------------------ *)

let starvation () =
  let t =
    Workload.Table.create
      ~header:[ "writer ops"; "repeated-collect reader events"; "anderson reader events" ]
  in
  List.iter
    (fun n ->
      Workload.Table.add_row t
        [
          string_of_int n;
          string_of_int (Workload.Scenario.starvation_events ~writer_ops:n);
          string_of_int (Workload.Scenario.wait_free_events ~writer_ops:n);
        ])
    [ 1; 5; 10; 50; 100; 500 ];
  print_endline
    "wait-freedom: reader work under a writer storm (repeated double collect \
     starves; the construction is constant)";
  print_newline ();
  Workload.Table.print t

let starvation_cmd =
  Cmd.v
    (Cmd.info "starvation"
       ~doc:"Demonstrate wait-freedom vs reader starvation.")
    Term.(const starvation $ const ())

(* ------------------------------------------------------------------ *)
(* lemmas                                                               *)
(* ------------------------------------------------------------------ *)

let lemmas components readers schedules seed =
  Printf.printf
    "machine-checking the paper's proof lemmas on concrete runs (C=%d, R=%d, \
     %d schedules):\n\
     - Lemma 2: every Read has a state inside its window whose ghost \
     contents equal what it returned\n\
     - property (12): component ids are monotone across states\n\
     - Lemma 1: bounded Writer-0 progress without the sequence handshake\n\n\
     %!"
    components readers schedules;
  let r =
    Workload.Lemmas.run ~components ~readers ~schedules ~base_seed:seed ()
  in
  Format.printf "%a@." Workload.Lemmas.pp_report r;
  if
    r.Workload.Lemmas.lemma2_failures > 0
    || r.Workload.Lemmas.property12_failures > 0
    || r.Workload.Lemmas.lemma1_failures > 0
  then exit 1

let lemmas_cmd =
  let components =
    Arg.(value & opt int 3 & info [ "c"; "components" ] ~doc:"Components.")
  in
  let readers = Arg.(value & opt int 2 & info [ "r"; "readers" ] ~doc:"Readers.") in
  let schedules =
    Arg.(value & opt int 50 & info [ "schedules" ] ~doc:"Random schedules.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed.") in
  Cmd.v
    (Cmd.info "lemmas"
       ~doc:
         "Machine-check the paper's proof lemmas (Lemma 1, Lemma 2, property \
          (12)) on concrete runs.")
    Term.(const lemmas $ components $ readers $ schedules $ seed)

(* ------------------------------------------------------------------ *)
(* fullstack                                                            *)
(* ------------------------------------------------------------------ *)

let fullstack max_c =
  print_endline
    "E10: the composite register over MRSW registers constructed from SRSW \
     registers\n(SRSW operations per snapshot scan, solo process)";
  print_newline ();
  let t =
    Workload.Table.create
      ~header:[ "C"; "P=1"; "P=2"; "P=4"; "TR(C) (MRSW ops)" ]
  in
  let scan_cost ~c ~processes =
    let env = Csim.Sim.create ~trace:false () in
    let mem = Registers.Full_stack.memory env ~processes in
    let reg =
      Composite.Anderson.create mem ~readers:1 ~bits_per_value:16
        ~init:(Array.make c 0)
    in
    let t0 = Csim.Sim.now env in
    let (_ : Csim.Sim.stats) =
      Csim.Sim.run_solo env (fun () ->
          ignore (Composite.Anderson.scan_items reg ~reader:0))
    in
    Csim.Sim.now env - t0
  in
  for c = 1 to max_c do
    Workload.Table.add_row t
      [
        string_of_int c;
        string_of_int (scan_cost ~c ~processes:1);
        string_of_int (scan_cost ~c ~processes:2);
        string_of_int (scan_cost ~c ~processes:4);
        string_of_int (Composite.Complexity.tr ~c);
      ]
  done;
  Workload.Table.print t

(* ------------------------------------------------------------------ *)
(* trace                                                                *)
(* ------------------------------------------------------------------ *)

let trace_run impl components readers seed show_witness export_chrome =
  let open Csim in
  let env = Sim.create () in
  let mem = Memory.of_sim env in
  let init = Array.init components (fun k -> (k + 1) * 10) in
  (* Emit operation-span markers into the trace: invisible in the
     timeline rendering, reconstructed by the Chrome exporter. *)
  let note = Obs.Span.emitter env in
  let handle = Workload.Campaign.make_handle ~note impl mem ~readers ~init in
  let rec_ =
    Composite.Snapshot.record ~note ~clock:(fun () -> Sim.now env) ~initial:init
      handle
  in
  let writer k () =
    for s = 1 to 2 do
      rec_.Composite.Snapshot.rupdate ~writer:k (((k + 1) * 100) + s)
    done
  in
  let reader j () =
    for _ = 1 to 2 do
      ignore (rec_.Composite.Snapshot.rscan ~reader:j)
    done
  in
  let procs =
    Array.init (components + readers) (fun p ->
        if p < components then writer p else reader (p - components))
  in
  let (_ : Sim.stats) = Sim.run env ~policy:(Schedule.Random seed) procs in
  Printf.printf "one run of %s: C=%d R=%d seed=%d (2 ops per process)\n\n"
    (Workload.Campaign.impl_name impl)
    components readers seed;
  let label p =
    if p < components then Printf.sprintf "writer%d" p
    else Printf.sprintf "reader%d" (p - components)
  in
  print_string (Render.timeline ~proc_label:label (Sim.trace env));
  print_newline ();
  let h = Composite.Snapshot.history rec_ in
  Format.printf "%a@." (History.Snapshot_history.pp string_of_int) h;
  (match History.Shrinking.check ~equal:Int.equal h with
  | [] -> print_endline "shrinking conditions: all hold"
  | violations ->
    Printf.printf "shrinking violations (%d):\n" (List.length violations);
    List.iter
      (fun v -> Format.printf "  %a@." History.Shrinking.pp_violation v)
      violations);
  if show_witness then begin
    match History.Shrinking.witness ~equal:Int.equal h with
    | Error e -> Printf.printf "no witness: %s\n" e
    | Ok order ->
      print_endline "\nlinearization witness:";
      List.iteri
        (fun i op ->
          match op with
          | History.Shrinking.L_write w ->
            Printf.printf "  %2d. Write comp %d := %d%s\n" (i + 1)
              w.History.Snapshot_history.comp w.History.Snapshot_history.value
              (if w.History.Snapshot_history.id = 0 then " (initial)" else "")
          | History.Shrinking.L_read r ->
            Printf.printf "  %2d. Read -> [%s]\n" (i + 1)
              (String.concat "; "
                 (Array.to_list
                    (Array.map string_of_int r.History.Snapshot_history.values))))
        order
  end;
  match export_chrome with
  | None -> ()
  | Some path ->
    Obs.Chrome.export ~path ~proc_label:label (Sim.trace env);
    let spans = Obs.Span.of_trace (Sim.trace env) in
    Printf.printf
      "\nwrote Chrome trace-event JSON to %s (%d spans, max nesting %d) — \
       open in ui.perfetto.dev or chrome://tracing\n"
      path (List.length spans)
      (Obs.Span.max_depth spans)

let trace_cmd =
  let impl =
    Arg.(
      value
      & opt impl_conv Workload.Campaign.Impl_anderson
      & info [ "impl" ] ~doc:"Implementation to run.")
  in
  let components =
    Arg.(value & opt int 2 & info [ "c"; "components" ] ~doc:"Components.")
  in
  let readers = Arg.(value & opt int 1 & info [ "r"; "readers" ] ~doc:"Readers.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule seed.") in
  let witness =
    Arg.(value & flag & info [ "witness" ] ~doc:"Also print a linearization witness.")
  in
  let export_chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "export-chrome" ] ~docv:"FILE"
          ~doc:
            "Also export the run as Chrome trace-event JSON (operation spans \
             + memory accesses), loadable in ui.perfetto.dev or \
             chrome://tracing.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one seeded schedule and dump its timeline, history, checker \
          verdict and (optionally) linearization witness.")
    Term.(
      const trace_run $ impl $ components $ readers $ seed $ witness
      $ export_chrome)

(* ------------------------------------------------------------------ *)
(* profile                                                              *)
(* ------------------------------------------------------------------ *)

let profile_run impl components readers writes scans seed json =
  let open Csim in
  let env = Sim.create () in
  let _, procs =
    Workload.Campaign.workload ~note:(Obs.Span.emitter env)
      ~clock:(fun () -> Sim.now env)
      impl (Memory.of_sim env) ~components ~readers ~writes ~scans
  in
  let (_ : Sim.stats) = Sim.run env ~policy:(Schedule.Random seed) procs in
  let p = Obs.Profile.of_env env in
  Printf.printf
    "hot-cell contention profile: impl=%s C=%d R=%d ops/proc=%d/%d seed=%d\n\n"
    (Workload.Campaign.impl_name impl)
    components readers writes scans seed;
  Format.printf "%a@?" Obs.Profile.pp p;
  let spans = Obs.Span.of_trace (Sim.trace env) in
  Printf.printf "operation spans: %d reconstructed, max nesting depth: %d\n"
    (List.length spans)
    (Obs.Span.max_depth spans);
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Obs.Json.to_channel ~minify:false oc (Obs.Profile.to_json p);
        output_char oc '\n');
    Printf.printf "wrote profile JSON to %s\n" path

let profile_cmd =
  let impl =
    Arg.(
      value
      & opt impl_conv Workload.Campaign.Impl_anderson
      & info [ "impl" ] ~doc:"Implementation to profile.")
  in
  let components =
    Arg.(value & opt int 4 & info [ "c"; "components" ] ~doc:"Components.")
  in
  let readers = Arg.(value & opt int 2 & info [ "r"; "readers" ] ~doc:"Readers.") in
  let writes =
    Arg.(value & opt int 2 & info [ "writes" ] ~doc:"Writes per writer.")
  in
  let scans =
    Arg.(value & opt int 2 & info [ "scans" ] ~doc:"Scans per reader.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule seed.") in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also dump the profile as JSON.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one traced schedule and print the hot-cell contention profile: \
          per-cell read/write counts ranked by traffic, per-process event \
          counts, and switch adjacency (experiment E14).")
    Term.(
      const profile_run $ impl $ components $ readers $ writes $ scans $ seed
      $ json)

(* ------------------------------------------------------------------ *)
(* mutants                                                              *)
(* ------------------------------------------------------------------ *)

let mutants max_runs =
  print_endline
    "ablation: hunting a violating schedule for each mutated construction \
     (experiment E12):";
  print_newline ();
  let any_unexpected = ref false in
  List.iter
    (fun m ->
      let v = Composite.Mutants.hunt ~max_runs m in
      Printf.printf "%-18s %s (after %d schedules)%s\n"
        (Composite.Mutants.name m)
        (if v.Composite.Mutants.caught then "violation found" else "survived")
        v.Composite.Mutants.schedules_tried
        (match v.Composite.Mutants.counterexample with
        | Some msg -> ":\n                   " ^ msg
        | None -> "");
      match m with
      | Composite.Mutants.None_ | Composite.Mutants.No_second_write ->
        if v.Composite.Mutants.caught then any_unexpected := true
      | _ -> if not v.Composite.Mutants.caught then any_unexpected := true)
    (Composite.Mutants.None_ :: Composite.Mutants.all);
  print_newline ();
  print_endline
    "expected: every mutant caught except the control and no-second-write\n\
     (whose statement-7 publication rides on the next statement 3 — a \
     freshness\noptimization, not a safety mechanism).";
  if !any_unexpected then exit 1

let mutants_cmd =
  let max_runs =
    Arg.(value & opt int 3000 & info [ "max-runs" ] ~doc:"Schedules per mutant.")
  in
  Cmd.v
    (Cmd.info "mutants"
       ~doc:"Ablation study: remove each mechanism of Figure 3 and hunt for \
             a violating schedule (experiment E12).")
    Term.(const mutants $ max_runs)

(* ------------------------------------------------------------------ *)
(* resilience                                                           *)
(* ------------------------------------------------------------------ *)

let resilience components readers max_crash_point seed =
  Printf.printf
    "halting-failure sweep: for every process and every crash point <= %d, \
     halt it mid-operation\nand verify the survivors finish and their \
     history stays linearizable (C=%d, R=%d):\n\n%!"
    max_crash_point components readers;
  let r =
    Workload.Resilience.run ~components ~readers ~max_crash_point ~seed ()
  in
  Format.printf "%a@." Workload.Resilience.pp_report r;
  if r.Workload.Resilience.blocked > 0 || r.Workload.Resilience.not_linearizable > 0
  then exit 1

let resilience_cmd =
  let components =
    Arg.(value & opt int 2 & info [ "c"; "components" ] ~doc:"Components.")
  in
  let readers = Arg.(value & opt int 2 & info [ "r"; "readers" ] ~doc:"Readers.") in
  let max_crash =
    Arg.(value & opt int 12 & info [ "max-crash-point" ] ~doc:"Largest crash point.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed.") in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Halting-failure resilience sweep (the paper's Section 1 claim; \
          experiment E11).")
    Term.(const resilience $ components $ readers $ max_crash $ seed)

(* ------------------------------------------------------------------ *)
(* Fault campaigns: chaos, net, byz                                     *)
(* ------------------------------------------------------------------ *)

(* The flags every fault-campaign subcommand shares, [impls] already
   defaulted. *)
type sweep_flags = {
  impls : Workload.Campaign.impl list;
  components : int;
  readers : int;
  writes : int;
  scans : int;
  seeds : int;
  base_seed : int;
  minimize_budget : int;
  expect_flagged : bool;
}

(* What a subcommand makes of the shared flags with its own. *)
type ('profile, 'config, 'report) plan = {
  adhoc : 'profile option;
      (* one profile built from the subcommand's fault flags; overrides
         --profile *)
  known : 'profile list;  (* the default taxonomy --profile picks from *)
  config : 'profile list -> 'config;
  scope : string;  (* banner fields between the seed count and C= *)
  finish : 'report -> unit;  (* exports and extra exit conditions *)
}

module Fault_cmd (F : Workload.Fault_campaign.S) = struct
  (* Re-execute a minimized counterexample emitted by a campaign. *)
  let replay line =
    match F.cx_of_string line with
    | Error msg ->
      Printf.eprintf "cannot parse replay script: %s\n" msg;
      exit 2
    | Ok cx -> (
      match F.replay cx.F.cx_case ~script:cx.F.cx_script with
      | Workload.Fault_campaign.Passed ->
        print_endline "replay: passed (no violation reproduced)";
        exit 1
      | Diverged msg ->
        Printf.printf "replay: script diverged (%s)\n" msg;
        exit 1
      | Stuck_run msg ->
        Printf.printf "replay: reproduced a progress failure: %s\n" msg
      | Flagged vs ->
        Printf.printf "replay: reproduced %d violation(s):\n" (List.length vs);
        List.iter
          (fun v -> Format.printf "  %a@." History.Shrinking.pp_violation v)
          vs)

  let campaign ~title s profile_names jobs pool_trace expect_clean plan =
    let profiles =
      match (plan.adhoc, profile_names) with
      | Some p, _ -> [ p ]
      | None, [] -> plan.known
      | None, names -> List.filter (fun p -> List.mem (F.label p) names) plan.known
    in
    if profiles = [] then begin
      Printf.eprintf "no profile matched (known: %s)\n"
        (String.concat ", " (List.map F.label plan.known));
      exit 2
    end;
    (* No [jobs] in the banner: output is bit-identical at every job
       count, and the CI legs diff it. *)
    Printf.printf
      "%s: %d impl(s) x %d profile(s) x %d seed(s), %sC=%d R=%d \
       ops/proc=%d/%d\n\n\
       %!"
      title (List.length s.impls) (List.length profiles) s.seeds plan.scope
      s.components s.readers s.writes s.scans;
    let r =
      with_pool_trace pool_trace (fun pool ->
          F.run ~jobs ~pool (plan.config profiles))
    in
    Format.printf "%a@." F.pp_report r;
    List.iter
      (fun (c : F.cell) ->
        Option.iter (Format.printf "@.%a@." F.pp_counterexample) c.counterexample)
      r.cells;
    plan.finish r;
    if expect_clean && (r.total_flagged > 0 || r.total_stuck > 0) then exit 1;
    if s.expect_flagged && r.total_flagged = 0 then exit 1

  (* The subcommand: the shared flags, then [plan] over the
     subcommand's own. *)
  let cmd ~name ~doc ~title ~impls ~schedules ~budget ~adhoc_flags plan =
    let sweep impl_list components readers writes scans seeds base_seed
        minimize_budget expect_flagged =
      {
        impls = (if impl_list = [] then impls else impl_list);
        components;
        readers;
        writes;
        scans;
        seeds;
        base_seed;
        minimize_budget;
        expect_flagged;
      }
    in
    let flags =
      Term.(
        const sweep
        $ Arg.(
            value & opt_all impl_conv []
            & info [ "impl" ]
                ~doc:
                  (Printf.sprintf "Implementation(s) to stress (default: %s)."
                     (String.concat ", "
                        (List.map Workload.Campaign.impl_name impls))))
        $ Arg.(value & opt int 2 & info [ "c"; "components" ] ~doc:"Components.")
        $ Arg.(value & opt int 2 & info [ "r"; "readers" ] ~doc:"Readers.")
        $ Arg.(value & opt int 2 & info [ "writes" ] ~doc:"Writes per writer.")
        $ Arg.(value & opt int 2 & info [ "scans" ] ~doc:"Scans per reader.")
        $ schedules_term ~default:schedules
            ~doc:"Seeded schedules per (impl, profile) cell."
        $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed.")
        $ Arg.(
            value & opt int budget
            & info [ "minimize-budget" ]
                ~doc:
                  "Candidates the counterexample minimizer may judge, repeats \
                   answered from its cache included (0 disables).")
        $ Arg.(
            value & flag
            & info [ "expect-flagged" ]
                ~doc:"Exit nonzero if no run is flagged (negative-control mode)."))
    in
    let profiles =
      Arg.(
        value & opt_all string []
        & info [ "profile" ]
            ~doc:
              ("Profile(s) from the default taxonomy (repeatable; default: \
                all).  See the report for the labels.  Overridden by "
             ^ adhoc_flags ^ "."))
    in
    let expect_clean =
      Arg.(
        value & flag
        & info [ "expect-clean" ] ~doc:"Exit nonzero if any run is flagged or stuck.")
    in
    let replay_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "replay" ]
            ~doc:"Replay a minimized counterexample script verbatim and report.")
    in
    let run s profile_names jobs pool_trace expect_clean line plan =
      match line with
      | Some line -> replay line
      | None ->
        check_campaign_flags ~components:s.components ~readers:s.readers
          ~writes:s.writes ~scans:s.scans ~schedules:s.seeds
          ~minimize_budget:s.minimize_budget ~expect_clean
          ~expect_flagged:s.expect_flagged;
        campaign ~title s profile_names jobs pool_trace expect_clean (plan s)
    in
    Cmd.v (Cmd.info name ~doc)
      Term.(
        const run $ flags $ profiles $ jobs_arg $ pool_trace_arg $ expect_clean
        $ replay_arg $ plan)
end

let fault_conv =
  let parse s =
    match Csim.Faults.injection_of_string s with
    | Ok i -> Ok i
    | Error msg -> Error (`Msg msg)
  in
  let print fmt i = Csim.Faults.pp_injection fmt i in
  Arg.conv (parse, print)

let chaos_cmd =
  let module C = Fault_cmd (Workload.Chaos) in
  let open Workload.Chaos in
  let faults =
    Arg.(
      value & opt_all fault_conv []
      & info [ "fault" ]
          ~doc:
            "Ad-hoc fault injection (repeatable): KIND:ARG[@PREFIX] with KIND \
             in lost|stuck|stutter|corrupt|regular, e.g. lost:0.2 or \
             regular:2\\@Y.  Overrides --profile.")
  in
  let plan faults (s : sweep_flags) =
    {
      (* Explicit fault specs build one ad-hoc faulty-memory profile. *)
      adhoc = (if faults = [] then None else Some (profile "cli" ~injections:faults));
      known = default_profiles ~components:s.components ~readers:s.readers;
      config =
        (fun profiles ->
          {
            default with
            impls = s.impls;
            profiles;
            components = s.components;
            readers = s.readers;
            writes_per_writer = s.writes;
            scans_per_reader = s.scans;
            seeds = s.seeds;
            base_seed = s.base_seed;
            minimize_budget = s.minimize_budget;
          });
      scope = "";
      finish = ignore;
    }
  in
  C.cmd ~name:"chaos" ~title:"chaos campaign" ~impls:default.impls
    ~schedules:default.seeds ~budget:default.minimize_budget
    ~adhoc_flags:"--fault"
    ~doc:
      "Fault-injection campaigns: faulty base memory (lost/stuck/stuttered \
       writes, read corruption, regular-register weakening), process \
       crashes and stall/resume faults, adversarial starvation \
       scheduling; flagged runs are delta-debugged to a minimal \
       replayable counterexample."
    Term.(const plan $ faults)

let net_cmd =
  let module C = Fault_cmd (Workload.Netchaos) in
  let open Workload.Netchaos in
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"N" ~doc:"Server replicas.")
  in
  let crash =
    Arg.(
      value & opt int 0
      & info [ "crash" ] ~docv:"F"
          ~doc:
            "Crash-stop the last F replicas mid-run (ad-hoc profile; must \
             keep a majority alive).")
  in
  let loss =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P"
          ~doc:"Per-message loss probability in [0,1) (ad-hoc profile).")
  in
  let broken_quorum =
    Arg.(
      value & flag
      & info [ "broken-quorum" ]
          ~doc:
            "Negative control: force quorum size 1, voiding the ABD \
             intersection argument; the checkers must catch it.")
  in
  let byz =
    let parse s =
      Result.map_error (fun m -> `Msg m) (Net.Sim.byz_replica_of_string s)
    in
    let print fmt b = Format.pp_print_string fmt (Net.Sim.byz_replica_to_string b) in
    Arg.(
      value & opt_all (conv (parse, print)) []
      & info [ "byz" ] ~docv:"REPLICA:FLAVOR"
          ~doc:
            "Make a replica Byzantine instead of crash-stop (repeatable, \
             ad-hoc profile): FLAVOR is forge (acks without storing, leads \
             timestamps), stale (serves the initial value), equivocate \
             (answers honestly or stale by client parity) or mute.  The ABD \
             emulation makes no Byzantine claim, so expect flags.")
  in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Export one run's message timeline (sends, deliveries, drops, \
             timeouts, per-endpoint tracks) as Chrome trace-event JSON.")
  in
  let causal_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "causal-trace" ] ~docv:"FILE"
          ~doc:
            "Export one run's merged causal trace as Chrome trace-event \
             JSON: span trees for every composite Scan/Update, ABD op, \
             quorum phase and per-replica rpc, plus the message timeline \
             with flow arrows joining sends to deliveries.")
  in
  let plan replicas crash loss broken_quorum byz timeline causal_trace
      (s : sweep_flags) =
    (* One representative logged run for either export: first impl,
       first profile, base seed. *)
    let rep_case (r : report) =
      let c = List.hd r.cells in
      {
        impl = c.cell_impl;
        prof = c.cell_profile;
        replicas;
        components = s.components;
        readers = s.readers;
        writes_per_writer = s.writes;
        scans_per_reader = s.scans;
        seed = s.base_seed;
      }
    in
    let finish r =
      Option.iter
        (fun path ->
          let tr = export_timeline ~pp:Net.Abd.payload_label (rep_case r) ~path in
          Printf.printf "wrote message timeline (%d sent, %d delivered) to %s\n"
            tr.net.Net.Sim.sent tr.net.Net.Sim.delivered path)
        timeline;
      Option.iter
        (fun path ->
          let tr, c = export_causal ~pp:Net.Abd.payload_label (rep_case r) ~path in
          Printf.printf
            "wrote merged causal trace (%d msgs, %d spans, %d unclosed, %d \
             mismatched) to %s\n"
            tr.net.Net.Sim.sent (Obs.Causal.span_count c)
            (Obs.Causal.unclosed_count c) (Obs.Causal.mismatched c) path)
        causal_trace
    in
    {
      adhoc =
        (* Explicit knobs build one ad-hoc profile: the last [crash]
           replicas stop early, each message is lost with prob [loss],
           the [--byz] replicas lie. *)
        (if crash > 0 || loss > 0.0 || broken_quorum || byz <> [] then
           Some
             (profile "cli" ~loss
                ~crashes:(List.init crash (fun j -> (replicas - 1 - j, 3 + j)))
                ~byz
                ?quorum:(if broken_quorum then Some 1 else None))
         else None);
      known = default_profiles ~replicas;
      config =
        (fun profiles ->
          {
            default with
            impls = s.impls;
            profiles;
            replicas;
            components = s.components;
            readers = s.readers;
            writes_per_writer = s.writes;
            scans_per_reader = s.scans;
            seeds = s.seeds;
            base_seed = s.base_seed;
            minimize_budget = s.minimize_budget;
          });
      scope = Printf.sprintf "n=%d replicas, " replicas;
      finish;
    }
  in
  C.cmd ~name:"net" ~title:"net chaos campaign" ~impls:default.impls
    ~schedules:default.seeds ~budget:default.minimize_budget
    ~adhoc_flags:"--crash/--loss/--broken-quorum/--byz"
    ~doc:
      "Run the composite constructions over the message-passing backend \
       (ABD quorum emulation on a simulated crash-prone network) under \
       message loss, reordering, replica crashes and Byzantine replicas; \
       flagged runs are delta-debugged over the message schedule to a \
       minimal replayable counterexample."
    Term.(
      const plan $ replicas $ crash $ loss $ broken_quorum $ byz $ timeline
      $ causal_trace)

let byz_cmd =
  let module C = Fault_cmd (Workload.Byzchaos) in
  let open Workload.Byzchaos in
  let faults =
    Arg.(
      value & opt_all fault_conv []
      & info [ "fault" ]
          ~doc:
            "Ad-hoc adversary (repeatable): KIND:ARG[@TARGET] with KIND in \
             lost|stuck|stutter|corrupt|regular|equivocate|regress|byz and \
             TARGET a name prefix, =NAME exact, or *SUB substring — e.g. \
             byz:2:1 (budget of 2 lying cells) or equivocate:1\\@*.rep0 \
             (replica 0 of every link).  Overrides --profile.")
  in
  let tolerance =
    Arg.(
      value & opt int 1
      & info [ "f" ] ~docv:"F"
          ~doc:
            "Tolerance of the Byzantine construction protecting the ad-hoc \
             profile: each register masks up to F lying base replicas.")
  in
  let unprotected =
    Arg.(
      value & flag
      & info [ "unprotected" ]
          ~doc:
            "Drop the Byzantine-tolerant layer from the ad-hoc profile: the \
             implementations read the faulty memory directly (negative \
             control; combine with --expect-flagged).")
  in
  let plan faults tolerance unprotected (s : sweep_flags) =
    check_byz_shape ~writes:s.writes ~scans:s.scans;
    {
      (* Explicit adversary specs build one ad-hoc profile; the
         expectation follows the expect flag so the boundary report
         stays meaningful. *)
      adhoc =
        (if faults = [] then None
         else
           Some
             (profile "cli"
                ~protection:(if unprotected then Unprotected else Tolerant tolerance)
                ~expect:(if s.expect_flagged then Break else Survive)
                faults));
      known = default_profiles ~components:s.components ~readers:s.readers;
      config =
        (fun profiles ->
          {
            default with
            impls = s.impls;
            profiles;
            components = s.components;
            readers = s.readers;
            writes_per_writer = s.writes;
            scans_per_reader = s.scans;
            seeds = s.seeds;
            base_seed = s.base_seed;
            minimize_budget = s.minimize_budget;
          });
      scope = "";
      finish = (fun r -> if not (boundary_holds r) then exit 1);
    }
  in
  C.cmd ~name:"byz" ~title:"byzantine campaign" ~impls:default.impls
    ~schedules:default.seeds ~budget:default.minimize_budget
    ~adhoc_flags:"--fault"
    ~doc:
      "Byzantine survive/break campaigns: the composite constructions run \
       over the f-tolerant Byzantine register construction whose base \
       cells equivocate, regress timestamps and lie under a budget; \
       survive profiles (adversary within f) must stay clean, break \
       profiles (budget exceeded, or the unprotected stack) must be \
       caught and delta-debugged to a minimal replayable counterexample.  \
       Exits nonzero if any profile lands on the wrong side of the \
       tolerance boundary."
    Term.(const plan $ faults $ tolerance $ unprotected)

(* ------------------------------------------------------------------ *)
(* serve (E17's and E22's correctness side)                            *)
(* ------------------------------------------------------------------ *)

let outer_conv =
  let parse s =
    match Serve.outer_impl_of_name s with
    | Some o -> Ok o
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown outer implementation %S (anderson|afek)" s))
  in
  let print fmt o = Format.pp_print_string fmt (Serve.outer_impl_name o) in
  Arg.conv (parse, print)

let serve_run outer shard_counts steps components readers writes scans
    schedules jobs pool_trace no_validate no_cache no_combine no_migrate
    minimize_budget expect_clean expect_flagged =
  check_campaign_flags ~components ~readers ~writes ~scans ~schedules
    ~minimize_budget ~expect_clean ~expect_flagged;
  let shard_counts = if shard_counts = [] then [ 1; 2; 4 ] else shard_counts in
  let shard_counts =
    List.sort_uniq compare
      (List.filter (fun s -> s >= 1 && s <= components) shard_counts)
  in
  if shard_counts = [] then begin
    Printf.eprintf "no requested shard count lies in 1..%d\n" components;
    exit 2
  end;
  let validate = not no_validate
  and cache = not no_cache
  and combine = not no_combine
  and migrate = not no_migrate in
  let pp_steps s =
    if s = [] then "(none)" else String.concat "->" (List.map string_of_int s)
  in
  (* No [jobs] in the banner: clean campaign output is bit-identical at
     every job count, and the CI legs diff it. *)
  Printf.printf
    "serve campaign: outer=%s C=%d R=%d ops/proc=%d/%d runs/shard-count=%d \
     validate=%b cache=%b combine=%b%s\n\n\
     %!"
    (Serve.outer_impl_name outer)
    components readers writes scans schedules validate cache combine
    (if steps = [] then ""
     else Printf.sprintf " steps=%s migrate=%b" (pp_steps steps) migrate);
  let t =
    Workload.Table.create
      ~header:
        [
          "S"; "runs"; "ops"; "epochs"; "flagged"; "oracle fails";
          "acct fails"; "publishes"; "coalesced"; "combined"; "hit%"; "stale";
        ]
  in
  let results =
    with_pool_trace pool_trace (fun pool ->
        List.map
          (fun shards ->
            let m = Obs.Metrics.create () in
            let cfg =
              {
                Workload.Serve_campaign.outer;
                shards;
                schedule = steps;
                components;
                readers;
                writer_ops = writes;
                reader_ops = scans;
                runs = schedules;
                validate;
                cache;
                combine;
                migrate;
                check_generic = components * (writes + scans) <= 40;
                minimize_budget;
              }
            in
            let r = Workload.Serve_campaign.run ~jobs ~pool ~metrics:m cfg in
            let c name =
              Obs.Metrics.counter_value (Obs.Metrics.counter m name)
            in
            (* Under --no-validate the blind reuses are counted by the
               campaign's mutant wrapper, not by the service. *)
            let hits = c "serve.cache.hit" + c "serve_campaign.blind_hits" in
            let stale = c "serve.cache.stale" in
            let cached_scans = hits + c "serve.cache.miss" + stale in
            Workload.Table.add_row t
              (List.map string_of_int
                 [
                   shards; r.runs; r.ops_checked; r.epochs_completed;
                   r.flagged_runs; r.generic_failures; r.accounting_failures;
                   c "serve.publishes"; c "serve.coalesced";
                   c "serve.scan.combined";
                 ]
              @ [
                  (if cached_scans = 0 then "-"
                   else
                     Printf.sprintf "%.0f"
                       (100. *. float hits /. float cached_scans));
                  string_of_int stale;
                ]);
            (shards, r))
          shard_counts)
  in
  Workload.Table.print t;
  List.iter
    (fun (shards, (r : Workload.Serve_campaign.result)) ->
      Option.iter
        (fun s ->
          Printf.printf "minimized schedule: %s (from S=%d)\n" (pp_steps s)
            shards)
        r.minimized)
    results;
  (match List.find_map (fun (_, r) -> r.Workload.Serve_campaign.example) results with
  | Some ex -> Format.printf "@.example violation:@.%s@." ex
  | None -> ());
  let failures =
    List.fold_left
      (fun n (_, r) -> n + Workload.Serve_campaign.failures r)
      0 results
  in
  if expect_clean && failures > 0 then exit 1;
  if expect_flagged && failures = 0 then exit 1

let serve_cmd =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let int_opt names default doc =
    Arg.(value & opt int default & info names ~doc)
  in
  let outer =
    Arg.(
      value
      & opt outer_conv Serve.Outer_afek
      & info [ "impl" ] ~docv:"anderson|afek"
          ~doc:"Construction for the outer register of shard views.")
  in
  let shard_counts =
    Arg.(
      value & opt_all int []
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Initial shard count to stress (repeatable, forming a matrix; \
             default 1, 2, 4; counts above C are dropped).")
  in
  let steps =
    Arg.(
      value & opt_all int []
      & info [ "step" ] ~docv:"S"
          ~doc:
            "Reshard step: target shard count, repeatable, walked in order \
             by a reconfigurer domain while the load runs (clamped to \
             1..C; default none, a static service).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Stress the sharded serving layer (write-coalescing mailboxes, \
          validated read caching, scan-sharing) on real domains across a \
          shard-count matrix, optionally resharding it live through a \
          schedule of --step shard counts; every recorded history is \
          checked with the Shrinking and Wing-Gong checkers and the \
          service's counter identities must close exactly, per epoch \
          (experiments E17 and E22, correctness side).")
    Term.(
      const serve_run $ outer $ shard_counts $ steps
      $ int_opt [ "c"; "components" ] 4 "Components."
      $ int_opt [ "r"; "readers" ] 2 "Readers."
      $ int_opt [ "writes" ] 4 "Synchronous updates per writer domain."
      $ int_opt [ "scans" ] 4 "Scans per reader domain."
      $ int_opt [ "schedules" ] 5 "Service lifetimes to stress per shard count."
      $ jobs_arg $ pool_trace_arg
      $ flag "no-validate"
          "Disable cache freshness validation (the broken mutant readers \
           reuse caches blindly; the checkers must flag it)."
      $ flag "no-cache" "Disable read caching (every scan is full)."
      $ flag "no-combine"
          "Disable scan-sharing (every cache miss pays its own outer scan; \
           the pre-combining differential baseline)."
      $ flag "no-migrate"
          "Publish-before-migrate mutant: each reshard publishes the new \
           shard map with the previous epoch's boundary snapshot, so \
           acknowledged writes vanish at the switch (negative control; \
           needs --step, combine with --expect-flagged)."
      $ int_opt [ "minimize-budget" ] 40
          "Candidates the reshard-schedule minimizer may judge shrinking a \
           failing step list, one lifetime each unless a repeat (0 \
           disables)."
      $ flag "expect-clean"
          "Exit nonzero if any run is flagged by any checker or breaks the \
           counter identities."
      $ flag "expect-flagged"
          "Exit nonzero if no run fails any check (negative-control mode).")

(* ------------------------------------------------------------------ *)
(* serve-net                                                            *)
(* ------------------------------------------------------------------ *)

(* One process, real sockets: start the TCP edge on an ephemeral
   loopback port over the chosen backend, drive it with the open- or
   closed-loop generator, then shut down gracefully and grade what the
   histograms and the accounting identities say.  perfbench's
   edge-mixed workload measures the same edge with a spread. *)
let serve_net_run backend_name shards reshard_to components workers conns
    clients ops rate write_ratio post_ratio zipf seed domains expect_clean =
  let components = max 1 components in
  let init = Array.init components (fun k -> (k + 1) * 10) in
  let arrival =
    if rate > 0.0 then Workload.Loadgen.Open_loop rate
    else Workload.Loadgen.Closed_loop
  in
  let cfg =
    {
      Workload.Loadgen.connections = conns;
      clients = max clients conns;
      ops;
      arrival;
      write_ratio;
      post_ratio;
      zipf_theta = zipf;
      seed;
      domains;
    }
  in
  (* Out-of-range values are usage errors: the load config and the
     backend are validated before the server starts. *)
  let backend, server =
    try
      Workload.Loadgen.validate cfg;
      let backend =
        match backend_name with
        | "serve" ->
          let max_shards = List.fold_left max shards reshard_to in
          Edge.Backend.of_serve ~max_shards ~shards ~workers ~init ()
        | "multicore" ->
          Edge.Backend.of_handle ~label:"multicore" ~workers
            (Composite.Multicore.afek ~init)
        | other ->
          Printf.eprintf
            "serve-net: unknown backend %S (serve or multicore)\n" other;
          exit 2
      in
      ( backend,
        Edge.Server.start
          ~config:{ Edge.Server.workers; backlog = 64; grace = 1.0 }
          backend )
    with Invalid_argument msg ->
      Printf.eprintf "serve-net: %s\n" msg;
      exit 2
  in
  let m = Obs.Metrics.create () in
  Printf.printf
    "serve-net: backend=%s components=%d workers=%d conns=%d clients=%d \
     ops=%d %s zipf=%.2f seed=%d\n\
     %!"
    backend.Edge.Backend.label components workers conns cfg.clients ops
    (match arrival with
    | Workload.Loadgen.Open_loop r -> Printf.sprintf "open-loop@%.0f/s" r
    | Workload.Loadgen.Closed_loop -> "closed-loop")
    zipf seed;
  (* Mid-load online reconfigurations, issued over the wire like any
     other client: wait for the first ops to land, then walk the
     requested shard counts while the generator keeps the edge busy. *)
  let reshard_errors = Atomic.make 0 in
  let resharder =
    if reshard_to = [] then None
    else
      Some
        (Domain.spawn (fun () ->
             let busy () =
               let st = Edge.Server.stats server in
               st.Edge.Server.writes + st.Edge.Server.posts
               + st.Edge.Server.scans
               > 0
             in
             let deadline = Unix.gettimeofday () +. 5.0 in
             while (not (busy ())) && Unix.gettimeofday () < deadline do
               Unix.sleepf 0.01
             done;
             let c = Edge.Client.connect ~port:(Edge.Server.port server) () in
             Fun.protect
               ~finally:(fun () -> Edge.Client.close c)
               (fun () ->
                 List.iter
                   (fun s ->
                     (match Edge.Client.reshard c ~shards:s with
                     | Ok epoch ->
                       Printf.printf "reshard -> S=%d (epoch %d)\n%!" s epoch
                     | Error msg ->
                       Atomic.incr reshard_errors;
                       Printf.printf "reshard -> S=%d FAILED: %s\n%!" s msg);
                     Unix.sleepf 0.02)
                   reshard_to)))
  in
  let rep =
    Workload.Loadgen.run ~metrics:m ~port:(Edge.Server.port server) ~components
      cfg
  in
  Option.iter Domain.join resharder;
  let identities = Edge.Server.shutdown server in
  Edge.Server.observe server m;
  let {
    Workload.Loadgen.ops_done;
    errors;
    elapsed_ns;
    throughput_per_sec;
    stalled_conns;
  } =
    rep
  in
  Printf.printf "ops: %d done, %d errors, %d stalled connections\n" ops_done
    errors stalled_conns;
  Printf.printf "elapsed: %.3f s, throughput: %.0f ops/s\n"
    (float_of_int elapsed_ns /. 1e9)
    throughput_per_sec;
  let t =
    Workload.Table.create
      ~header:[ "op"; "count"; "p50 us"; "p99 us"; "p999 us"; "max us" ]
  in
  List.iter
    (fun kind ->
      match Obs.Metrics.find_histogram m ("edge." ^ kind ^ ".latency_ns") with
      | None -> ()
      | Some h when Obs.Metrics.count h = 0 -> ()
      | Some h ->
        let us p = Printf.sprintf "%.0f" (float (Obs.Metrics.percentile h p) /. 1e3) in
        Workload.Table.add_row t
          [
            kind;
            string_of_int (Obs.Metrics.count h);
            us 50.;
            us 99.;
            us 99.9;
            Printf.sprintf "%.0f" (float (Obs.Metrics.hist_max h) /. 1e3);
          ])
    [ "write"; "post"; "scan" ];
  Workload.Table.print t;
  let {
    Edge.Server.accepted;
    disconnects;
    hellos = _;
    writes;
    posts;
    scans;
    reshards;
    protocol_errors;
    op_errors;
    fiber_errors;
  } =
    Edge.Server.stats server
  in
  Printf.printf
    "server: %d accepted, %d disconnects, ops %d/%d/%d (write/post/scan), \
     %d reshards, errors %d protocol %d op %d fiber\n"
    accepted disconnects writes posts scans reshards protocol_errors op_errors
    fiber_errors;
  (match backend.Edge.Backend.counters () with
  | [] -> ()
  | cs ->
    print_string "backend:";
    List.iter (fun (k, v) -> Printf.printf " %s=%d" k v) cs;
    print_newline ());
  (match identities with
  | Ok () -> print_endline "accounting identities: ok"
  | Error msg -> Printf.printf "accounting identities: BROKEN (%s)\n" msg);
  let edge_budgets =
    List.filter
      (fun b -> String.length b.Obs.Slo.op > 5 && String.sub b.Obs.Slo.op 0 5 = "edge/")
      Obs.Slo.default_budgets
  in
  Format.printf "@[<v>SLO budgets:@,%a@]@." Obs.Slo.pp
    (Obs.Slo.check ~budgets:edge_budgets m);
  let clean =
    errors = 0 && stalled_conns = 0 && protocol_errors = 0 && op_errors = 0
    && fiber_errors = 0
    && Atomic.get reshard_errors = 0
    && reshards = List.length reshard_to
    && ops_done = ops
    && match identities with Ok () -> true | Error _ -> false
  in
  if expect_clean && not clean then begin
    print_endline "serve-net: NOT CLEAN";
    exit 1
  end

let serve_net_cmd =
  let backend =
    Arg.(
      value & opt string "serve"
      & info [ "backend" ] ~docv:"NAME"
          ~doc:
            "What the edge serves: $(b,serve) (the sharded serving layer on \
             real domains) or $(b,multicore) (an Afek handle on real \
             domains).")
  in
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"S"
          ~doc:"Shard count for the serve backend (ignored otherwise).")
  in
  let reshard_to =
    Arg.(
      value & opt_all int []
      & info [ "reshard-to" ] ~docv:"S"
          ~doc:
            "Reshard the serve backend to $(docv) shards mid-load, over the \
             wire, without dropping connections; repeatable — each occurrence \
             is one online epoch switch, walked in order.")
  in
  let components =
    Arg.(value & opt int 8 & info [ "c"; "components" ] ~doc:"Components.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~doc:"Server worker domains (accept loops).")
  in
  let conns =
    Arg.(
      value & opt int 16
      & info [ "conns" ] ~docv:"N" ~doc:"Client socket connections.")
  in
  let clients =
    Arg.(
      value & opt int 256
      & info [ "clients" ] ~docv:"N"
          ~doc:"Logical clients multiplexed over the connections.")
  in
  let ops =
    Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"Total operations.")
  in
  let rate =
    Arg.(
      value & opt float 20000.0
      & info [ "rate" ] ~docv:"OPS/S"
          ~doc:
            "Open-loop Poisson arrival rate in ops/second; 0 switches to \
             closed-loop (each connection fires as soon as its previous \
             response lands).")
  in
  let write_ratio =
    Arg.(
      value & opt float 0.3
      & info [ "write-ratio" ] ~doc:"Fraction of ops that write.")
  in
  let post_ratio =
    Arg.(
      value & opt float 0.5
      & info [ "post-ratio" ] ~doc:"Fraction of writes sent as async posts.")
  in
  let zipf =
    Arg.(
      value & opt float 0.9
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:"Zipfian component skew; 0 = uniform.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Plan seed.") in
  let domains =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~doc:"Client domains driving the connections.")
  in
  let expect_clean =
    Arg.(
      value & flag
      & info [ "expect-clean" ]
          ~doc:
            "Exit nonzero unless every op completed without error, no \
             connection stalled, the server saw no protocol/op/fiber errors, \
             and the backend's accounting identities hold at quiescence.")
  in
  Cmd.v
    (Cmd.info "serve-net"
       ~doc:
         "Serve a composite-register backend over TCP (length-prefixed binary \
          frames, effect-based accept loops on a worker-domain pool) and \
          drive it with the open-/closed-loop load generator in the same \
          process: throughput, latency percentiles, SLO verdicts and the \
          accounting identities at graceful shutdown.")
    Term.(
      const serve_net_run $ backend $ shards $ reshard_to $ components
      $ workers $ conns $ clients $ ops $ rate $ write_ratio $ post_ratio
      $ zipf $ seed $ domains $ expect_clean)

let fullstack_cmd =
  let max_c = Arg.(value & opt int 6 & info [ "max-c" ] ~doc:"Largest C.") in
  Cmd.v
    (Cmd.info "fullstack"
       ~doc:
         "Cost of the snapshot when its MRSW registers are themselves \
          constructed from SRSW registers (experiment E10).")
    Term.(const fullstack $ max_c)

(* ------------------------------------------------------------------ *)
(* stat                                                                 *)
(* ------------------------------------------------------------------ *)

(* One-screen health snapshot of the whole stack: a traced shm run for
   the hot-cell profile and span health, a traced net run for the
   message counters and causal span accounting, and the SLO budget
   table graded over the latency histograms both probe runs book. *)
let stat seed =
  let m = Obs.Metrics.create () in
  Printf.printf "composite registers: status snapshot (seed %d)\n" seed;
  (* shm probe: one traced schedule, the E14 shape. *)
  let profile, shm_spans, shm_mismatched =
    let open Csim in
    let env = Sim.create () in
    let rec_, procs =
      Workload.Campaign.workload ~note:(Obs.Span.emitter env)
        ~clock:(fun () -> Sim.now env)
        Workload.Campaign.Impl_anderson (Memory.of_sim env) ~components:4
        ~readers:2 ~writes:2 ~scans:2
    in
    let (_ : Sim.stats) = Sim.run env ~policy:(Schedule.Random seed) procs in
    Workload.Campaign.observe_op_latencies m ~prefix:"campaign.shm"
      (Composite.Snapshot.history rec_);
    let spans = Obs.Span.of_trace ~metrics:m (Sim.trace env) in
    (Obs.Profile.of_env env, spans, Obs.Span.mismatch_count spans)
  in
  print_endline "\nshm probe (anderson, C=4 R=2, 2 ops/proc) — top hot cells:";
  Format.printf "%a@?" Obs.Profile.pp
    { profile with Obs.Profile.rows = Obs.Profile.top ~n:5 profile };
  Printf.printf "operation spans: %d reconstructed, %d mismatched end markers\n"
    (List.length shm_spans) shm_mismatched;
  (* net probe: one traced run over the ABD emulation, with a replica
     crash and message loss so the counters have something to show. *)
  let case =
    {
      Workload.Netchaos.impl = Workload.Campaign.Impl_anderson;
      prof =
        Workload.Netchaos.profile ~loss:0.05 ~crashes:[ (0, 40) ] "loss+crash";
      replicas = 3;
      components = 3;
      readers = 2;
      writes_per_writer = 3;
      scans_per_reader = 3;
      seed;
    }
  in
  let c = Obs.Causal.create () in
  let r = Workload.Netchaos.run_once ~metrics:m ~causal:c case in
  let s = r.Workload.Netchaos.net in
  print_endline "\nnet probe (abd, n=3, loss 5%, crash replica 0):";
  Printf.printf
    "  messages: %d sent, %d delivered, %d lost, %d to-crashed, %d timeouts\n"
    s.Net.Sim.sent s.Net.Sim.delivered s.Net.Sim.lost s.Net.Sim.to_crashed
    s.Net.Sim.timeouts;
  Printf.printf "  outcome: %s\n"
    (match r.Workload.Netchaos.outcome with
    | Workload.Fault_campaign.Passed -> "clean"
    | Workload.Fault_campaign.Flagged vs ->
      Printf.sprintf "FLAGGED (%d violations)" (List.length vs)
    | Workload.Fault_campaign.Stuck_run msg -> "STUCK: " ^ msg
    | Workload.Fault_campaign.Diverged msg -> "DIVERGED: " ^ msg);
  Printf.printf
    "  causal spans: %d collected, %d unclosed (crashed-replica rpcs), %d \
     mismatched\n"
    (Obs.Causal.span_count c)
    (Obs.Causal.unclosed_count c)
    (Obs.Causal.mismatched c);
  (* SLO verdicts over what the two probes booked; classes this
     snapshot does not exercise (byz, serve) show as "(no data)". *)
  Format.printf "@.SLO budgets (p999 per op class):@.%a@?" Obs.Slo.pp
    (Obs.Slo.check m)

let stat_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Schedule seed for both probe runs.")
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "One-screen status snapshot: hot cells and span health of a traced \
          shared-memory run, message counters and causal span accounting of \
          a traced network run, and the SLO budget table over both probes' \
          latency histograms.")
    Term.(const stat $ seed)

(* ------------------------------------------------------------------ *)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "composite-registers" ~version:"1.0.0"
      ~doc:
        "Wait-free atomic snapshots: a reproduction of Anderson's composite \
         registers (PODC 1990)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            verify_cmd; complexity_cmd; space_cmd; compare_cmd; scenario_cmd;
            starvation_cmd; lemmas_cmd; fullstack_cmd; resilience_cmd;
            mutants_cmd; trace_cmd; chaos_cmd; net_cmd; byz_cmd; serve_cmd;
            serve_net_cmd; profile_cmd; stat_cmd;
          ]))
