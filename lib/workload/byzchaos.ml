open Csim

(* Byzantine survive/break campaigns across the full stack: run the
   composite snapshot constructions over [Registers.Byzantine.memory]
   (the f-tolerant SWMR-from-SWSR construction) whose base cells are
   actively faulty ([Csim.Faults] Byzantine kinds), and assert the
   tolerance boundary from both sides —

   - within tolerance (at most f lying base cells per link) every
     history must check out clean: the construction masks the lies;
   - beyond tolerance (f+1 concentrated liars) or with the Byzantine
     layer removed entirely (the unprotected stack), the Shrinking
     oracle must catch the regression, and [Fault_campaign] minimizes
     the failure to a replayable counterexample. *)

(* ------------------------------------------------------------------ *)
(* Profiles                                                             *)
(* ------------------------------------------------------------------ *)

type protection =
  | Unprotected  (* impls run directly over the faulty memory *)
  | Tolerant of int  (* Registers.Byzantine.memory ~f in between *)

type expectation = Survive | Break

type profile = {
  label : string;
  protection : protection;
  injections : Faults.injection list;
  expect : expectation;
}

let profile ?(protection = Tolerant 1) ~expect label injections =
  { label; protection; injections; expect }

let protection_label = function
  | Unprotected -> "none"
  | Tolerant f -> Printf.sprintf "f=%d" f

(* The default sweep over f and misbehavior profiles.  Survive rows
   keep the adversary within the construction's budget: at most [f]
   faulty base cells per link, placed either by the budgeted [Byzantine]
   adversary (claims in allocation order, so it concentrates on the
   first link) or by targeting the [.repK] replica groups of
   [Registers.Byzantine] cell names.  Break rows exceed the budget —
   every replica of every link into the first scanning reader lies —
   or drop the protective layer entirely. *)
let default_profiles ~components ~readers:_ =
  let all kind = [ { Faults.kind; target = Faults.All } ] in
  let at sub kind = [ { Faults.kind; target = Faults.Contains sub } ] in
  (* Reader ports are process ids; the first scanning reader is process
     [components].  Every link delivering to it has a cell name
     containing "<port>.rep" ("...w2rP.repK" or "...rIrP.repK"). *)
  let first_reader_links = Printf.sprintf "%d.rep" components in
  [
    profile "byz1-masked" ~expect:Survive
      (all (Faults.Byzantine { f = 1; prob = 1.0 }));
    profile "byz2-masked-f2" ~protection:(Tolerant 2) ~expect:Survive
      (all (Faults.Byzantine { f = 2; prob = 1.0 }));
    profile "equivocate-rep0" ~expect:Survive
      (at ".rep0" (Faults.Equivocate { prob = 1.0 }));
    profile "regress-rep0" ~expect:Survive
      (at ".rep0" (Faults.Regress { prob = 1.0 }));
    profile "drops-rep0" ~expect:Survive
      (at ".rep0" (Faults.Lost_write { prob = 0.6 }));
    profile "regress-reader" ~expect:Break
      (at first_reader_links (Faults.Regress { prob = 1.0 }));
    profile "unprotected" ~protection:Unprotected ~expect:Break
      (all (Faults.Byzantine { f = 1; prob = 1.0 }));
  ]

(* Survive rows must stay clean, Break rows must be caught. *)
let as_expected_of p ~flagged ~stuck =
  match p.expect with Survive -> flagged = 0 && stuck = 0 | Break -> flagged > 0

(* ------------------------------------------------------------------ *)
(* Single runs                                                          *)
(* ------------------------------------------------------------------ *)

type config = {
  impls : Campaign.impl list;
  profiles : profile list;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  seeds : int;
  base_seed : int;
  max_steps : int;
  minimize_budget : int;
}

let default =
  {
    impls = [ Campaign.Impl_anderson; Campaign.Impl_afek ];
    profiles = default_profiles ~components:2 ~readers:2;
    components = 2;
    readers = 2;
    writes_per_writer = 2;
    scans_per_reader = 2;
    seeds = 6;
    base_seed = 1;
    (* Every register access fans out over (2f+1)-replicated links, so
       byz runs are an order of magnitude heavier than plain chaos. *)
    max_steps = 400_000;
    minimize_budget = 1_200;
  }

type case = {
  impl : Campaign.impl;
  prof : profile;
  components : int;
  readers : int;
  writes_per_writer : int;
  scans_per_reader : int;
  fault_seed : int;
}

type tally = {
  faults_fired : int;  (* faults that actually triggered *)
  cells_claimed : int;  (* base cells the budgeted adversary owns *)
}

(* Name the active stack for failure reports, outermost layer first:
   e.g. "byzantine(f=1,ports=4) over byz:1:1 over sim". *)
let stack_description (case : case) =
  let faulty =
    Faults.stack_label ~layers:[ case.prof.injections ] ~base:"sim"
  in
  match case.prof.protection with
  | Unprotected -> faulty
  | Tolerant f ->
    Printf.sprintf "byzantine(f=%d,ports=%d) over %s" f
      (case.components + case.readers)
      faulty

let exec ?metrics ~max_steps (case : case) mode =
  let env = Sim.create ~trace:false () in
  let stack =
    Faults.wrap_over ~seed:case.fault_seed ~who:Fault_campaign.sim_self
      case.prof.injections
      (Faults.stack ~base:"sim" (Memory.of_sim env))
  in
  let counters = Faults.counters stack in
  let mem =
    match case.prof.protection with
    | Unprotected -> stack.Faults.mem
    | Tolerant f ->
      (* Every process — writers included, since their updates embed
         collects — needs a reader port, so the construction is sized
         for all of them. *)
      Registers.Byzantine.memory ~f
        ~readers:(case.components + case.readers)
        stack.Faults.mem
  in
  let rec_, procs =
    Campaign.workload ~clock:(fun () -> Sim.now env) case.impl mem
      ~components:case.components ~readers:case.readers
      ~writes:case.writes_per_writer ~scans:case.scans_per_reader
  in
  Fault_campaign.drive mode
    ~run:(fun policy -> ignore (Sim.run env ~policy ~max_steps procs))
    ~tally:(fun () ->
      {
        faults_fired = Faults.fired counters;
        cells_claimed = counters.Faults.byz_cells;
      })
    ~judge:(fun () ->
      (* No crashes here, so no dangling-operation excuses: every
         Shrinking condition must hold on the full history. *)
      let h = Composite.Snapshot.history rec_ in
      Option.iter
        (fun m -> Campaign.observe_op_latencies m ~prefix:"byzchaos" h)
        metrics;
      Fault_campaign.verdict (History.Shrinking.check ~equal:Int.equal h))

(* ------------------------------------------------------------------ *)
(* The campaign                                                         *)
(* ------------------------------------------------------------------ *)

let protection_to_string = function
  | Unprotected -> "none"
  | Tolerant f -> string_of_int f

let protection_of_string = function
  | "none" -> Some Unprotected
  | s -> (
    match int_of_string_opt s with
    | Some f when f >= 0 -> Some (Tolerant f)
    | _ -> None)

let join = Fault_campaign.Script.join

include Fault_campaign.Make (struct
  type nonrec profile = profile
  type nonrec config = config
  type nonrec case = case
  type nonrec tally = tally

  let names =
    {
      Fault_campaign.command = "byz";
      task = "byz ";
      metrics = "byz";
      script = "byz replay script";
      elements = "adversary";
      schedule = "schedule";
    }

  let default = default
  let label p = p.label

  let sweep (c : config) =
    {
      Fault_campaign.impls = c.impls;
      profiles = c.profiles;
      seeds = c.seeds;
      base_seed = c.base_seed;
      max_steps = c.max_steps;
      minimize_budget = c.minimize_budget;
    }

  let case_of (c : config) impl prof ~seed =
    {
      impl;
      prof;
      components = c.components;
      readers = c.readers;
      writes_per_writer = c.writes_per_writer;
      scans_per_reader = c.scans_per_reader;
      fault_seed = seed;
    }

  let schedule_for = Fault_campaign.alternating
  let exec = exec
  let zero = { faults_fired = 0; cells_claimed = 0 }

  let add a b =
    {
      faults_fired = a.faults_fired + b.faults_fired;
      cells_claimed = a.cells_claimed + b.cells_claimed;
    }

  let counters t ~replays =
    [
      ("faults_fired", t.faults_fired);
      ("cells_claimed", t.cells_claimed);
      ("minimize_replays", replays);
    ]

  (* The adversary's injections.  The protection layer is the variant
     under test and is never dropped — removing it would change which
     construction stands accused. *)
  let elements c = List.length c.prof.injections

  let keep c kept =
    let injections = List.filteri (fun i _ -> List.mem i kept) c.prof.injections in
    { c with prof = { c.prof with injections } }

  let to_script c =
    [
      ("impl", Campaign.impl_name c.impl);
      ("prot", protection_to_string c.prof.protection);
      ("c", string_of_int c.components);
      ("r", string_of_int c.readers);
      ("writes", string_of_int c.writes_per_writer);
      ("scans", string_of_int c.scans_per_reader);
      ("fault-seed", string_of_int c.fault_seed);
      ("label", c.prof.label);
      ("faults", join Faults.injection_to_string c.prof.injections);
    ]

  let of_script t =
    let open Fault_campaign.Script in
    let ( let* ) = Result.bind in
    let* impl = impl t in
    let* protection =
      let* v = req t "prot" in
      match protection_of_string v with
      | Some p -> Ok p
      | None -> error t "bad prot %S" v
    in
    let* components = int ~min:1 t "c" in
    let* readers = int ~min:1 t "r" in
    let* writes_per_writer = int t "writes" in
    let* scans_per_reader = int t "scans" in
    let* fault_seed = int t "fault-seed" in
    let label = Option.value (find t "label") ~default:"replay" in
    let* injections =
      list t "faults" (fun s -> Result.to_option (Faults.injection_of_string s))
    in
    Ok
      {
        impl;
        prof = { label; protection; injections; expect = Break };
        components;
        readers;
        writes_per_writer;
        scans_per_reader;
        fault_seed;
      }

  let validate _ = ()

  let headline c =
    [
      Printf.sprintf "impl=%s profile=%s" (Campaign.impl_name c.impl) c.prof.label;
      "fault stack: " ^ stack_description c;
    ]

  let details c =
    Printf.sprintf "faults=[%s] fault-seed=%d"
      (join Faults.injection_to_string c.prof.injections)
      c.fault_seed

  let pp_row fmt impl p ~runs ~flagged ~stuck t =
    Format.fprintf fmt
      "%-18s %-18s prot=%-5s expect=%-7s runs=%-3d flagged=%-3d stuck=%-3d \
       fired=%-5d claimed=%-3d %s"
      (Campaign.impl_name impl) p.label
      (protection_label p.protection)
      (match p.expect with Survive -> "survive" | Break -> "break")
      runs flagged stuck t.faults_fired t.cells_claimed
      (if as_expected_of p ~flagged ~stuck then "ok" else "UNEXPECTED")

  let total_note cells =
    let holds (p, flagged, stuck) = as_expected_of p ~flagged ~stuck in
    Printf.sprintf " boundary=%s"
      (if List.for_all holds cells then "holds" else "VIOLATED")
end)

let as_expected c =
  as_expected_of c.cell_profile ~flagged:c.flagged ~stuck:c.stuck

let boundary_holds r = List.for_all as_expected r.cells
