(** The fault-campaign engine behind {!Chaos}, {!Netchaos} and
    {!Byzchaos}.

    A fault campaign sweeps {implementation × fault profile × seed}: it
    records one run per seed, judges its history with the Shrinking
    oracle, delta-debugs the first failing run of each cell down to a
    locally-minimal (fault set, schedule) pair, and prints that pair as
    a one-line [key=value] script that replays it deterministically.
    The engine owns this pipeline; a {!SUBSTRATE} supplies what differs
    between fault models. *)

(* No .mli: the module types below are this module's interface, and an
   .mli would repeat them word for word. *)

open Csim

(** {2 Outcomes and ddmin} *)

type outcome =
  | Passed
  | Flagged of History.Shrinking.violation list  (** not linearizable *)
  | Stuck_run of string  (** step budget exhausted: progress failure *)
  | Diverged of string
      (** replay script named a non-enabled process — only possible for
          minimizer candidates, never for a recorded schedule *)

(** [Flagged] or [Stuck_run]. *)
let outcome_failed = function
  | Flagged _ | Stuck_run _ -> true
  | Passed | Diverged _ -> false

(** Human rendering, violation lists included. *)
let render_outcome = function
  | Passed -> "passed"
  | Stuck_run msg -> "stuck: " ^ msg
  | Diverged msg -> "diverged: " ^ msg
  | Flagged vs ->
    Format.asprintf "%a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_newline
         History.Shrinking.pp_violation)
      vs

(** [Passed] on no violations, else [Flagged]. *)
let verdict = function [] -> Passed | vs -> Flagged vs

(* An injective key for a candidate: each entry as a base-128 varint,
   so a list of process ids costs one byte per entry.  A string hashes
   over its whole length, where an int array hashes only its first
   few entries. *)
let candidate_key ys =
  let b = Buffer.create 64 in
  let rec put y =
    if y lsr 7 = 0 then Buffer.add_char b (Char.unsafe_chr y)
    else begin
      Buffer.add_char b (Char.unsafe_chr (y land 127 lor 128));
      put (y lsr 7)
    end
  in
  List.iter put ys;
  Buffer.contents b

(** Greedy delta debugging on a list: repeatedly try to delete chunks,
    halving the chunk size whenever a whole sweep makes no progress.
    [test] must return [true] iff the candidate still fails, and must
    be deterministic: a candidate equal to one already rejected is
    answered from a cache without calling [test] again.  [budget]
    bounds the candidates judged, cache answers included (further
    candidates are assumed passing), so the cache changes no decision.
    Returns the shrunk list and the number of candidates judged. *)
let ddmin ~budget ~test xs =
  let spent = ref 0 in
  (* Only rejections: a kept candidate becomes the current list, and
     every later candidate is shorter than it. *)
  let rejected = Hashtbl.create 64 in
  let try_test ys =
    if !spent >= budget then false
    else begin
      incr spent;
      let key = candidate_key ys in
      (not (Hashtbl.mem rejected key))
      && (test ys || (Hashtbl.replace rejected key (); false))
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

(** {2 Running one case} *)

type mode =
  | Record of Schedule.t  (** drive with this policy, keep its picks *)
  | Replay of int array  (** [Scripted (script, Round_robin)] *)

type 'tally run = {
  outcome : outcome;
  schedule : int array;  (** scheduler picks, in order (record mode only) *)
  tally : 'tally;  (** the substrate's own per-run observations *)
}

(** [run] the simulation under [mode]'s policy and [judge] it:
    [Csim.Sim.Stuck] or [Net.Sim.Stuck] makes a [Stuck_run], a script
    naming a process that is not enabled a [Diverged].  [tally] is read
    after the run in every case. *)
let drive mode ~run ~tally ~judge =
  let picks = ref [] in
  let policy =
    match mode with
    | Replay script -> Schedule.Scripted (script, Schedule.Round_robin)
    | Record inner ->
      let d = Schedule.driver inner in
      Schedule.Choose
        (fun ~enabled ~step ->
          let p = Schedule.pick d ~enabled ~step in
          picks := p :: !picks;
          p)
  in
  let finish outcome =
    { outcome; schedule = Array.of_list (List.rev !picks); tally = tally () }
  in
  match run policy with
  | exception (Sim.Stuck msg | Net.Sim.Stuck msg) -> finish (Stuck_run msg)
  | exception Schedule.Bad_script msg -> finish (Diverged msg)
  | () -> finish (judge ())

(** The running simulated process, [0] outside a simulation: the
    reader identity that equivocating memory faults answer. *)
let sim_self () = try Sim.self () with Sim.Not_in_simulation -> 0

(** [Random seed] for every seed of a cell. *)
let random ~index:_ seed = Schedule.Random seed

(** [Random seed] for even seed indices, [Starving seed] for odd ones,
    so every cell sees both adversaries. *)
let alternating ~index seed =
  if index mod 2 = 0 then Schedule.Random seed else Schedule.Starving seed

(** {2 Replay scripts} *)

(** A script is one line of space-separated [key=value] fields. *)
module Script = struct
  type t = { prefix : string; fields : (string * string) list }

  (** [Error] carrying the substrate's prefix, e.g. ["net replay
      script: "]. *)
  let error t fmt = Printf.ksprintf (fun msg -> Error (t.prefix ^ ": " ^ msg)) fmt

  (** Split a line into fields, rejecting duplicate keys. *)
  let parse ~prefix line =
    let t = { prefix; fields = [] } in
    let rec go acc = function
      | [] -> Ok { t with fields = List.rev acc }
      | "" :: toks -> go acc toks
      | tok :: toks -> (
        match String.index_opt tok '=' with
        | None -> error t "%S is not a key=value field" tok
        | Some i ->
          let key = String.sub tok 0 i in
          let value = String.sub tok (i + 1) (String.length tok - i - 1) in
          if List.mem_assoc key acc then error t "duplicate %s=" key
          else go ((key, value) :: acc) toks)
    in
    go [] (String.split_on_char ' ' (String.trim line))

  let find t key = List.assoc_opt key t.fields

  let req t key =
    match find t key with Some v -> Ok v | None -> error t "missing %s=" key

  (** A required integer field, at least [min]. *)
  let int ?(min = min_int) t key =
    Result.bind (req t key) (fun v ->
        match int_of_string_opt v with
        | None -> error t "%s=%S is not an integer" key v
        | Some n when n < min -> error t "%s=%d is below %d" key n min
        | Some n -> Ok n)

  (** A comma-separated list field; absent or empty is [[]]. *)
  let list t key parse =
    match find t key with
    | None | Some "" -> Ok []
    | Some v ->
      List.fold_right
        (fun tok acc ->
          Result.bind acc (fun xs ->
              match parse tok with
              | Some x -> Ok (x :: xs)
              | None -> error t "bad %s entry %S" key tok))
        (String.split_on_char ',' v) (Ok [])

  (** [ints n "a:b:..."]: exactly [n] colon-separated integers. *)
  let ints n tok =
    let parts = List.map int_of_string_opt (String.split_on_char ':' tok) in
    if List.length parts = n && List.for_all Option.is_some parts then
      Some (List.map Option.get parts)
    else None

  let impl t =
    Result.bind (req t "impl") (fun v ->
        match Campaign.impl_of_name v with
        | Some i -> Ok i
        | None -> error t "unknown impl %S" v)

  let join f xs = String.concat "," (List.map f xs)
end

(** {2 Substrates} *)

(** The part of a substrate's config that shapes the sweep. *)
type 'profile sweep = {
  impls : Campaign.impl list;
  profiles : 'profile list;
  seeds : int;  (** runs per (impl, profile) cell *)
  base_seed : int;
  max_steps : int;  (** step budget per recorded run *)
  minimize_budget : int;
      (** candidates judged per counterexample (see {!ddmin}); [0]
          disables *)
}

type names = {
  command : string;  (** CLI subcommand, in "replay with:" lines *)
  task : string;  (** prefix of the worker-span labels in pool traces *)
  metrics : string;  (** counter and histogram prefix *)
  script : string;  (** prefix of script parse errors *)
  elements : string;  (** what the first ddmin pass shrinks, in reports *)
  schedule : string;  (** what the second ddmin pass shrinks *)
}

module type SUBSTRATE = sig
  type profile
  type config
  type case

  type tally
  (** Per-run observations, summed over a cell (faults fired, messages
      sent, ...). *)

  val names : names
  val default : config
  (** Its [max_steps] is the step budget of {!S.replay}. *)

  val label : profile -> string
  val sweep : config -> profile sweep
  val case_of : config -> Campaign.impl -> profile -> seed:int -> case

  val schedule_for : index:int -> int -> Schedule.t
  (** The recording policy of the [index]th seed of a cell: {!random}
      or {!alternating}. *)

  val exec :
    ?metrics:Obs.Metrics.t -> max_steps:int -> case -> mode -> tally run
  (** Run and judge one case.  [metrics] is the worker's registry, for
      per-run observations such as operation latencies. *)

  val zero : tally
  val add : tally -> tally -> tally

  val counters : tally -> replays:int -> (string * int) list
  (** Counters over the whole sweep (names without the prefix), given
      the summed tally and the minimizer's replays. *)

  val elements : case -> int
  (** The number of droppable fault elements of a case, in a fixed
      order: what the first ddmin pass shrinks. *)

  val keep : case -> int list -> case
  (** The case with only the listed elements (ascending indices).
      What the elements do not cover — a protection layer, a quorum
      override — names the variant under test and stays. *)

  val to_script : case -> (string * string) list
  (** The case's script fields in print order; [script=] follows. *)

  val of_script : Script.t -> (case, string) result

  val validate : case -> unit
  (** Raise [Invalid_argument] if the case cannot run (a crash naming a
      missing process, too few replicas, ...): parsed scripts come from
      outside. *)

  val headline : case -> string list
  (** Counterexample report lines after "minimized counterexample: ". *)

  val details : case -> string
  (** The report line naming the minimized faults and the seed. *)

  val pp_row :
    Format.formatter ->
    Campaign.impl ->
    profile ->
    runs:int ->
    flagged:int ->
    stuck:int ->
    tally ->
    unit

  val total_note : (profile * int * int) list -> string
  (** Appended to the report's [total:] line, given each cell's
      (profile, flagged, stuck). *)
end

(** {2 Campaigns} *)

module type S = sig
  type profile
  type config
  type case
  type tally

  val label : profile -> string

  val replay : case -> script:int array -> outcome
  (** Re-execute a case under [Scripted (script, Round_robin)] with the
      default step budget.  Same case + same script = same outcome. *)

  type counterexample = {
    cx_case : case;  (** with the {e minimized} fault elements *)
    cx_script : int array;  (** minimized schedule *)
    cx_violations : string;  (** rendered outcome of the minimized run *)
    cx_original_entries : int;  (** schedule entries before minimization *)
    cx_original_elements : int;  (** fault elements before minimization *)
    cx_replays : int;
        (** candidates the minimizer judged, over both passes; a
            candidate equal to one already rejected counts although it
            is answered from {!ddmin}'s cache, not replayed *)
  }

  val minimize : budget:int -> case -> script:int array -> counterexample
  (** Delta-debug a failing (case, script) pair: first the fault
      elements, replaying the full schedule, then the schedule itself.
      A candidate is kept iff it fails the same way — [Flagged] (any
      violations) or [Stuck_run] as the original.  Raises
      [Invalid_argument] if the input does not fail under {!replay}. *)

  val cx_to_string : counterexample -> string
  (** One-line replay script: the substrate's fields, then [script=]. *)

  val cx_of_string : string -> (counterexample, string) result
  (** Parse {!cx_to_string} output.  Rejects unknown and duplicate keys
      and cases that cannot run; [cx_violations] and [cx_replays] are
      left empty. *)

  val pp_counterexample : Format.formatter -> counterexample -> unit

  type cell = {
    cell_impl : Campaign.impl;
    cell_profile : profile;
    runs : int;
    flagged : int;
    stuck : int;
    tally : tally;  (** summed over the cell's runs *)
    counterexample : counterexample option;
        (** first failing run of this cell, minimized *)
  }

  type report = {
    cells : cell list;
    total_runs : int;
    total_flagged : int;
    total_stuck : int;
  }

  val run :
    ?jobs:int ->
    ?pool:Exec.Pool.recorder ->
    ?metrics:Obs.Metrics.t ->
    config ->
    report
  (** Run the sweep.  [jobs] (default 1) shards the task list over
      domains via {!Exec.Pool}; results are folded back per cell in seed
      order and the first failing seed of each cell is minimized there,
      sequentially — so the report, counterexamples included, is the
      same at every job count.  [pool] records per-run worker spans.
      With [metrics]: counters [<prefix>.runs], [<prefix>.flagged],
      [<prefix>.stuck] and the substrate's own, histogram
      [<prefix>.schedule_entries], and whatever [exec] observes; workers
      observe into private registries merged at the join, so these too
      are independent of [jobs]. *)

  val pp_report : Format.formatter -> report -> unit
end

module Make (X : SUBSTRATE) :
  S
    with type profile := X.profile
     and type config := X.config
     and type case := X.case
     and type tally := X.tally = struct
  let label = X.label
  let replay_steps = (X.sweep X.default).max_steps

  let replay case ~script =
    (X.exec ~max_steps:replay_steps case (Replay script)).outcome

  type counterexample = {
    cx_case : X.case;
    cx_script : int array;
    cx_violations : string;
    cx_original_entries : int;
    cx_original_elements : int;
    cx_replays : int;
  }

  let minimize ~budget case ~script =
    (* Reproduce "the same kind of failure": a Flagged original must stay
       Flagged (any violation will do — insisting on the identical
       violation list would block most simplifications), a Stuck
       original must stay Stuck. *)
    let same_kind reference o =
      match (reference, o) with
      | Flagged _, Flagged _ | Stuck_run _, Stuck_run _ -> true
      | _ -> false
    in
    let reference = replay case ~script in
    if not (outcome_failed reference) then
      invalid_arg
        (X.names.command ^ " minimize: the given case does not fail under replay");
    let original = X.elements case in
    (* Pass 1: shrink the fault elements, replaying the full schedule. *)
    let kept, spent1 =
      ddmin ~budget
        ~test:(fun kept -> same_kind reference (replay (X.keep case kept) ~script))
        (List.init original Fun.id)
    in
    let case = X.keep case kept in
    (* Pass 2: shrink the schedule.  A dropped entry defers the affected
       process's (or message's) remaining events to the round-robin
       fallback; candidates that make a later entry invalid Diverge and
       are rejected by the test.  The last candidate kept is the
       minimized script, so its outcome is the minimized run's. *)
    let last_kept = ref None in
    let entries, spent2 =
      ddmin
        ~budget:(max 0 (budget - spent1))
        ~test:(fun entries ->
          let o = replay case ~script:(Array.of_list entries) in
          same_kind reference o && (last_kept := Some o; true))
        (Array.to_list script)
    in
    let cx_script = Array.of_list entries in
    let final =
      match !last_kept with
      | Some o -> o
      | None -> replay case ~script:cx_script
    in
    {
      cx_case = case;
      cx_script;
      cx_violations = render_outcome final;
      cx_original_entries = Array.length script;
      cx_original_elements = original;
      cx_replays = spent1 + spent2;
    }

  let script_fields case script =
    X.to_script case @ [ ("script", Script.join string_of_int script) ]

  let cx_to_string cx =
    script_fields cx.cx_case (Array.to_list cx.cx_script)
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
    |> String.concat " "

  let cx_of_string line =
    let ( let* ) = Result.bind in
    let* t = Script.parse ~prefix:X.names.script line in
    let* case = X.of_script t in
    let* script = Script.list t "script" int_of_string_opt in
    (* The keys a case prints are the keys its script may carry. *)
    let known = List.map fst (script_fields case []) in
    match List.find_opt (fun (k, _) -> not (List.mem k known)) t.fields with
    | Some (k, _) -> Script.error t "unknown key %s=" k
    | None -> (
      match X.validate case with
      | exception Invalid_argument msg -> Script.error t "%s" msg
      | () ->
        Ok
          {
            cx_case = case;
            cx_script = Array.of_list script;
            cx_violations = "";
            cx_original_entries = List.length script;
            cx_original_elements = X.elements case;
            cx_replays = 0;
          })

  let pp_counterexample fmt cx =
    Format.fprintf fmt
      "@[<v>minimized counterexample: %a@,\
       %s elements: %d (from %d)  %s entries: %d (from %d)  minimizer \
       replays: %d@,\
       %s@,\
       violations of the minimized run:@,\
       %s@,\
       replay with:@,\
      \  %s --replay '%s'@]"
      (Format.pp_print_list Format.pp_print_string)
      (X.headline cx.cx_case) X.names.elements (X.elements cx.cx_case)
      cx.cx_original_elements X.names.schedule (Array.length cx.cx_script)
      cx.cx_original_entries cx.cx_replays (X.details cx.cx_case)
      cx.cx_violations X.names.command (cx_to_string cx)

  type cell = {
    cell_impl : Campaign.impl;
    cell_profile : X.profile;
    runs : int;
    flagged : int;
    stuck : int;
    tally : X.tally;
    counterexample : counterexample option;
  }

  type report = {
    cells : cell list;
    total_runs : int;
    total_flagged : int;
    total_stuck : int;
  }

  let run ?(jobs = 1) ?pool ?metrics cfg =
    let sw = X.sweep cfg in
    (* Flatten the {impl × profile × seed} sweep into one task list so
       the pool can shard it: task [t] is seed index [t mod seeds] of
       cell [t / seeds].  Each task is an independent run;
       minimization is deferred to the sequential merge below so that
       "first failing seed of each cell" means the same thing at every
       job count. *)
    let spec =
      List.concat_map
        (fun impl -> List.map (fun prof -> (impl, prof)) sw.profiles)
        sw.impls
      |> Array.of_list
    in
    let seed t = sw.base_seed + (t mod sw.seeds) in
    let case_at t =
      let impl, prof = spec.(t / sw.seeds) in
      X.case_of cfg impl prof ~seed:(seed t)
    in
    let entries = X.names.metrics ^ ".schedule_entries" in
    let results, workers =
      Exec.Pool.map_workers ~jobs ?recorder:pool
        ~label:(fun t ->
          let impl, prof = spec.(t / sw.seeds) in
          Printf.sprintf "%s%s/%s seed=%d" X.names.task
            (Campaign.impl_name impl) (X.label prof) (seed t))
        ~worker:Obs.Metrics.create
        (Array.length spec * sw.seeds)
        (fun m t ->
          let policy = X.schedule_for ~index:(t mod sw.seeds) (seed t) in
          let r =
            X.exec ~metrics:m ~max_steps:sw.max_steps (case_at t) (Record policy)
          in
          Obs.Metrics.observe
            (Obs.Metrics.histogram m entries)
            (Array.length r.schedule);
          r)
    in
    let cells =
      List.init (Array.length spec) (fun ci ->
          let impl, prof = spec.(ci) in
          let flagged = ref 0 and stuck = ref 0 in
          let tally = ref X.zero and cx = ref None in
          for t = ci * sw.seeds to ((ci + 1) * sw.seeds) - 1 do
            let r = results.(t) in
            tally := X.add !tally r.tally;
            (match r.outcome with
            | Passed | Diverged _ -> ()
            | Stuck_run _ -> incr stuck
            | Flagged _ -> incr flagged);
            if !cx = None && sw.minimize_budget > 0 && outcome_failed r.outcome
            then
              cx :=
                Some
                  (minimize ~budget:sw.minimize_budget (case_at t)
                     ~script:r.schedule)
          done;
          {
            cell_impl = impl;
            cell_profile = prof;
            runs = sw.seeds;
            flagged = !flagged;
            stuck = !stuck;
            tally = !tally;
            counterexample = !cx;
          })
    in
    let sum f = List.fold_left (fun a c -> a + f c) 0 cells in
    let report =
      {
        cells;
        total_runs = sum (fun c -> c.runs);
        total_flagged = sum (fun c -> c.flagged);
        total_stuck = sum (fun c -> c.stuck);
      }
    in
    Option.iter
      (fun m ->
        List.iter (fun w -> Obs.Metrics.merge ~into:m w) workers;
        let replays c =
          Option.fold ~none:0 ~some:(fun cx -> cx.cx_replays) c.counterexample
        in
        [
          ("runs", report.total_runs);
          ("flagged", report.total_flagged);
          ("stuck", report.total_stuck);
        ]
        @ X.counters
            (List.fold_left (fun a c -> X.add a c.tally) X.zero cells)
            ~replays:(sum replays)
        |> List.iter (fun (name, by) ->
               Obs.Metrics.incr ~by
                 (Obs.Metrics.counter m (X.names.metrics ^ "." ^ name))))
      metrics;
    report

  let pp_report fmt r =
    Format.fprintf fmt "@[<v>";
    List.iter
      (fun c ->
        X.pp_row fmt c.cell_impl c.cell_profile ~runs:c.runs ~flagged:c.flagged
          ~stuck:c.stuck c.tally;
        Format.fprintf fmt "@,")
      r.cells;
    Format.fprintf fmt "total: runs=%d flagged=%d stuck=%d%s@]" r.total_runs
      r.total_flagged r.total_stuck
      (X.total_note
         (List.map (fun c -> (c.cell_profile, c.flagged, c.stuck)) r.cells))
end
