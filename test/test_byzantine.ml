(* The Byzantine failure model, end to end: actively lying base cells
   (lib/sim/faults.ml — equivocation, timestamp regression, budgeted
   adversaries), the f-tolerant SWMR register construction built over
   them (lib/registers/byzantine.ml), Byzantine replicas in the network
   backend (lib/net), and the survive/break campaign asserting the
   tolerance boundary from both sides (lib/workload/byzchaos.ml).

   The headline pinned pair: the construction masks exactly f lying
   base replicas per link, and is caught — returns a stale value the
   Shrinking oracle would flag — the moment f + 1 lie. *)

open Csim

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let inj ?(target = Faults.All) kind = { Faults.kind; target }

(* ------------------------------------------------------------------ *)
(* Lying cells over direct memory                                       *)
(* ------------------------------------------------------------------ *)

let test_equivocate () =
  (* The same cell, the same moment, two different answers — depending
     on who asks. *)
  let asker = ref 0 in
  let mem, counters =
    Faults.wrap ~seed:1
      ~who:(fun () -> !asker)
      [ inj (Faults.Equivocate { prob = 1.0 }) ]
      (Memory.direct ())
  in
  let c = mem.Memory.make ~name:"c" ~bits:8 0 in
  c.Memory.write 1;
  c.Memory.write 2;
  asker := 0;
  check int "even asker sees the truth" 2 (c.Memory.read ());
  asker := 1;
  check int "odd asker sees the superseded value" 1 (c.Memory.read ());
  check int "both lies counted" 2 counters.Faults.equivocated;
  check int "peek is never perturbed" 2 (c.Memory.peek ())

let test_regress () =
  let mem, counters =
    Faults.wrap ~seed:7
      [ inj (Faults.Regress { prob = 1.0 }) ]
      (Memory.direct ())
  in
  let c = mem.Memory.make ~name:"c" ~bits:8 0 in
  for v = 1 to 5 do
    c.Memory.write v
  done;
  (* Every read replays some superseded value — never the current. *)
  for _ = 1 to 10 do
    let r = c.Memory.read () in
    check bool "read regressed to a superseded value" true (r >= 0 && r < 5)
  done;
  check int "every read lied" 10 counters.Faults.regressed

let test_byz_budget_claims_f_cells () =
  (* A budget of 2: the first two matching cells are claimed — they
     answer their initial state and silently drop writes — and every
     later cell is honest. *)
  let mem, counters =
    Faults.wrap ~seed:1
      [ inj (Faults.Byzantine { f = 2; prob = 1.0 }) ]
      (Memory.direct ())
  in
  let a = mem.Memory.make ~name:"a" ~bits:8 10 in
  let b = mem.Memory.make ~name:"b" ~bits:8 20 in
  let c = mem.Memory.make ~name:"c" ~bits:8 30 in
  a.Memory.write 1;
  b.Memory.write 2;
  c.Memory.write 3;
  check int "budget claimed exactly f cells" 2 counters.Faults.byz_cells;
  check int "claimed cell lies with its initial state" 10 (a.Memory.read ());
  check int "second claimed cell likewise" 20 (b.Memory.read ());
  check int "the third cell is honest" 3 (c.Memory.read ());
  check int "drops counted" 2 counters.Faults.byz_drops;
  check bool "lies counted" true (counters.Faults.byz_lies >= 2)

let test_contains_target () =
  let mem, _ =
    Faults.wrap ~seed:1
      [ inj ~target:(Faults.Contains ".rep0") (Faults.Corrupt { prob = 1.0 }) ]
      (Memory.direct ())
  in
  let hit = mem.Memory.make ~name:"x.w2r1.rep0" ~bits:8 0 in
  let miss = mem.Memory.make ~name:"x.w2r1.rep1" ~bits:8 0 in
  hit.Memory.write 5;
  miss.Memory.write 5;
  check int "substring match corrupted" 0 (hit.Memory.read ());
  check int "non-match untouched" 5 (miss.Memory.read ());
  (* Edges of the substring test: the match at either end of the name,
     a needle longer than the name, and the empty needle. *)
  List.iter
    (fun (sub, name, expected) ->
      let mem, _ =
        Faults.wrap ~seed:1
          [ inj ~target:(Faults.Contains sub) (Faults.Corrupt { prob = 1.0 }) ]
          (Memory.direct ())
      in
      let cell = mem.Memory.make ~name ~bits:8 0 in
      cell.Memory.write 5;
      check bool
        (Printf.sprintf "contains %S in %S" sub name)
        expected
        (cell.Memory.read () = 0))
    [
      (".rep0", "x.w2r1.rep0", true);
      ("x.w2", "x.w2r1.rep0", true);
      (".rep0", "x.w2r1.rep", false);
      ("x.w2r1.rep0!", "x.w2r1.rep0", false);
      ("", "", true);
      ("", "x", true);
      ("r1r", "x.r0r1.rep0", false);
    ]

(* The cell names the constructions allocate, in allocation order:
   fault targets and printed counterexamples name these strings, so
   they must stay byte for byte. *)
let test_cell_names () =
  let names_of build =
    let direct = Memory.direct () and names = ref [] in
    build
      {
        Memory.make =
          (fun ~name ~bits init ->
            names := name :: !names;
            direct.Memory.make ~name ~bits init);
      };
    List.rev !names
  in
  let strings = Alcotest.(list string) in
  check strings "byzantine register, f = 1, R = 2"
    (List.concat_map
       (fun link -> List.map (fun k -> "x." ^ link ^ ".rep" ^ k) [ "0"; "1"; "2" ])
       [ "w2r0"; "w2r1"; "r0r0"; "r0r1"; "r1r0"; "r1r1" ])
    (names_of (fun mem ->
         ignore (Registers.Byzantine.create mem ~name:"x" ~bits:8 ~f:1 ~readers:2 0)));
  check strings "anderson, C = 3, R = 2"
    [ "A.Y0"; "A.Z0"; "A.Z1"; "A'.Y0"; "A'.Z0"; "A'.Z1"; "A'.Z2"; "A''.Y0" ]
    (names_of (fun mem ->
         ignore
           (Composite.Anderson.create mem ~readers:2 ~bits_per_value:8
              ~init:[| 0; 0; 0 |])));
  check strings "afek, C = 3" [ "AF.C0"; "AF.C1"; "AF.C2" ]
    (names_of (fun mem ->
         ignore (Composite.Afek.create mem ~bits_per_value:8 ~init:[| 0; 0; 0 |])))

(* The same names and the budgeted adversary's claims through the
   stack a [byz1-masked] case builds: anderson and afek at C = 2, R = 2
   over [Byzantine.memory ~f:1 ~readers:4], over a fault layer holding
   the profile's injections, over the simulator.  The adversary claims
   cells in allocation order, so the claimed name pins that order too. *)
let test_memory_names_and_claims () =
  let injections =
    (List.find
       (fun (p : Workload.Byzchaos.profile) -> p.label = "byz1-masked")
       (Workload.Byzchaos.default_profiles ~components:2 ~readers:2))
      .injections
  in
  List.iter
    (fun (impl, count, digest, claimed) ->
      let name = Workload.Campaign.impl_name impl in
      let env = Sim.create ~trace:false () in
      let stack =
        Faults.wrap_over ~seed:1 ~who:Workload.Fault_campaign.sim_self
          injections
          (Faults.stack ~base:"sim" (Memory.of_sim env))
      in
      let counters = Faults.counters stack in
      let claims = ref [] in
      let spy =
        {
          Memory.make =
            (fun ~name ~bits init ->
              let before = counters.Faults.byz_cells in
              let c = stack.Faults.mem.Memory.make ~name ~bits init in
              if counters.Faults.byz_cells > before then
                claims := name :: !claims;
              c);
        }
      in
      let (_ : _ * _) =
        Workload.Campaign.workload
          ~clock:(fun () -> Sim.now env)
          impl
          (Registers.Byzantine.memory ~f:1 ~readers:4 spy)
          ~components:2 ~readers:2 ~writes:2 ~scans:2
      in
      let names =
        List.map (fun (Cell.Packed c) -> Cell.name c) (Sim.cells env)
      in
      check int (name ^ ": base cells") count (List.length names);
      check Alcotest.string (name ^ ": names in allocation order") digest
        (Digest.to_hex (Digest.string (String.concat "\n" names)));
      check
        Alcotest.(list string)
        (name ^ ": claimed by the adversary") claimed (List.rev !claims))
    [
      (Workload.Campaign.Impl_anderson, 240, "035bb5b5a87e67bc31a70b667c70524b",
        [ "A.Y0.w2r0.rep0" ]);
      (Workload.Campaign.Impl_afek, 120, "83bd1220b31fde5e9d3c91c3c7782787",
        [ "AF.C0.w2r0.rep0" ]);
    ]

let test_describe_names_the_stack () =
  let stack = Faults.stack (Memory.direct ()) in
  let stack =
    Faults.wrap_over ~seed:1
      [ inj (Faults.Equivocate { prob = 0.5 }) ]
      stack
  in
  let stack =
    Faults.wrap_over ~seed:2 [ inj (Faults.Byzantine { f = 1; prob = 1.0 }) ]
      stack
  in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let d = Faults.describe stack in
  check bool "describe names every layer, outermost first" true
    (contains ~sub:"byz:1:1" d
    && contains ~sub:"equivocate:0.5" d
    && contains ~sub:"over" d)

let test_spec_roundtrip_new_kinds () =
  List.iter
    (fun i ->
      match Faults.injection_of_string (Faults.injection_to_string i) with
      | Ok i' ->
        check bool
          ("round-trips: " ^ Faults.injection_to_string i)
          true (i = i')
      | Error e -> Alcotest.fail e)
    [
      inj (Faults.Equivocate { prob = 0.5 });
      inj (Faults.Regress { prob = 1.0 });
      inj (Faults.Byzantine { f = 2; prob = 0.75 });
      inj ~target:(Faults.Contains ".rep0") (Faults.Regress { prob = 1.0 });
      inj ~target:(Faults.Prefix "Y") (Faults.Byzantine { f = 1; prob = 1.0 });
    ];
  List.iter
    (fun s ->
      match Faults.injection_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted bad spec " ^ s))
    [ "byz:1"; "byz:x:1"; "equivocate:2.0"; "regress" ]

(* ------------------------------------------------------------------ *)
(* qcheck: any wrapper composition still honors the Memory contract     *)
(* ------------------------------------------------------------------ *)

(* Every fault kind answers with the initial value or some value that
   was actually written — so under ANY seeded composition of layers, a
   read must come from that set and must never raise. *)
let qcheck_wrapped_reads_are_plausible =
  let gen_kind =
    QCheck2.Gen.(
      oneof
        [
          map (fun p -> Faults.Lost_write { prob = p }) (float_bound_inclusive 0.9);
          map (fun a -> Faults.Stuck_at { after = a }) (int_range 1 5);
          map (fun p -> Faults.Stutter { prob = p }) (float_bound_inclusive 0.9);
          map (fun p -> Faults.Corrupt { prob = p }) (float_bound_inclusive 0.9);
          map (fun w -> Faults.Regular { window = w }) (int_range 1 3);
          map (fun p -> Faults.Equivocate { prob = p }) (float_bound_inclusive 1.0);
          map (fun p -> Faults.Regress { prob = p }) (float_bound_inclusive 1.0);
          map2
            (fun f p -> Faults.Byzantine { f; prob = p })
            (int_range 0 2) (float_bound_inclusive 1.0);
        ])
  in
  let gen =
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 3) (list_size (int_range 1 3) gen_kind))
        (int_range 1 1000)
        (list_size (int_range 1 30) (int_range 0 2)))
  in
  QCheck2.Test.make ~count:300
    ~name:"any composition of fault layers keeps reads plausible" gen
    (fun (layers, seed, ops) ->
      let asker = ref 0 in
      let stack = Faults.stack (Memory.direct ()) in
      let stack, _ =
        List.fold_left
          (fun (st, s) kinds ->
            ( Faults.wrap_over ~seed:s
                ~who:(fun () -> !asker)
                (List.map (fun k -> inj k) kinds)
                st,
              s + 1 ))
          (stack, seed) layers
      in
      let mem = stack.Faults.mem in
      let init = 999 in
      let c = mem.Memory.make ~name:"q" ~bits:16 init in
      let written = Hashtbl.create 16 in
      Hashtbl.replace written init ();
      List.iteri
        (fun i op ->
          asker := i;
          match op with
          | 0 ->
            Hashtbl.replace written i ();
            c.Memory.write i
          | 1 -> ignore (c.Memory.peek ())
          | _ ->
            let r = c.Memory.read () in
            if not (Hashtbl.mem written r) then
              QCheck2.Test.fail_reportf
                "read %d was never written (init %d)" r init)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* The construction: masks exactly f, caught at f + 1                   *)
(* ------------------------------------------------------------------ *)

let make_reg ~f ~liars value =
  (* [liars] replicas of every link answer their initial state on every
     read (Corrupt at prob 1 glitches to init). *)
  let injections =
    List.init liars (fun k ->
        inj
          ~target:(Faults.Contains (Printf.sprintf ".rep%d" k))
          (Faults.Corrupt { prob = 1.0 }))
  in
  let mem, _ = Faults.wrap ~seed:1 injections (Memory.direct ()) in
  let reg = Registers.Byzantine.create mem ~name:"x" ~bits:64 ~f ~readers:2 0 in
  Registers.Byzantine.write reg value;
  reg

let test_masks_exactly_f () =
  (* f = 1, one lying replica per link: the vote still finds f + 1
     honest matching replicas, every reader sees the write. *)
  let reg = make_reg ~f:1 ~liars:1 42 in
  check int "reader 0 masked the liar" 42
    (Registers.Byzantine.read reg ~reader:0);
  check int "reader 1 masked the liar" 42
    (Registers.Byzantine.read reg ~reader:1);
  (* f = 2 masks two liars out of five replicas just the same. *)
  let reg2 = make_reg ~f:2 ~liars:2 77 in
  check int "f = 2 masks two liars" 77
    (Registers.Byzantine.read reg2 ~reader:0)

let test_caught_at_f_plus_1 () =
  (* The same adversary, one replica stronger: f + 1 of the 2f + 1
     replicas lie in agreement, the vote accepts their answer, and the
     reader is stuck with the stale initial value — the regression the
     campaign's oracle flags. *)
  let reg = make_reg ~f:1 ~liars:2 42 in
  check int "f + 1 liars defeat the vote" 0
    (Registers.Byzantine.read reg ~reader:0);
  let reg2 = make_reg ~f:2 ~liars:3 77 in
  check int "likewise at f = 2 with 3 liars" 0
    (Registers.Byzantine.read reg2 ~reader:0)

let test_memory_adapter_over_budget_adversary () =
  (* The Memory.t presentation, over a budget-f adversary: still a
     working register. *)
  let mem, counters =
    Faults.wrap ~seed:3
      [ inj (Faults.Byzantine { f = 1; prob = 1.0 }) ]
      (Memory.direct ())
  in
  let byz = Registers.Byzantine.memory ~f:1 ~readers:2 mem in
  let c = byz.Memory.make ~name:"x" ~bits:64 0 in
  c.Memory.write 5;
  check int "budget-1 adversary masked" 5 (c.Memory.read ());
  c.Memory.write 6;
  check int "still current after a second write" 6 (c.Memory.read ());
  check int "the adversary did claim its cell" 1 counters.Faults.byz_cells;
  check int "ghost peek agrees" 6 (c.Memory.peek ())

let test_memory_validates_shape () =
  let base = Memory.direct () in
  Alcotest.check_raises "f < 0"
    (Invalid_argument "Byzantine.create: f must be >= 0") (fun () ->
      ignore (Registers.Byzantine.memory ~f:(-1) ~readers:2 base));
  Alcotest.check_raises "readers < 1"
    (Invalid_argument "Byzantine.create: readers must be >= 1") (fun () ->
      ignore (Registers.Byzantine.memory ~f:1 ~readers:0 base))

(* The link vote as first written: support counted with structural [=]
   over whole pairs, the best pair kept in an option. *)
let structural_vote ~f ~(last : 'a Registers.Byzantine.tagged) seen =
  let open Registers.Byzantine in
  let best = ref None in
  Array.iter
    (fun x ->
      let support =
        Array.fold_left (fun a y -> if y = x then a + 1 else a) 0 seen
      in
      if support >= f + 1 then
        match !best with
        | Some b when b.ts >= x.ts -> ()
        | _ -> best := Some x)
    seen;
  match !best with Some x when x.ts > last.ts -> x | _ -> last

(* [vote] picks the very pair (physically) the structural vote picks.
   Each of the 2f + 1 entries is the initial pair a liar answers with
   ([last] itself or a copy), the previous entry again, or a fresh pair
   from few timestamps and two values: equal-[ts] pairs with different
   values, and structurally equal pairs that are physically distinct. *)
let qcheck_vote_matches_structural =
  let open Registers.Byzantine in
  let entry =
    QCheck2.Gen.(
      oneof
        [
          pure `Last;
          pure `Last_copy;
          pure `Previous;
          map2 (fun ts v -> `Fresh (ts, v)) (int_range 0 3) (int_range 0 1);
        ])
  in
  let gen =
    QCheck2.Gen.(
      int_range 1 2 >>= fun f ->
      pair (pure f) (pair (int_range 0 2) (list_repeat ((2 * f) + 1) entry)))
  in
  let value k = String.make 1 (Char.chr (Char.code 'a' + k)) in
  QCheck2.Test.make ~count:2000
    ~name:"vote picks what the structural vote picks" gen
    (fun (f, (last_ts, entries)) ->
      let last = { ts = last_ts; v = value 0 } in
      let prev = ref last in
      let seen =
        Array.of_list
          (List.map
             (fun e ->
               let x =
                 match e with
                 | `Last -> last
                 | `Last_copy -> { ts = last.ts; v = value 0 }
                 | `Previous -> !prev
                 | `Fresh (ts, k) -> { ts; v = value k }
               in
               prev := x;
               x)
             entries)
      in
      vote ~f ~last seen == structural_vote ~f ~last seen)

let test_cost_formulas () =
  check int "replication 2f+1" 5 (Registers.Byzantine.replication ~f:2);
  check int "base registers (R + R^2)(2f+1)" 60
    (Registers.Byzantine.base_registers ~f:1 ~readers:4);
  check int "read cost (2f+1)(2R-1)" 21
    (Registers.Byzantine.read_cost ~f:1 ~readers:4);
  check int "write cost (2f+1)R" 12
    (Registers.Byzantine.write_cost ~f:1 ~readers:4)

(* ------------------------------------------------------------------ *)
(* Network backend: Byzantine replicas and retransmit backoff           *)
(* ------------------------------------------------------------------ *)

let test_net_byz_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool "mute replicas count against the minority" true
    (raises (fun () ->
         Net.Sim.create ~replicas:3
           ~byzantine:[ (0, Net.Sim.Mute); (1, Net.Sim.Mute) ]
           ~seed:1 ()));
  check bool "a replica cannot be both crashed and Byzantine" true
    (raises (fun () ->
         Net.Sim.create ~replicas:3 ~crashes:[ (0, 5) ]
           ~byzantine:[ (0, Net.Sim.Forge_ts) ]
           ~seed:1 ()));
  check bool "out-of-range replica rejected" true
    (raises (fun () ->
         Net.Sim.create ~replicas:3 ~byzantine:[ (7, Net.Sim.Forge_ts) ]
           ~seed:1 ()))

let test_net_forging_replica_caught_and_accounted () =
  (* A forging replica poisons the ABD emulation (it makes no Byzantine
     claim): the campaign must flag it, and the per-replica account
     must attribute the lies to replica 0 alone. *)
  let metrics = Obs.Metrics.create () in
  let r =
    Workload.Netchaos.run ~metrics
      {
        Workload.Netchaos.default with
        impls = [ Workload.Campaign.Impl_anderson ];
        profiles =
          [
            Workload.Netchaos.profile "forge"
              ~byz:[ (0, Net.Sim.Forge_ts) ];
          ];
        seeds = 3;
        minimize_budget = 200;
      }
  in
  check bool "forged acks flagged" true (r.Workload.Netchaos.total_flagged > 0);
  check bool "misbehaviors counted" true
    (Obs.Metrics.counter_value
       (Obs.Metrics.counter metrics "netchaos.byz_lies")
    > 0);
  check bool "attributed to replica 0" true
    (Obs.Metrics.counter_value
       (Obs.Metrics.counter metrics "netchaos.byz.replica0")
    > 0);
  (* And the minimized counterexample replays deterministically. *)
  match
    List.find_map
      (fun (c : Workload.Netchaos.cell) -> c.counterexample)
      r.Workload.Netchaos.cells
  with
  | None -> Alcotest.fail "no counterexample minimized"
  | Some cx ->
    let s = Workload.Netchaos.cx_to_string cx in
    (match Workload.Netchaos.cx_of_string s with
    | Error e -> Alcotest.fail e
    | Ok cx' ->
      check bool "byz field round-trips" true
        (String.equal s (Workload.Netchaos.cx_to_string cx'));
      let out c =
        match
          Workload.Netchaos.replay c.Workload.Netchaos.cx_case
            ~script:c.Workload.Netchaos.cx_script
        with
        | Workload.Fault_campaign.Flagged vs ->
          Format.asprintf "%a"
            (Format.pp_print_list History.Shrinking.pp_violation)
            vs
        | _ -> Alcotest.fail "replay did not reproduce the violation"
      in
      check bool "parsed replay reproduces the same violations" true
        (String.equal (out cx) (out cx')))

let test_backoff_suppresses_retransmits () =
  let run backoff =
    let env = Net.Sim.create ~replicas:3 ~loss:0.4 ~seed:42 () in
    let abd = Net.Abd.create ~backoff ~retry_seed:7 env in
    let mem = Net.Abd.memory abd in
    let cell = ref None in
    let (_ : Net.Sim.stats) =
      Net.Sim.run env
        [|
          (fun () ->
            let c = mem.Memory.make ~name:"x" ~bits:64 0 in
            c.Memory.write 1;
            c.Memory.write 2;
            cell := Some c);
        |]
    in
    let (_ : Net.Sim.stats) =
      Net.Sim.run env
        [| (fun () -> check int "value survives loss" 2
              ((Option.get !cell).Memory.read ())) |]
    in
    Net.Abd.stats abd
  in
  let legacy = run Net.Abd.no_backoff in
  check int "no_backoff never suppresses" 0 legacy.Net.Abd.retrans_suppressed;
  check int "no_backoff window stays at 1" 1 legacy.Net.Abd.backoff_peak;
  let exp = run { Net.Abd.base = 1; cap = 8; jitter = 2 } in
  check bool "exponential backoff absorbs timeouts" true
    (exp.Net.Abd.retrans_suppressed > 0);
  check bool "the window actually grew" true (exp.Net.Abd.backoff_peak > 1);
  check bool "and retransmits went down" true
    (exp.Net.Abd.retransmits <= legacy.Net.Abd.retransmits)

(* ------------------------------------------------------------------ *)
(* The survive/break campaign                                           *)
(* ------------------------------------------------------------------ *)

let small_cfg ?(seeds = 3) profiles =
  {
    Workload.Byzchaos.default with
    impls = [ Workload.Campaign.Impl_anderson ];
    profiles;
    seeds;
    minimize_budget = 400;
  }

let pick labels =
  let all = Workload.Byzchaos.default_profiles ~components:2 ~readers:2 in
  List.filter
    (fun (p : Workload.Byzchaos.profile) -> List.mem p.label labels)
    all

let test_profile_taxonomy () =
  let all = Workload.Byzchaos.default_profiles ~components:2 ~readers:2 in
  let survive, break =
    List.partition
      (fun (p : Workload.Byzchaos.profile) ->
        p.expect = Workload.Byzchaos.Survive)
      all
  in
  check bool "several survive profiles" true (List.length survive >= 4);
  check bool "at least two break profiles" true (List.length break >= 2);
  check bool "the unprotected stack is a break profile" true
    (List.exists
       (fun (p : Workload.Byzchaos.profile) ->
         p.label = "unprotected"
         && p.protection = Workload.Byzchaos.Unprotected)
       break)

let test_boundary_from_both_sides () =
  let r =
    Workload.Byzchaos.run
      (small_cfg (pick [ "byz1-masked"; "equivocate-rep0"; "unprotected" ]))
  in
  let by label =
    List.find
      (fun (c : Workload.Byzchaos.cell) ->
        c.cell_profile.Workload.Byzchaos.label = label)
      r.Workload.Byzchaos.cells
  in
  check int "within tolerance: budget adversary masked" 0
    (by "byz1-masked").flagged;
  check int "within tolerance: equivocating replica masked" 0
    (by "equivocate-rep0").flagged;
  check bool "beyond: the unprotected stack is caught" true
    ((by "unprotected").flagged > 0);
  check int "nothing hangs" 0 r.Workload.Byzchaos.total_stuck;
  check bool "boundary holds" true (Workload.Byzchaos.boundary_holds r);
  check bool "every cell matched its side" true
    (List.for_all Workload.Byzchaos.as_expected r.Workload.Byzchaos.cells)

let test_cx_minimized_replayable () =
  let r = Workload.Byzchaos.run (small_cfg (pick [ "unprotected" ])) in
  match
    List.find_map
      (fun (c : Workload.Byzchaos.cell) -> c.counterexample)
      r.Workload.Byzchaos.cells
  with
  | None -> Alcotest.fail "break profile produced no counterexample"
  | Some cx ->
    let out c =
      match
        Workload.Byzchaos.replay c.Workload.Byzchaos.cx_case
          ~script:c.Workload.Byzchaos.cx_script
      with
      | Workload.Fault_campaign.Flagged vs ->
        Format.asprintf "%a"
          (Format.pp_print_list History.Shrinking.pp_violation)
          vs
      | Workload.Fault_campaign.Passed -> Alcotest.fail "replay passed"
      | Workload.Fault_campaign.Stuck_run m -> Alcotest.fail ("replay stuck: " ^ m)
      | Workload.Fault_campaign.Diverged m -> Alcotest.fail ("replay diverged: " ^ m)
    in
    let v1 = out cx and v2 = out cx in
    check bool "deterministic replay" true (String.equal v1 v2);
    check bool "the report names the fault stack" true
      (String.length
         (Workload.Byzchaos.stack_description cx.Workload.Byzchaos.cx_case)
      > 0);
    let s = Workload.Byzchaos.cx_to_string cx in
    (match Workload.Byzchaos.cx_of_string s with
    | Error e -> Alcotest.fail e
    | Ok cx' ->
      check bool "script round-trips" true
        (String.equal s (Workload.Byzchaos.cx_to_string cx'));
      check bool "parsed replay reproduces the same violations" true
        (String.equal v1 (out cx')));
    Fault_goldens.check_rejects Workload.Byzchaos.cx_of_string
      [
        ( "impl=anderson prot=1 c=0 r=0 writes=2 scans=2 fault-seed=1 script=",
          "byz replay script: c=0 is below 1" );
        ( "impl=anderson prot=-1 c=2 r=2 writes=2 scans=2 fault-seed=1 script=",
          "byz replay script: bad prot \"-1\"" );
      ]

let test_report_identical_across_jobs () =
  let cfg =
    small_cfg ~seeds:2 (pick [ "byz1-masked"; "regress-rep0"; "unprotected" ])
  in
  let render r = Format.asprintf "%a" Workload.Byzchaos.pp_report r in
  let r1 = render (Workload.Byzchaos.run ~jobs:1 cfg) in
  let r4 = render (Workload.Byzchaos.run ~jobs:4 cfg) in
  check bool "reports bit-identical across job counts" true
    (String.equal r1 r4)

(* ------------------------------------------------------------------ *)
(* Golden campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* [Fault_goldens.byz] — report, counterexamples, replay lines and
   metrics — as rendered when each fault substrate still had its own
   campaign module: the shared engine must reproduce every string byte
   for byte. *)
let pinned_byz_campaign =
  {
    Fault_goldens.report =
      String.concat "\n"
        [
          "anderson           byz1-masked        prot=f=1   expect=survive runs=2   flagged=0   stuck=0   fired=8     claimed=2   ok";
          "anderson           unprotected        prot=none  expect=break   runs=2   flagged=2   stuck=0   fired=40    claimed=2   ok";
          "total: runs=4 flagged=2 stuck=0 boundary=holds";
        ];
    cx_lines =
      [
        "impl=anderson prot=none c=2 r=2 writes=2 scans=2 fault-seed=1 label=unprotected faults=byz:1:1 script=";
      ];
    cx_reports =
      [
        String.concat "\n"
          [
            "minimized counterexample: impl=anderson profile=unprotected";
            "fault stack: byz:1:1 over sim";
            "adversary elements: 1 (from 1)  schedule entries: 0 (from 40)  minimizer replays: 3";
            "faults=[byz:1:1] fault-seed=1";
            "violations of the minimized run:";
            "Proximity: Read by p0 returned overwritten id 0 for component 0 (Write id 1 precedes the Read)";
            "Proximity: Read by p1 returned overwritten id 0 for component 0 (Write id 1 precedes the Read)";
            "replay with:";
            "  byz --replay 'impl=anderson prot=none c=2 r=2 writes=2 scans=2 fault-seed=1 label=unprotected faults=byz:1:1 script='";
          ];
      ];
    metrics =
      String.concat "\n"
        [
          "{\"type\":\"counter\",\"name\":\"byz.cells_claimed\",\"value\":4}";
          "{\"type\":\"counter\",\"name\":\"byz.faults_fired\",\"value\":48}";
          "{\"type\":\"counter\",\"name\":\"byz.flagged\",\"value\":2}";
          "{\"type\":\"counter\",\"name\":\"byz.minimize_replays\",\"value\":3}";
          "{\"type\":\"counter\",\"name\":\"byz.runs\",\"value\":4}";
          "{\"type\":\"histogram\",\"name\":\"byz.schedule_entries\",\"value\":{\"count\":4,\"min\":40,\"max\":750,\"mean\":388.0,\"p10\":40,\"p50\":40,\"p90\":736,\"p99\":736,\"p999\":736}}";
          "{\"type\":\"counter\",\"name\":\"byz.stuck\",\"value\":0}";
          "{\"type\":\"histogram\",\"name\":\"byzchaos.scan.latency\",\"value\":{\"count\":16,\"min\":7,\"max\":593,\"mean\":177.25,\"p10\":8,\"p50\":29,\"p90\":432,\"p99\":592,\"p999\":592}}";
          "{\"type\":\"histogram\",\"name\":\"byzchaos.update.latency\",\"value\":{\"count\":16,\"min\":1,\"max\":298,\"mean\":72.5,\"p10\":1,\"p50\":19,\"p90\":264,\"p99\":296,\"p999\":296}}";
          "";
        ];
  }

let test_golden_replayed () =
  Fault_goldens.check_replayed "byz" (Fault_goldens.byz_replayed ())

let test_golden_campaign () =
  Fault_goldens.check_same "byz" ~expected:pinned_byz_campaign
    (Fault_goldens.byz ~jobs:1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "byzantine"
    [
      ( "lying cells",
        [
          Alcotest.test_case "equivocation" `Quick test_equivocate;
          Alcotest.test_case "timestamp regression" `Quick test_regress;
          Alcotest.test_case "budget claims f cells" `Quick
            test_byz_budget_claims_f_cells;
          Alcotest.test_case "substring targeting" `Quick test_contains_target;
          Alcotest.test_case "cell names" `Quick test_cell_names;
          Alcotest.test_case "names and claims through memory" `Quick
            test_memory_names_and_claims;
          Alcotest.test_case "describe names the stack" `Quick
            test_describe_names_the_stack;
          Alcotest.test_case "spec round-trip (new kinds)" `Quick
            test_spec_roundtrip_new_kinds;
        ] );
      ( "contract",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_wrapped_reads_are_plausible; qcheck_vote_matches_structural;
          ] );
      ( "construction",
        [
          Alcotest.test_case "masks exactly f liars" `Quick
            test_masks_exactly_f;
          Alcotest.test_case "caught at f+1 liars" `Quick
            test_caught_at_f_plus_1;
          Alcotest.test_case "memory adapter over budget adversary" `Quick
            test_memory_adapter_over_budget_adversary;
          Alcotest.test_case "memory validates its shape" `Quick
            test_memory_validates_shape;
          Alcotest.test_case "cost formulas" `Quick test_cost_formulas;
        ] );
      ( "network",
        [
          Alcotest.test_case "byzantine config validation" `Quick
            test_net_byz_validation;
          Alcotest.test_case "forging replica caught & accounted" `Quick
            test_net_forging_replica_caught_and_accounted;
          Alcotest.test_case "retransmit backoff" `Quick
            test_backoff_suppresses_retransmits;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "profile taxonomy" `Quick test_profile_taxonomy;
          Alcotest.test_case "boundary from both sides" `Quick
            test_boundary_from_both_sides;
          Alcotest.test_case "counterexample minimized & replayable" `Quick
            test_cx_minimized_replayable;
          Alcotest.test_case "report identical across jobs" `Quick
            test_report_identical_across_jobs;
          Alcotest.test_case "golden campaign" `Quick test_golden_campaign;
          Alcotest.test_case "golden violations equal a fresh replay" `Quick
            test_golden_replayed;
        ] );
    ]
