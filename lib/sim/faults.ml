type kind =
  | Lost_write of { prob : float }
  | Stuck_at of { after : int }
  | Stutter of { prob : float }
  | Corrupt of { prob : float }
  | Regular of { window : int }
  | Equivocate of { prob : float }
  | Regress of { prob : float }
  | Byzantine of { f : int; prob : float }

type target = All | Exact of string | Prefix of string | Contains of string

type injection = { kind : kind; target : target }

type counters = {
  mutable lost : int;
  mutable frozen : int;
  mutable stuttered : int;
  mutable corrupted : int;
  mutable stale : int;
  mutable equivocated : int;
  mutable regressed : int;
  mutable byz_lies : int;
  mutable byz_drops : int;
  mutable byz_cells : int;
}

let fresh_counters () =
  {
    lost = 0;
    frozen = 0;
    stuttered = 0;
    corrupted = 0;
    stale = 0;
    equivocated = 0;
    regressed = 0;
    byz_lies = 0;
    byz_drops = 0;
    byz_cells = 0;
  }

(* [byz_cells] is the adversary's head count, not a triggered fault. *)
let fired c =
  c.lost + c.frozen + c.stuttered + c.corrupted + c.stale + c.equivocated
  + c.regressed + c.byz_lies + c.byz_drops

(* Allocation-free: fault stacks test every cell name at set-up. *)
let contains ~sub name =
  let ls = String.length sub and ln = String.length name in
  let rec matches i k =
    k = ls
    || String.unsafe_get name (i + k) = String.unsafe_get sub k
       && matches i (k + 1)
  in
  let rec at i = i + ls <= ln && (matches i 0 || at (i + 1)) in
  at 0

let applies target name =
  match target with
  | All -> true
  | Exact s -> String.equal s name
  | Prefix p -> String.starts_with ~prefix:p name
  | Contains sub -> contains ~sub name

(* How far back [Regress] may reach: superseded values kept per cell. *)
let regress_depth = 8

type t = {
  mem : Memory.t;
  (* Layers of the wrapper stack, outermost first, each with its own
     counters.  A bare [stack] has no layers. *)
  layers : (injection list * counters) list;
  base : string;
}

let stack ?(base = "base") mem = { mem; layers = []; base }

let counters t =
  match t.layers with [] -> fresh_counters () | (_, c) :: _ -> c

let fired_stack t = List.fold_left (fun a (_, c) -> a + fired c) 0 t.layers

let wrap_over ~seed ?who injections (outer : t) =
  let base = outer.mem in
  let prng = Schedule.Prng.make seed in
  let counters = fresh_counters () in
  let chance p = Schedule.Prng.float prng < p in
  (* Reader identity for equivocation: route through [who] when the
     caller can name the reading process (e.g. [Sim.self]); default to
     a round-robin witness so equivocation still alternates faces in
     single-threaded tests. *)
  let turn = ref 0 in
  let who =
    match who with
    | Some f -> f
    | None ->
      fun () ->
        incr turn;
        !turn
  in
  (* The Byzantine adversary owns a budget of [f] cells per injection;
     it claims the first matching cells as they are allocated, which
     concentrates the corruption (the strongest placement against a
     replicated construction) and keeps claims deterministic. *)
  let budgets =
    List.map
      (fun i ->
        match i.kind with
        | Byzantine { f; _ } -> (i, ref f)
        | _ -> (i, ref 0))
      injections
  in
  let make : type a. name:string -> bits:int -> a -> a Memory.cell =
   fun ~name ~bits init ->
    let c = base.Memory.make ~name ~bits init in
    let kinds =
      List.filter_map
        (fun (i, budget) ->
          if not (applies i.target name) then None
          else
            match i.kind with
            | Byzantine { prob; _ } ->
              if !budget > 0 then begin
                decr budget;
                counters.byz_cells <- counters.byz_cells + 1;
                Some (Byzantine { f = 0; prob })
              end
              else None
            | k -> Some k)
        budgets
    in
    if kinds = [] then c
    else begin
      let find f = List.find_map f kinds in
      let lost_prob = find (function Lost_write { prob } -> Some prob | _ -> None) in
      let stuck_after = find (function Stuck_at { after } -> Some after | _ -> None) in
      let stutter_prob = find (function Stutter { prob } -> Some prob | _ -> None) in
      let corrupt_prob = find (function Corrupt { prob } -> Some prob | _ -> None) in
      let regular_window = find (function Regular { window } -> Some window | _ -> None) in
      let equivocate_prob = find (function Equivocate { prob } -> Some prob | _ -> None) in
      let regress_prob = find (function Regress { prob } -> Some prob | _ -> None) in
      let byz_prob = find (function Byzantine { prob; _ } -> Some prob | _ -> None) in
      (* The wrapper shadows the cell contents: [cur] is what the cell
         holds, [prev] what it held before the latest effective write.
         Cells are single-writer, and this state only changes inside
         the (single-threaded) simulation, so the shadow is exact. *)
      let cur = ref init in
      let prev = ref init in
      let history = ref [] in
      (* superseded values, newest first *)
      let stale_budget = ref 0 in
      let writes_seen = ref 0 in
      let supersede old =
        prev := old;
        history :=
          old :: (if List.length !history >= regress_depth then
                    List.filteri (fun i _ -> i < regress_depth - 1) !history
                  else !history)
      in
      let write v =
        incr writes_seen;
        let frozen =
          match stuck_after with Some a -> !writes_seen > a | None -> false
        in
        if frozen then begin
          counters.frozen <- counters.frozen + 1;
          (* The event still happens; the value does not change. *)
          c.Memory.write !cur
        end
        else if match byz_prob with Some p -> chance p | None -> false then begin
          (* A claimed cell silently discards the write: the targeted
             drop of an actively faulty base register. *)
          counters.byz_drops <- counters.byz_drops + 1;
          c.Memory.write !cur
        end
        else if match lost_prob with Some p -> chance p | None -> false then begin
          counters.lost <- counters.lost + 1;
          c.Memory.write !cur
        end
        else begin
          let old = !cur in
          supersede old;
          (match regular_window with
          | Some w -> stale_budget := w
          | None -> ());
          cur := v;
          c.Memory.write v;
          match stutter_prob with
          | Some p when chance p ->
            (* The previous write is spuriously re-delivered after the
               new one: an extra event that reverts the cell. *)
            counters.stuttered <- counters.stuttered + 1;
            supersede v;
            (match regular_window with
            | Some w -> stale_budget := w
            | None -> ());
            cur := old;
            c.Memory.write old
          | _ -> ()
        end
      in
      let read () =
        let v = c.Memory.read () in
        if match byz_prob with Some p -> chance p | None -> false then begin
          (* A claimed cell answers with its initial state: the largest
             possible timestamp regression, and — because every replica
             of a register group starts identical — the lie on which
             colluding claimed cells automatically agree. *)
          counters.byz_lies <- counters.byz_lies + 1;
          init
        end
        else if match corrupt_prob with Some p -> chance p | None -> false
        then begin
          counters.corrupted <- counters.corrupted + 1;
          init
        end
        else if
          match equivocate_prob with Some p -> chance p | None -> false
        then begin
          (* Equivocation: the answer depends on who is asking, so two
             concurrent readers see different faces of the register. *)
          counters.equivocated <- counters.equivocated + 1;
          if who () land 1 = 1 then !prev else v
        end
        else if match regress_prob with Some p -> chance p | None -> false
        then begin
          (* Bogus/regressing timestamps: replay an arbitrarily old
             superseded value (any tag embedded in it rides along). *)
          match !history with
          | [] -> v
          | h ->
            counters.regressed <- counters.regressed + 1;
            List.nth h (Schedule.Prng.int prng (List.length h))
        end
        else if !stale_budget > 0 then begin
          stale_budget := !stale_budget - 1;
          if chance 0.5 then begin
            counters.stale <- counters.stale + 1;
            !prev
          end
          else v
        end
        else v
      in
      { Memory.read; write; peek = c.Memory.peek }
    end
  in
  {
    mem = { Memory.make };
    layers = (injections, counters) :: outer.layers;
    base = outer.base;
  }

let wrap ~seed ?who injections (base : Memory.t) =
  let w = wrap_over ~seed ?who injections (stack base) in
  (w.mem, counters w)

(* ------------------------------------------------------------------ *)
(* Rendering and parsing                                                *)
(* ------------------------------------------------------------------ *)

let kind_to_string = function
  | Lost_write { prob } -> Printf.sprintf "lost:%g" prob
  | Stuck_at { after } -> Printf.sprintf "stuck:%d" after
  | Stutter { prob } -> Printf.sprintf "stutter:%g" prob
  | Corrupt { prob } -> Printf.sprintf "corrupt:%g" prob
  | Regular { window } -> Printf.sprintf "regular:%d" window
  | Equivocate { prob } -> Printf.sprintf "equivocate:%g" prob
  | Regress { prob } -> Printf.sprintf "regress:%g" prob
  | Byzantine { f; prob } -> Printf.sprintf "byz:%d:%g" f prob

let injection_to_string i =
  match i.target with
  | All -> kind_to_string i.kind
  | Prefix p -> Printf.sprintf "%s@%s" (kind_to_string i.kind) p
  | Exact s -> Printf.sprintf "%s@=%s" (kind_to_string i.kind) s
  | Contains sub -> Printf.sprintf "%s@*%s" (kind_to_string i.kind) sub

let pp_kind fmt k = Format.pp_print_string fmt (kind_to_string k)
let pp_injection fmt i = Format.pp_print_string fmt (injection_to_string i)

let pp_counters fmt c =
  Format.fprintf fmt
    "lost=%d frozen=%d stuttered=%d corrupted=%d stale=%d equivocated=%d \
     regressed=%d byz-lies=%d byz-drops=%d byz-cells=%d"
    c.lost c.frozen c.stuttered c.corrupted c.stale c.equivocated c.regressed
    c.byz_lies c.byz_drops c.byz_cells

let layer_label injections =
  match injections with
  | [] -> "pass-through"
  | is -> String.concat "+" (List.map injection_to_string is)

let stack_label ~layers ~base =
  String.concat " over " (List.map layer_label layers @ [ base ])

let describe t = stack_label ~layers:(List.map fst t.layers) ~base:t.base

let injection_of_string s =
  let spec, target =
    match String.index_opt s '@' with
    | None -> (s, All)
    | Some i ->
      let t = String.sub s (i + 1) (String.length s - i - 1) in
      ( String.sub s 0 i,
        if String.length t > 0 && t.[0] = '=' then
          Exact (String.sub t 1 (String.length t - 1))
        else if String.length t > 0 && t.[0] = '*' then
          Contains (String.sub t 1 (String.length t - 1))
        else Prefix t )
  in
  let prob_arg name arg k =
    match float_of_string_opt arg with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok { kind = k p; target }
    | _ -> Error (Printf.sprintf "%s wants a probability in [0,1], got %S" name arg)
  in
  let int_arg name arg k =
    match int_of_string_opt arg with
    | Some n when n >= 0 -> Ok { kind = k n; target }
    | _ -> Error (Printf.sprintf "%s wants a non-negative integer, got %S" name arg)
  in
  match String.index_opt spec ':' with
  | None ->
    Error
      (Printf.sprintf
         "fault spec %S: expected KIND:ARG[@TARGET] with KIND one of \
          lost|stuck|stutter|corrupt|regular|equivocate|regress|byz"
         s)
  | Some i ->
    let name = String.sub spec 0 i in
    let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
    (match name with
    | "lost" -> prob_arg name arg (fun prob -> Lost_write { prob })
    | "stutter" -> prob_arg name arg (fun prob -> Stutter { prob })
    | "corrupt" -> prob_arg name arg (fun prob -> Corrupt { prob })
    | "stuck" -> int_arg name arg (fun after -> Stuck_at { after })
    | "regular" -> int_arg name arg (fun window -> Regular { window })
    | "equivocate" -> prob_arg name arg (fun prob -> Equivocate { prob })
    | "regress" -> prob_arg name arg (fun prob -> Regress { prob })
    | "byz" -> (
      match String.index_opt arg ':' with
      | None -> Error "byz wants F:PROB, e.g. byz:1:1"
      | Some j ->
        let f_s = String.sub arg 0 j in
        let p_s = String.sub arg (j + 1) (String.length arg - j - 1) in
        (match (int_of_string_opt f_s, float_of_string_opt p_s) with
        | Some f, Some p when f >= 0 && p >= 0.0 && p <= 1.0 ->
          Ok { kind = Byzantine { f; prob = p }; target }
        | _ ->
          Error
            (Printf.sprintf
               "byz wants a non-negative budget and a probability in \
                [0,1], got %S"
               arg)))
    | _ -> Error (Printf.sprintf "unknown fault kind %S" name))
