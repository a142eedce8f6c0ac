type ('s, 'i, 'o) spec = {
  apply : 's -> 'i -> 's * 'o;
  equal_output : 'o -> 'o -> bool;
  equal_state : 's -> 's -> bool;
}

type ('i, 'o) verdict =
  | Linearizable of ('i, 'o) Oprec.t list
  | Not_linearizable
  | Too_large

let max_ops = 62

let check spec ~init ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  if n > max_ops then Too_large
  else begin
    (* precedes.(i) is the bitmask of operations that precede op i; op i
       may be linearized only once all of them have been. *)
    let precedes = Array.make n 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && Oprec.precedes ops.(j) ops.(i) then
          precedes.(i) <- precedes.(i) lor (1 lsl j)
      done
    done;
    (* Wrap-around makes this correct even at n = 62 on 63-bit ints. *)
    let all_done = (1 lsl n) - 1 in
    (* Memo buckets are keyed by the (int) mask alone; states within a
       bucket are compared with the spec's own equality.  Hashing the
       (mask, state) pair polymorphically would both miss states whose
       custom equality is coarser than structural (false negatives,
       wasted re-search) and — worse — conflate states that are
       structurally similar but semantically distinct under a custom
       [equal_state] (false cache hits).  The table starts small and
       grows with the search, so a short history does not pay for a
       long one: a table sized for long searches would go to the major
       heap on every call. *)
    let visited : (int, 's list) Hashtbl.t = Hashtbl.create 16 in
    let seen mask state =
      match Hashtbl.find_opt visited mask with
      | None -> false
      | Some states -> List.exists (spec.equal_state state) states
    in
    let mark mask state =
      let states =
        match Hashtbl.find_opt visited mask with None -> [] | Some l -> l
      in
      Hashtbl.replace visited mask (state :: states)
    in
    (* Try candidates in invocation order (ties by index): operations
       that started earlier are the likeliest legal next step, which
       finds a witness with far less backtracking than index order on
       histories whose list interleaves late and early operations. *)
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        match compare ops.(a).Oprec.inv ops.(b).Oprec.inv with
        | 0 -> compare a b
        | c -> c)
      order;
    (* DFS for a legal completion from [mask] (already linearized) and
       specification state [state]; returns the witness suffix. *)
    let rec search mask state =
      if mask = all_done then Some []
      else if seen mask state then None
      else begin
        let found = ref None in
        let i = ref 0 in
        while !found = None && !i < n do
          let idx = order.(!i) in
          incr i;
          if mask land (1 lsl idx) = 0 && precedes.(idx) land lnot mask = 0
          then begin
            let state', out = spec.apply state ops.(idx).Oprec.input in
            if spec.equal_output out ops.(idx).Oprec.output then
              match search (mask lor (1 lsl idx)) state' with
              | Some suffix -> found := Some (ops.(idx) :: suffix)
              | None -> ()
          end
        done;
        if !found = None then mark mask state;
        !found
      end
    in
    match search 0 init with
    | Some witness -> Linearizable witness
    | None -> Not_linearizable
  end

let is_linearizable spec ~init ops =
  match check spec ~init ops with
  | Linearizable _ -> true
  | Not_linearizable -> false
  | Too_large -> invalid_arg "Linearize.is_linearizable: history too large"

(* ------------------------------------------------------------------ *)
(* Built-in specifications                                              *)
(* ------------------------------------------------------------------ *)

type 'v snap_input = Update of int * 'v | Scan
type 'v snap_output = Done | View of 'v array

let snapshot_spec ~equal =
  let apply state input =
    match input with
    | Update (k, v) ->
      let state' = Array.copy state in
      state'.(k) <- v;
      (state', Done)
    | Scan -> (state, View (Array.copy state))
  in
  let equal_array x y =
    Array.length x = Array.length y
    && (let ok = ref true in
        Array.iteri (fun i xi -> if not (equal xi y.(i)) then ok := false) x;
        !ok)
  in
  let equal_output a b =
    match (a, b) with
    | Done, Done -> true
    | View x, View y -> equal_array x y
    | Done, View _ | View _, Done -> false
  in
  { apply; equal_output; equal_state = equal_array }

type 'v reg_input = Reg_write of 'v | Reg_read
type 'v reg_output = Reg_done | Reg_value of 'v

let register_spec ~equal =
  let apply state input =
    match input with
    | Reg_write v -> (v, Reg_done)
    | Reg_read -> (state, Reg_value state)
  in
  let equal_output a b =
    match (a, b) with
    | Reg_done, Reg_done -> true
    | Reg_value x, Reg_value y -> equal x y
    | Reg_done, Reg_value _ | Reg_value _, Reg_done -> false
  in
  { apply; equal_output; equal_state = equal }

type counter_input = Incr of int | Get
type counter_output = Incr_done | Count of int

let counter_spec =
  let apply state input =
    match input with
    | Incr d -> (state + d, Incr_done)
    | Get -> (state, Count state)
  in
  let equal_output a b =
    match (a, b) with
    | Incr_done, Incr_done -> true
    | Count x, Count y -> x = y
    | Incr_done, Count _ | Count _, Incr_done -> false
  in
  { apply; equal_output; equal_state = Int.equal }
