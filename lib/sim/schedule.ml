exception Bad_script of string

module Prng = struct
  (* splitmix64: tiny, fast, reproducible; good enough statistical
     quality for schedule shuffling.  The 64-bit state lives unboxed in
     8 bytes, so [int] allocates nothing. *)
  type t = Bytes.t

  let make seed =
    let t = Bytes.create 8 in
    Bytes.set_int64_ne t 0 (Int64.of_int seed);
    t

  let[@inline] next t =
    let z = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
    Bytes.set_int64_ne t 0 z;
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let bits64 t = next t

  let int t bound =
    if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
    (* Rejection sampling: [r mod bound] alone over-weights small
       residues whenever [bound] does not divide 2^62.  Redraw on the
       (astronomically rare, for realistic bounds) overhang instead.
       [r] is a 62-bit draw, so on a 64-bit platform [max_int] is
       exactly 2^62 - 1 and the overhang [2^62 mod bound] can be
       computed without overflowing: accepted draws are those [<=
       max_int - overhang], a range whose size [2^62 - overhang] is an
       exact multiple of [bound]. *)
    let overhang = ((max_int mod bound) + 1) mod bound in
    let cutoff = max_int - overhang in
    let r = ref (Int64.to_int (Int64.shift_right_logical (next t) 2)) in
    while !r > cutoff do
      r := Int64.to_int (Int64.shift_right_logical (next t) 2)
    done;
    !r mod bound

  let float t =
    let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
    r /. 9007199254740992.0
end

type t =
  | Round_robin
  | Random of int
  | Starving of int
  | Scripted of int array * t
  | Choose of (enabled:int array -> step:int -> int)

type driver_state =
  | D_round_robin of { mutable last : int }
  | D_random of Prng.t
  | D_starving of { prng : Prng.t; mutable granted : int array }
  | D_scripted of { script : int array; mutable pos : int; fallback : driver_state }
  | D_choose of (enabled:int array -> step:int -> int)

type driver = driver_state

let rec driver = function
  | Round_robin -> D_round_robin { last = -1 }
  | Random seed -> D_random (Prng.make seed)
  | Starving seed -> D_starving { prng = Prng.make seed; granted = [||] }
  | Scripted (script, fallback) ->
    D_scripted { script; pos = 0; fallback = driver fallback }
  | Choose f -> D_choose f

let array_mem x a =
  let rec go i = i < Array.length a && (a.(i) = x || go (i + 1)) in
  go 0

let rec pick d ~enabled ~step =
  match d with
  | D_round_robin st ->
    (* First enabled id strictly greater than [last], wrapping. *)
    let rec above i =
      if i = Array.length enabled then enabled.(0)
      else if enabled.(i) > st.last then enabled.(i)
      else above (i + 1)
    in
    let choice = above 0 in
    st.last <- choice;
    choice
  | D_random prng -> enabled.(Prng.int prng (Array.length enabled))
  | D_starving st ->
    (* Adversarial starvation: most of the time, grant the enabled
       process that has already been granted the most steps, so the
       laggard's in-flight operation spans as many foreign events as
       possible; occasionally (1 in 4) let the most-starved process
       creep one step forward so its operation actually makes progress
       through the danger zone instead of never starting. *)
    let max_id = Array.fold_left max 0 enabled in
    if max_id >= Array.length st.granted then begin
      let g = Array.make (max_id + 1) 0 in
      Array.blit st.granted 0 g 0 (Array.length st.granted);
      st.granted <- g
    end;
    (* The first enabled process whose grant count beats every
       earlier one under [better]. *)
    let best (better : int -> int -> bool) =
      let b = ref enabled.(0) in
      for j = 1 to Array.length enabled - 1 do
        let p = enabled.(j) in
        if better st.granted.(p) st.granted.(!b) then b := p
      done;
      !b
    in
    let choice =
      if Prng.float st.prng < 0.25 then best ( < ) else best ( > )
    in
    st.granted.(choice) <- st.granted.(choice) + 1;
    choice
  | D_scripted st ->
    if st.pos >= Array.length st.script then pick st.fallback ~enabled ~step
    else begin
      let p = st.script.(st.pos) in
      st.pos <- st.pos + 1;
      if not (array_mem p enabled) then
        raise
          (Bad_script
             (Printf.sprintf
                "script step %d schedules process %d, which is not enabled"
                (st.pos - 1) p));
      p
    end
  | D_choose f ->
    let p = f ~enabled ~step in
    if not (array_mem p enabled) then
      raise (Bad_script (Printf.sprintf "Choose policy returned disabled process %d" p));
    p
