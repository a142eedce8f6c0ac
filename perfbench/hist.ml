(* Latency histogram with 128 linear sub-buckets per octave (values
   below 128 ns exact, at most 0.8% bucket width above), so a percentile
   is interpolated inside its bucket and varies continuously from run to
   run instead of snapping to a coarse bucket bound. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let max_octave = 44 (* values up to ~2^45 ns, far beyond any run *)
let size = (max_octave - sub_bits + 2) * sub

type t = { counts : int array; mutable n : int; mutable sum : int }

let create () = { counts = Array.make size 0; n = 0; sum = 0 }

let index v =
  if v < sub then v
  else begin
    let e = ref sub_bits in
    while v lsr (!e + 1) <> 0 && !e < max_octave do incr e done;
    let m = v lsr (!e - sub_bits) in
    ((!e - sub_bits + 1) * sub) + (m - sub)
  end

let bounds i =
  if i < sub then (float_of_int i, 1.)
  else
    let o = (i / sub) - 1 and m = (i mod sub) + sub in
    (float_of_int (m lsl o), float_of_int (1 lsl o))

let max_value = (1 lsl (max_octave + 1)) - 1

(* [add_n t v n] records [n] samples of value [v]. *)
let add_n t v n =
  let v = if v < 0 then 0 else if v > max_value then max_value else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + n;
  t.n <- t.n + n;
  t.sum <- t.sum + (v * n)

let add t v = add_n t v 1

let count t = t.n
let sum t = t.sum

let merge ~into t =
  Array.iteri (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.n <- into.n + t.n;
  into.sum <- into.sum + t.sum

(* [merge_scaled ~into t f] adds every sample of [t] to [into] with its
   value multiplied by [f], each bucket's samples taken at the bucket's
   middle (at most half a bucket, 0.4%, from where they were). *)
let merge_scaled ~into t f =
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo, width = bounds i in
        add_n into (int_of_float (Float.round ((lo +. (width /. 2.)) *. f))) c
      end)
    t.counts

(* [percentile t p] for p in (0, 100]: the value at continuous rank
   [p/100 * n], interpolated linearly inside its bucket.  [nan] when
   empty. *)
let percentile t p =
  if t.n = 0 then Float.nan
  else begin
    let rank = p /. 100. *. float_of_int t.n in
    let i = ref 0 and below = ref 0 in
    while
      !i < size - 1 && float_of_int (!below + t.counts.(!i)) < rank
    do
      below := !below + t.counts.(!i);
      incr i
    done;
    let lo, width = bounds !i in
    let c = t.counts.(!i) in
    if c = 0 then lo
    else lo +. (width *. ((rank -. float_of_int !below) /. float_of_int c))
  end
