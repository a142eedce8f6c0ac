(* Shared plumbing: clock, order statistics, memory, fingerprints, the
   metrics a workload hands back to [Main], and correctness checks. *)

let now_ns = Obs.Mono.now_ns

(* [quantile q xs], q in [0, 1], interpolating between order
   statistics; [nan] for an empty list. *)
let quantile q = function
  | [] -> Float.nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Peak resident set size of this process, from the kernel's high-water
   mark. *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> Float.nan
      in
      go ())

let fingerprint s = Digest.to_hex (Digest.string s)

(* Set-ups made and torn down before the rounds, only to be timed: set-up
   time is the median of these and the rounds' own. *)
let spare_setups = 6

(* Host-speed reference.  The shared 2-vCPU hosts the bounds were set
   on run at one speed for a few seconds and at another for the next:
   within one 30 s run the kernel below took 55 us in one tenth and
   84 us in another, and every workload moves with it.  [Ref] times a
   fixed kernel of the benchmark's own, which calls no code of the
   repository and does not allocate (so the program's heap cannot slow
   it through the GC), in short blocks of samples spread over the run.
   Each block's median gives the local time factor
   [nominal_ns / median], and every timing a workload takes is scaled
   by the factor of the blocks around it: it reads as it would on a host
   where the kernel takes [nominal_ns].

   The kernel has three parts of about equal time, because the host's
   slow spells do not slow every kind of work alike: a table walk over
   512 KB (memory), atomic read-modify-writes on a few cache lines (what
   [Serve]'s mailboxes and counters do; over one set of runs
   [serve-direct] slowed with this part three times as much as with the
   table walk) and register-only arithmetic. *)
module Ref = struct
  let nominal_ns = 66_000.
  let blocks = ref []
  let table = Array.make 65_536 0
  let atoms = Array.init 64 (fun _ -> Atomic.make 0)

  let xorshift x =
    let x = x lxor ((x lsl 13) land 0x3FFF_FFFF) in
    let x = x lxor (x lsr 17) in
    x lxor ((x lsl 5) land 0x3FFF_FFFF)

  let kernel () =
    let x = ref 0x2545F491 and acc = ref 0 in
    for _ = 1 to 4_096 do
      x := xorshift !x;
      let i = !x land 65_535 in
      table.(i) <- table.(i) + !acc;
      acc := !acc + table.((i * 31) land 65_535)
    done;
    for _ = 1 to 3_072 do
      x := xorshift !x;
      acc := !acc + Atomic.fetch_and_add atoms.(!x land 63) 1 + Atomic.get atoms.(!acc land 63)
    done;
    for _ = 1 to 2_400 do
      x := xorshift !x;
      acc := !acc + if !x land 1 = 0 then !x lsr 3 else !acc lsr 1
    done;
    !acc

  (* Run the kernel for about [ms] milliseconds; returns the block's
     median time in ns. *)
  let sample ms =
    let stop = now_ns () + int_of_float (ms *. 1e6) in
    let rec go acc =
      let a = now_ns () in
      ignore (Sys.opaque_identity (kernel ()));
      let b = now_ns () in
      let acc = float_of_int (b - a) :: acc in
      if b < stop then go acc else acc
    in
    let block = median (go []) in
    blocks := block :: !blocks;
    block

  (* The time factor of a stretch of the run whose kernel blocks took
     [block_ns]: it multiplies a time, and divides a rate, to scale it to
     the nominal host. *)
  let factor block_ns = nominal_ns /. block_ns

  let report () =
    let bs = !blocks in
    Printf.printf
      "host reference: %d kernel blocks, median %.0f ns (tenth %.0f, ninth tenth %.0f), run factor %.4f\n%!"
      (List.length bs) (median bs) (quantile 0.1 bs) (quantile 0.9 bs) (factor (median bs))
end

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Every check a workload makes goes through [check]: a failure is
   printed at once and remembered, so the run still reports its figures
   and then exits nonzero. *)
let failures = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        Printf.printf "CHECK FAILED: %s\n%!" msg;
        failures := msg :: !failures
      end)
    fmt

let all_checks_passed () = !failures = []

let nproc () = Domain.recommended_domain_count ()

