(* Machine-speed calibration.

   On a shared machine the processor's speed drifts by a quarter or more
   over seconds to minutes as other tenants load the host; the drift is
   not the program's. The benchmark runs a fixed kernel at intervals
   through the measured loop and reports its times at a reference speed:
   each timed interval is multiplied by [reference_s / k], where [k] is
   the median of the kernel's latest times.

   The kernel sorts 10k integers, inserts them into an open-addressing
   table, and reads one word per cache line of an 8 MB array, so that it
   feels contention for both the processor and memory. It works on
   arrays built once and allocates nothing, so it neither feeds nor
   waits on the program's garbage collector: its time does not depend on
   the program under test. *)

(* About the kernel's time on the 2.1 GHz Xeon virtual processor the
   benchmark was tuned on; it only sets the scale of the reported times. *)
let reference_s = 0.0045

let n = 10_000

let src = Array.init n (fun i -> i * 7919 mod 100_003)

let scratch = Array.make n 0

let table = Array.make 32_768 (-1)

let stream = Array.make (1 lsl 20) 1

let stream_sum = ref 0

let kernel () =
  Array.blit src 0 scratch 0 n;
  Array.sort (fun (a : int) b -> compare a b) scratch;
  Array.fill table 0 (Array.length table) (-1);
  let mask = Array.length table - 1 in
  Array.iter
    (fun k ->
      let h = ref (k * 0x9E3779B1 land mask) in
      while table.(!h) >= 0 && table.(!h) <> k do
        h := (!h + 1) land mask
      done;
      table.(!h) <- k)
    scratch;
  let sum = ref 0 in
  let i = ref 0 in
  while !i < Array.length stream do
    sum := !sum + stream.(!i);
    i := !i + 8
  done;
  stream_sum := !sum

let window = 5

type t = {
  recent : float array;  (** the latest kernel times, a ring *)
  mutable taken : int;
  mutable last_ns : int64;
  mutable all : float list;  (** every kernel time of the run *)
  mutable factor : float;
      (** turns a time measured now into reference time:
          [reference_s] over the median of [recent] *)
}

let time_kernel () =
  let t0 = Obs.Clock.now_ns () in
  kernel ();
  Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sample t =
  let k = time_kernel () in
  t.recent.(t.taken mod window) <- k;
  t.taken <- t.taken + 1;
  t.all <- k :: t.all;
  t.last_ns <- Obs.Clock.now_ns ();
  t.factor <- reference_s /. median (Array.sub t.recent 0 (min window t.taken))

let create () =
  let t =
    { recent = Array.make window 0.; taken = 0; last_ns = 0L; all = []; factor = 1. }
  in
  for _ = 1 to window do
    sample t
  done;
  t

(* Sample again when [every_s] seconds have passed since the last one. *)
let tick t ~every_s =
  if Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t.last_ns) /. 1e9 >= every_s then
    sample t

(* The median kernel time over the run. *)
let run_median t = median (Array.of_list t.all)
