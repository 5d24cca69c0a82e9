type counter = {
  c_name : string;
  c_help : string;
  c_cell : int Atomic.t;
}

(* Bucket [i] holds observations in (2^(i-13), 2^(i-12)]: 64 geometric
   buckets spanning ~2.4e-4 .. 2.2e15, wide enough for sub-millisecond
   latencies and for task counts in the millions. *)
let n_buckets = 64

let bucket_shift = 12

let bucket_upper i = Float.ldexp 1.0 (i - bucket_shift)

let bucket_of v =
  if v <= 0. then 0
  else begin
    let _, e = Float.frexp v in
    (* frexp: v = m * 2^e with m in [0.5, 1), so 2^(e-1) < v <= 2^e. *)
    let i = e + bucket_shift in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i
  end

type histogram = {
  h_name : string;
  h_help : string;
  h_buckets : int Atomic.t array;
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_max : float Atomic.t;
}

type gauge = {
  g_name : string;
  g_help : string;
  mutable g_read : unit -> float;
}

type registry = {
  lock : Mutex.t;
  mutable counters : counter list;  (** reverse registration order *)
  mutable gauges : gauge list;
  mutable histograms : histogram list;
  mutable hooks : (unit -> unit) list;  (** reverse registration order *)
}

let create () =
  { lock = Mutex.create (); counters = []; gauges = []; histograms = []; hooks = [] }

let counter reg ?(help = "") name =
  Mutex.protect reg.lock (fun () ->
      match List.find_opt (fun c -> c.c_name = name) reg.counters with
      | Some c -> c
      | None ->
        let c = { c_name = name; c_help = help; c_cell = Atomic.make 0 } in
        reg.counters <- c :: reg.counters;
        c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_cell by : int)

let counter_value c = Atomic.get c.c_cell

let gauge reg ?(help = "") name read =
  Mutex.protect reg.lock (fun () ->
      match List.find_opt (fun g -> g.g_name = name) reg.gauges with
      | Some g -> g.g_read <- read
      | None -> reg.gauges <- { g_name = name; g_help = help; g_read = read } :: reg.gauges)

let before_export reg f = Mutex.protect reg.lock (fun () -> reg.hooks <- f :: reg.hooks)

let histogram reg ?(help = "") name =
  Mutex.protect reg.lock (fun () ->
      match List.find_opt (fun h -> h.h_name = name) reg.histograms with
      | Some h -> h
      | None ->
        let h =
          {
            h_name = name;
            h_help = help;
            h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0.;
            h_max = Atomic.make 0.;
          }
        in
        reg.histograms <- h :: reg.histograms;
        h)

let rec atomic_add_float cell v =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. v)) then atomic_add_float cell v

let rec atomic_max_float cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max_float cell v

let observe h v =
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1 : int);
  ignore (Atomic.fetch_and_add h.h_count 1 : int);
  atomic_add_float h.h_sum v;
  atomic_max_float h.h_max v

let hist_count h = Atomic.get h.h_count

let hist_sum h = Atomic.get h.h_sum

let hist_max h = Atomic.get h.h_max

let quantile h q =
  let count = Atomic.get h.h_count in
  if count = 0 then 0.
  else begin
    let rank = Float.to_int (Float.round (q *. float_of_int count)) in
    let rank = if rank < 1 then 1 else if rank > count then count else rank in
    let rec walk i cum =
      if i >= n_buckets then hist_max h
      else begin
        let cum = cum + Atomic.get h.h_buckets.(i) in
        if cum >= rank then Float.min (bucket_upper i) (hist_max h) else walk (i + 1) cum
      end
    in
    walk 0 0
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* The instruments to export, after running the export hooks (outside
   the lock: a hook may read other locked state). *)
let snapshot reg =
  let hooks, instruments =
    Mutex.protect reg.lock (fun () ->
        (reg.hooks, (List.rev reg.counters, List.rev reg.gauges, List.rev reg.histograms)))
  in
  List.iter (fun f -> f ()) (List.rev hooks);
  instruments

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let to_prometheus reg =
  let counters, gauges, histograms = snapshot reg in
  let buf = Buffer.create 1024 in
  let header name help kind =
    if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun c ->
      header c.c_name c.c_help "counter";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" c.c_name (Atomic.get c.c_cell)))
    counters;
  List.iter
    (fun g ->
      header g.g_name g.g_help "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %s\n" g.g_name (fmt_float (g.g_read ()))))
    gauges;
  List.iter
    (fun h ->
      header h.h_name h.h_help "histogram";
      let cum = ref 0 in
      Array.iteri
        (fun i cell ->
          let n = Atomic.get cell in
          if n > 0 then begin
            cum := !cum + n;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" h.h_name
                 (fmt_float (bucket_upper i))
                 !cum)
          end)
        h.h_buckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" h.h_name (Atomic.get h.h_count));
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n" h.h_name (fmt_float (Atomic.get h.h_sum)));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" h.h_name (Atomic.get h.h_count)))
    histograms;
  Buffer.contents buf

let to_json reg =
  let counters, gauges, histograms = snapshot reg in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun c -> (c.c_name, Json.int (Atomic.get c.c_cell))) counters) );
      ("gauges", Json.Obj (List.map (fun g -> (g.g_name, Json.Num (g.g_read ()))) gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun h ->
               ( h.h_name,
                 Json.Obj
                   [
                     ("count", Json.int (hist_count h));
                     ("sum", Json.Num (hist_sum h));
                     ("max", Json.Num (hist_max h));
                     ("p50", Json.Num (quantile h 0.50));
                     ("p95", Json.Num (quantile h 0.95));
                     ("p99", Json.Num (quantile h 0.99));
                   ] ))
             histograms) );
    ]
