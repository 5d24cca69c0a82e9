type span = {
  sp_id : int;
  sp_parent : int;
  sp_track : int;
  sp_cat : string;
  sp_name : string;
  sp_group : int;
  sp_start : int64;
  mutable sp_end : int64;
  mutable sp_outcome : string;
  mutable sp_args : (string * string) list;
}

type buf = {
  bf_track : int;
  bf_serial : int;  (** the collector's registration number, from 1 *)
  mutable bf_spans : span list;  (** newest first *)
  mutable bf_count : int;
}

type t = {
  tr_lock : Mutex.t;
  mutable tr_bufs : buf list;
  mutable tr_serial : int;  (** buffers registered so far *)
}

let create () = { tr_lock = Mutex.create (); tr_bufs = []; tr_serial = 0 }

let buf t ~track =
  Mutex.protect t.tr_lock (fun () ->
      t.tr_serial <- t.tr_serial + 1;
      let b = { bf_track = track; bf_serial = t.tr_serial; bf_spans = []; bf_count = 0 } in
      t.tr_bufs <- b :: t.tr_bufs;
      b)

(* Span ids carry the buffer's serial in the high bits, so each buffer
   allocates ids without coordination and no two buffers of a collector
   share one; 0 is reserved for "no parent". *)
let open_span b ?parent ?(group = -1) ?(args = []) ~cat name =
  b.bf_count <- b.bf_count + 1;
  let sp =
    {
      sp_id = (b.bf_serial lsl 40) lor b.bf_count;
      sp_parent = (match parent with None -> 0 | Some p -> p.sp_id);
      sp_track = b.bf_track;
      sp_cat = cat;
      sp_name = name;
      sp_group = group;
      sp_start = Clock.now_ns ();
      sp_end = 0L;
      sp_outcome = "";
      sp_args = args;
    }
  in
  b.bf_spans <- sp :: b.bf_spans;
  sp

let close ?(outcome = "") sp =
  if sp.sp_end <> 0L then invalid_arg "Trace.close: span already closed";
  sp.sp_end <- Clock.now_ns ();
  if outcome <> "" then sp.sp_outcome <- outcome

let is_open sp = sp.sp_end = 0L

let id sp = sp.sp_id

let bufs t = Mutex.protect t.tr_lock (fun () -> t.tr_bufs)

let spans t =
  List.concat_map (fun b -> b.bf_spans) (bufs t)
  |> List.sort (fun a b ->
         let c = Int64.compare a.sp_start b.sp_start in
         if c <> 0 then c else compare a.sp_id b.sp_id)

let total t = List.fold_left (fun acc b -> acc + b.bf_count) 0 (bufs t)

let closed t =
  List.fold_left
    (fun acc b ->
      acc + List.length (List.filter (fun sp -> sp.sp_end <> 0L) b.bf_spans))
    0 (bufs t)

let tracks t = List.sort_uniq compare (List.map (fun b -> b.bf_track) (bufs t))
