type kind = Task_begin | Task_end | Publish | Prune | Incumbent

let kind_name = function
  | Task_begin -> "task_begin"
  | Task_end -> "task_end"
  | Publish -> "publish"
  | Prune -> "prune"
  | Incumbent -> "incumbent"

let kind_code = function
  | Task_begin -> 0
  | Task_end -> 1
  | Publish -> 2
  | Prune -> 3
  | Incumbent -> 4

let kind_of_code = function
  | 0 -> Task_begin
  | 1 -> Task_end
  | 2 -> Publish
  | 3 -> Prune
  | _ -> Incumbent

(* One ring slot. All fields are immediate ints mutated in place, so
   recording allocates nothing after ring creation ([ev_ns] is the
   monotonic clock collapsed to an int — 63 bits of nanoseconds). *)
type slot = {
  mutable ev_ns : int;
  mutable ev_kind : int;
  mutable ev_group : int;
  mutable ev_detail : int;
}

type ring = {
  rg_track : int;
  rg_slots : slot array;
  mutable rg_count : int;  (** total events ever recorded *)
}

type t = {
  fr_lock : Mutex.t;
  fr_capacity : int;
  mutable fr_rings : ring list;
  mutable fr_path : string option;
  mutable fr_dumps : int;
  mutable fr_last_reason : string;
}

let default_capacity = 512

let create ?(capacity = default_capacity) ?path () =
  if capacity < 1 then invalid_arg "Flight_recorder.create: capacity must be >= 1";
  {
    fr_lock = Mutex.create ();
    fr_capacity = capacity;
    fr_rings = [];
    fr_path = path;
    fr_dumps = 0;
    fr_last_reason = "";
  }

let capacity t = t.fr_capacity

let ring t ~track =
  let slots =
    Array.init t.fr_capacity (fun _ ->
        { ev_ns = 0; ev_kind = -1; ev_group = -1; ev_detail = 0 })
  in
  let r = { rg_track = track; rg_slots = slots; rg_count = 0 } in
  Mutex.protect t.fr_lock (fun () -> t.fr_rings <- r :: t.fr_rings);
  r

let record_at r kind ~ns ~group ~detail =
  let slot = r.rg_slots.(r.rg_count mod Array.length r.rg_slots) in
  slot.ev_ns <- ns;
  slot.ev_kind <- kind_code kind;
  slot.ev_group <- group;
  slot.ev_detail <- detail;
  r.rg_count <- r.rg_count + 1

let record r kind ~group ~detail =
  record_at r kind ~ns:(Clock.now_int ()) ~group ~detail

(* ------------------------------------------------------------------ *)
(* Post-mortem view                                                    *)
(* ------------------------------------------------------------------ *)

type event = {
  ns : int;
  track : int;
  kind : kind;
  group : int;
  detail : int;
}

let rings t = Mutex.protect t.fr_lock (fun () -> t.fr_rings)

let ring_events r =
  let n = Array.length r.rg_slots in
  let kept = min r.rg_count n in
  List.init kept (fun i ->
      (* Oldest first: when the ring wrapped, the oldest surviving slot
         is the one the next write would overwrite. *)
      let idx = if r.rg_count <= n then i else (r.rg_count + i) mod n in
      let s = r.rg_slots.(idx) in
      {
        ns = s.ev_ns;
        track = r.rg_track;
        kind = kind_of_code s.ev_kind;
        group = s.ev_group;
        detail = s.ev_detail;
      })

let events t =
  List.concat_map ring_events (rings t)
  |> List.sort (fun a b ->
         let c = compare a.ns b.ns in
         if c <> 0 then c else compare (a.track, a.kind) (b.track, b.kind))

let recorded t = List.fold_left (fun acc r -> acc + r.rg_count) 0 (rings t)

let dropped t =
  List.fold_left
    (fun acc r -> acc + max 0 (r.rg_count - Array.length r.rg_slots))
    0 (rings t)

let tracks t = List.sort_uniq compare (List.map (fun r -> r.rg_track) (rings t))

let to_json ?(reason = "") t =
  let evs =
    List.map
      (fun e ->
        Json.Obj
          [
            ("ns", Json.int e.ns);
            ("track", Json.int e.track);
            ("kind", Json.Str (kind_name e.kind));
            ("group", Json.int e.group);
            ("detail", Json.int e.detail);
          ])
      (events t)
  in
  Json.Obj
    [
      ("reason", Json.Str reason);
      ("capacity", Json.int t.fr_capacity);
      ("recorded", Json.int (recorded t));
      ("dropped", Json.int (dropped t));
      ("tracks", Json.Arr (List.map Json.int (tracks t)));
      ("events", Json.Arr evs);
    ]

let set_path t path = t.fr_path <- Some path

let dumps t = t.fr_dumps

let last_reason t = t.fr_last_reason

(* A trigger marks the recorder (always) and writes the post-mortem
   file (when a destination is configured). Torn reads of slots still
   being written by other domains sharing the recorder are acceptable:
   this fires on the way out of a failing run, and a corrupt tail event
   beats no record. *)
let trigger t ~reason =
  (* Triggers can fire from several domains at once (plan-service
     workers share one recorder); the counter update takes the
     registration lock, the file write does not. *)
  Mutex.protect t.fr_lock (fun () ->
      t.fr_last_reason <- reason;
      t.fr_dumps <- t.fr_dumps + 1);
  match t.fr_path with
  | None -> ()
  | Some path -> Json.write_file path (to_json ~reason t)
