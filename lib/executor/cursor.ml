type t = {
  schema : Relalg.Schema.t;
  open_ : unit -> unit;
  next : unit -> Relalg.Tuple.t option;
  close : unit -> unit;
}

let of_array schema tuples =
  let pos = ref 0 in
  {
    schema;
    open_ = (fun () -> pos := 0);
    next =
      (fun () ->
        if !pos >= Array.length tuples then None
        else begin
          let t = tuples.(!pos) in
          incr pos;
          Some t
        end);
    close = ignore;
  }

let drain c =
  c.open_ ();
  let rows = Array_pool.drain c.next in
  c.close ();
  rows

let to_array c =
  let buf, n = drain c in
  let out = Array.sub buf 0 n in
  Array_pool.Rows.give buf;
  out

let iter f c =
  c.open_ ();
  let rec drain () =
    match c.next () with
    | None -> ()
    | Some t ->
      f t;
      drain ()
  in
  drain ();
  c.close ()

let map_stream schema f input =
  {
    schema;
    open_ = input.open_;
    next = (fun () -> Option.map f (input.next ()));
    close = input.close;
  }

let observed ?(at_end = fun () -> ()) f input =
  {
    input with
    next =
      (fun () ->
        match input.next () with
        | Some t as r ->
          f t;
          r
        | None ->
          at_end ();
          None);
  }

let filter_stream keep input =
  let rec next () =
    match input.next () with
    | None -> None
    | Some t as r -> if keep t then r else next ()
  in
  { schema = input.schema; open_ = input.open_; next; close = input.close }
