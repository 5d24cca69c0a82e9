(* Per-domain recycling of the large arrays behind the hash index and
   materialized inputs.

   An array longer than 256 words is allocated straight into the major
   heap. The executor's hot path allocates few minor words, so few
   major slices run between statements, and dead large arrays pile up
   until one does: growing them afresh for every statement raised the
   analytic workload's peak memory by 42% (DESIGN.md §18). So arrays
   are taken from and given back to a free list per domain. Lengths are
   powers of two; an array in a free list, or fresh from [take], holds
   [fill] in every slot, so a pooled array keeps nothing alive. The
   free lists are not locked: a domain must not run executors on two
   systhreads at once. *)

module Make (E : sig
  type t

  val fill : t
end) =
struct
  (* Arrays kept per length; more are left to the collector. *)
  let keep = 8

  let free : E.t array list array Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Array.make Sys.int_size [])

  let log2 n =
    let rec go c = if 1 lsl c >= n then c else go (c + 1) in
    go 0

  (* An array of the least power-of-two length >= [n] that no one else
     holds. *)
  let take n =
    let free = Domain.DLS.get free and c = log2 n in
    match free.(c) with
    | a :: rest ->
      free.(c) <- rest;
      a
    | [] -> Array.make (1 lsl c) E.fill

  (* Hand back an array from [take]; the caller must not use it again.
     An empty array comes from no [take] and is not kept. *)
  let give a =
    let free = Domain.DLS.get free and c = log2 (Array.length a) in
    if Array.length a > 0 && List.compare_length_with free.(c) keep < 0 then begin
      Array.fill a 0 (Array.length a) E.fill;
      free.(c) <- a :: free.(c)
    end
end

module Ints = Make (struct
  type t = int

  let fill = -1
end)

module Rows = Make (struct
  type t = Relalg.Tuple.t

  let fill = [||]
end)

(* Store [t] after the first [n] rows of [buf], an array from [Rows]
   or empty, moving the rows to one twice as long when [buf] is full;
   the array that holds them now. *)
let push buf n t =
  let buf =
    if n < Array.length buf then buf
    else begin
      let bigger = Rows.take (2 * max 8 n) in
      Array.blit buf 0 bigger 0 n;
      Rows.give buf;
      bigger
    end
  in
  buf.(n) <- t;
  buf

(* Pull rows from [next] until it reports the end, into a buffer from
   [Rows]: the buffer and the number of rows in it. The caller gives
   the buffer back. *)
let drain next =
  let buf = ref (Rows.take 16) and n = ref 0 in
  let rec go () =
    match next () with
    | None -> ()
    | Some t ->
      buf := push !buf !n t;
      incr n;
      go ()
  in
  go ();
  (!buf, !n)
