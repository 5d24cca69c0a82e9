(** Compilation of physical plans into Volcano iterators, with page I/O
    accounting that mirrors the cost model's assumptions (paged scans,
    sorts that spill past the workspace, hash joins without partition
    files). *)

open Relalg

type context = {
  catalog : Catalog.t;
  page_bytes : int;
  memory_pages : int;
  io : Io_stats.t;
}

let context ?(page_bytes = 4096) ?(memory_pages = 1024) catalog =
  { catalog; page_bytes; memory_pages; io = Io_stats.create () }

let pages_of ctx schema n_tuples =
  max 1 ((n_tuples * Schema.row_width schema + ctx.page_bytes - 1) / ctx.page_bytes)

let aggregate_schema = Catalog.Plan_schema.aggregate_schema

let schema_of ctx (p : Physical.plan) : Schema.t = Catalog.plan_schema ctx.catalog p

(* ---------------------------------------------------------------------- *)
(* Keys                                                                    *)
(* ---------------------------------------------------------------------- *)

(* Compare [a]'s values at [aidx] with [b]'s at [bidx], from key [k]
   on; [Value.equal] is this comparison reading 0. This and the other
   per-row and per-probe key loops are top-level functions with no free
   variables, so a call allocates nothing: a local [let rec] over the
   rows would build a closure on every call. *)
let rec compare_keys aidx (a : Tuple.t) bidx (b : Tuple.t) k =
  if k >= Array.length aidx then 0
  else begin
    let c = Value.compare a.(aidx.(k)) b.(bidx.(k)) in
    if c <> 0 then c else compare_keys aidx a bidx b (k + 1)
  end

(* ---------------------------------------------------------------------- *)
(* Hash index                                                              *)
(* ---------------------------------------------------------------------- *)

(* The one hash index behind every hash operator. Rows sit in [rows];
   [head] maps a bucket to its newest row position and [next] chains a
   position to the previous one in its bucket (-1 ends a chain), so a
   chain runs newest first. A key is the values at [cols], hashed with
   [Value.hash] and compared with [Value.equal]: [Int 1] and [Float 1.]
   are one key, and so are two NULLs (operators that must not match
   NULL keys leave such rows out). All four arrays come from
   [Array_pool] and share one power-of-two length; [release] gives them
   back. *)
module Index = struct
  type t = {
    cols : int array;
    mutable rows : Tuple.t array;
    mutable size : int;  (** rows at positions [0 .. size - 1] *)
    mutable head : int array;
    mutable next : int array;
    mutable hashes : int array;  (** each position's key hash *)
  }

  let create cols = { cols; rows = [||]; size = 0; head = [||]; next = [||]; hashes = [||] }

  let length t = t.size

  let row t p = t.rows.(p)

  let hash cols (r : Tuple.t) =
    let h = ref 0 in
    for k = 0 to Array.length cols - 1 do
      h := (!h * 31) + Value.hash r.(cols.(k))
    done;
    !h land max_int

  let rec null_from cols (r : Tuple.t) k =
    k < Array.length cols && (Value.is_null r.(cols.(k)) || null_from cols r (k + 1))

  let has_null cols r = null_from cols r 0

  let release t =
    if Array.length t.rows > 0 then begin
      Array_pool.Rows.give t.rows;
      Array_pool.Ints.give t.head;
      Array_pool.Ints.give t.next;
      Array_pool.Ints.give t.hashes
    end;
    t.rows <- [||];
    t.size <- 0;
    t.head <- [||];
    t.next <- [||];
    t.hashes <- [||]

  (* Empty chains over [rows], whose length is a power of two. *)
  let alloc t rows =
    let cap = Array.length rows in
    t.rows <- rows;
    t.head <- Array_pool.Ints.take cap;
    t.next <- Array_pool.Ints.take cap;
    t.hashes <- Array_pool.Ints.take cap

  let link t p h =
    let b = h land (Array.length t.head - 1) in
    t.hashes.(p) <- h;
    t.next.(p) <- t.head.(b);
    t.head.(b) <- p

  (* Index every row of [input], linking those [keep] accepts; the
     index is sized once. *)
  let build ?(keep = fun _ -> true) t (input : Cursor.t) =
    release t;
    let rows, n = Cursor.drain input in
    alloc t rows;
    t.size <- n;
    for p = 0 to n - 1 do
      let r = rows.(p) in
      if keep r then link t p (hash t.cols r)
    done

  (* Double an incrementally filled index, relinking oldest first so
     every chain stays newest first. *)
  let grow t =
    let old = { t with size = t.size } in
    let rows = Array_pool.Rows.take (2 * max 8 t.size) in
    Array.blit old.rows 0 rows 0 t.size;
    alloc t rows;
    for p = 0 to t.size - 1 do
      link t p old.hashes.(p)
    done;
    release old

  (* Append a row whose key hashes to [h]. *)
  let add t r h =
    if t.size >= Array.length t.rows then grow t;
    let p = t.size in
    t.rows.(p) <- r;
    t.size <- p + 1;
    link t p h

  let matches t p key_cols probe = compare_keys t.cols t.rows.(p) key_cols probe 0 = 0

  let rec scan t h key_cols probe p =
    if p < 0 || (t.hashes.(p) = h && matches t p key_cols probe) then p
    else scan t h key_cols probe t.next.(p)

  (* The newest position whose key equals [probe]'s values at
     [key_cols] ([h] is their hash), or -1. *)
  let find t h key_cols probe =
    if t.size = 0 then -1
    else scan t h key_cols probe t.head.(h land (Array.length t.head - 1))

  (* The next older match after position [p], or -1. *)
  let find_next t h key_cols probe p = scan t h key_cols probe t.next.(p)

  (* Add [r] unless an equal key is indexed; whether it was added. *)
  let add_new t r =
    let h = hash t.cols r in
    find t h t.cols r < 0
    && begin
      add t r h;
      true
    end
end

(* The values of [t] at positions [idx], as a new tuple. *)
let pick idx (t : Tuple.t) : Tuple.t =
  let n = Array.length idx in
  if n = 0 then [||]
  else begin
    let out = Array.make n t.(idx.(0)) in
    for k = 1 to n - 1 do
      out.(k) <- t.(idx.(k))
    done;
    out
  end

let key_positions schema cols = Array.of_list (List.map (Schema.index_of schema) cols)

let all_columns (schema : Schema.t) = Array.init (Array.length schema) Fun.id

(* Rows held by an operator: the first [size] rows of [rows], an array
   from [Array_pool.Rows] or empty. *)
type buffer = {
  mutable rows : Tuple.t array;
  mutable size : int;
}

let buffer () = { rows = [||]; size = 0 }

(* Hold the rows [(rows, size)], as [Cursor.drain] returns them. *)
let hold b (rows, size) =
  b.rows <- rows;
  b.size <- size

(* Give the held array back to the pool and hold nothing. *)
let release b =
  Array_pool.Rows.give b.rows;
  b.rows <- [||];
  b.size <- 0

(* A cursor over the rows [fill ()] returns, in a buffer from
   [Array_pool.Rows], each time the cursor opens. The buffer goes back
   to the pool on close or re-open. *)
let array_cursor schema fill : Cursor.t =
  let held = buffer () and pos = ref 0 in
  {
    Cursor.schema;
    open_ =
      (fun () ->
        release held;
        hold held (fill ());
        pos := 0);
    next =
      (fun () ->
        if !pos >= held.size then None
        else begin
          let t = held.rows.(!pos) in
          incr pos;
          Some t
        end);
    close = (fun () -> release held);
  }

(* ---------------------------------------------------------------------- *)
(* Sorting                                                                 *)
(* ---------------------------------------------------------------------- *)

(* The executor's one sort: a stable top-down merge sort. Ranges of at
   most [insertion_max] rows are insertion-sorted, and two sorted halves
   already in order are not merged, so sorted input costs n - 1
   comparisons. The merge copies the left half out to a scratch array
   from [Array_pool] (a fresh one per sort would pile up in the major
   heap; see [Array_pool]). *)

let insertion_max = 12

let insertion_sort cmp (a : Tuple.t array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Merge the sorted runs [a.(lo .. mid - 1)] and [a.(mid .. hi - 1)],
   taking the left row on a tie. Once the left run is used up, the rest
   of the right run is already in place. *)
let merge cmp (a : Tuple.t array) tmp lo mid hi =
  let n = mid - lo in
  Array.blit a lo tmp 0 n;
  let i = ref 0 and j = ref mid and k = ref lo in
  while !i < n && !j < hi do
    let l = tmp.(!i) and r = a.(!j) in
    if cmp l r <= 0 then begin
      a.(!k) <- l;
      incr i
    end
    else begin
      a.(!k) <- r;
      incr j
    end;
    incr k
  done;
  Array.blit tmp !i a !k (n - !i)

let rec merge_sort cmp a tmp lo hi =
  if hi - lo <= insertion_max then insertion_sort cmp a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    merge_sort cmp a tmp lo mid;
    merge_sort cmp a tmp mid hi;
    if cmp a.(mid - 1) a.(mid) > 0 then merge cmp a tmp lo mid hi
  end

(* Sort [a.(0 .. n - 1)] by [cmp], stably. *)
let sort_rows cmp (a : Tuple.t array) n =
  if n <= insertion_max then insertion_sort cmp a 0 n
  else begin
    let tmp = Array_pool.Rows.take (n / 2) in
    merge_sort cmp a tmp 0 n;
    Array_pool.Rows.give tmp
  end

(* ---------------------------------------------------------------------- *)
(* Aggregate evaluation                                                    *)
(* ---------------------------------------------------------------------- *)

(* One aggregate's state within a group. Each function keeps only what
   it reads: COUNT a count (of rows, or of non-NULL values), SUM, MIN
   and MAX [acc], AVG both. *)
type agg_state = {
  mutable count : int;
  mutable acc : Value.t;  (** [Null] until a non-NULL value arrives *)
}

let agg_state () = { count = 0; acc = Value.Null }

(* Compile one aggregate's per-row update, resolving its column once. *)
let agg_step schema (a : Logical.agg) : agg_state -> Tuple.t -> unit =
  match a.column with
  | None -> fun st _ -> st.count <- st.count + 1
  | Some col ->
    let i = Schema.index_of schema col in
    let sum st v = st.acc <- (if Value.is_null st.acc then v else Value.add st.acc v) in
    let keep_if better st v =
      if Value.is_null st.acc || better (Value.compare v st.acc) then st.acc <- v
    in
    let fold : agg_state -> Value.t -> unit =
      match a.func with
      | Logical.Count -> fun st _ -> st.count <- st.count + 1
      | Logical.Sum -> sum
      | Logical.Avg ->
        fun st v ->
          st.count <- st.count + 1;
          sum st v
      | Logical.Min -> keep_if (fun c -> c < 0)
      | Logical.Max -> keep_if (fun c -> c > 0)
    in
    fun st t ->
      let v = t.(i) in
      if not (Value.is_null v) then fold st v

let agg_finalize (a : Logical.agg) st : Value.t =
  match a.func, a.column with
  | Logical.Count, _ -> Value.Int st.count
  | (Logical.Sum | Logical.Min | Logical.Max | Logical.Avg), None -> Value.Null
  | (Logical.Sum | Logical.Min | Logical.Max), Some _ -> st.acc
  | Logical.Avg, Some _ ->
    if st.count = 0 then Value.Null
    else begin
      match Value.to_float st.acc with
      | Some s -> Value.Float (s /. float_of_int st.count)
      | None -> Value.Null
    end

(* An aggregate operator's compiled pieces: key positions, per-row
   updates, and the output row of a group. *)
let compile_aggs in_schema keys aggs =
  let kidx = key_positions in_schema keys in
  let steps = Array.of_list (List.map (agg_step in_schema) aggs) in
  let aggs = Array.of_list aggs in
  let fresh () = Array.map (fun _ -> agg_state ()) aggs in
  let update states t =
    for a = 0 to Array.length steps - 1 do
      steps.(a) states.(a) t
    done
  in
  let finalize (first : Tuple.t) states =
    let nk = Array.length kidx in
    Array.init (nk + Array.length aggs) (fun j ->
        if j < nk then first.(kidx.(j)) else agg_finalize aggs.(j - nk) states.(j - nk))
  in
  (kidx, fresh, update, finalize)

(* ---------------------------------------------------------------------- *)
(* Operators                                                               *)
(* ---------------------------------------------------------------------- *)

let table_scan ctx name : Cursor.t =
  let table = Catalog.find ctx.catalog name in
  let inner = Cursor.of_array table.schema table.tuples in
  {
    inner with
    Cursor.open_ =
      (fun () ->
        Io_stats.read ctx.io (pages_of ctx table.schema (Array.length table.tuples));
        inner.Cursor.open_ ());
  }

(* A clustered-index range scan, simulated over the in-memory heap:
   deliver the qualifying rows in key order, reading only the pages the
   qualifying fraction occupies (plus one for the index descent). *)
let index_scan ctx name cols pred : Cursor.t =
  let table = Catalog.find ctx.catalog name in
  let keep = Expr.test table.schema pred in
  let cmp = Sort_order.compare_tuples table.schema (Sort_order.asc cols) in
  array_cursor table.schema (fun () ->
      let rows, n =
        Cursor.drain (Cursor.filter_stream keep (Cursor.of_array table.schema table.tuples))
      in
      sort_rows cmp rows n;
      Io_stats.read ctx.io (1 + pages_of ctx table.schema n);
      (rows, n))

(* Materialize an input into a buffer from [Array_pool.Rows], counting
   spill I/O when it exceeds the sort workspace (single-level merge:
   write runs, read them back); the buffer and its row count. *)
let materialize_for_sort ctx (input : Cursor.t) =
  let rows, n = Cursor.drain input in
  let pages = pages_of ctx input.Cursor.schema n in
  if pages > ctx.memory_pages then begin
    Io_stats.write ctx.io pages;
    Io_stats.read ctx.io pages
  end;
  (rows, n)

(* Keep the first of every run of equal tuples among the first [n] of a
   sorted array, in place; the number kept. *)
let dedup_sorted (tuples : Tuple.t array) n =
  let kept = ref (min 1 n) in
  for i = 1 to n - 1 do
    if not (Tuple.equal tuples.(!kept - 1) tuples.(i)) then begin
      tuples.(!kept) <- tuples.(i);
      incr kept
    end
  done;
  !kept

let sort_op ctx order ~dedup (input : Cursor.t) : Cursor.t =
  let schema = input.Cursor.schema in
  let cmp = Sort_order.compare_tuples schema order in
  array_cursor schema (fun () ->
      let rows, n = materialize_for_sort ctx input in
      sort_rows cmp rows n;
      (rows, if dedup then dedup_sorted rows n else n))

let hash_dedup_op (input : Cursor.t) : Cursor.t =
  let seen = Index.create (all_columns input.Cursor.schema) in
  let rec next () =
    match input.Cursor.next () with
    | None -> None
    | Some t as r -> if Index.add_new seen t then r else next ()
  in
  {
    Cursor.schema = input.Cursor.schema;
    open_ =
      (fun () ->
        Index.release seen;
        input.Cursor.open_ ());
    next;
    close =
      (fun () ->
        Index.release seen;
        input.Cursor.close ());
  }

(* The first position from [p] on whose row of [inner] passes [keep]
   with the outer row [l], or [inner.size]. *)
let rec scan_inner keep l inner p =
  if p >= inner.size || keep l inner.rows.(p) then p else scan_inner keep l inner (p + 1)

(* The inner input is drained into a pooled buffer on open; only the
   pairs that pass the predicate are concatenated. *)
let nested_loop_join pred (left : Cursor.t) (right : Cursor.t) : Cursor.t =
  let schema = Schema.concat left.Cursor.schema right.Cursor.schema in
  let keep = Expr.test_pair ~left:left.Cursor.schema ~right:right.Cursor.schema pred in
  let inner = buffer () in
  let outer_cur = ref None in
  let inner_pos = ref 0 in
  let rec next () =
    match !outer_cur with
    | None -> begin
      match left.Cursor.next () with
      | None -> None
      | Some _ as o ->
        outer_cur := o;
        inner_pos := 0;
        next ()
    end
    | Some l ->
      let p = scan_inner keep l inner !inner_pos in
      if p >= inner.size then begin
        outer_cur := None;
        next ()
      end
      else begin
        inner_pos := p + 1;
        Some (Tuple.concat l inner.rows.(p))
      end
  in
  {
    Cursor.schema;
    open_ =
      (fun () ->
        release inner;
        hold inner (Cursor.drain right);
        outer_cur := None;
        inner_pos := 0;
        left.Cursor.open_ ());
    next;
    close =
      (fun () ->
        release inner;
        left.Cursor.close ());
  }

(* Hybrid hash join without partition files: build on the right input,
   probe with the left. A probe row's matches come newest first, as
   chains run. Keys containing NULL never match. *)
let hash_join keys pred (left : Cursor.t) (right : Cursor.t) : Cursor.t =
  let schema = Schema.concat left.Cursor.schema right.Cursor.schema in
  let keep = Expr.test_pair ~left:left.Cursor.schema ~right:right.Cursor.schema pred in
  let lidx = key_positions left.Cursor.schema (List.map fst keys) in
  let ridx = key_positions right.Cursor.schema (List.map snd keys) in
  let table = Index.create ridx in
  let probe = ref [||] and probe_hash = ref 0 and pos = ref (-1) in
  let rec next () =
    if !pos >= 0 then begin
      let r = Index.row table !pos in
      pos := Index.find_next table !probe_hash lidx !probe !pos;
      if keep !probe r then Some (Tuple.concat !probe r) else next ()
    end
    else begin
      match left.Cursor.next () with
      | None -> None
      | Some l ->
        if not (Index.has_null lidx l) then begin
          probe := l;
          probe_hash := Index.hash lidx l;
          pos := Index.find table !probe_hash lidx l
        end;
        next ()
    end
  in
  {
    Cursor.schema;
    open_ =
      (fun () ->
        Index.build table ~keep:(fun r -> not (Index.has_null ridx r)) right;
        probe := [||];
        pos := -1;
        left.Cursor.open_ ());
    next;
    close =
      (fun () ->
        Index.release table;
        probe := [||];
        left.Cursor.close ());
  }

(* Refill [g], one side's current group of equal-key rows in a merge
   join, with the consecutive rows from [!cur] on whose key at
   [idx] equals [first]'s, pulling them from [input]; leaves [cur] at
   the first row that differs. *)
let rec collect_group g (input : Cursor.t) cur idx first =
  match !cur with
  | Some t when compare_keys idx t idx first 0 = 0 ->
    g.rows <- Array_pool.push g.rows g.size t;
    g.size <- g.size + 1;
    cur := input.Cursor.next ();
    collect_group g input cur idx first
  | Some _ | None -> ()

(* Streaming merge join over inputs sorted on the equi-key columns:
   buffers one group of equal keys per side, emits their cross product
   (filtered by the residual predicate), then advances both sides. Rows
   whose key contains NULL are skipped: they never match. *)
let merge_join keys pred (left : Cursor.t) (right : Cursor.t) : Cursor.t =
  let schema = Schema.concat left.Cursor.schema right.Cursor.schema in
  let keep = Expr.test_pair ~left:left.Cursor.schema ~right:right.Cursor.schema pred in
  let lidx = key_positions left.Cursor.schema (List.map fst keys) in
  let ridx = key_positions right.Cursor.schema (List.map snd keys) in
  let lcur = ref None and rcur = ref None in
  let advance_l () = lcur := left.Cursor.next () in
  let advance_r () = rcur := right.Cursor.next () in
  (* The current cross product: left group, right group, and the next
     pair to emit. *)
  let lgroup = buffer () and rgroup = buffer () in
  let li = ref 0 and ri = ref 0 in
  let start_group g cur input idx first =
    g.size <- 0;
    collect_group g input cur idx first
  in
  let rec next () =
    if !li < lgroup.size then begin
      let l = lgroup.rows.(!li) and r = rgroup.rows.(!ri) in
      incr ri;
      if !ri >= rgroup.size then begin
        ri := 0;
        incr li
      end;
      if keep l r then Some (Tuple.concat l r) else next ()
    end
    else begin
      match !lcur, !rcur with
      | None, _ | _, None -> None
      | Some l, _ when Index.has_null lidx l ->
        advance_l ();
        next ()
      | _, Some r when Index.has_null ridx r ->
        advance_r ();
        next ()
      | Some l, Some r ->
        let c = compare_keys lidx l ridx r 0 in
        if c < 0 then begin
          advance_l ();
          next ()
        end
        else if c > 0 then begin
          advance_r ();
          next ()
        end
        else begin
          start_group lgroup lcur left lidx l;
          start_group rgroup rcur right ridx r;
          li := 0;
          ri := 0;
          next ()
        end
    end
  in
  {
    Cursor.schema;
    open_ =
      (fun () ->
        left.Cursor.open_ ();
        right.Cursor.open_ ();
        advance_l ();
        advance_r ();
        release lgroup;
        release rgroup);
    next;
    close =
      (fun () ->
        release lgroup;
        release rgroup;
        left.Cursor.close ();
        right.Cursor.close ());
  }

(* Set operations. Hash-based variants treat inputs as bags and emit
   sets; merge-based variants rely on both inputs arriving sorted in the
   same positional order and duplicate-free, as their implementation
   rules require. Both compare rows with [Value.equal], and a NULL
   equals a NULL. *)

let hash_union (left : Cursor.t) (right : Cursor.t) : Cursor.t =
  let seen = Index.create (all_columns left.Cursor.schema) in
  let side = ref `Left in
  let rec next () =
    let candidate =
      match !side with
      | `Left -> begin
        match left.Cursor.next () with
        | Some _ as r -> r
        | None ->
          side := `Right;
          right.Cursor.next ()
      end
      | `Right -> right.Cursor.next ()
    in
    match candidate with
    | None -> None
    | Some t -> if Index.add_new seen t then candidate else next ()
  in
  {
    Cursor.schema = left.Cursor.schema;
    open_ =
      (fun () ->
        Index.release seen;
        side := `Left;
        left.Cursor.open_ ();
        right.Cursor.open_ ());
    next;
    close =
      (fun () ->
        Index.release seen;
        left.Cursor.close ();
        right.Cursor.close ());
  }

let hash_semi ~anti (left : Cursor.t) (right : Cursor.t) : Cursor.t =
  (* Intersection (anti=false) or difference (anti=true) with set
     output. *)
  let cols = all_columns left.Cursor.schema in
  let members = Index.create cols and emitted = Index.create cols in
  let rec next () =
    match left.Cursor.next () with
    | None -> None
    | Some t as r ->
      let h = Index.hash cols t in
      let in_right = Index.find members h cols t >= 0 in
      if in_right <> anti && Index.find emitted h cols t < 0 then begin
        Index.add emitted t h;
        r
      end
      else next ()
  in
  {
    Cursor.schema = left.Cursor.schema;
    open_ =
      (fun () ->
        Index.release emitted;
        Index.build members right;
        left.Cursor.open_ ());
    next;
    close =
      (fun () ->
        Index.release members;
        Index.release emitted;
        left.Cursor.close ());
  }

(* Advance [cur] over [input] past every row equal to [t] at [cols],
   the one just consumed: a merge set operation's inputs only need to be
   sorted, not duplicate-free, and its output is a set. *)
let rec skip_equal (input : Cursor.t) cur cols t =
  cur := input.Cursor.next ();
  match !cur with
  | Some u when compare_keys cols u cols t 0 = 0 -> skip_equal input cur cols t
  | Some _ | None -> ()

let merge_setop kind (left : Cursor.t) (right : Cursor.t) : Cursor.t =
  let cols = all_columns left.Cursor.schema in
  let lcur = ref None and rcur = ref None in
  let skip_l l = skip_equal left lcur cols l and skip_r r = skip_equal right rcur cols r in
  let rec next () =
    match !lcur, !rcur with
    | None, None -> None
    | Some l, None -> begin
      match kind with
      | `Union | `Difference ->
        skip_l l;
        Some l
      | `Intersect -> None
    end
    | None, Some r -> begin
      match kind with
      | `Union ->
        skip_r r;
        Some r
      | `Intersect | `Difference -> None
    end
    | Some l, Some r ->
      let c = compare_keys cols l cols r 0 in
      if c < 0 then begin
        skip_l l;
        match kind with `Union | `Difference -> Some l | `Intersect -> next ()
      end
      else if c > 0 then begin
        skip_r r;
        match kind with `Union -> Some r | `Intersect | `Difference -> next ()
      end
      else begin
        skip_l l;
        skip_r r;
        match kind with `Union | `Intersect -> Some l | `Difference -> next ()
      end
  in
  {
    Cursor.schema = left.Cursor.schema;
    open_ =
      (fun () ->
        left.Cursor.open_ ();
        right.Cursor.open_ ();
        lcur := left.Cursor.next ();
        rcur := right.Cursor.next ());
    next;
    close =
      (fun () ->
        left.Cursor.close ();
        right.Cursor.close ());
  }

(* Groups come out in first-seen order, each keyed by its first row's
   values. *)
let hash_aggregate keys aggs (input : Cursor.t) : Cursor.t =
  let in_schema = input.Cursor.schema in
  let kidx, fresh, update, finalize = compile_aggs in_schema keys aggs in
  let groups = Index.create kidx in
  array_cursor (aggregate_schema in_schema keys aggs) (fun () ->
      Index.release groups;
      let states = ref [||] in
      Cursor.iter
        (fun t ->
          let h = Index.hash kidx t in
          let g = Index.find groups h kidx t in
          let g =
            if g >= 0 then g
            else begin
              let g = Index.length groups in
              Index.add groups t h;
              if g >= Array.length !states then begin
                let bigger = Array.make (max 16 (2 * g)) [||] in
                Array.blit !states 0 bigger 0 g;
                states := bigger
              end;
              !states.(g) <- fresh ();
              g
            end
          in
          update !states.(g) t)
        input;
      let n = Index.length groups in
      let out = Array_pool.Rows.take n in
      for g = 0 to n - 1 do
        out.(g) <- finalize (Index.row groups g) !states.(g)
      done;
      Index.release groups;
      (out, n))

let stream_aggregate keys aggs (input : Cursor.t) : Cursor.t =
  let in_schema = input.Cursor.schema in
  let kidx, fresh, update, finalize = compile_aggs in_schema keys aggs in
  (* The current group: its first row and its states. *)
  let first = ref [||] and states = ref [||] and in_group = ref false in
  let start t =
    first := t;
    states := fresh ();
    in_group := true;
    update !states t
  in
  let same_group t = compare_keys kidx !first kidx t 0 = 0 in
  let rec next () =
    match input.Cursor.next () with
    | None ->
      if !in_group then begin
        in_group := false;
        Some (finalize !first !states)
      end
      else None
    | Some t ->
      if not !in_group then begin
        start t;
        next ()
      end
      else if same_group t then begin
        update !states t;
        next ()
      end
      else begin
        (* Group boundary: emit the finished group, start the next. *)
        let out = finalize !first !states in
        start t;
        Some out
      end
  in
  {
    Cursor.schema = aggregate_schema in_schema keys aggs;
    open_ =
      (fun () ->
        in_group := false;
        input.Cursor.open_ ());
    next;
    close = input.Cursor.close;
  }

(* ---------------------------------------------------------------------- *)
(* Plan compilation                                                        *)
(* ---------------------------------------------------------------------- *)

(* One node's operator over already-compiled inputs ([child i] compiles
   the i-th input). Shared by the plain and the instrumented compiler,
   so the two paths cannot diverge. *)
let compile_node ctx ~child (p : Physical.plan) : Cursor.t =
  match p.alg with
  | Physical.Table_scan name -> table_scan ctx name
  | Physical.Index_scan (name, cols, pred) -> index_scan ctx name cols pred
  | Physical.Filter pred ->
    let input = child 0 in
    Cursor.filter_stream (Expr.test input.Cursor.schema pred) input
  | Physical.Project_cols cols ->
    let input = child 0 in
    Cursor.map_stream
      (Schema.project input.Cursor.schema cols)
      (pick (key_positions input.Cursor.schema cols))
      input
  | Physical.Nested_loop_join pred -> nested_loop_join pred (child 0) (child 1)
  | Physical.Merge_join (keys, pred) -> merge_join keys pred (child 0) (child 1)
  | Physical.Hash_join (keys, pred) -> hash_join keys pred (child 0) (child 1)
  | Physical.Hash_join_project (keys, pred, cols) ->
    let joined = hash_join keys pred (child 0) (child 1) in
    Cursor.map_stream
      (Schema.project joined.Cursor.schema cols)
      (pick (key_positions joined.Cursor.schema cols))
      joined
  | Physical.Sort order -> sort_op ctx order ~dedup:false (child 0)
  | Physical.Repartition _ | Physical.Gather | Physical.Merge_gather _ ->
    (* Exchanges are physical-distribution operators; the single-node
       simulation executes them as identity (see DESIGN.md
       substitutions — their cost, not their data flow, is modeled). *)
    child 0
  | Physical.Sort_dedup order -> sort_op ctx order ~dedup:true (child 0)
  | Physical.Hash_dedup -> hash_dedup_op (child 0)
  | Physical.Merge_union -> merge_setop `Union (child 0) (child 1)
  | Physical.Hash_union -> hash_union (child 0) (child 1)
  | Physical.Merge_intersect -> merge_setop `Intersect (child 0) (child 1)
  | Physical.Hash_intersect -> hash_semi ~anti:false (child 0) (child 1)
  | Physical.Merge_difference -> merge_setop `Difference (child 0) (child 1)
  | Physical.Hash_difference -> hash_semi ~anti:true (child 0) (child 1)
  | Physical.Stream_aggregate (keys, aggs) -> stream_aggregate keys aggs (child 0)
  | Physical.Hash_aggregate (keys, aggs) -> hash_aggregate keys aggs (child 0)
  | Physical.Materialize _ ->
    (* The single-node simulation keeps every intermediate in memory, so
       the materialize write is identity at execution time (its cost,
       not its data flow, is modeled — like the exchanges above). *)
    child 0
  | Physical.Scan_materialized name -> table_scan ctx name

let rec compile ctx (p : Physical.plan) : Cursor.t =
  compile_node ctx ~child:(fun i -> compile ctx (List.nth p.children i)) p

(* Feedback hook: like [compile], but [observe] wraps every node's
   cursor (typically with [Cursor.observed] counters). [path] is the
   node's position in the plan tree — [[]] at the root, [path @ [i]]
   for the i-th child — matching [Feedback]'s drift-report keys. *)
let compile_instrumented ctx
    ~(observe : path:int list -> Physical.plan -> Cursor.t -> Cursor.t)
    (p : Physical.plan) : Cursor.t =
  let rec go rev_path p =
    let raw =
      compile_node ctx
        ~child:(fun i -> go (i :: rev_path) (List.nth p.Physical.children i))
        p
    in
    observe ~path:(List.rev rev_path) p raw
  in
  go [] p

let run ?page_bytes ?memory_pages catalog plan =
  let ctx = context ?page_bytes ?memory_pages catalog in
  let cursor = compile ctx plan in
  let tuples = Cursor.to_array cursor in
  Io_stats.produced ctx.io (Array.length tuples);
  (tuples, cursor.Cursor.schema, ctx.io)
