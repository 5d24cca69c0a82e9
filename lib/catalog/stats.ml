type column_stats = {
  n_distinct : float;
  null_count : float;
  min_value : Relalg.Value.t option;
  max_value : Relalg.Value.t option;
  histogram : histogram option;
}

and histogram = {
  lo : float;
  hi : float;
  buckets : float array;
}

type t = {
  row_count : float;
  columns : (string * column_stats) list;
}

let bucket_count = 16

module Value = Relalg.Value

module Value_set = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let[@inline] number : Value.t -> float = function
  | Int k -> float_of_int k
  | Float f -> f
  | Null | Bool _ | Str _ -> Float.nan

(* Column [i] in one pass over the rows, then a bucket pass when the
   column is numeric. [distinct] is a scratch set shared by the columns
   of one table. The results equal those of sorting the non-null values
   with [Value.compare] (stable): the minimum is the first of the least
   values in input order, the maximum the last of the greatest. The
   histogram bounds fold [Float.min]/[Float.max] in input order, so
   they are the same bits too. *)
let column_stats distinct tuples i =
  Value_set.clear distinct;
  let n = Array.length tuples in
  let nulls = ref 0 in
  (* [Null] stands for "no value yet": nulls never reach the min/max. *)
  let min_value = ref Value.Null in
  let max_value = ref Value.Null in
  let numeric = ref true in
  let lo = ref 0. in
  let hi = ref 0. in
  for r = 0 to n - 1 do
    match tuples.(r).(i) with
    | Value.Null -> incr nulls
    | v ->
      let first = Value.is_null !min_value in
      Value_set.replace distinct v ();
      if first || Value.compare v !min_value < 0 then min_value := v;
      if first || Value.compare v !max_value >= 0 then max_value := v;
      (match v with
       | Value.Int _ | Value.Float _ ->
         let x = number v in
         if first then begin
           lo := x;
           hi := x
         end
         else begin
           lo := Float.min !lo x;
           hi := Float.max !hi x
         end
       | Value.(Null | Bool _ | Str _) -> numeric := false)
  done;
  (* A NaN or an infinity leaves bounds that cover nothing: such a
     column gets no histogram. *)
  let histogram =
    if (not !numeric) || (not (Float.is_finite !lo && Float.is_finite !hi)) || !hi <= !lo
    then None
    else begin
      let lo = !lo and hi = !hi in
      let buckets = Array.make bucket_count 0. in
      let width = (hi -. lo) /. Float.of_int bucket_count in
      for r = 0 to n - 1 do
        match tuples.(r).(i) with
        | Value.Null -> ()
        | v ->
          let b = int_of_float ((number v -. lo) /. width) in
          let b = if b >= bucket_count then bucket_count - 1 else b in
          buckets.(b) <- buckets.(b) +. 1.
      done;
      Some { lo; hi; buckets }
    end
  in
  let bound v = if Value.is_null v then None else Some v in
  {
    n_distinct = Float.of_int (Value_set.length distinct);
    null_count = Float.of_int !nulls;
    min_value = bound !min_value;
    max_value = bound !max_value;
    histogram;
  }

let of_tuples schema tuples =
  let distinct = Value_set.create (Array.length tuples) in
  let columns =
    List.init (Array.length schema) (fun i ->
        (schema.(i).Relalg.Schema.name, column_stats distinct tuples i))
  in
  { row_count = Float.of_int (Array.length tuples); columns }

let column t name = List.assoc_opt name t.columns

let histogram_fraction h ~lo ~hi =
  let total = Array.fold_left ( +. ) 0. h.buckets in
  if total <= 0. then 0.
  else begin
    let width = (h.hi -. h.lo) /. Float.of_int (Array.length h.buckets) in
    let lo_bound = Option.value lo ~default:h.lo in
    let hi_bound = Option.value hi ~default:h.hi in
    let covered = ref 0. in
    Array.iteri
      (fun i count ->
        let b_lo = h.lo +. (Float.of_int i *. width) in
        let b_hi = b_lo +. width in
        (* Fraction of this bucket overlapping [lo_bound, hi_bound],
           assuming uniformity within the bucket. *)
        let overlap = Float.max 0. (Float.min b_hi hi_bound -. Float.max b_lo lo_bound) in
        if width > 0. then covered := !covered +. (count *. (overlap /. width)))
      h.buckets;
    Float.min 1. (!covered /. total)
  end

let pp ppf t =
  Format.fprintf ppf "rows=%.0f" t.row_count;
  List.iter
    (fun (name, c) ->
      Format.fprintf ppf "@\n  %s: distinct=%.0f nulls=%.0f" name c.n_distinct c.null_count)
    t.columns
