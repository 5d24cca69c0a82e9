open Relalg

let assoc_split ~p1 ~p2 ~schema_b ~schema_c =
  let sbc = Schema.concat schema_b schema_c in
  let all = Expr.conjuncts p1 @ Expr.conjuncts p2 in
  let bottom, top = List.partition (Expr.refers_only_to sbc) all in
  (Expr.conjoin top, Expr.conjoin bottom)
