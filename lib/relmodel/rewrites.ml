open Relalg

let assoc_split preds ~p1 ~p2 ~cols_b ~cols_c =
  Pred.split preds (Pred.concat cols_b cols_c) (Pred.conjuncts p1) (Pred.conjuncts p2)

let push_split p ~left ~right =
  let on_left, rest = List.partition (Pred.refers_only_to left) (Pred.conjuncts p) in
  let on_right, to_join = List.partition (Pred.refers_only_to right) rest in
  (on_left, on_right, to_join)
