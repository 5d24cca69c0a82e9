(* The search profiler's attribution on fixed queries: chain, star and
   clique joins of five relations (workload seed 1705), one sequential
   optimization each. One line per report entry, sorted by (kind,
   name): kind|name|tasks|mexprs|plans_won|pruned|wasted. Time is
   left out. Every count is a function of the search alone, so this
   listing changes only when the search or the attribution rules do.
   Captured from the engine that charged each task by building its
   (kind, name) string key. *)

let expected =
  {|== chain5 tasks=2006 entries=49
enforcer|exchange_gather|19|0|0|7|82
enforcer|exchange_merge_gather[rel0.jk2]|1|0|0|0|12
enforcer|exchange_merge_gather[rel1.jk1]|2|0|0|0|46
enforcer|exchange_merge_gather[rel1.jk2]|3|0|0|0|74
enforcer|exchange_merge_gather[rel2.jk1]|3|0|0|1|34
enforcer|exchange_merge_gather[rel3.jk1]|2|0|0|1|26
enforcer|exchange_merge_gather[rel4.jk1]|1|0|0|1|12
enforcer|sort[rel0.jk2]|2|0|1|0|6
enforcer|sort[rel1.jk1]|4|0|2|0|33
enforcer|sort[rel1.jk2]|6|0|2|0|83
enforcer|sort[rel2.jk1]|3|0|2|4|6
enforcer|sort[rel3.jk1]|4|0|1|1|31
enforcer|sort[rel4.jk1]|3|0|2|0|6
engine|explore_group|226|0|0|0|0
engine|optimize_group|319|0|0|0|0
operator|get(rel0)|1|0|0|0|0
operator|get(rel1)|1|0|0|0|0
operator|get(rel2)|3|0|0|0|0
operator|get(rel3)|1|0|0|0|0
operator|get(rel4)|3|0|0|0|0
operator|join[(((rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel2.jk1)) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[((rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel2.jk1)) AND (rel2.jk1 = rel3.jk1)]|4|0|0|0|0
operator|join[((rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel2.jk1)) AND (rel3.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[((rel0.jk2 = rel1.jk2) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[((rel1.jk1 = rel2.jk1) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[(rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel2.jk1)]|12|0|0|0|0
operator|join[(rel0.jk2 = rel1.jk2) AND (rel2.jk1 = rel3.jk1)]|4|0|0|0|0
operator|join[(rel0.jk2 = rel1.jk2) AND (rel3.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[(rel1.jk1 = rel2.jk1) AND (rel2.jk1 = rel3.jk1)]|4|0|0|0|0
operator|join[(rel1.jk1 = rel2.jk1) AND (rel3.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[(rel2.jk1 = rel3.jk1) AND (rel3.jk1 = rel4.jk1)]|6|0|0|0|0
operator|join[rel0.jk2 = rel1.jk2]|24|0|0|0|0
operator|join[rel1.jk1 = rel2.jk1]|32|0|0|0|0
operator|join[rel2.jk1 = rel3.jk1]|8|0|0|0|0
operator|join[rel3.jk1 = rel4.jk1]|18|0|0|0|0
operator|select[rel0.val > 685]|6|0|0|0|0
operator|select[rel1.val > 669]|10|0|0|0|0
operator|select[rel2.val <= 899]|6|0|0|0|0
operator|select[rel3.val > 572]|6|0|0|0|0
operator|select[rel4.val > 205]|6|0|0|0|0
rule|get->table_scan|7|0|7|0|0
rule|join->hybrid_hash|74|0|0|32|52
rule|join->merge|90|0|9|58|240
rule|join->nested_loop|0|0|0|92|0
rule|join-assoc|285|190|0|0|0
rule|join-commute|244|101|0|0|0
rule|select->filter|26|0|11|21|0
rule|select-merge|260|0|0|0|0
rule|select-push-join|255|0|0|0|0
== star5 tasks=2574 entries=49
enforcer|exchange_gather|30|0|0|9|162
enforcer|exchange_merge_gather[rel0.jk1]|11|0|0|2|183
enforcer|exchange_merge_gather[rel0.jk2]|6|0|0|1|100
enforcer|exchange_merge_gather[rel1.jk2]|3|0|0|0|36
enforcer|exchange_merge_gather[rel2.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk1]|1|0|0|1|12
enforcer|sort[rel0.jk1]|11|0|2|13|146
enforcer|sort[rel0.jk2]|8|0|2|5|61
enforcer|sort[rel1.jk2]|6|0|1|0|34
enforcer|sort[rel2.jk1]|3|0|2|0|6
enforcer|sort[rel3.jk1]|3|0|2|0|6
enforcer|sort[rel4.jk1]|3|0|2|0|6
engine|explore_group|275|0|0|0|0
engine|optimize_group|494|0|0|0|0
operator|get(rel0)|1|0|0|0|0
operator|get(rel1)|1|0|0|0|0
operator|get(rel2)|3|0|0|0|0
operator|get(rel3)|3|0|0|0|0
operator|get(rel4)|3|0|0|0|0
operator|join[(((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel0.jk1 = rel4.jk1)) AND (rel0.jk2 = rel1.jk2)]|2|0|0|0|0
operator|join[((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel0.jk1 = rel4.jk1)]|8|0|0|0|0
operator|join[((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel0.jk2 = rel1.jk2)]|10|0|0|0|0
operator|join[((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel0.jk2 = rel1.jk2)]|2|0|0|0|0
operator|join[((rel0.jk1 = rel3.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel0.jk2 = rel1.jk2)]|10|0|0|0|0
operator|join[(rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)]|24|0|0|0|0
operator|join[(rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel4.jk1)]|8|0|0|0|0
operator|join[(rel0.jk1 = rel2.jk1) AND (rel0.jk2 = rel1.jk2)]|16|0|0|0|0
operator|join[(rel0.jk1 = rel3.jk1) AND (rel0.jk1 = rel4.jk1)]|18|0|0|0|0
operator|join[(rel0.jk1 = rel3.jk1) AND (rel0.jk2 = rel1.jk2)]|26|0|0|0|0
operator|join[(rel0.jk1 = rel4.jk1) AND (rel0.jk2 = rel1.jk2)]|12|0|0|0|0
operator|join[rel0.jk1 = rel2.jk1]|48|0|0|0|0
operator|join[rel0.jk1 = rel3.jk1]|62|0|0|0|0
operator|join[rel0.jk1 = rel4.jk1]|20|0|0|0|0
operator|join[rel0.jk2 = rel1.jk2]|68|0|0|0|0
operator|select[rel0.val > 685]|18|0|0|0|0
operator|select[rel1.val > 669]|14|0|0|0|0
operator|select[rel2.val <= 899]|6|0|0|0|0
operator|select[rel3.val > 572]|6|0|0|0|0
operator|select[rel4.val > 205]|6|0|0|0|0
rule|get->table_scan|8|0|8|0|0
rule|join->hybrid_hash|108|0|0|74|345
rule|join->merge|135|0|10|139|518
rule|join->nested_loop|0|0|0|208|0
rule|join-assoc|285|190|0|0|0
rule|join-commute|244|101|0|0|0
rule|select->filter|28|0|11|36|0
rule|select-merge|260|0|0|0|0
rule|select-push-join|255|0|0|0|0
== clique5 tasks=33253 entries=586
enforcer|exchange_gather|297|0|0|46|910
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel0.jk1, rel0.jk2]|2|0|0|1|24
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk1, rel1.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel0.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel0.jk2, rel2.jk1, rel2.jk1, rel2.jk1]|2|0|0|0|39
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel0.jk2, rel3.jk1, rel3.jk1, rel3.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel0.jk2, rel4.jk2, rel4.jk1, rel4.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel0.jk2]|2|0|0|1|24
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk1, rel4.jk1, rel4.jk2]|1|0|0|0|92
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk1]|1|0|0|0|26
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk2, rel2.jk1, rel2.jk1]|1|0|0|0|112
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk2, rel3.jk1, rel3.jk2]|1|0|0|0|106
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel2.jk1, rel2.jk1]|1|0|0|0|32
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel3.jk1, rel3.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1, rel4.jk1, rel4.jk2]|1|0|0|0|14
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk2, rel2.jk1, rel2.jk1]|2|0|0|0|46
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk2, rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk2]|1|0|0|0|78
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk2, rel2.jk1, rel4.jk2, rel2.jk1, rel4.jk2]|1|0|0|0|100
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk2, rel3.jk1, rel3.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk2, rel3.jk1, rel3.jk2]|1|0|0|0|20
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk2, rel3.jk1, rel4.jk2, rel3.jk1, rel4.jk1]|1|0|0|0|98
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk2, rel4.jk2, rel4.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk2, rel4.jk2, rel4.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel0.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk1, rel2.jk1, rel4.jk2]|2|0|0|0|440
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk1, rel2.jk1]|2|0|0|0|188
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk1, rel3.jk1, rel4.jk1]|1|0|0|0|248
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk1, rel3.jk1]|1|0|0|0|106
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk1, rel4.jk1]|1|0|0|0|98
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk1, rel4.jk2]|2|0|0|0|176
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk2, rel2.jk1, rel3.jk2]|1|0|0|0|254
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk2, rel2.jk1]|1|0|0|0|112
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk2, rel3.jk2]|1|0|0|0|106
enforcer|exchange_merge_gather[rel0.jk1, rel1.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel2.jk1, rel3.jk2]|2|0|0|0|196
enforcer|exchange_merge_gather[rel0.jk1, rel2.jk1, rel4.jk2]|2|0|0|0|172
enforcer|exchange_merge_gather[rel0.jk1, rel2.jk1]|1|0|0|0|32
enforcer|exchange_merge_gather[rel0.jk1, rel3.jk1, rel4.jk1]|1|0|0|0|98
enforcer|exchange_merge_gather[rel0.jk1, rel3.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel3.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel4.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk1, rel4.jk2]|1|0|0|0|14
enforcer|exchange_merge_gather[rel0.jk1]|1|0|0|0|12
enforcer|exchange_merge_gather[rel0.jk2, rel0.jk1, rel0.jk1, rel0.jk1]|2|0|0|1|24
enforcer|exchange_merge_gather[rel0.jk2, rel0.jk1, rel0.jk1]|2|0|0|1|24
enforcer|exchange_merge_gather[rel0.jk2, rel0.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel0.jk2, rel2.jk1, rel3.jk1, rel4.jk2]|1|0|0|0|224
enforcer|exchange_merge_gather[rel0.jk2, rel2.jk1, rel3.jk1]|1|0|0|0|98
enforcer|exchange_merge_gather[rel0.jk2, rel2.jk1, rel4.jk2]|1|0|0|0|100
enforcer|exchange_merge_gather[rel0.jk2, rel2.jk1]|1|0|0|0|32
enforcer|exchange_merge_gather[rel0.jk2, rel3.jk1, rel4.jk2]|1|0|0|0|98
enforcer|exchange_merge_gather[rel0.jk2, rel3.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk2, rel4.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel0.jk2]|1|0|0|0|12
enforcer|exchange_merge_gather[rel1.jk1, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel1.jk1, rel1.jk1, rel0.jk1, rel0.jk1]|1|0|0|0|26
enforcer|exchange_merge_gather[rel1.jk1, rel1.jk1, rel1.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel1.jk1, rel1.jk1, rel4.jk1, rel4.jk2]|0|0|0|1|0
enforcer|exchange_merge_gather[rel1.jk1, rel1.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel1.jk1, rel1.jk2, rel2.jk1, rel2.jk1]|1|0|0|0|32
enforcer|exchange_merge_gather[rel1.jk1, rel1.jk2, rel3.jk1, rel3.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel1.jk1, rel1.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel1.jk1, rel2.jk1, rel4.jk2]|1|0|0|0|84
enforcer|exchange_merge_gather[rel1.jk1, rel2.jk1]|2|0|0|0|28
enforcer|exchange_merge_gather[rel1.jk1, rel3.jk1, rel4.jk1]|1|0|0|0|90
enforcer|exchange_merge_gather[rel1.jk1, rel3.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel1.jk1, rel4.jk1]|1|0|0|0|7
enforcer|exchange_merge_gather[rel1.jk1, rel4.jk2]|0|0|0|1|0
enforcer|exchange_merge_gather[rel1.jk1]|1|0|0|0|12
enforcer|exchange_merge_gather[rel1.jk2, rel0.jk1]|2|0|0|0|36
enforcer|exchange_merge_gather[rel1.jk2, rel1.jk1, rel0.jk1, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel1.jk2, rel1.jk1, rel1.jk1, rel0.jk1, rel0.jk1, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel1.jk2, rel1.jk1, rel1.jk1, rel1.jk2]|2|0|0|1|24
enforcer|exchange_merge_gather[rel1.jk2, rel1.jk1, rel1.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel1.jk2, rel1.jk1, rel1.jk2]|2|0|0|1|24
enforcer|exchange_merge_gather[rel1.jk2, rel1.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel1.jk2, rel1.jk2]|2|0|0|1|24
enforcer|exchange_merge_gather[rel1.jk2, rel2.jk1, rel3.jk2]|1|0|0|0|98
enforcer|exchange_merge_gather[rel1.jk2, rel2.jk1]|1|0|0|0|32
enforcer|exchange_merge_gather[rel1.jk2, rel3.jk1, rel2.jk1]|1|0|0|0|98
enforcer|exchange_merge_gather[rel1.jk2, rel3.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel1.jk2, rel3.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel1.jk2, rel4.jk1, rel2.jk1]|1|0|0|0|92
enforcer|exchange_merge_gather[rel1.jk2, rel4.jk1, rel3.jk1, rel2.jk1]|1|0|0|0|234
enforcer|exchange_merge_gather[rel1.jk2, rel4.jk1, rel3.jk1]|1|0|0|0|90
enforcer|exchange_merge_gather[rel1.jk2, rel4.jk1]|1|0|0|0|7
enforcer|exchange_merge_gather[rel1.jk2]|1|0|0|0|12
enforcer|exchange_merge_gather[rel2.jk1, rel0.jk1]|1|0|0|0|32
enforcer|exchange_merge_gather[rel2.jk1, rel0.jk2]|1|0|0|0|32
enforcer|exchange_merge_gather[rel2.jk1, rel1.jk1, rel0.jk1]|2|0|0|0|188
enforcer|exchange_merge_gather[rel2.jk1, rel1.jk1, rel1.jk2, rel2.jk1]|1|0|0|0|28
enforcer|exchange_merge_gather[rel2.jk1, rel1.jk1]|2|0|0|0|28
enforcer|exchange_merge_gather[rel2.jk1, rel1.jk2, rel0.jk1]|1|0|0|0|112
enforcer|exchange_merge_gather[rel2.jk1, rel1.jk2, rel1.jk1, rel1.jk2, rel2.jk1, rel2.jk1]|2|0|0|0|46
enforcer|exchange_merge_gather[rel2.jk1, rel1.jk2, rel1.jk1, rel2.jk1]|1|0|0|0|28
enforcer|exchange_merge_gather[rel2.jk1, rel1.jk2, rel1.jk2, rel2.jk1]|2|0|0|0|39
enforcer|exchange_merge_gather[rel2.jk1, rel1.jk2]|1|0|0|0|32
enforcer|exchange_merge_gather[rel2.jk1, rel2.jk1, rel0.jk1, rel0.jk1]|1|0|0|0|32
enforcer|exchange_merge_gather[rel2.jk1, rel2.jk1, rel0.jk2, rel0.jk1]|2|0|0|0|46
enforcer|exchange_merge_gather[rel2.jk1, rel2.jk1, rel1.jk2, rel1.jk1, rel0.jk1, rel0.jk1]|1|0|0|0|112
enforcer|exchange_merge_gather[rel2.jk1, rel2.jk1, rel1.jk2, rel1.jk1, rel1.jk2, rel2.jk1]|2|0|0|0|46
enforcer|exchange_merge_gather[rel2.jk1, rel2.jk1, rel1.jk2, rel1.jk1]|1|0|0|0|32
enforcer|exchange_merge_gather[rel2.jk1, rel2.jk1, rel2.jk1, rel0.jk2, rel0.jk1, rel0.jk1]|2|0|0|0|39
enforcer|exchange_merge_gather[rel2.jk1, rel2.jk1, rel2.jk1, rel2.jk1]|1|0|0|0|12
enforcer|exchange_merge_gather[rel2.jk1, rel2.jk1, rel2.jk1]|1|0|0|0|12
enforcer|exchange_merge_gather[rel2.jk1, rel2.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1, rel1.jk2, rel1.jk2, rel2.jk1, rel3.jk2]|2|0|0|0|148
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1, rel1.jk2]|1|0|0|0|98
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk2]|1|0|0|0|28
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk1]|1|0|0|0|26
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk2]|2|0|0|0|35
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1, rel4.jk1, rel1.jk2]|1|0|0|0|234
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1, rel4.jk1, rel2.jk1, rel3.jk1, rel4.jk2]|1|0|0|0|100
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1, rel4.jk1]|1|0|0|0|86
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1, rel4.jk2]|1|0|0|0|100
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk1]|2|0|0|0|21
enforcer|exchange_merge_gather[rel2.jk1, rel3.jk2]|2|0|0|0|42
enforcer|exchange_merge_gather[rel2.jk1, rel4.jk1, rel1.jk2, rel1.jk1, rel2.jk1, rel4.jk2]|1|0|0|0|90
enforcer|exchange_merge_gather[rel2.jk1, rel4.jk1, rel1.jk2]|1|0|0|0|92
enforcer|exchange_merge_gather[rel2.jk1, rel4.jk1, rel2.jk1, rel4.jk2, rel2.jk1, rel4.jk2]|1|0|0|0|14
enforcer|exchange_merge_gather[rel2.jk1, rel4.jk1, rel2.jk1, rel4.jk2]|1|0|0|0|14
enforcer|exchange_merge_gather[rel2.jk1, rel4.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel2.jk1, rel4.jk2, rel2.jk1, rel4.jk2]|1|0|0|0|14
enforcer|exchange_merge_gather[rel2.jk1, rel4.jk2]|1|0|0|0|14
enforcer|exchange_merge_gather[rel2.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk1, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk1, rel0.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk1, rel1.jk1, rel0.jk1]|1|0|0|0|106
enforcer|exchange_merge_gather[rel3.jk1, rel1.jk1, rel1.jk2, rel3.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk1, rel1.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk1, rel1.jk2, rel1.jk1, rel1.jk2, rel3.jk1, rel3.jk2]|2|0|0|0|41
enforcer|exchange_merge_gather[rel3.jk1, rel1.jk2, rel1.jk1, rel3.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk1, rel1.jk2, rel1.jk2, rel3.jk2]|1|0|0|1|34
enforcer|exchange_merge_gather[rel3.jk1, rel1.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk1, rel2.jk1, rel0.jk2]|1|0|0|0|98
enforcer|exchange_merge_gather[rel3.jk1, rel2.jk1, rel3.jk1, rel2.jk1]|1|0|0|0|26
enforcer|exchange_merge_gather[rel3.jk1, rel2.jk1]|2|0|0|0|21
enforcer|exchange_merge_gather[rel3.jk1, rel3.jk1, rel0.jk2, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk1, rel3.jk1, rel3.jk1, rel3.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk1, rel3.jk1, rel3.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk1, rel3.jk1, rel3.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk1, rel3.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk1, rel3.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk1, rel4.jk1, rel1.jk2, rel1.jk1, rel3.jk1, rel4.jk1]|1|0|0|0|90
enforcer|exchange_merge_gather[rel3.jk1, rel4.jk1, rel1.jk2]|1|0|0|0|90
enforcer|exchange_merge_gather[rel3.jk1, rel4.jk1, rel3.jk1, rel4.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel3.jk1, rel4.jk1, rel3.jk1, rel4.jk2, rel3.jk1, rel4.jk1]|1|0|0|0|30
enforcer|exchange_merge_gather[rel3.jk1, rel4.jk1, rel3.jk1, rel4.jk2]|1|0|0|0|14
enforcer|exchange_merge_gather[rel3.jk1, rel4.jk1]|5|0|0|0|70
enforcer|exchange_merge_gather[rel3.jk1, rel4.jk2, rel3.jk1, rel4.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel3.jk1, rel4.jk2]|1|0|0|0|14
enforcer|exchange_merge_gather[rel3.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk2, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk2, rel1.jk2, rel0.jk1]|1|0|0|0|106
enforcer|exchange_merge_gather[rel3.jk2, rel1.jk2, rel1.jk2, rel3.jk1]|1|0|0|1|34
enforcer|exchange_merge_gather[rel3.jk2, rel1.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk2, rel2.jk1, rel0.jk1]|2|0|0|0|196
enforcer|exchange_merge_gather[rel3.jk2, rel2.jk1, rel1.jk2, rel0.jk1]|1|0|0|0|254
enforcer|exchange_merge_gather[rel3.jk2, rel2.jk1, rel1.jk2, rel1.jk2, rel3.jk1, rel2.jk1]|2|0|0|0|148
enforcer|exchange_merge_gather[rel3.jk2, rel2.jk1, rel1.jk2]|1|0|0|0|98
enforcer|exchange_merge_gather[rel3.jk2, rel2.jk1, rel3.jk1, rel2.jk1, rel0.jk2, rel0.jk1]|1|0|0|0|78
enforcer|exchange_merge_gather[rel3.jk2, rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk1, rel2.jk1]|1|0|0|0|28
enforcer|exchange_merge_gather[rel3.jk2, rel2.jk1, rel3.jk1, rel2.jk1]|2|0|0|0|35
enforcer|exchange_merge_gather[rel3.jk2, rel2.jk1]|2|0|0|0|42
enforcer|exchange_merge_gather[rel3.jk2, rel3.jk1, rel0.jk1, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk2, rel3.jk1, rel0.jk2, rel0.jk1]|1|0|0|0|20
enforcer|exchange_merge_gather[rel3.jk2, rel3.jk1, rel1.jk2, rel1.jk1, rel0.jk1, rel0.jk1]|1|0|0|0|106
enforcer|exchange_merge_gather[rel3.jk2, rel3.jk1, rel1.jk2, rel1.jk1, rel1.jk2, rel3.jk1]|2|0|0|0|41
enforcer|exchange_merge_gather[rel3.jk2, rel3.jk1, rel1.jk2, rel1.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk2, rel3.jk1, rel3.jk1, rel0.jk2, rel0.jk1, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel3.jk2, rel3.jk1, rel3.jk1, rel3.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk2, rel3.jk1, rel3.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk2, rel3.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel3.jk2]|2|0|0|1|24
enforcer|exchange_merge_gather[rel4.jk1, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel4.jk1, rel1.jk1, rel0.jk1]|1|0|0|0|98
enforcer|exchange_merge_gather[rel4.jk1, rel1.jk1, rel1.jk2, rel4.jk1]|1|0|0|0|7
enforcer|exchange_merge_gather[rel4.jk1, rel1.jk1]|1|0|0|0|7
enforcer|exchange_merge_gather[rel4.jk1, rel1.jk2, rel1.jk1, rel1.jk1, rel4.jk1, rel4.jk2]|1|0|0|0|7
enforcer|exchange_merge_gather[rel4.jk1, rel1.jk2, rel1.jk1, rel4.jk1]|1|0|0|0|7
enforcer|exchange_merge_gather[rel4.jk1, rel1.jk2, rel1.jk1, rel4.jk2]|0|0|0|1|0
enforcer|exchange_merge_gather[rel4.jk1, rel1.jk2]|1|0|0|0|7
enforcer|exchange_merge_gather[rel4.jk1, rel2.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1, rel0.jk1]|1|0|0|0|98
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1, rel1.jk1, rel0.jk1]|1|0|0|0|248
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1, rel1.jk1, rel1.jk2, rel4.jk1, rel3.jk1]|1|0|0|0|90
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1, rel1.jk1]|1|0|0|0|90
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1, rel2.jk1]|1|0|0|0|86
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1, rel4.jk1, rel3.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1, rel4.jk2, rel3.jk1, rel0.jk2, rel0.jk1]|1|0|0|0|98
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1, rel4.jk2, rel3.jk1, rel4.jk1, rel3.jk1]|1|0|0|0|30
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1, rel4.jk2, rel3.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk1, rel3.jk1]|5|0|0|0|70
enforcer|exchange_merge_gather[rel4.jk1, rel4.jk1, rel4.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk1, rel4.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk1, rel4.jk2, rel0.jk2, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel4.jk1, rel4.jk2, rel4.jk1, rel4.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk1, rel4.jk2, rel4.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk1, rel4.jk2, rel4.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk1, rel4.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk2, rel0.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk2, rel0.jk2]|1|0|0|0|34
enforcer|exchange_merge_gather[rel4.jk2, rel1.jk1, rel0.jk1]|2|0|0|0|176
enforcer|exchange_merge_gather[rel4.jk2, rel1.jk1, rel1.jk2, rel4.jk1]|0|0|0|1|0
enforcer|exchange_merge_gather[rel4.jk2, rel1.jk1]|0|0|0|1|0
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1, rel0.jk1]|2|0|0|0|172
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1, rel0.jk2]|1|0|0|0|100
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1, rel1.jk1, rel0.jk1]|2|0|0|0|440
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1, rel1.jk1, rel1.jk2, rel4.jk1, rel2.jk1]|1|0|0|0|90
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1, rel1.jk1]|1|0|0|0|84
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1, rel4.jk1, rel2.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1, rel4.jk2, rel2.jk1, rel0.jk2, rel0.jk1]|1|0|0|0|100
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1, rel4.jk2, rel2.jk1, rel4.jk1, rel2.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1, rel4.jk2, rel2.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk2, rel2.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk2, rel3.jk1, rel0.jk2]|1|0|0|0|98
enforcer|exchange_merge_gather[rel4.jk2, rel3.jk1, rel2.jk1, rel0.jk2]|1|0|0|0|224
enforcer|exchange_merge_gather[rel4.jk2, rel3.jk1, rel2.jk1, rel4.jk1, rel3.jk1, rel2.jk1]|1|0|0|0|100
enforcer|exchange_merge_gather[rel4.jk2, rel3.jk1, rel2.jk1]|1|0|0|0|100
enforcer|exchange_merge_gather[rel4.jk2, rel3.jk1, rel4.jk1, rel3.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk2, rel3.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk1, rel0.jk1, rel0.jk1]|1|0|0|0|14
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk1, rel1.jk1, rel1.jk1, rel0.jk1, rel0.jk1]|1|0|0|0|92
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk1, rel1.jk1, rel1.jk1, rel1.jk2, rel4.jk1]|1|0|0|0|7
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk1, rel1.jk1, rel1.jk1]|0|0|0|1|0
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk1, rel4.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk1, rel4.jk2, rel0.jk2, rel0.jk1, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk1, rel4.jk2, rel4.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk1, rel4.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk2, rel0.jk2, rel0.jk1]|1|0|0|0|34
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk2, rel4.jk1]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk2, rel4.jk2]|1|0|0|1|12
enforcer|exchange_merge_gather[rel4.jk2]|1|0|0|0|12
enforcer|sort[rel0.jk1, rel0.jk1, rel0.jk1, rel0.jk2]|5|0|2|0|20
enforcer|sort[rel0.jk1, rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk1, rel1.jk2]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel0.jk1, rel0.jk1]|3|0|2|0|6
enforcer|sort[rel0.jk1, rel0.jk1, rel0.jk2, rel2.jk1, rel2.jk1, rel2.jk1]|2|0|1|2|25
enforcer|sort[rel0.jk1, rel0.jk1, rel0.jk2, rel3.jk1, rel3.jk1, rel3.jk2]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel0.jk1, rel0.jk2, rel4.jk2, rel4.jk1, rel4.jk2]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel0.jk1, rel0.jk2]|5|0|2|0|20
enforcer|sort[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk1, rel4.jk1, rel4.jk2]|2|0|0|0|164
enforcer|sort[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk1]|2|0|0|0|44
enforcer|sort[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk2, rel2.jk1, rel2.jk1]|2|0|1|0|101
enforcer|sort[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk2, rel3.jk1, rel3.jk2]|2|0|1|0|95
enforcer|sort[rel0.jk1, rel0.jk1, rel1.jk1, rel1.jk2]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel0.jk1, rel2.jk1, rel2.jk1]|2|0|1|0|25
enforcer|sort[rel0.jk1, rel0.jk1, rel3.jk1, rel3.jk2]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel0.jk1, rel4.jk1, rel4.jk2]|2|0|0|0|28
enforcer|sort[rel0.jk1, rel0.jk1]|3|0|2|0|6
enforcer|sort[rel0.jk1, rel0.jk2, rel2.jk1, rel2.jk1]|4|0|1|0|53
enforcer|sort[rel0.jk1, rel0.jk2, rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk2]|2|0|0|0|136
enforcer|sort[rel0.jk1, rel0.jk2, rel2.jk1, rel4.jk2, rel2.jk1, rel4.jk2]|2|0|1|0|89
enforcer|sort[rel0.jk1, rel0.jk2, rel3.jk1, rel3.jk1]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel0.jk2, rel3.jk1, rel3.jk2]|2|0|0|0|34
enforcer|sort[rel0.jk1, rel0.jk2, rel3.jk1, rel4.jk2, rel3.jk1, rel4.jk1]|2|0|1|0|87
enforcer|sort[rel0.jk1, rel0.jk2, rel4.jk2, rel4.jk1]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel0.jk2, rel4.jk2, rel4.jk2]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel0.jk2]|3|0|2|0|6
enforcer|sort[rel0.jk1, rel1.jk1, rel2.jk1, rel4.jk2]|4|0|0|0|808
enforcer|sort[rel0.jk1, rel1.jk1, rel2.jk1]|4|0|0|0|336
enforcer|sort[rel0.jk1, rel1.jk1, rel3.jk1, rel4.jk1]|2|0|1|0|229
enforcer|sort[rel0.jk1, rel1.jk1, rel3.jk1]|2|0|1|0|95
enforcer|sort[rel0.jk1, rel1.jk1, rel4.jk1]|2|0|1|0|87
enforcer|sort[rel0.jk1, rel1.jk1, rel4.jk2]|4|0|0|0|312
enforcer|sort[rel0.jk1, rel1.jk1]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel1.jk2, rel2.jk1, rel3.jk2]|2|0|1|0|235
enforcer|sort[rel0.jk1, rel1.jk2, rel2.jk1]|2|0|1|0|101
enforcer|sort[rel0.jk1, rel1.jk2, rel3.jk2]|2|0|1|0|95
enforcer|sort[rel0.jk1, rel1.jk2]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel2.jk1, rel3.jk2]|4|0|1|0|263
enforcer|sort[rel0.jk1, rel2.jk1, rel4.jk2]|4|0|0|0|304
enforcer|sort[rel0.jk1, rel2.jk1]|2|0|1|0|25
enforcer|sort[rel0.jk1, rel3.jk1, rel4.jk1]|2|0|1|0|87
enforcer|sort[rel0.jk1, rel3.jk1]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel3.jk2]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel4.jk1]|2|0|1|0|27
enforcer|sort[rel0.jk1, rel4.jk2]|2|0|0|0|28
enforcer|sort[rel0.jk1]|2|0|1|0|6
enforcer|sort[rel0.jk2, rel0.jk1, rel0.jk1, rel0.jk1]|5|0|2|0|20
enforcer|sort[rel0.jk2, rel0.jk1, rel0.jk1]|5|0|2|0|20
enforcer|sort[rel0.jk2, rel0.jk1]|3|0|2|0|6
enforcer|sort[rel0.jk2, rel2.jk1, rel3.jk1, rel4.jk2]|2|0|1|0|205
enforcer|sort[rel0.jk2, rel2.jk1, rel3.jk1]|2|0|1|0|87
enforcer|sort[rel0.jk2, rel2.jk1, rel4.jk2]|2|0|1|0|89
enforcer|sort[rel0.jk2, rel2.jk1]|2|0|1|0|25
enforcer|sort[rel0.jk2, rel3.jk1, rel4.jk2]|2|0|1|0|87
enforcer|sort[rel0.jk2, rel3.jk1]|2|0|1|0|27
enforcer|sort[rel0.jk2, rel4.jk2]|2|0|1|0|27
enforcer|sort[rel0.jk2]|2|0|1|0|6
enforcer|sort[rel1.jk1, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel1.jk1, rel1.jk1, rel0.jk1, rel0.jk1]|2|0|0|0|44
enforcer|sort[rel1.jk1, rel1.jk1, rel1.jk2]|3|0|2|0|6
enforcer|sort[rel1.jk1, rel1.jk1, rel4.jk1, rel4.jk2]|0|0|0|1|0
enforcer|sort[rel1.jk1, rel1.jk1]|3|0|2|0|6
enforcer|sort[rel1.jk1, rel1.jk2, rel2.jk1, rel2.jk1]|2|0|1|0|25
enforcer|sort[rel1.jk1, rel1.jk2, rel3.jk1, rel3.jk2]|2|0|1|0|27
enforcer|sort[rel1.jk1, rel1.jk2]|3|0|2|0|6
enforcer|sort[rel1.jk1, rel2.jk1, rel4.jk2]|2|0|0|0|148
enforcer|sort[rel1.jk1, rel2.jk1]|4|0|0|0|44
enforcer|sort[rel1.jk1, rel3.jk1, rel4.jk1]|2|0|1|0|79
enforcer|sort[rel1.jk1, rel3.jk1]|2|0|1|0|27
enforcer|sort[rel1.jk1, rel4.jk1]|0|0|0|2|0
enforcer|sort[rel1.jk1, rel4.jk2]|0|0|0|1|0
enforcer|sort[rel1.jk1]|2|0|1|0|6
enforcer|sort[rel1.jk2, rel0.jk1]|3|0|1|0|56
enforcer|sort[rel1.jk2, rel1.jk1, rel0.jk1, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel1.jk2, rel1.jk1, rel1.jk1, rel0.jk1, rel0.jk1, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel1.jk2, rel1.jk1, rel1.jk1, rel1.jk2]|5|0|2|0|20
enforcer|sort[rel1.jk2, rel1.jk1, rel1.jk1]|3|0|2|0|6
enforcer|sort[rel1.jk2, rel1.jk1, rel1.jk2]|5|0|2|0|20
enforcer|sort[rel1.jk2, rel1.jk1]|3|0|2|0|6
enforcer|sort[rel1.jk2, rel1.jk2]|5|0|2|0|20
enforcer|sort[rel1.jk2, rel2.jk1, rel3.jk2]|2|0|1|0|87
enforcer|sort[rel1.jk2, rel2.jk1]|2|0|1|0|25
enforcer|sort[rel1.jk2, rel3.jk1, rel2.jk1]|2|0|1|0|87
enforcer|sort[rel1.jk2, rel3.jk1]|2|0|1|0|27
enforcer|sort[rel1.jk2, rel3.jk2]|2|0|1|0|27
enforcer|sort[rel1.jk2, rel4.jk1, rel2.jk1]|2|0|1|0|81
enforcer|sort[rel1.jk2, rel4.jk1, rel3.jk1, rel2.jk1]|2|0|1|0|215
enforcer|sort[rel1.jk2, rel4.jk1, rel3.jk1]|2|0|1|0|79
enforcer|sort[rel1.jk2, rel4.jk1]|0|0|0|2|0
enforcer|sort[rel1.jk2]|2|0|1|0|6
enforcer|sort[rel2.jk1, rel0.jk1]|2|0|1|0|25
enforcer|sort[rel2.jk1, rel0.jk2]|2|0|1|0|25
enforcer|sort[rel2.jk1, rel1.jk1, rel0.jk1]|4|0|0|0|336
enforcer|sort[rel2.jk1, rel1.jk1, rel1.jk2, rel2.jk1]|2|0|0|0|46
enforcer|sort[rel2.jk1, rel1.jk1]|4|0|0|0|44
enforcer|sort[rel2.jk1, rel1.jk2, rel0.jk1]|2|0|1|0|101
enforcer|sort[rel2.jk1, rel1.jk2, rel1.jk1, rel1.jk2, rel2.jk1, rel2.jk1]|4|0|1|0|41
enforcer|sort[rel2.jk1, rel1.jk2, rel1.jk1, rel2.jk1]|2|0|0|0|46
enforcer|sort[rel2.jk1, rel1.jk2, rel1.jk2, rel2.jk1]|2|0|1|2|25
enforcer|sort[rel2.jk1, rel1.jk2]|2|0|1|0|25
enforcer|sort[rel2.jk1, rel2.jk1, rel0.jk1, rel0.jk1]|2|0|1|0|25
enforcer|sort[rel2.jk1, rel2.jk1, rel0.jk2, rel0.jk1]|4|0|1|0|53
enforcer|sort[rel2.jk1, rel2.jk1, rel1.jk2, rel1.jk1, rel0.jk1, rel0.jk1]|2|0|1|0|101
enforcer|sort[rel2.jk1, rel2.jk1, rel1.jk2, rel1.jk1, rel1.jk2, rel2.jk1]|4|0|1|0|41
enforcer|sort[rel2.jk1, rel2.jk1, rel1.jk2, rel1.jk1]|2|0|1|0|25
enforcer|sort[rel2.jk1, rel2.jk1, rel2.jk1, rel0.jk2, rel0.jk1, rel0.jk1]|2|0|1|2|25
enforcer|sort[rel2.jk1, rel2.jk1, rel2.jk1, rel2.jk1]|2|0|1|0|6
enforcer|sort[rel2.jk1, rel2.jk1, rel2.jk1]|2|0|1|0|6
enforcer|sort[rel2.jk1, rel2.jk1]|3|0|2|0|6
enforcer|sort[rel2.jk1, rel3.jk1, rel1.jk2, rel1.jk2, rel2.jk1, rel3.jk2]|4|0|1|0|167
enforcer|sort[rel2.jk1, rel3.jk1, rel1.jk2]|2|0|1|0|87
enforcer|sort[rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk2]|2|0|1|0|21
enforcer|sort[rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk1]|2|0|0|0|48
enforcer|sort[rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk2]|2|0|1|2|21
enforcer|sort[rel2.jk1, rel3.jk1, rel4.jk1, rel1.jk2]|2|0|1|0|215
enforcer|sort[rel2.jk1, rel3.jk1, rel4.jk1, rel2.jk1, rel3.jk1, rel4.jk2]|2|0|0|0|245
enforcer|sort[rel2.jk1, rel3.jk1, rel4.jk1]|2|0|0|0|152
enforcer|sort[rel2.jk1, rel3.jk1, rel4.jk2]|2|0|0|0|257
enforcer|sort[rel2.jk1, rel3.jk1]|2|0|0|2|22
enforcer|sort[rel2.jk1, rel3.jk2]|4|0|1|0|37
enforcer|sort[rel2.jk1, rel4.jk1, rel1.jk2, rel1.jk1, rel2.jk1, rel4.jk2]|2|0|0|0|160
enforcer|sort[rel2.jk1, rel4.jk1, rel1.jk2]|2|0|1|0|81
enforcer|sort[rel2.jk1, rel4.jk1, rel2.jk1, rel4.jk2, rel2.jk1, rel4.jk2]|2|0|0|0|16
enforcer|sort[rel2.jk1, rel4.jk1, rel2.jk1, rel4.jk2]|2|0|0|0|21
enforcer|sort[rel2.jk1, rel4.jk1]|2|0|0|0|16
enforcer|sort[rel2.jk1, rel4.jk2, rel2.jk1, rel4.jk2]|2|0|0|0|16
enforcer|sort[rel2.jk1, rel4.jk2]|2|0|0|0|16
enforcer|sort[rel2.jk1]|3|0|2|0|6
enforcer|sort[rel3.jk1, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel3.jk1, rel0.jk2]|2|0|1|0|27
enforcer|sort[rel3.jk1, rel1.jk1, rel0.jk1]|2|0|1|0|95
enforcer|sort[rel3.jk1, rel1.jk1, rel1.jk2, rel3.jk1]|2|0|1|0|27
enforcer|sort[rel3.jk1, rel1.jk1]|2|0|1|0|27
enforcer|sort[rel3.jk1, rel1.jk2, rel1.jk1, rel1.jk2, rel3.jk1, rel3.jk2]|2|0|1|2|27
enforcer|sort[rel3.jk1, rel1.jk2, rel1.jk1, rel3.jk1]|2|0|1|0|27
enforcer|sort[rel3.jk1, rel1.jk2, rel1.jk2, rel3.jk2]|2|0|1|1|27
enforcer|sort[rel3.jk1, rel1.jk2]|2|0|1|0|27
enforcer|sort[rel3.jk1, rel2.jk1, rel0.jk2]|2|0|1|0|87
enforcer|sort[rel3.jk1, rel2.jk1, rel3.jk1, rel2.jk1]|2|0|0|0|48
enforcer|sort[rel3.jk1, rel2.jk1]|2|0|0|2|22
enforcer|sort[rel3.jk1, rel3.jk1, rel0.jk2, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel3.jk1, rel3.jk1, rel3.jk1, rel3.jk2]|3|0|2|0|6
enforcer|sort[rel3.jk1, rel3.jk1, rel3.jk1]|3|0|2|0|6
enforcer|sort[rel3.jk1, rel3.jk1, rel3.jk2]|3|0|2|0|6
enforcer|sort[rel3.jk1, rel3.jk1]|3|0|2|0|6
enforcer|sort[rel3.jk1, rel3.jk2]|3|0|2|0|6
enforcer|sort[rel3.jk1, rel4.jk1, rel1.jk2, rel1.jk1, rel3.jk1, rel4.jk1]|2|0|1|0|79
enforcer|sort[rel3.jk1, rel4.jk1, rel1.jk2]|2|0|1|0|79
enforcer|sort[rel3.jk1, rel4.jk1, rel3.jk1, rel4.jk1]|2|0|0|0|16
enforcer|sort[rel3.jk1, rel4.jk1, rel3.jk1, rel4.jk2, rel3.jk1, rel4.jk1]|2|0|0|0|50
enforcer|sort[rel3.jk1, rel4.jk1, rel3.jk1, rel4.jk2]|2|0|0|0|16
enforcer|sort[rel3.jk1, rel4.jk1]|10|0|0|0|80
enforcer|sort[rel3.jk1, rel4.jk2, rel3.jk1, rel4.jk1]|2|0|0|0|21
enforcer|sort[rel3.jk1, rel4.jk2]|2|0|0|0|16
enforcer|sort[rel3.jk1]|3|0|2|0|6
enforcer|sort[rel3.jk2, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel3.jk2, rel1.jk2, rel0.jk1]|2|0|1|0|95
enforcer|sort[rel3.jk2, rel1.jk2, rel1.jk2, rel3.jk1]|2|0|1|1|27
enforcer|sort[rel3.jk2, rel1.jk2]|2|0|1|0|27
enforcer|sort[rel3.jk2, rel2.jk1, rel0.jk1]|4|0|1|0|263
enforcer|sort[rel3.jk2, rel2.jk1, rel1.jk2, rel0.jk1]|2|0|1|0|235
enforcer|sort[rel3.jk2, rel2.jk1, rel1.jk2, rel1.jk2, rel3.jk1, rel2.jk1]|4|0|1|0|167
enforcer|sort[rel3.jk2, rel2.jk1, rel1.jk2]|2|0|1|0|87
enforcer|sort[rel3.jk2, rel2.jk1, rel3.jk1, rel2.jk1, rel0.jk2, rel0.jk1]|2|0|0|0|136
enforcer|sort[rel3.jk2, rel2.jk1, rel3.jk1, rel2.jk1, rel3.jk1, rel2.jk1]|2|0|1|0|21
enforcer|sort[rel3.jk2, rel2.jk1, rel3.jk1, rel2.jk1]|2|0|1|2|21
enforcer|sort[rel3.jk2, rel2.jk1]|4|0|1|0|37
enforcer|sort[rel3.jk2, rel3.jk1, rel0.jk1, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel3.jk2, rel3.jk1, rel0.jk2, rel0.jk1]|2|0|0|0|34
enforcer|sort[rel3.jk2, rel3.jk1, rel1.jk2, rel1.jk1, rel0.jk1, rel0.jk1]|2|0|1|0|95
enforcer|sort[rel3.jk2, rel3.jk1, rel1.jk2, rel1.jk1, rel1.jk2, rel3.jk1]|2|0|1|2|27
enforcer|sort[rel3.jk2, rel3.jk1, rel1.jk2, rel1.jk1]|2|0|1|0|27
enforcer|sort[rel3.jk2, rel3.jk1, rel3.jk1, rel0.jk2, rel0.jk1, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel3.jk2, rel3.jk1, rel3.jk1, rel3.jk1]|3|0|2|0|6
enforcer|sort[rel3.jk2, rel3.jk1, rel3.jk1]|3|0|2|0|6
enforcer|sort[rel3.jk2, rel3.jk1]|3|0|2|0|6
enforcer|sort[rel3.jk2]|5|0|2|0|20
enforcer|sort[rel4.jk1, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel4.jk1, rel1.jk1, rel0.jk1]|2|0|1|0|87
enforcer|sort[rel4.jk1, rel1.jk1, rel1.jk2, rel4.jk1]|0|0|0|2|0
enforcer|sort[rel4.jk1, rel1.jk1]|0|0|0|2|0
enforcer|sort[rel4.jk1, rel1.jk2, rel1.jk1, rel1.jk1, rel4.jk1, rel4.jk2]|0|0|0|2|0
enforcer|sort[rel4.jk1, rel1.jk2, rel1.jk1, rel4.jk1]|0|0|0|2|0
enforcer|sort[rel4.jk1, rel1.jk2, rel1.jk1, rel4.jk2]|0|0|0|1|0
enforcer|sort[rel4.jk1, rel1.jk2]|0|0|0|2|0
enforcer|sort[rel4.jk1, rel2.jk1]|2|0|0|0|16
enforcer|sort[rel4.jk1, rel3.jk1, rel0.jk1]|2|0|1|0|87
enforcer|sort[rel4.jk1, rel3.jk1, rel1.jk1, rel0.jk1]|2|0|1|0|229
enforcer|sort[rel4.jk1, rel3.jk1, rel1.jk1, rel1.jk2, rel4.jk1, rel3.jk1]|2|0|1|0|79
enforcer|sort[rel4.jk1, rel3.jk1, rel1.jk1]|2|0|1|0|79
enforcer|sort[rel4.jk1, rel3.jk1, rel2.jk1]|2|0|0|0|152
enforcer|sort[rel4.jk1, rel3.jk1, rel4.jk1, rel3.jk1]|2|0|0|0|16
enforcer|sort[rel4.jk1, rel3.jk1, rel4.jk2, rel3.jk1, rel0.jk2, rel0.jk1]|2|0|1|0|87
enforcer|sort[rel4.jk1, rel3.jk1, rel4.jk2, rel3.jk1, rel4.jk1, rel3.jk1]|2|0|0|0|50
enforcer|sort[rel4.jk1, rel3.jk1, rel4.jk2, rel3.jk1]|2|0|0|0|16
enforcer|sort[rel4.jk1, rel3.jk1]|10|0|0|0|80
enforcer|sort[rel4.jk1, rel4.jk1, rel4.jk2]|3|0|2|0|6
enforcer|sort[rel4.jk1, rel4.jk1]|3|0|2|0|6
enforcer|sort[rel4.jk1, rel4.jk2, rel0.jk2, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel4.jk1, rel4.jk2, rel4.jk1, rel4.jk2]|3|0|2|0|6
enforcer|sort[rel4.jk1, rel4.jk2, rel4.jk1]|3|0|2|0|6
enforcer|sort[rel4.jk1, rel4.jk2, rel4.jk2]|3|0|2|0|6
enforcer|sort[rel4.jk1, rel4.jk2]|3|0|2|0|6
enforcer|sort[rel4.jk1]|3|0|2|0|6
enforcer|sort[rel4.jk2, rel0.jk1]|2|0|0|0|28
enforcer|sort[rel4.jk2, rel0.jk2]|2|0|1|0|27
enforcer|sort[rel4.jk2, rel1.jk1, rel0.jk1]|4|0|0|0|312
enforcer|sort[rel4.jk2, rel1.jk1, rel1.jk2, rel4.jk1]|0|0|0|1|0
enforcer|sort[rel4.jk2, rel1.jk1]|0|0|0|1|0
enforcer|sort[rel4.jk2, rel2.jk1, rel0.jk1]|4|0|0|0|304
enforcer|sort[rel4.jk2, rel2.jk1, rel0.jk2]|2|0|1|0|89
enforcer|sort[rel4.jk2, rel2.jk1, rel1.jk1, rel0.jk1]|4|0|0|0|808
enforcer|sort[rel4.jk2, rel2.jk1, rel1.jk1, rel1.jk2, rel4.jk1, rel2.jk1]|2|0|0|0|160
enforcer|sort[rel4.jk2, rel2.jk1, rel1.jk1]|2|0|0|0|148
enforcer|sort[rel4.jk2, rel2.jk1, rel4.jk1, rel2.jk1]|2|0|0|0|16
enforcer|sort[rel4.jk2, rel2.jk1, rel4.jk2, rel2.jk1, rel0.jk2, rel0.jk1]|2|0|1|0|89
enforcer|sort[rel4.jk2, rel2.jk1, rel4.jk2, rel2.jk1, rel4.jk1, rel2.jk1]|2|0|0|0|16
enforcer|sort[rel4.jk2, rel2.jk1, rel4.jk2, rel2.jk1]|2|0|0|0|16
enforcer|sort[rel4.jk2, rel2.jk1]|2|0|0|0|16
enforcer|sort[rel4.jk2, rel3.jk1, rel0.jk2]|2|0|1|0|87
enforcer|sort[rel4.jk2, rel3.jk1, rel2.jk1, rel0.jk2]|2|0|1|0|205
enforcer|sort[rel4.jk2, rel3.jk1, rel2.jk1, rel4.jk1, rel3.jk1, rel2.jk1]|2|0|0|0|180
enforcer|sort[rel4.jk2, rel3.jk1, rel2.jk1]|2|0|0|0|180
enforcer|sort[rel4.jk2, rel3.jk1, rel4.jk1, rel3.jk1]|2|0|0|0|16
enforcer|sort[rel4.jk2, rel3.jk1]|2|0|0|0|16
enforcer|sort[rel4.jk2, rel4.jk1, rel0.jk1, rel0.jk1]|2|0|0|0|28
enforcer|sort[rel4.jk2, rel4.jk1, rel1.jk1, rel1.jk1, rel0.jk1, rel0.jk1]|2|0|0|0|164
enforcer|sort[rel4.jk2, rel4.jk1, rel1.jk1, rel1.jk1, rel1.jk2, rel4.jk1]|0|0|0|2|0
enforcer|sort[rel4.jk2, rel4.jk1, rel1.jk1, rel1.jk1]|0|0|0|1|0
enforcer|sort[rel4.jk2, rel4.jk1, rel4.jk1]|3|0|2|0|6
enforcer|sort[rel4.jk2, rel4.jk1, rel4.jk2, rel0.jk2, rel0.jk1, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel4.jk2, rel4.jk1, rel4.jk2, rel4.jk1]|3|0|2|0|6
enforcer|sort[rel4.jk2, rel4.jk1, rel4.jk2]|3|0|2|0|6
enforcer|sort[rel4.jk2, rel4.jk1]|3|0|2|0|6
enforcer|sort[rel4.jk2, rel4.jk2, rel0.jk2, rel0.jk1]|2|0|1|0|27
enforcer|sort[rel4.jk2, rel4.jk2, rel4.jk1]|3|0|2|0|6
enforcer|sort[rel4.jk2, rel4.jk2]|3|0|2|0|6
enforcer|sort[rel4.jk2]|2|0|1|0|6
engine|explore_group|1531|0|0|0|0
engine|optimize_group|11973|0|0|0|0
operator|get(rel0)|27|0|0|0|0
operator|get(rel1)|23|0|0|0|0
operator|get(rel2)|15|0|0|0|0
operator|get(rel3)|29|0|0|0|0
operator|get(rel4)|31|0|0|0|0
operator|join[(((((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel0.jk1 = rel4.jk1)) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk1 = rel3.jk1)) AND (rel1.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel4.jk1)) AND (rel3.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)) AND (rel3.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk1 = rel3.jk1)) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((((rel0.jk1 = rel2.jk1) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk1 = rel3.jk1)) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[(((((rel0.jk1 = rel3.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk1 = rel2.jk1)) AND (rel2.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[(((((rel0.jk1 = rel3.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel1.jk1 = rel3.jk1)) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[(((((rel0.jk1 = rel3.jk1) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((((rel0.jk1 = rel4.jk1) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)) AND (rel3.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel0.jk1 = rel4.jk1)) AND (rel0.jk2 = rel1.jk2)]|2|0|0|0|0
operator|join[(((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk1 = rel3.jk1)]|20|0|0|0|0
operator|join[(((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[(((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk2 = rel4.jk2)]|36|0|0|0|0
operator|join[(((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[(((rel0.jk1 = rel2.jk1) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk1 = rel3.jk1)) AND (rel2.jk1 = rel3.jk1)]|20|0|0|0|0
operator|join[(((rel0.jk1 = rel2.jk1) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel4.jk1)]|36|0|0|0|0
operator|join[(((rel0.jk1 = rel2.jk1) AND (rel1.jk1 = rel2.jk1)) AND (rel2.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)]|2|0|0|0|0
operator|join[(((rel0.jk1 = rel3.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel1.jk1 = rel3.jk1)) AND (rel1.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[(((rel0.jk1 = rel3.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel2.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)]|20|0|0|0|0
operator|join[(((rel0.jk1 = rel3.jk1) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk1 = rel2.jk1)) AND (rel2.jk1 = rel3.jk1)]|20|0|0|0|0
operator|join[(((rel0.jk1 = rel3.jk1) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk2 = rel4.jk2)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[(((rel0.jk1 = rel3.jk1) AND (rel1.jk1 = rel3.jk1)) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((rel0.jk1 = rel4.jk1) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk1 = rel2.jk1)) AND (rel2.jk1 = rel4.jk1)]|36|0|0|0|0
operator|join[(((rel0.jk1 = rel4.jk1) AND (rel0.jk2 = rel1.jk2)) AND (rel1.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[(((rel0.jk1 = rel4.jk1) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel4.jk1)) AND (rel3.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk1 = rel3.jk1)) AND (rel1.jk2 = rel4.jk2)]|2|0|0|0|0
operator|join[(((rel1.jk1 = rel2.jk1) AND (rel1.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[(((rel1.jk1 = rel2.jk1) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[(((rel1.jk1 = rel3.jk1) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel0.jk1 = rel4.jk1)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)) AND (rel0.jk2 = rel1.jk2)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel0.jk2 = rel1.jk2)]|36|0|0|0|0
operator|join[((rel0.jk1 = rel2.jk1) AND (rel1.jk1 = rel2.jk1)) AND (rel2.jk1 = rel3.jk1)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel2.jk1) AND (rel1.jk1 = rel2.jk1)) AND (rel2.jk1 = rel4.jk1)]|36|0|0|0|0
operator|join[((rel0.jk1 = rel2.jk1) AND (rel2.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel3.jk1) AND (rel0.jk1 = rel4.jk1)) AND (rel0.jk2 = rel1.jk2)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel3.jk1) AND (rel1.jk1 = rel3.jk1)) AND (rel2.jk1 = rel3.jk1)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel3.jk1) AND (rel1.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel3.jk1) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel4.jk1) AND (rel1.jk2 = rel4.jk2)) AND (rel2.jk1 = rel4.jk1)]|36|0|0|0|0
operator|join[((rel0.jk1 = rel4.jk1) AND (rel1.jk2 = rel4.jk2)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[((rel0.jk1 = rel4.jk1) AND (rel2.jk1 = rel4.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[((rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk1 = rel3.jk1)]|20|0|0|0|0
operator|join[((rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel2.jk1)) AND (rel1.jk2 = rel4.jk2)]|36|0|0|0|0
operator|join[((rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel3.jk1)) AND (rel1.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[((rel1.jk1 = rel2.jk1) AND (rel1.jk1 = rel3.jk1)) AND (rel1.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[((rel1.jk1 = rel2.jk1) AND (rel2.jk1 = rel3.jk1)) AND (rel2.jk1 = rel4.jk1)]|20|0|0|0|0
operator|join[((rel1.jk1 = rel3.jk1) AND (rel2.jk1 = rel3.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[((rel1.jk2 = rel4.jk2) AND (rel2.jk1 = rel4.jk1)) AND (rel3.jk2 = rel4.jk2)]|20|0|0|0|0
operator|join[(rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel3.jk1)]|76|0|0|0|0
operator|join[(rel0.jk1 = rel2.jk1) AND (rel0.jk1 = rel4.jk1)]|80|0|0|0|0
operator|join[(rel0.jk1 = rel2.jk1) AND (rel0.jk2 = rel1.jk2)]|80|0|0|0|0
operator|join[(rel0.jk1 = rel2.jk1) AND (rel1.jk1 = rel2.jk1)]|80|0|0|0|0
operator|join[(rel0.jk1 = rel2.jk1) AND (rel2.jk1 = rel3.jk1)]|76|0|0|0|0
operator|join[(rel0.jk1 = rel2.jk1) AND (rel2.jk1 = rel4.jk1)]|80|0|0|0|0
operator|join[(rel0.jk1 = rel3.jk1) AND (rel0.jk1 = rel4.jk1)]|60|0|0|0|0
operator|join[(rel0.jk1 = rel3.jk1) AND (rel0.jk2 = rel1.jk2)]|60|0|0|0|0
operator|join[(rel0.jk1 = rel3.jk1) AND (rel1.jk1 = rel3.jk1)]|60|0|0|0|0
operator|join[(rel0.jk1 = rel3.jk1) AND (rel2.jk1 = rel3.jk1)]|76|0|0|0|0
operator|join[(rel0.jk1 = rel3.jk1) AND (rel3.jk2 = rel4.jk2)]|60|0|0|0|0
operator|join[(rel0.jk1 = rel4.jk1) AND (rel0.jk2 = rel1.jk2)]|80|0|0|0|0
operator|join[(rel0.jk1 = rel4.jk1) AND (rel1.jk2 = rel4.jk2)]|80|0|0|0|0
operator|join[(rel0.jk1 = rel4.jk1) AND (rel2.jk1 = rel4.jk1)]|80|0|0|0|0
operator|join[(rel0.jk1 = rel4.jk1) AND (rel3.jk2 = rel4.jk2)]|60|0|0|0|0
operator|join[(rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel2.jk1)]|80|0|0|0|0
operator|join[(rel0.jk2 = rel1.jk2) AND (rel1.jk1 = rel3.jk1)]|60|0|0|0|0
operator|join[(rel0.jk2 = rel1.jk2) AND (rel1.jk2 = rel4.jk2)]|80|0|0|0|0
operator|join[(rel1.jk1 = rel2.jk1) AND (rel1.jk1 = rel3.jk1)]|76|0|0|0|0
operator|join[(rel1.jk1 = rel2.jk1) AND (rel1.jk2 = rel4.jk2)]|64|0|0|0|0
operator|join[(rel1.jk1 = rel2.jk1) AND (rel2.jk1 = rel3.jk1)]|76|0|0|0|0
operator|join[(rel1.jk1 = rel2.jk1) AND (rel2.jk1 = rel4.jk1)]|64|0|0|0|0
operator|join[(rel1.jk1 = rel3.jk1) AND (rel1.jk2 = rel4.jk2)]|60|0|0|0|0
operator|join[(rel1.jk1 = rel3.jk1) AND (rel2.jk1 = rel3.jk1)]|76|0|0|0|0
operator|join[(rel1.jk1 = rel3.jk1) AND (rel3.jk2 = rel4.jk2)]|60|0|0|0|0
operator|join[(rel1.jk2 = rel4.jk2) AND (rel2.jk1 = rel4.jk1)]|64|0|0|0|0
operator|join[(rel1.jk2 = rel4.jk2) AND (rel3.jk2 = rel4.jk2)]|60|0|0|0|0
operator|join[(rel2.jk1 = rel3.jk1) AND (rel2.jk1 = rel4.jk1)]|72|0|0|0|0
operator|join[(rel2.jk1 = rel3.jk1) AND (rel3.jk2 = rel4.jk2)]|72|0|0|0|0
operator|join[(rel2.jk1 = rel4.jk1) AND (rel3.jk2 = rel4.jk2)]|72|0|0|0|0
operator|join[rel0.jk1 = rel2.jk1]|108|0|0|0|0
operator|join[rel0.jk1 = rel3.jk1]|116|0|0|0|0
operator|join[rel0.jk1 = rel4.jk1]|116|0|0|0|0
operator|join[rel0.jk2 = rel1.jk2]|88|0|0|0|0
operator|join[rel1.jk1 = rel2.jk1]|128|0|0|0|0
operator|join[rel1.jk1 = rel3.jk1]|128|0|0|0|0
operator|join[rel1.jk2 = rel4.jk2]|44|0|0|0|0
operator|join[rel2.jk1 = rel3.jk1]|120|0|0|0|0
operator|join[rel2.jk1 = rel4.jk1]|90|0|0|0|0
operator|join[rel3.jk2 = rel4.jk2]|182|0|0|0|0
operator|select[rel0.val > 685]|68|0|0|0|0
operator|select[rel1.val > 669]|64|0|0|0|0
operator|select[rel2.val <= 899]|28|0|0|0|0
operator|select[rel3.val > 572]|54|0|0|0|0
operator|select[rel4.val > 205]|66|0|0|0|0
rule|get->table_scan|46|0|46|0|0
rule|join->hybrid_hash|3864|0|0|404|10144
rule|join->merge|8106|0|136|186|32454
rule|join->nested_loop|800|0|1|2700|2108
rule|join-assoc|285|190|0|0|0
rule|join-commute|244|101|0|0|0
rule|select->filter|264|0|53|148|266
rule|select-merge|260|0|0|0|0
rule|select-push-join|255|0|0|0|0
|}
