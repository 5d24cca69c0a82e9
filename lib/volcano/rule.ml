type 'op pattern =
  | Any
  | Op of ('op -> bool) * 'op pattern list

type group = int

type 'op binding =
  | Group of group
  | Node of 'op * 'op binding list

type ('op, 'lp) transform = {
  t_name : string;
  t_promise : int;
  t_pattern : 'op pattern;
  t_apply : lookup:(group -> 'lp) -> 'op binding -> 'op binding list;
}

type ('op, 'alg, 'lp, 'pp) impl_choice = {
  c_alg : 'alg;
  c_inputs : group list;
  c_alternatives : 'pp list list;
}

type ('op, 'alg, 'lp, 'pp) implement = {
  i_name : string;
  i_promise : int;
  i_pattern : 'op pattern;
  i_apply :
    lookup:(group -> 'lp) ->
    required:'pp ->
    'op binding ->
    ('op, 'alg, 'lp, 'pp) impl_choice list;
}
