open Relalg

exception Parse_error of string

type statement = {
  logical : Logical.expr;
  required : Phys_prop.t;
}

let fail fmt = Format.kasprintf (fun msg -> raise (Parse_error msg)) fmt

(* ---------------------------------------------------------------------- *)
(* Lexer                                                                   *)
(* ---------------------------------------------------------------------- *)

type token =
  | Ident of string  (** possibly qualified: [t.c] *)
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Sym of string  (** punctuation and operators *)
  | Kw of string  (** upper-cased keyword *)
  | Eof

let keywords =
  [
    "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "GROUP"; "BY"; "ORDER"; "ASC"; "DESC";
    "AND"; "OR"; "NOT"; "AS"; "UNION"; "INTERSECT"; "EXCEPT"; "COUNT"; "SUM"; "MIN";
    "MAX"; "AVG"; "TRUE"; "FALSE";
  ]

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let tokenize (input : string) : token list =
  let n = String.length input in
  let rec go i acc =
    if i >= n then List.rev (Eof :: acc)
    else begin
      let c = input.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1) acc
      else if (c >= '0' && c <= '9') || (c = '.' && i + 1 < n && input.[i + 1] >= '0' && input.[i + 1] <= '9')
      then begin
        let j = ref i in
        let seen_dot = ref false in
        while
          !j < n
          && ((input.[!j] >= '0' && input.[!j] <= '9')
             || (input.[!j] = '.' && not !seen_dot))
        do
          if input.[!j] = '.' then seen_dot := true;
          incr j
        done;
        let text = String.sub input i (!j - i) in
        let token =
          if !seen_dot then Float_lit (float_of_string text) else Int_lit (int_of_string text)
        in
        go !j (token :: acc)
      end
      else if c = '\'' then begin
        match String.index_from_opt input (i + 1) '\'' with
        | None -> fail "unterminated string literal"
        | Some j -> go (j + 1) (Str_lit (String.sub input (i + 1) (j - i - 1)) :: acc)
      end
      else if is_ident_char c then begin
        let j = ref i in
        (* Qualified names keep their single inner dot. *)
        while !j < n && (is_ident_char input.[!j] || (input.[!j] = '.' && !j + 1 < n && is_ident_char input.[!j + 1]))
        do
          incr j
        done;
        let text = String.sub input i (!j - i) in
        let upper = String.uppercase_ascii text in
        let token = if List.mem upper keywords then Kw upper else Ident text in
        go !j (token :: acc)
      end
      else begin
        let two = if i + 1 < n then String.sub input i 2 else "" in
        match two with
        | "<=" | ">=" | "<>" | "!=" -> go (i + 2) (Sym two :: acc)
        | _ -> begin
          match c with
          | '=' | '<' | '>' | '(' | ')' | ',' | '*' | '+' | '-' | '/' | ';' ->
            go (i + 1) (Sym (String.make 1 c) :: acc)
          | _ -> fail "unexpected character %C" c
        end
      end
    end
  in
  go 0 []

(* ---------------------------------------------------------------------- *)
(* Parser state                                                            *)
(* ---------------------------------------------------------------------- *)

type state = {
  mutable tokens : token list;
}

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int_lit i -> string_of_int i
  | Float_lit f -> string_of_float f
  | Str_lit s -> Printf.sprintf "'%s'" s
  | Sym s -> s
  | Kw s -> s
  | Eof -> "end of input"

let peek st = match st.tokens with [] -> Eof | t :: _ -> t

let advance st = match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let eat st expected =
  let t = peek st in
  if t = expected then advance st
  else fail "expected %s but found %s" (token_to_string expected) (token_to_string t)

let eat_kw st kw = eat st (Kw kw)

(* ---------------------------------------------------------------------- *)
(* Expression parsing (predicates)                                         *)
(* ---------------------------------------------------------------------- *)

(* Grammar: or_expr > and_expr > not_expr > comparison > additive >
   multiplicative > primary. *)

let rec parse_or st =
  let left = parse_and st in
  match peek st with
  | Kw "OR" ->
    advance st;
    Expr.Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_not st in
  match peek st with
  | Kw "AND" ->
    advance st;
    Expr.And (left, parse_and st)
  | _ -> left

and parse_not st =
  match peek st with
  | Kw "NOT" ->
    advance st;
    Expr.Not (parse_not st)
  | _ -> parse_comparison st

and parse_comparison st =
  let left = parse_additive st in
  let op =
    match peek st with
    | Sym "=" -> Some Expr.Eq
    | Sym "<>" | Sym "!=" -> Some Expr.Ne
    | Sym "<" -> Some Expr.Lt
    | Sym "<=" -> Some Expr.Le
    | Sym ">" -> Some Expr.Gt
    | Sym ">=" -> Some Expr.Ge
    | _ -> None
  in
  match op with
  | None -> left
  | Some op ->
    advance st;
    Expr.Cmp (op, left, parse_additive st)

and parse_additive st =
  let left = parse_multiplicative st in
  match peek st with
  | Sym "+" ->
    advance st;
    Expr.Arith (Expr.Add, left, parse_additive st)
  | Sym "-" ->
    advance st;
    Expr.Arith (Expr.Sub, left, parse_additive st)
  | _ -> left

and parse_multiplicative st =
  let left = parse_primary st in
  match peek st with
  | Sym "*" ->
    advance st;
    Expr.Arith (Expr.Mul, left, parse_multiplicative st)
  | Sym "/" ->
    advance st;
    Expr.Arith (Expr.Div, left, parse_multiplicative st)
  | _ -> left

and parse_primary st =
  match peek st with
  | Int_lit i ->
    advance st;
    Expr.Const (Value.Int i)
  | Float_lit f ->
    advance st;
    Expr.Const (Value.Float f)
  | Str_lit s ->
    advance st;
    Expr.Const (Value.Str s)
  | Kw "TRUE" ->
    advance st;
    Expr.Const (Value.Bool true)
  | Kw "FALSE" ->
    advance st;
    Expr.Const (Value.Bool false)
  | Ident name ->
    advance st;
    Expr.Col name
  | Sym "(" ->
    advance st;
    let e = parse_or st in
    eat st (Sym ")");
    e
  | t -> fail "expected an expression but found %s" (token_to_string t)

(* ---------------------------------------------------------------------- *)
(* SELECT parsing and translation                                          *)
(* ---------------------------------------------------------------------- *)

type select_item =
  | Star
  | Column of string
  | Aggregate of Logical.agg_func * string option * string option  (* func, col, alias *)

let agg_func_of_kw = function
  | "COUNT" -> Some Logical.Count
  | "SUM" -> Some Logical.Sum
  | "MIN" -> Some Logical.Min
  | "MAX" -> Some Logical.Max
  | "AVG" -> Some Logical.Avg
  | _ -> None

let parse_select_item st =
  match peek st with
  | Sym "*" ->
    advance st;
    Star
  | Kw kw when agg_func_of_kw kw <> None ->
    let func = Option.get (agg_func_of_kw kw) in
    advance st;
    eat st (Sym "(");
    let column =
      match peek st with
      | Sym "*" ->
        advance st;
        None
      | Ident c ->
        advance st;
        Some c
      | t -> fail "expected a column or * in aggregate but found %s" (token_to_string t)
    in
    eat st (Sym ")");
    let alias =
      match peek st with
      | Kw "AS" -> begin
        advance st;
        match peek st with
        | Ident a ->
          advance st;
          Some a
        | t -> fail "expected an alias after AS but found %s" (token_to_string t)
      end
      | _ -> None
    in
    Aggregate (func, column, alias)
  | Ident c ->
    advance st;
    Column c
  | t -> fail "expected a select item but found %s" (token_to_string t)

let rec parse_comma_list st parse_one =
  let first = parse_one st in
  match peek st with
  | Sym "," ->
    advance st;
    first :: parse_comma_list st parse_one
  | _ -> [ first ]

type select_clause = {
  distinct : bool;
  items : select_item list;
  tables : string list;
  where : Expr.t option;
  group_by : string list;
  order_by : (string * Sort_order.dir) list;
}

let parse_select_clause st =
  eat_kw st "SELECT";
  let distinct =
    match peek st with
    | Kw "DISTINCT" ->
      advance st;
      true
    | _ -> false
  in
  let items = parse_comma_list st parse_select_item in
  eat_kw st "FROM";
  let parse_table st =
    match peek st with
    | Ident t ->
      advance st;
      t
    | t -> fail "expected a table name but found %s" (token_to_string t)
  in
  let tables = parse_comma_list st parse_table in
  let where =
    match peek st with
    | Kw "WHERE" ->
      advance st;
      Some (parse_or st)
    | _ -> None
  in
  let group_by =
    match peek st with
    | Kw "GROUP" ->
      advance st;
      eat_kw st "BY";
      parse_comma_list st (fun st ->
          match peek st with
          | Ident c ->
            advance st;
            c
          | t -> fail "expected a column in GROUP BY but found %s" (token_to_string t))
    | _ -> []
  in
  let order_by =
    match peek st with
    | Kw "ORDER" ->
      advance st;
      eat_kw st "BY";
      parse_comma_list st (fun st ->
          match peek st with
          | Ident c -> begin
            advance st;
            match peek st with
            | Kw "DESC" ->
              advance st;
              (c, Sort_order.Desc)
            | Kw "ASC" ->
              advance st;
              (c, Sort_order.Asc)
            | _ -> (c, Sort_order.Asc)
          end
          | t -> fail "expected a column in ORDER BY but found %s" (token_to_string t))
    | _ -> []
  in
  { distinct; items; tables; where; group_by; order_by }

(* Translation of one select block into the logical algebra. *)
let translate catalog (c : select_clause) : Logical.expr * Phys_prop.t =
  if c.tables = [] then fail "FROM clause is empty";
  List.iter
    (fun t -> if not (Catalog.mem catalog t) then fail "unknown table %S" t)
    c.tables;
  let schemas = List.map (fun t -> (Catalog.find catalog t).Catalog.schema) c.tables in
  let full_schema = List.fold_left Schema.concat [||] schemas in
  let resolve col =
    match Schema.resolve full_schema col with
    | name -> name
    | exception Not_found -> fail "unknown or ambiguous column %S" col
  in
  let rec resolve_expr (e : Expr.t) : Expr.t =
    match e with
    | Expr.Col c -> Expr.Col (resolve c)
    | Expr.Const _ -> e
    | Expr.Cmp (op, a, b) -> Expr.Cmp (op, resolve_expr a, resolve_expr b)
    | Expr.And (a, b) -> Expr.And (resolve_expr a, resolve_expr b)
    | Expr.Or (a, b) -> Expr.Or (resolve_expr a, resolve_expr b)
    | Expr.Not a -> Expr.Not (resolve_expr a)
    | Expr.Arith (op, a, b) -> Expr.Arith (op, numeric a, numeric b)
  (* An arithmetic operand must be a number: the evaluator raises on
     anything else, so the statement is rejected here instead. *)
  and numeric e =
    let e = resolve_expr e in
    (match e with
     | Expr.Col c -> begin
       match (Schema.find full_schema c).Schema.ty with
       | Schema.TInt | Schema.TFloat -> ()
       | Schema.TStr | Schema.TBool -> fail "arithmetic over non-numeric column %S" c
     end
     | Expr.Const (Value.Int _ | Value.Float _) | Expr.Arith _ -> ()
     | Expr.Const _ | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ ->
       fail "arithmetic over non-numeric operand %s" (Expr.to_string e));
    e
  in
  (* FROM: left-deep Cartesian spine; the optimizer pushes the WHERE
     conjuncts into join predicates and selections. *)
  let spine =
    match c.tables with
    | [] -> assert false
    | first :: rest ->
      List.fold_left
        (fun acc t -> Logical.join Expr.true_ acc (Logical.get t))
        (Logical.get first) rest
  in
  let filtered =
    match c.where with
    | None -> spine
    | Some pred -> Logical.select (resolve_expr pred) spine
  in
  (* Aggregation and projection. *)
  let items =
    match c.items with
    | [ Star ] -> `All
    | items ->
      `Items
        (List.map
           (function
             | Star -> fail "* must be the only select item"
             | Column col -> `Column (resolve col)
             | Aggregate (func, col, alias) ->
               let column = Option.map resolve col in
               let func_name =
                 match func with
                 | Logical.Count -> "count"
                 | Logical.Sum -> "sum"
                 | Logical.Min -> "min"
                 | Logical.Max -> "max"
                 | Logical.Avg -> "avg"
               in
               let alias =
                 match alias, column with
                 | Some a, _ -> a
                 | None, Some col ->
                   Printf.sprintf "%s_%s" func_name (Schema.base_name col)
                 | None, None -> "count"
               in
               `Agg { Logical.func; column; alias })
           items)
  in
  let aggs =
    match items with
    | `All -> []
    | `Items list -> List.filter_map (function `Agg a -> Some a | `Column _ -> None) list
  in
  let group_keys = List.map resolve c.group_by in
  let with_groups =
    if aggs = [] && group_keys = [] then filtered
    else begin
      let keys =
        if group_keys <> [] then group_keys
        else
          (* Aggregates without GROUP BY: grand total — grouping by the
             empty key list. *)
          []
      in
      (* Validate that plain columns are grouping keys. *)
      (match items with
       | `All -> fail "SELECT * cannot be combined with aggregates"
       | `Items list ->
         List.iter
           (function
             | `Column col when not (List.mem col keys) ->
               fail "column %S must appear in GROUP BY" col
             | `Column _ | `Agg _ -> ())
           list);
      Logical.group_by keys aggs filtered
    end
  in
  let projected =
    match items with
    | `All -> with_groups
    | `Items list ->
      let cols =
        List.map (function `Column col -> col | `Agg a -> a.Logical.alias) list
      in
      Logical.project cols with_groups
  in
  let order =
    List.map
      (fun (col, dir) ->
        let name =
          if aggs = [] then resolve col
          else begin
            (* After aggregation, order keys are either grouping keys
               (resolved) or aggregate aliases (kept as written). *)
            match Schema.resolve full_schema col with
            | n when List.mem n group_keys -> n
            | _ | (exception Not_found) -> col
          end
        in
        (name, dir))
      c.order_by
  in
  let required = { Phys_prop.any with order; distinct = c.distinct } in
  (projected, required)

let parse_text catalog (input : string) : statement =
  let st = { tokens = tokenize input } in
  let first = parse_select_clause st in
  let combined =
    match peek st with
    | Kw ("UNION" | "INTERSECT" | "EXCEPT") -> begin
      let kw = match peek st with Kw k -> k | _ -> assert false in
      advance st;
      let second = parse_select_clause st in
      let left, req1 = translate catalog first in
      let right, _ = translate catalog second in
      let combine =
        match kw with
        | "UNION" -> Logical.union
        | "INTERSECT" -> Logical.intersect
        | _ -> Logical.difference
      in
      (combine left right, req1)
    end
    | _ -> translate catalog first
  in
  (match peek st with
   | Sym ";" -> advance st
   | _ -> ());
  (match peek st with
   | Eof -> ()
   | t -> fail "unexpected trailing %s" (token_to_string t));
  let logical, required = combined in
  { logical; required }

(* ---------------------------------------------------------------------- *)
(* Statement memo                                                          *)
(* ---------------------------------------------------------------------- *)

(* A repeated text under an unchanged schema translates to the same
   statement: translation reads only which tables exist and their
   schemas. Each domain keeps the statements it parsed, keyed by the
   catalog's identity and the exact text, with the schema version they
   were translated under; a per-domain table needs no lock. Statements
   are immutable, so a hit hands back the stored one. Failures are not
   stored: a failing text re-parses, and raises, on every call.

   A text's first parse leaves only its key ([None]); the statement is
   kept from its second parse on. So a text parsed once, such as each
   statement a set-up serves against a fresh catalog, or each distinct
   statement of a search-heavy session, leaves no statement for the
   minor collector to promote. *)
module Memo = Hashtbl.Make (struct
  type t = int * string

  let equal ((u1, s1) : t) (u2, s2) = Int.equal u1 u2 && String.equal s1 s2

  let hash (k : t) = Hashtbl.hash k
end)

(* Reset when full: the entries that repeat come back after two misses
   each, and a stream of distinct texts holds a bounded heap. *)
let memo_capacity = 256

let memo : (int * statement option) Memo.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Memo.create 64)

let parse catalog input =
  let table = Domain.DLS.get memo in
  let key = (Catalog.uid catalog, input) in
  let version = Catalog.schema_version catalog in
  match Memo.find_opt table key with
  | Some (v, Some st) when v = version -> st
  | seen ->
    let st = parse_text catalog input in
    if Memo.length table >= memo_capacity then Memo.reset table;
    let kept = match seen with None -> None | Some _ -> Some st in
    Memo.replace table key (version, kept);
    st
