(** A small SQL front end: the "parser" step the paper presumes exists
    in front of a generated optimizer ("the translation from a user
    interface into a logical algebra expression must be performed by the
    parser", §2.2).

    Supported grammar (one level of set operations between two select
    blocks):

    {v
    query    ::= select [ (UNION | INTERSECT | EXCEPT) select ]
    select   ::= SELECT [DISTINCT] items FROM name {, name}
                 [WHERE pred] [GROUP BY cols] [ORDER BY col [DESC] {, ...}]
    items    ::= * | item {, item}
    item     ::= column | agg '(' column-or-star ')' [AS ident]
    pred     ::= disjunctions/conjunctions/NOT over comparisons
                 of columns, integers, floats and 'strings'
    v} *)

exception Parse_error of string
(** Raised with a message pointing at the offending token. *)

type statement = {
  logical : Relalg.Logical.expr;
  required : Relalg.Phys_prop.t;
      (** physical requirements from ORDER BY / DISTINCT *)
}

val parse : Catalog.t -> string -> statement
(** Parse and translate one SQL statement against a catalog (used to
    resolve unqualified column names, validate table names and check
    that arithmetic operands are numeric).

    From its third parse on, a text returns the statement its second
    parse returned, the same immutable value, for as long as the
    catalog's {!Catalog.schema_version} is unchanged: a first parse
    keeps only the text's key, so a text parsed once leaves no
    statement behind. Each domain memoizes the statements it parsed,
    keyed by {!Catalog.uid} and the exact text, in a table of fixed
    capacity that is emptied when full. Statistics refreshes and new
    indexes keep the entries; adding or removing a table drops them. A
    text that fails is not memoized.
    @raise Parse_error on any syntactic, naming or typing problem. *)
