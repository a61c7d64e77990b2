"""Expression trees for the parser's oracles: ("num", c >= 0), ("var",
name), ("sum", ((sign, tree), ...)), ("prod", (tree, ...)) and ("pow",
tree, k), printed as the parser reads them and evaluated over Fraction
without the library."""

import math
from fractions import Fraction

from hypothesis import strategies as st


def _extend_expression(children):
    signed = st.tuples(st.sampled_from([1, -1]), children)
    return st.one_of(
        st.lists(signed, min_size=1, max_size=4).map(lambda parts: ("sum", tuple(parts))),
        st.lists(children, min_size=2, max_size=3).map(lambda factors: ("prod", tuple(factors))),
        st.tuples(st.just("pow"), children, st.integers(0, 4)),
        # a summand and its negation, which cancel to zero
        st.tuples(signed, children).map(lambda t: ("sum", (t[0], (1, t[1]), (-t[0][0], t[0][1])))),
    )


expression_trees = st.recursive(
    st.one_of(
        st.fractions(min_value=0, max_value=50, max_denominator=12).map(lambda c: ("num", c)),
        st.sampled_from([("var", "x"), ("var", "y")]),
    ),
    _extend_expression,
    max_leaves=8,
)


def expression_text(tree) -> str:
    """The tree as typed: every sum and every power base in parentheses."""
    kind = tree[0]
    if kind == "num":
        return str(tree[1])
    if kind == "var":
        return tree[1]
    if kind == "pow":
        return f"({expression_text(tree[1])})^{tree[2]}"
    if kind == "prod":
        return "*".join(expression_text(factor) for factor in tree[1])
    text = ""
    for n, (sign, part) in enumerate(tree[1]):
        text += ("-" if sign < 0 else "") if n == 0 else (" - " if sign < 0 else " + ")
        text += expression_text(part)
    return f"({text})"


def expression_value(tree, x: Fraction, y: Fraction) -> Fraction:
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "var":
        return x if tree[1] == "x" else y
    if kind == "pow":
        return expression_value(tree[1], x, y) ** tree[2]
    if kind == "prod":
        return math.prod((expression_value(factor, x, y) for factor in tree[1]), start=Fraction(1))
    return sum((sign * expression_value(part, x, y) for sign, part in tree[1]), Fraction(0))


def expression_degree(tree) -> int:
    """An upper bound of every degree the parser's budget sees in the tree."""
    kind = tree[0]
    if kind in ("num", "var"):
        return int(kind == "var")
    if kind == "pow":
        return max(expression_degree(tree[1]), 1) * tree[2]
    degrees = [expression_degree(part if kind == "prod" else part[1]) for part in tree[1]]
    return sum(degrees) if kind == "prod" else max(degrees)
