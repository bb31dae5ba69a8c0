"""Many-valued logic terms: syntax trees, exact evaluation, text I/O.

The core connectives are ``0``, ``1``, ``(var i)``, ``(neg t)`` and
``(oplus s t)``.  The derived connectives ``otimes`` (strong conjunction),
``ominus`` (truncated difference), ``wedge``/``vee`` (lattice meet/join)
and ``dist`` (symmetric difference) expand into the core at construction
time:

    a otimes b = neg(neg a oplus neg b)     a ominus b = neg(neg a oplus b)
    a vee b    = (a ominus b) oplus b       a wedge b  = neg(neg a vee neg b)
    dist(a, b) = (a ominus b) oplus (b ominus a)

The expansions fold by exact MV-algebra identities, so they never build
a double negation or a negated constant: each negation they apply to an
operand folds neg(neg t) = t, neg 0 = 1 and neg 1 = 0, and constant
operands fold (a otimes 1 = a, a otimes 0 = 0, a ominus 0 = a,
0 ominus b = a ominus 1 = 0, 1 ominus b = neg b, a vee 0 = a,
a vee 1 = 1, and the same with the operands of otimes and vee swapped).
The core factories `neg` and `oplus` build exactly the node asked for,
so core text parses and prints back unchanged.

Evaluation is exact: it runs on integer numerators over the
point's common denominator and returns a `fractions.Fraction`; on the
unit cube a term always evaluates into [0, 1].

Every node is interned: structurally equal terms are the same object, so
equality and hashing are O(1) and large terms share subtrees freely.
Terms are immutable; sharing is never observable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence, Union

from .errors import DomainError, TermSyntaxError

Rational = Union[int, Fraction]


class Term:
    """Base class for interned term nodes.  Build terms with the module
    factories (`var`, `neg`, `oplus`, ...), never by calling the node
    classes directly.

    ``max_var`` is the largest variable index in the term (0 if none),
    set once by the constructor from the children's, so checking a term
    against an arity does not walk it."""

    __slots__ = ("max_var",)

    def __init__(self):
        object.__setattr__(self, "max_var", 0)

    def __setattr__(self, name, value):
        raise AttributeError("Term nodes are immutable")

    def __repr__(self) -> str:
        text = print_term(self)
        if len(text) > 72:
            text = text[:69] + "..."
        return f"<Term {text}>"


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Var(Term):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "max_var", index)
        object.__setattr__(self, "index", index)


class Neg(Term):
    __slots__ = ("child",)

    def __init__(self, child: Term):
        object.__setattr__(self, "max_var", child.max_var)
        object.__setattr__(self, "child", child)


class Oplus(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        lm, rm = left.max_var, right.max_var
        object.__setattr__(self, "max_var", lm if lm > rm else rm)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


ZERO: Term = Zero()
ONE: Term = One()

# Node ids are stable keys: the intern table keeps every node alive, so
# children referenced by id can never be collected and recycled.
_interned: dict[tuple, Term] = {}


def _intern(key: tuple, cls, *args) -> Term:
    """The interned node for ``key``, built from ``args`` on first use."""
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = cls(*args)
    return node


def _require_term(t) -> Term:
    if not isinstance(t, Term):
        raise TypeError(f"expected a Term, got {type(t).__name__}")
    return t


def var(index: int) -> Term:
    if isinstance(index, bool) or not isinstance(index, int) or index < 1:
        raise DomainError(f"variable index must be an integer >= 1, got {index!r}")
    return _intern(("v", index), Var, index)


def neg(child: Term) -> Term:
    _require_term(child)
    return _intern(("n", id(child)), Neg, child)


def oplus(left: Term, right: Term) -> Term:
    _require_term(left)
    _require_term(right)
    return _intern(("o", id(left), id(right)), Oplus, left, right)


def _neg(t: Term) -> Term:
    """Negation that folds ``neg(neg(u)) = u`` and swaps the constants."""
    if isinstance(t, Neg):
        return t.child
    if t is ZERO:
        return ONE
    if t is ONE:
        return ZERO
    return neg(t)


def otimes(a: Term, b: Term) -> Term:
    if a is ONE or b is ZERO:
        return b
    if b is ONE or a is ZERO:
        return a
    return neg(oplus(_neg(a), _neg(b)))


def ominus(a: Term, b: Term) -> Term:
    if b is ZERO:
        return a
    if a is ZERO or b is ONE:
        return ZERO
    if a is ONE:
        return _neg(b)
    return neg(oplus(_neg(a), b))


def vee(a: Term, b: Term) -> Term:
    if a is ZERO or b is ONE:
        return b
    if b is ZERO or a is ONE:
        return a
    return oplus(ominus(a, b), b)


def wedge(a: Term, b: Term) -> Term:
    return _neg(vee(_neg(a), _neg(b)))


def dist(a: Term, b: Term) -> Term:
    return oplus(ominus(a, b), ominus(b, a))


_DERIVED: dict[str, Callable[[Term, Term], Term]] = {
    "otimes": otimes,
    "ominus": ominus,
    "wedge": wedge,
    "vee": vee,
    "dist": dist,
}


def expand_derived(connective: str, args: Sequence[Term]) -> Term:
    """Expand a derived connective into a core term, folding constants
    and double negations as the module docstring lists."""
    fn = _DERIVED.get(connective)
    if fn is None:
        raise ValueError(f"unknown derived connective {connective!r}")
    if len(args) != 2:
        raise ValueError(f"{connective} takes 2 arguments, got {len(args)}")
    return fn(args[0], args[1])


def iterate_oplus(m: int, t: Term) -> Term:
    """Left-associated oplus of m copies of t; evaluates to min(1, m*t)."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise DomainError(f"repeat count must be an integer >= 1, got {m!r}")
    _require_term(t)
    out = t
    for _ in range(m - 1):
        out = oplus(out, t)
    return out


def as_point(coords: Iterable[Rational]) -> tuple[Fraction, ...]:
    """Coerce coordinates to exact Fractions and check they lie in [0, 1]."""
    pt = []
    for c in coords:
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise DomainError(f"coordinates must be exact rationals, got {c!r}")
        q = Fraction(c)
        if q < 0 or q > 1:
            raise DomainError(f"coordinate {q} lies outside [0, 1]")
        pt.append(q)
    return tuple(pt)


def eval_term(t: Term, point: Sequence[Rational]) -> Fraction:
    """Evaluate a term at a rational point of the unit cube, exactly.

    Runs on integer numerators over D, the common denominator of the
    point's coordinates: ``0`` is 0, ``1`` is D, ``(neg t)`` is D - t and
    ``(oplus s t)`` is min(D, s + t).  Every value of a term at the point
    is a multiple of 1/D, so this is exact; the result is the Fraction
    v/D.  Iterative over the term DAG, so arbitrarily deep shared terms
    are fine.
    """
    _require_term(t)
    pt = as_point(point)
    n = len(pt)
    den = lcm(*(q.denominator for q in pt))

    def step(node, vals):
        if isinstance(node, Oplus):
            s = vals[0] + vals[1]
            return s if s < den else den
        if isinstance(node, Neg):
            return den - vals[0]
        if isinstance(node, Var):
            if node.index > n:
                raise DomainError(
                    f"term uses (var {node.index}) but the point has {n} coordinates"
                )
            q = pt[node.index - 1]
            return q.numerator * (den // q.denominator)
        return den if isinstance(node, One) else 0

    return Fraction(_fold(t, step), den)


# --- text format ------------------------------------------------------------

_TOKEN_RE = re.compile(r"[()]|[a-z]+|\d+")
_OPS = {"var", "neg", "oplus", "otimes", "ominus", "wedge", "vee", "dist"}


def parse_term(text: str) -> Term:
    """Parse the term grammar; derived connectives expand to core nodes
    (folded, see `expand_derived`), core connectives stay literal.

    Grammar (whitespace-insensitive between tokens)::

        term := "0" | "1" | "(var" INT ")" | "(neg" term ")"
              | "(" BINOP term term ")"      BINOP in {oplus, otimes,
                                             ominus, wedge, vee, dist}
    """
    tokens: list[tuple[str, int]] = []
    last = 0

    def check_gap(gap: str, start: int):
        stripped = gap.lstrip()
        if stripped:
            at = start + len(gap) - len(stripped)
            raise TermSyntaxError(f"unexpected character {stripped[0]!r}", at)

    for match in _TOKEN_RE.finditer(text):
        check_gap(text[last:match.start()], last)
        tokens.append((match.group(), match.start()))
        last = match.end()
    check_gap(text[last:], last)

    frames: list[list] = []  # each frame: [opname, offset, arg, ...]
    result: Term | None = None

    def deliver(value, at: int):
        nonlocal result
        if frames:
            frames[-1].append(value)
        elif result is None:
            result = value
        else:
            raise TermSyntaxError("unexpected extra term", at)

    i = 0
    while i < len(tokens):
        tok, at = tokens[i]
        if tok == "(":
            if i + 1 >= len(tokens) or tokens[i + 1][0] not in _OPS:
                raise TermSyntaxError("expected an operator after '('", at)
            frames.append([tokens[i + 1][0], at])
            i += 2
            continue
        if tok == ")":
            if not frames:
                raise TermSyntaxError("unbalanced ')'", at)
            op, at0, *args = frames.pop()
            deliver(_reduce(op, args, at0), at)
        elif tok.isdigit():
            if frames and frames[-1][0] == "var" and len(frames[-1]) == 2:
                if int(tok) < 1:
                    raise TermSyntaxError("variable index must be >= 1", at)
                frames[-1].append(int(tok))
            elif tok == "0":
                deliver(ZERO, at)
            elif tok == "1":
                deliver(ONE, at)
            else:
                raise TermSyntaxError(f"bare integer {tok!r} is not a term", at)
        else:
            raise TermSyntaxError(f"unexpected token {tok!r}", at)
        i += 1

    if frames:
        raise TermSyntaxError("missing ')'", frames[-1][1])
    if result is None:
        raise TermSyntaxError("empty input", len(text))
    return result


def _reduce(op: str, args: list, at: int) -> Term:
    if op == "var":
        if len(args) != 1 or not isinstance(args[0], int):
            raise TermSyntaxError("var expects a single integer index", at)
        return var(args[0])
    if not all(isinstance(a, Term) for a in args):
        raise TermSyntaxError(f"{op} expects term arguments", at)
    if op == "neg":
        if len(args) != 1:
            raise TermSyntaxError("neg expects one argument", at)
        return neg(args[0])
    if len(args) != 2:
        raise TermSyntaxError(f"{op} expects two arguments", at)
    if op == "oplus":
        return oplus(args[0], args[1])
    return expand_derived(op, args)


def print_term(t: Term) -> str:
    """Print a term using core connectives only, single-space separated."""
    _require_term(t)
    parts: list[str] = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Zero):
            parts.append("0")
        elif isinstance(node, One):
            parts.append("1")
        elif isinstance(node, Var):
            parts.append(f"(var {node.index})")
        elif isinstance(node, Neg):
            parts.append("(neg ")
            stack.append(")")
            stack.append(node.child)
        else:
            parts.append("(oplus ")
            stack.append(")")
            stack.append(node.right)
            stack.append(" ")
            stack.append(node.left)
    return "".join(parts)


# --- structural measurements (all DAG-memoized, tree-valued) ----------------

def term_node_count(t: Term) -> int:
    """Number of nodes of the term as a tree (shared subtrees counted
    once per occurrence), as an exact integer."""
    return _fold(t, lambda node, vals: 1 + sum(vals))


def term_oplus_depth(t: Term) -> int:
    """Maximum number of oplus nodes along any root-to-leaf path."""

    def step(node, vals):
        d = max(vals, default=0)
        return d + 1 if isinstance(node, Oplus) else d

    return _fold(t, step)


def max_var_index(t: Term) -> int:
    """Largest variable index occurring in the term; 0 if none."""
    return _require_term(t).max_var


def _children(node: Term) -> tuple[Term, ...]:
    if isinstance(node, Neg):
        return (node.child,)
    if isinstance(node, Oplus):
        return (node.left, node.right)
    return ()


_POST = object()  # stack marker: the node below it is ready to fold


def _fold(root, step, children=_children):
    """Post-order reduction of a DAG: ``step(node, child values)`` runs
    once per distinct node (by identity), leftmost child first, on an
    explicit stack, so depth is not limited by the recursion limit.
    ``children`` defaults to the term connectives; any other DAG (a
    lattice expression) passes its own."""
    if children is _children:
        _require_term(root)
    memo: dict[int, object] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node is _POST:
            node = stack.pop()
            memo[id(node)] = step(node, [memo[id(k)] for k in children(node)])
        elif id(node) not in memo:
            stack += (node, _POST)
            stack += reversed(children(node))
    return memo[id(root)]
