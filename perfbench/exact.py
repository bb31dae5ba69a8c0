"""The benchmark's own exact evaluation, independent of mvsynth's.

Outputs are judged here, never by the certificate the program attaches:

* descriptions are JSON documents (``{"vars": n, "expr": NODE}``),
  evaluated from the document itself;
* synthesized terms are walked through their public node attributes
  (``left``/``right``, ``child``, ``index``) and evaluated on a whole grid
  of points at once;
* term texts (check inputs) are parsed by a small parser of the term
  grammar, sugared connectives included.

Every value is an integer numerator over one common denominator D: with
points whose coordinates are multiples of 1/D, Lukasiewicz connectives and
integer affine forms give multiples of 1/D again, so no fraction is ever
reduced.  A single rational point is a grid of one, over the lcm of its
denominators.
"""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction
from itertools import product
from math import lcm

GRID_DENOMINATOR = 12
MAX_GRID_POINTS = 169


def grid_points(arity: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Numerators (over GRID_DENOMINATOR) of the check points for one
    output: the full grid when it is small, otherwise the cube's corners
    plus a seeded sample of the grid."""
    axis = range(GRID_DENOMINATOR + 1)
    if (GRID_DENOMINATOR + 1) ** arity <= MAX_GRID_POINTS:
        return list(product(axis, repeat=arity))
    corners = list(product((0, GRID_DENOMINATOR), repeat=arity))
    sample = {tuple(rng.choice(axis) for _ in range(arity)) for _ in range(MAX_GRID_POINTS)}
    return corners + sorted(sample - set(corners))


# --- descriptions -------------------------------------------------------------

def description_values(doc: dict, points: list[tuple[int, ...]], den: int) -> list[int]:
    """Numerators over ``den`` of the description at integer-numerator
    points; exact because coefficients are integers."""

    def node(spec) -> list[int]:
        (key, value), = spec.items()
        if key == "affine":
            c0 = value["constant"] * den
            coeffs = value["coeffs"]
            return [c0 + sum(a * k for a, k in zip(coeffs, p)) for p in points]
        kids = [node(child) for child in value]
        pick = min if key == "min" else max
        return [pick(vals) for vals in zip(*kids)]

    return node(doc["expr"])


# --- synthesized term DAGs -------------------------------------------------------

def _kind(node, zero, one) -> str:
    if node is zero:
        return "0"
    if node is one:
        return "1"
    if hasattr(node, "left"):
        return "oplus"
    if hasattr(node, "child"):
        return "neg"
    if hasattr(node, "index"):
        return "var"
    raise TypeError(f"unknown term node {type(node).__name__}")


def postorder(root, zero, one) -> list[tuple[object, str]]:
    """Distinct DAG nodes, children before parents, with their kinds."""
    order: list[tuple[object, str]] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        kind = _kind(node, zero, one)
        if expanded or kind in ("0", "1", "var"):
            seen.add(id(node))
            order.append((node, kind))
            continue
        stack.append((node, True))
        if kind == "oplus":
            stack.append((node.right, False))
            stack.append((node.left, False))
        else:
            stack.append((node.child, False))
    return order


def term_profile(root, zero, one) -> dict:
    """Tree nodes, DAG nodes, oplus depth and a structural digest of a
    synthesized term, computed from its node attributes alone."""
    size: dict[int, int] = {}
    depth: dict[int, int] = {}
    digest: dict[int, bytes] = {}
    order = postorder(root, zero, one)
    for node, kind in order:
        key = id(node)
        if kind == "oplus":
            left, right = id(node.left), id(node.right)
            size[key] = 1 + size[left] + size[right]
            depth[key] = 1 + max(depth[left], depth[right])
            payload = b"o" + digest[left] + digest[right]
        elif kind == "neg":
            child = id(node.child)
            size[key] = 1 + size[child]
            depth[key] = depth[child]
            payload = b"n" + digest[child]
        else:
            size[key] = 1
            depth[key] = 0
            payload = (b"v%d" % node.index) if kind == "var" else kind.encode()
        digest[key] = hashlib.blake2b(payload, digest_size=16).digest()
    top = id(root)
    return {
        "tree_nodes": size[top],
        "dag_nodes": len(order),
        "oplus_depth": depth[top],
        "digest": digest[top].hex(),
    }


def term_values(root, zero, one, points: list[tuple[int, ...]], den: int) -> list[int]:
    """Numerators over ``den`` of a synthesized term at every point."""
    full = [den] * len(points)
    vals: dict[int, list[int]] = {}
    for node, kind in postorder(root, zero, one):
        if kind == "oplus":
            a, b = vals[id(node.left)], vals[id(node.right)]
            out = [x + y if x + y < den else den for x, y in zip(a, b)]
        elif kind == "neg":
            out = [den - x for x in vals[id(node.child)]]
        elif kind == "var":
            out = [p[node.index - 1] for p in points]
        else:
            out = full if kind == "1" else [0] * len(points)
        vals[id(node)] = out
    return vals[id(root)]


# --- term texts -------------------------------------------------------------------

_TOKEN = re.compile(r"[()]|[a-z]+|\d+")
_BINARY = {"oplus", "otimes", "ominus", "wedge", "vee", "dist"}


def parse_text(text: str):
    """Nested tuples of a term text: ``("0",)``, ``("var", i)``,
    ``(op, child...)``."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def term():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok in ("0", "1"):
            return (tok,)
        if tok != "(":
            raise ValueError(f"unexpected token {tok!r}")
        op = tokens[pos]
        pos += 1
        if op == "var":
            out = ("var", int(tokens[pos]))
            pos += 1
        elif op == "neg":
            out = ("neg", term())
        elif op in _BINARY:
            out = (op, term(), term())
        else:
            raise ValueError(f"unknown connective {op!r}")
        if tokens[pos] != ")":
            raise ValueError("expected ')'")
        pos += 1
        return out

    out = term()
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return out


def text_values(tree, points: list[tuple[int, ...]], den: int) -> list[int]:
    """Numerators over ``den`` of a parsed term text at every point."""
    op = tree[0]
    if op == "0":
        return [0] * len(points)
    if op == "1":
        return [den] * len(points)
    if op == "var":
        return [p[tree[1] - 1] for p in points]
    if op == "neg":
        return [den - x for x in text_values(tree[1], points, den)]
    a, b = text_values(tree[1], points, den), text_values(tree[2], points, den)
    if op == "oplus":
        return [min(den, x + y) for x, y in zip(a, b)]
    if op == "otimes":
        return [max(0, x + y - den) for x, y in zip(a, b)]
    if op == "ominus":
        return [max(0, x - y) for x, y in zip(a, b)]
    if op == "wedge":
        return [min(x, y) for x, y in zip(a, b)]
    if op == "vee":
        return [max(x, y) for x, y in zip(a, b)]
    return [abs(x - y) for x, y in zip(a, b)]  # dist


def side_values(side: dict, points: list[tuple[int, ...]], den: int) -> list[int]:
    """Numerators over ``den`` of one check operand at every point."""
    if side["ext"] == ".term":
        return text_values(parse_text(side["text"]), points, den)
    return description_values(side["doc"], points, den)


def side_at(side: dict, point: tuple[Fraction, ...]) -> Fraction:
    """Exact value of one check operand at a rational point."""
    den = lcm(*(x.denominator for x in point))
    nums = tuple(int(x * den) for x in point)
    return Fraction(side_values(side, [nums], den)[0], den)


def parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(tok) for tok in text.split(","))
