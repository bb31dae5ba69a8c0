"""Command-line front end: synthesize, evaluate, and compare.

Commands
--------
synth  --input FILE [--mode crt|direct] [--verify] [--stats]
       [--output FILE] [--cap N]
eval   --term FILE --point "r1,r2,..."
check  --left FILE --right FILE --vars N

An eval point is comma-separated rationals, each an integer, ``p/q`` or a
decimal; exponent notation (``1e-3``) is rejected.

Exit codes: 0 success (check: functions equal), 1 check found a
difference, 2 malformed input (including a file that is not UTF-8 text,
a description nested too deeply to parse, --cap below 1, a --output
path that cannot be written, an eval point in exponent notation, or an
eval value too long to print), 3 invalid description / bad evaluation
domain, 4 a synthesis limit was exceeded: the least membership multiplier
exceeds --cap, or the term has more than ``MAX_TREE_NODES`` (10,000,000)
tree nodes and is too large to print, 5 internal error (a bug, such
as a failed final certificate; one ``internal error:`` line on stderr,
never a traceback).  Results go to stdout, diagnostics to stderr; all
output is deterministic.

``main(argv)`` may be called repeatedly in one process: it returns the
exit code, builds its parser once (``build_parser`` is cached), and
raises ``SystemExit(2)`` on a usage error.

Description files are JSON: ``{"vars": n, "expr": NODE}`` where NODE is
``{"affine": {"constant": INT, "coeffs": [INT x n]}}``, ``{"min": [NODE,
...]}`` or ``{"max": [NODE, ...]}`` (arrays non-empty, integers only,
unknown keys rejected).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .crt import (
    DEFAULT_CAP,
    SynthesisTrace,
    synthesize_crt,
    synthesize_direct,
)
from .errors import (
    CapExceededError,
    DescriptionError,
    DomainError,
    InvalidDescriptionError,
    NotCongruentError,
    TermSyntaxError,
)
from .pwl import Leaf, MaxOf, MinOf, PwlExpr, function_eq
from .geometry import affine
from .terms import (
    eval_term,
    max_var_index,
    parse_term,
    print_term,
    term_node_count,
    term_oplus_depth,
)

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_MALFORMED = 2
EXIT_INVALID = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5

# synth prints a term as a tree, whose size can be exponential in its DAG
# size; above this many tree nodes it exits 4 instead of printing.
MAX_TREE_NODES = 10_000_000


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def description_from_obj(obj) -> tuple[int, PwlExpr]:
    """Validate a parsed JSON document and build the lattice expression."""
    if not isinstance(obj, dict) or set(obj.keys()) != {"vars", "expr"}:
        raise DescriptionError('top level must be {"vars": n, "expr": NODE}')
    arity = obj["vars"]
    if not _is_int(arity) or arity < 1:
        raise DescriptionError('"vars" must be an integer >= 1')

    def node(spec, path: str) -> PwlExpr:
        if not isinstance(spec, dict) or len(spec) != 1:
            raise DescriptionError(f"{path}: expected a single-key object")
        key, value = next(iter(spec.items()))
        if key == "affine":
            if not isinstance(value, dict) or set(value.keys()) != {
                "constant",
                "coeffs",
            }:
                raise DescriptionError(
                    f'{path}.affine: expected {{"constant": INT, "coeffs": [INT]}}'
                )
            constant = value["constant"]
            coeffs = value["coeffs"]
            if not _is_int(constant):
                raise DescriptionError(f"{path}.affine.constant: integer required")
            if (
                not isinstance(coeffs, list)
                or len(coeffs) != arity
                or not all(_is_int(c) for c in coeffs)
            ):
                raise DescriptionError(
                    f"{path}.affine.coeffs: expected {arity} integers"
                )
            return Leaf(affine(constant, coeffs))
        if key in ("min", "max"):
            if not isinstance(value, list) or not value:
                raise DescriptionError(f"{path}.{key}: expected a non-empty array")
            children = tuple(
                node(child, f"{path}.{key}[{i}]") for i, child in enumerate(value)
            )
            return MinOf(children) if key == "min" else MaxOf(children)
        raise DescriptionError(f"{path}: unknown node kind {key!r}")

    return arity, node(obj["expr"], "expr")


def load_description(path: str) -> tuple[int, PwlExpr]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return description_from_obj(json.load(fh))
        except json.JSONDecodeError as ex:
            raise DescriptionError(f"invalid JSON: {ex}") from ex
        except RecursionError as ex:
            # Both the JSON decoder and the schema walk recurse once per
            # nesting level; an over-deep document is malformed input.
            raise DescriptionError("description nested too deeply") from ex


def _point_str(point) -> str:
    return ",".join(str(c) for c in point)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _run_synth(args) -> int:
    if args.cap < 1:
        return _fail("error: --cap must be >= 1", EXIT_MALFORMED)
    try:
        arity, description = load_description(args.input)
    except (DescriptionError, OSError, UnicodeDecodeError) as ex:
        return _fail(f"error: {ex}", EXIT_MALFORMED)
    trace = SynthesisTrace()
    try:
        if args.mode == "crt":
            term = synthesize_crt(description, cap=args.cap, trace=trace)
        else:
            term = synthesize_direct(description)
    except InvalidDescriptionError as ex:
        detail = f"invalid description: {ex}"
        if ex.witness is not None:
            detail += f" (witness {_point_str(ex.witness)})"
        return _fail(detail, EXIT_INVALID)
    except NotCongruentError as ex:
        return _fail(
            f"invalid description: region terms not congruent at "
            f"{_point_str(ex.witness)}",
            EXIT_INVALID,
        )
    except CapExceededError as ex:
        return _fail(f"error: {ex}", EXIT_CAP)
    # Certification runs inside the synthesizers (--verify documents the
    # default; there is deliberately no way to turn it off here).
    nodes = term_node_count(term)
    if nodes > MAX_TREE_NODES:
        return _fail(
            f"error: the term has {nodes} tree nodes, more than the "
            f"{MAX_TREE_NODES} that synth prints",
            EXIT_CAP,
        )
    text = print_term(term) + "\n"
    if args.stats:
        print(
            f"nodes={nodes} "
            f"oplus_depth={term_oplus_depth(term)} "
            f"regions={len(trace.groups)} "
            f"max_bound={trace.max_bound}",
            file=sys.stderr,
        )
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as ex:
            return _fail(f"error: cannot write output: {ex}", EXIT_MALFORMED)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _coordinate(token: str) -> Fraction:
    """One eval coordinate: an integer, ``p/q`` or a decimal.  Exponent
    notation is refused before ``Fraction`` would build ``10**N``."""
    if "e" in token.lower():
        raise ValueError(f"exponent notation not accepted: {token!r}")
    return Fraction(token)


def _run_eval(args) -> int:
    try:
        with open(args.term, "r", encoding="utf-8") as fh:
            term = parse_term(fh.read())
    except (TermSyntaxError, OSError, UnicodeDecodeError) as ex:
        return _fail(f"error: {ex}", EXIT_MALFORMED)
    try:
        coords = [_coordinate(tok) for tok in args.point.split(",")] if args.point else []
    except (ValueError, ZeroDivisionError) as ex:
        return _fail(f"error: bad point: {ex}", EXIT_MALFORMED)
    try:
        value = eval_term(term, coords)
    except DomainError as ex:
        return _fail(f"error: {ex}", EXIT_INVALID)
    try:
        text = str(value)
    except ValueError as ex:  # past the interpreter's int-to-str digit limit
        return _fail(f"error: cannot print value: {ex}", EXIT_MALFORMED)
    print(text)
    return EXIT_OK


def _load_side(path: str, arity: int):
    """A term or a description, selected by file extension."""
    if path.endswith(".term"):
        with open(path, "r", encoding="utf-8") as fh:
            term = parse_term(fh.read())
        if max_var_index(term) > arity:
            raise DescriptionError(
                f"{path}: term uses more than {arity} variables"
            )
        return term
    if path.endswith(".json"):
        file_arity, description = load_description(path)
        if file_arity != arity:
            raise DescriptionError(
                f"{path}: description declares {file_arity} variables, expected {arity}"
            )
        return description
    raise DescriptionError(f"{path}: expected a .term or .json file")


def _run_check(args) -> int:
    if args.vars < 1:
        return _fail("error: --vars must be >= 1", EXIT_MALFORMED)
    try:
        left = _load_side(args.left, args.vars)
        right = _load_side(args.right, args.vars)
    except (DescriptionError, TermSyntaxError, OSError, UnicodeDecodeError) as ex:
        return _fail(f"error: {ex}", EXIT_MALFORMED)
    verdict = function_eq(left, right, args.vars)
    if verdict:
        print("EQUAL")
        return EXIT_OK
    print(f"DIFFER at {_point_str(verdict.witness)}")
    return EXIT_DIFFER


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one definition of the command line.  Cached: every ``main``
    call in a process parses with the same parser, which keeps no state
    between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="mvsynth",
        description="Compile piecewise-linear descriptions on the unit cube "
        "into many-valued logic terms, with exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a term from a description")
    p_synth.add_argument("--input", required=True, help="description JSON file")
    p_synth.add_argument("--mode", choices=("crt", "direct"), default="crt")
    p_synth.add_argument(
        "--verify",
        action="store_true",
        help="certify the output against the input (always on; flag "
        "documents intent)",
    )
    p_synth.add_argument("--stats", action="store_true", help="print size/region stats to stderr")
    p_synth.add_argument("--output", help="write the term here instead of stdout")
    p_synth.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        help=f"fail when the least gluing multiplier exceeds N, at least 1 "
        f"(default {DEFAULT_CAP})",
    )
    p_synth.set_defaults(run=_run_synth)

    p_eval = sub.add_parser("eval", help="evaluate a term at a rational point")
    p_eval.add_argument("--term", required=True, help="term text file")
    p_eval.add_argument(
        "--point", required=True, help='comma-separated rationals, e.g. "1/3,2/5"'
    )
    p_eval.set_defaults(run=_run_eval)

    p_check = sub.add_parser("check", help="decide function equality of two inputs")
    p_check.add_argument("--left", required=True)
    p_check.add_argument("--right", required=True)
    p_check.add_argument("--vars", required=True, type=int)
    p_check.set_defaults(run=_run_check)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  May be called repeatedly
    in one process; the parser is built on the first call only.  A usage
    error raises ``SystemExit(2)`` (``--help`` raises ``SystemExit(0)``)."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as ex:  # a bug: exit 1 would read as a check verdict
        message = " ".join(f"{type(ex).__name__}: {ex}".split())
        return _fail(f"internal error: {message}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
