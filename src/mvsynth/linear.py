"""Terms for truncated integer affine forms.

`linear_term(g)` builds a term whose function is the clamp median(0, g, 1)
of an integer-coefficient affine form.  The construction recurses on the
total coefficient mass: peeling one occurrence of a variable x off g uses

    clamp(g + x)  =  clamp(g)  oplus  (x otimes clamp(g + 1))

and peeling ``-x`` rewrites ``g - x = (g - 1) + (1 - x)`` to apply the
same step to the negated literal.  Both identities are checked per output
by an exact equality certificate, not assumed.
"""

from __future__ import annotations

from .errors import CertificationError, DomainError
from .geometry import AffineForm
from .pwl import function_eq, truncate_affine
from .terms import Term, ZERO, ONE, neg, oplus, otimes, var

_MEMO: dict[tuple, Term] = {}


def linear_term(form: AffineForm) -> Term:
    """A term evaluating to median(0, g, 1) everywhere on the cube.

    Requires integer constant and coefficients.  The output is checked
    against `truncate_affine` before being returned; a failure would be a
    construction bug, reported as `CertificationError`.
    """
    if form.arity < 1:
        raise DomainError("affine form must have arity >= 1")
    if not form.is_integral:
        raise DomainError("linear_term requires integer constant and coefficients")
    c0 = int(form.constant)
    coeffs = tuple(int(c) for c in form.coeffs)
    term = _build(c0, coeffs)
    verdict = function_eq(term, truncate_affine(form), form.arity)
    if not verdict:
        raise CertificationError(
            "constructed term disagrees with the clamped form", verdict.witness
        )
    return term


def _build(c0: int, coeffs: tuple[int, ...]) -> Term:
    key = (c0, coeffs)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit

    lo = c0 + sum(c for c in coeffs if c < 0)
    hi = c0 + sum(c for c in coeffs if c > 0)
    if hi <= 0:
        term = ZERO
    elif lo >= 1:
        term = ONE
    elif c0 == 0 and sum(map(abs, coeffs)) == 1 and 1 in coeffs:
        term = var(coeffs.index(1) + 1)
    elif c0 == 1 and sum(map(abs, coeffs)) == 1 and -1 in coeffs:
        term = neg(var(coeffs.index(-1) + 1))
    else:
        i = next(k for k, c in enumerate(coeffs) if c)
        if coeffs[i] > 0:
            rest = coeffs[:i] + (coeffs[i] - 1,) + coeffs[i + 1:]
            term = oplus(
                _build(c0, rest),
                otimes(var(i + 1), _build(c0 + 1, rest)),
            )
        else:
            rest = coeffs[:i] + (coeffs[i] + 1,) + coeffs[i + 1:]
            term = oplus(
                _build(c0 - 1, rest),
                otimes(neg(var(i + 1)), _build(c0, rest)),
            )
    return _MEMO.setdefault(key, term)
