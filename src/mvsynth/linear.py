"""Terms for truncated integer affine forms.

`linear_term(g)` builds a term whose function is the clamp median(0, g, 1)
of an integer-coefficient affine form, by binary expansion of the
coefficients on an explicit stack.  When every coefficient is even, g is
2w or 2w - 1 for the form w with halved coefficients, and with
h = clamp(w) (for every real w)

    clamp(2w)  =  h oplus h        clamp(2w - 1)  =  h otimes h

Otherwise one unit is peeled off the first odd coefficient, which makes
it even: peeling an occurrence of a variable x off g uses

    clamp(g + x)  =  clamp(g)  oplus  (x otimes clamp(g + 1))

and peeling ``-x`` rewrites ``g - x = (g - 1) + (1 - x)`` to apply the
same step to the negated literal.  A path from the root peels at most
once per one bit of the coefficients and halves once per bit of the
largest, so the depth is O(arity * log mass).  All identities are
checked per output by an exact equality certificate, not assumed.
"""

from __future__ import annotations

from .errors import CertificationError, DomainError
from .geometry import AffineForm
from .pwl import _record_lemma, function_eq, truncate_affine
from .terms import Term, ZERO, ONE, neg, oplus, otimes, var

_MEMO: dict[tuple, Term] = {}


def linear_term(form: AffineForm) -> Term:
    """A term evaluating to median(0, g, 1) everywhere on the cube.

    Requires integer constant and coefficients.  The output is checked
    against `truncate_affine` before being returned; a failure would be a
    construction bug, reported as `CertificationError`.  Inside a
    synthesis the certified equality is recorded as a lemma for that
    synthesis' cell walks (``pwl._record_lemma``); outside one nothing
    is recorded.
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
    _record_lemma(term, (c0, *coeffs))
    return term


def _build(c0: int, coeffs: tuple[int, ...]) -> Term:
    root = (c0, coeffs)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in _MEMO:
            stack.pop()
            continue
        c0, coeffs = key
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
        elif all(c % 2 == 0 for c in coeffs):
            half = ((c0 + (c0 & 1)) // 2, tuple(c // 2 for c in coeffs))
            if half not in _MEMO:
                stack.append(half)
                continue
            h = _MEMO[half]
            term = otimes(h, h) if c0 & 1 else oplus(h, h)
        else:
            i = next(k for k, c in enumerate(coeffs) if c & 1)
            step = 1 if coeffs[i] > 0 else -1
            rest = coeffs[:i] + (coeffs[i] - step,) + coeffs[i + 1:]
            base = c0 if step > 0 else c0 - 1
            low, high = (base, rest), (base + 1, rest)
            if low not in _MEMO or high not in _MEMO:
                stack += (high, low)  # low is built first
                continue
            literal = var(i + 1) if step > 0 else neg(var(i + 1))
            term = oplus(_MEMO[low], otimes(literal, _MEMO[high]))
        _MEMO[key] = term
        stack.pop()
    return _MEMO[root]
