"""Exception types shared across the package."""

from __future__ import annotations


class MvSynthError(Exception):
    """Base class for package errors."""


class DomainError(MvSynthError):
    """Bad input domain: arity mismatch, point outside the unit cube, or a
    value that is not an exact rational/integer where one is required."""


class TermSyntaxError(MvSynthError):
    """Malformed term text; carries the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DescriptionError(MvSynthError):
    """Malformed function-description document (schema violation)."""


class InvalidDescriptionError(MvSynthError):
    """Description parses but does not denote a valid input function:
    its range leaves [0, 1].  (Within [0, 1] a constituent always matches
    on every region: the description's min/max tree picks it.)"""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotMemberError(MvSynthError):
    """Ideal membership refuted: the element is positive at a point where
    the generator vanishes, so no multiplier can ever dominate it."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


class NotCongruentError(MvSynthError):
    """Gluing precondition failed: two arms differ at a point where the
    joined ideal's generator vanishes.  From `chinese_glue`, ``index`` is
    the 1-based position of the first pair holding the later arm of the
    first failing pair check."""

    def __init__(self, message: str, witness, index=None):
        super().__init__(message)
        self.witness = witness
        self.index = index


class CapExceededError(MvSynthError):
    """The least membership multiplier exceeds the cap."""

    def __init__(self, cap: int):
        super().__init__(f"least membership multiplier exceeds cap {cap}")
        self.cap = cap


class CertificationError(MvSynthError):
    """Internal consistency failure: a constructed term failed its final
    equality certificate.  Always a bug, never expected user error."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
