"""Error types shared across the specification-language modules."""

from __future__ import annotations


class SpecLangError(Exception):
    """Base class for specification-language failures."""


class ParseError(SpecLangError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        self.message = message + suffix  # without the position, which str() leads with
        super().__init__(f"{line}:{col}: {self.message}")


class DuplicateEntityError(ParseError):
    """A second entity of one name, at the second one's header."""


class EvaluationError(SpecLangError):
    pass


class UnboundVariableError(EvaluationError):
    pass


class InfiniteDomainError(EvaluationError):
    pass
