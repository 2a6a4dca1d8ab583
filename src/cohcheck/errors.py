"""Error hierarchy and source positions shared across the package."""

from __future__ import annotations

from typing import NamedTuple


class SourceSpan(NamedTuple):
    """1-based line/column position in a source file."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}"


class CohError(Exception):
    """Base class; message is optionally prefixed by a source span."""

    def __init__(self, message: str, span: SourceSpan | None = None) -> None:
        self.span = span
        self.message = message
        super().__init__(f"{span}: {message}" if span else message)


class FlavorError(CohError):
    """Mixing flavors, or an unknown flavor."""


class BoundaryError(CohError):
    """Boundary mismatch in composition, or comparison of non-parallel
    morphisms."""


class StructureError(CohError):
    """Malformed term or inconsistent block structure."""


class UnsupportedOp(CohError):
    """Operation not available in the current flavor."""


class UnknownName(CohError):
    """Reference to a generator or declaration that does not exist."""


class PathError(CohError):
    """A goal path is broken or its two sides are not parallel."""


class InterpError(CohError):
    """A letter interpretation is missing or inconsistent with the
    functor it accompanies."""


class ParseError(CohError):
    """Syntax error in DSL source."""


class ElabError(CohError):
    """A parsed expression does not fit the declared boundary."""
