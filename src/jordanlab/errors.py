"""Typed domain errors, surfaced by the CLI with distinct messages."""

from __future__ import annotations


class JordanLabError(Exception):
    """Base class for all domain errors raised by this package."""


class NonSquareError(JordanLabError):
    """An operation requiring a square matrix received a rectangular one."""


class SizeMismatchError(JordanLabError):
    """Matrix dimensions are incompatible for the requested operation."""


class SingularMatrixError(JordanLabError):
    """Inversion or division by a singular matrix."""


class OutOfRangeError(JordanLabError):
    """An index argument fell outside its documented range."""


class PolyParseError(JordanLabError):
    """Malformed polynomial text."""


class InputFormatError(JordanLabError):
    """A representation file is not JSON of the documented shape and types."""


class RelationViolationError(JordanLabError):
    """A matrix pair failed the defining relation XY - YX = Y^2."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class IrrationalEigenvaluesError(JordanLabError):
    """The characteristic polynomial does not split over the rationals."""


class RepeatedBlockSizesError(JordanLabError):
    """Eigenvalue read-off requires pairwise distinct Jordan block sizes."""


class NotFullBlockJordanCoordinatesError(JordanLabError):
    """The operation requires Y to be exactly the full upper Jordan block."""
