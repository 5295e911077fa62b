"""Exact piecewise projective homeomorphisms over Z and boundary walks."""

from .exactnum import (
    INFINITY,
    ExtendedPoint,
    MixedFieldError,
    QuadraticNumber,
    canonical_key,
    normalize_radicand,
    qn_compare,
    qn_from_text,
    qn_to_text,
)

__all__ = [
    "INFINITY",
    "ExtendedPoint",
    "MixedFieldError",
    "QuadraticNumber",
    "canonical_key",
    "normalize_radicand",
    "qn_compare",
    "qn_from_text",
    "qn_to_text",
]
