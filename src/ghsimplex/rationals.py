"""Exact rational values and their string forms.

Every distance, threshold and result in this package is a
``fractions.Fraction``; nothing in the computational core touches
floats.  The single exception is ``INF`` (``math.inf``), which encodes
the separation of a one-block partition (an empty infimum).  Mixing
``Fraction`` with ``math.inf`` in comparisons, ``max`` and ``min`` is
exact, so no precision is ever lost.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from .errors import InvalidM, ParseError

RationalOrInf = Union[Fraction, float]

INF = math.inf


def exact(value: Union[Fraction, int, str], what: str) -> Fraction:
    """``Fraction(value)`` for an exact input; the one guard at every public entry.

    Floats are rejected outright: binary rounding would silently break the
    exact-equality contract every downstream formula relies on.  ``bool``
    is an ``int`` subclass but never a meaningful number here.  They and
    non-numbers (``None``, a list) raise ``TypeError``, malformed text
    (``"abc"``, ``"1/0"``) ``ValueError``; both name ``what``.
    """
    if type(value) is Fraction:
        return value
    if not isinstance(value, (bool, float)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what} is not a rational: {value!r}") from None
        except TypeError:
            pass
    raise TypeError(f"{what} must be exact (int, str or Fraction)")


def check_m(m: int, top: Optional[int]) -> None:
    """The one guard on a block count ``m`` at every public entry: an int
    from 1 to ``top`` (no upper bound when ``top`` is None).

    Any other type raises ``TypeError`` naming ``m``: a float such as 2.5
    is no block count, and ``True`` is an int subclass but not a count.
    An int out of range raises :class:`InvalidM`.
    """
    if type(m) is not int:
        raise TypeError(f"m must be an int, got {type(m).__name__} {m!r}")
    if m < 1 or (top is not None and m > top):
        raise InvalidM(m, top)


def parse_rational(text: str | int, where: str | None = None) -> Fraction:
    """Parse ``"p/q"``, decimal (``"1.5"``) or integer strings exactly:
    :func:`exact`, with its rejection raised as :class:`ParseError` at ``where``."""
    try:
        return exact(text, "value")
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc), where) from None


def format_rational(value: RationalOrInf) -> str:
    """Inverse of :func:`parse_rational`; ``INF`` becomes ``"inf"``."""
    if value == INF:
        return "inf"
    return str(value)
