"""Exact rational values, their string forms and the input guards.

Every distance, threshold and result in this package is a
``fractions.Fraction``; nothing in the computational core touches
floats.  The single exception is ``INF`` (``math.inf``), which encodes
the separation of a one-block partition (an empty infimum).  Mixing
``Fraction`` with ``math.inf`` in comparisons, ``max`` and ``min`` is
exact, so no precision is ever lost.

Two guards decide what a public entry accepts.  :func:`exact` takes a
distance or lambda to a ``Fraction``.  :func:`check_int` is the one int
rule for every count, index and budget (block counts, point counts,
point and vertex indices, prefix entries, node limits, worker counts):
an ``int`` itself, so never a ``bool``, a float or an ``int`` subclass.
Each entry keeps its own range check after it.
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


def check_int(value: object, what: str) -> int:
    """``value`` if it is an ``int``, else a ``TypeError`` naming ``what``.

    ``True == 1 == 1.0``, so only the type tells a bool or a float from
    a count or an index; an int subclass (``bool``, an ``IntEnum``
    member) is rejected too, so what the library keeps is a plain int.
    """
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {type(value).__name__} {value!r}")
    return value


def check_m(m: int, top: Optional[int]) -> None:
    """The one guard on a block count ``m`` at every public entry: an int
    (:func:`check_int`) from 1 to ``top`` (no upper bound when ``top`` is
    None); an int out of range raises :class:`InvalidM`.
    """
    if check_int(m, "m") < 1 or (top is not None and m > top):
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
