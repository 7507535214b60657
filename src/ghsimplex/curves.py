"""Exact lambda-curves: 2 d_GH(lambda simplex_m, X) as a function of lambda.

Both routes to the distance give it the shape max(diam X - lambda, R(lambda))
with R continuous, non-decreasing and made of pieces of slope 0 and +1:
the closed form takes R from its case table, the partition oracle from
the extreme (alpha, diam) pairs.  :func:`above_falling_line` turns R into
the segments of the whole curve, so a curve is built once per space and
m, and a lambda query is one binary search over its breakpoints.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .errors import NonPositiveLambda
from .rationals import INF, RationalOrInf, exact

if TYPE_CHECKING:
    from .closed_form import GHCase


class CurveSegment(NamedTuple):
    """One affine stretch of the sweep: value = slope * lambda + intercept on (lo, hi]."""

    lo: Fraction
    hi: RationalOrInf
    slope: int
    intercept: Fraction


@dataclass(frozen=True)
class PiecewiseLinearCurve:
    """lambda -> 2 d_GH on (0, inf): contiguous segments with slopes in {-1, 0, +1}.

    ``case`` is the closed form's case for a two-distance space, and None
    for a curve taken from the partition oracle.
    """

    segments: tuple[CurveSegment, ...]
    case: Optional[GHCase]

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """The finite right ends of the segments, ascending."""
        return tuple(seg.hi for seg in self.segments[:-1])

    def evaluate(self, lam: Union[Fraction, int, str]) -> Fraction:
        lam = exact(lam, "lambda")
        if lam <= 0:
            raise NonPositiveLambda(lam)
        return self.at(lam)

    def at(self, lam: Fraction) -> Fraction:
        """The value at an exact ``lam > 0``; :meth:`evaluate` checks its input first."""
        seg = self.segments[bisect_left(self.breakpoints, lam)]
        if seg.slope == 0:
            return seg.intercept
        return seg.intercept + lam if seg.slope > 0 else seg.intercept - lam


def above_falling_line(
    diam: Fraction, rising: Sequence[CurveSegment]
) -> tuple[CurveSegment, ...]:
    """The segments of max(diam - lambda, R(lambda)) on (0, inf).

    ``rising`` are the segments of R: contiguous from 0 to INF, slopes 0
    and +1, continuous, with R(0) <= diam and no two neighbours on one
    line.  The falling line meets R once, at x; the curve is the line on
    (0, x] and R from x on.  A stretch of zero length (x = 0, or x on a
    breakpoint of R) is left out.
    """
    for idx, seg in enumerate(rising):
        if seg.slope == 0:
            x = diam - seg.intercept
        else:
            x = (diam - seg.intercept) / 2
        if x <= seg.hi:
            break
    head = (CurveSegment(Fraction(0), x, -1, diam),) if x > 0 else ()
    if x < seg.hi:
        head += (CurveSegment(x, seg.hi, seg.slope, seg.intercept),)
    return head + tuple(rising[idx + 1 :])
