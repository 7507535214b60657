"""Exact lambda-curves: 2 d_GH(lambda simplex_m, X) as a function of lambda.

Both routes to the distance give it the form max(diam X - lambda, min
over extreme (alpha, diam) pairs of max(diam, lambda - alpha)), and
differ only in where the pairs come from: the closed form has one pair
per case of its table, the partition oracle the corners of the space's
threshold table.  :func:`curve_from_pairs` turns the pairs into the
segments of the whole curve, so a curve is built once per space and m,
and a lambda query is one binary search over its breakpoints.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Union

from .rationals import INF, RationalOrInf, check_lambda

if TYPE_CHECKING:
    from .closed_form import GHCase
    from .metric import ADPoint


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
        lam = check_lambda(lam)
        seg = self.segments[bisect_left(self.breakpoints, lam)]
        if seg.slope == 0:
            return seg.intercept
        return seg.intercept + lam if seg.slope > 0 else seg.intercept - lam


def curve_from_pairs(
    diam: Fraction, pairs: Iterable[ADPoint], case: Optional[GHCase]
) -> PiecewiseLinearCurve:
    """The curve max(diam - lambda, R(lambda)) on (0, inf), where R is the
    minimum over ``pairs`` of max(d, lambda - alpha).

    ``pairs`` are extreme: none has both a larger alpha and a smaller d
    than another, so sorted by d they rise in alpha, and the smallest d is
    at most ``diam``.  Each pair holds R at its d until lambda - alpha
    reaches it, and R follows that line until it meets the next pair's d;
    alpha = INF holds R at d for good.  The falling line meets R once, at
    x; the curve is the line on (0, x] and R from x on.  A stretch of zero
    length (x = 0, x on a breakpoint of R, or the flat of the pair (0, 0))
    is left out.
    """
    pts = sorted(pairs, key=lambda p: p.d)
    rising: list[CurveSegment] = []
    lo = Fraction(0)
    for c, (alpha, d) in enumerate(pts):
        if alpha == INF:
            rising.append(CurveSegment(lo, INF, 0, d))
            break
        turn = alpha + d
        hi = alpha + pts[c + 1].d if c + 1 < len(pts) else INF
        rising.append(CurveSegment(lo, turn, 0, d))
        rising.append(CurveSegment(turn, hi, 1, -alpha))
        lo = hi
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
    return PiecewiseLinearCurve(head + tuple(rising[idx + 1 :]), case)
