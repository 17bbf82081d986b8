"""Separation of homomorphisms into complete valued fields.

Two distinct degree-n embeddings differ somewhere, and how early they can
be told apart is controlled by the values v(phi(s) - phi'(s)) over ring
generators s.  We call those values gaps.  The hull ideal of elements
smaller than every n-fold gap sum separates any two embeddings; its
boundary is a sharp threshold in the degree-p cyclic case, where the gap
at a generator is p times the sigma-displacement of that generator.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple, Union

from .cuts import Cut, open_cut, principal_cut
from .defect_lab import DefectModel
from .ordered_group import (
    GroupElement,
    HullElement,
    _int_only,
    _is_prime,
    echo,
    int_scale,
    is_positive,
    to_hull,
)
from .series_field import SeriesElement


class _Gaps(NamedTuple):
    degree: int
    gaps: Tuple[Union[GroupElement, HullElement], ...]


class GapDatum(_Gaps):
    """Gap values of one generating set under a degree-n extension."""

    __slots__ = ()

    def __new__(cls, degree: int, gaps: Tuple[Union[GroupElement, HullElement], ...]) -> "GapDatum":
        _int_only(degree)
        if degree < 2:
            raise ValueError("degree must be at least 2")
        if not gaps:
            raise ValueError("at least one gap is required")
        for g in gaps:
            if not is_positive(g):
                raise ValueError("gaps are positive values")
        return super().__new__(cls, degree, gaps)

    def max_gap(self) -> Union[GroupElement, HullElement]:
        return max(self.gaps)


class ThresholdPair(NamedTuple):
    """The two hull ideals on either side of a connectivity threshold."""

    connected_at: Cut
    separated_at: Cut


def _as_hull(g: Union[GroupElement, HullElement]) -> HullElement:
    return to_hull(g) if isinstance(g, GroupElement) else g


def connectivity_threshold(gap: Union[GroupElement, HullElement], p: int) -> ThresholdPair:
    """For a degree-p cyclic extension with generator gap `gap`: the
    closed hull ideal at p*gap still links the two embeddings, the open
    one below it separates them."""
    if not is_positive(gap):
        raise ValueError("the gap is a positive value")
    if not _is_prime(p):
        raise ValueError(f"the residue characteristic must be prime, got {echo(p)}")
    pg = int_scale(p, _as_hull(gap))
    return ThresholdPair(
        connected_at=principal_cut(pg),
        separated_at=open_cut(pg.descriptor, pg, over_hull=True),
    )


def separation_bound(datum: GapDatum) -> Cut:
    """Hull ideal separating every pair of embeddings of a degree-n
    extension with the given generator gaps.

    An element smaller than all n-fold sums of gaps cannot swallow any
    difference phi(s) - phi'(s), so the open cut above n times the largest
    gap works; smaller ideals need not.
    """
    top = _as_hull(datum.max_gap())
    bound = open_cut(top.descriptor, top, over_hull=True)
    return bound.power(datum.degree)


def model_gap(model: DefectModel, s: SeriesElement) -> GroupElement:
    """Gap of a model-ring generator: the value of sigma(s) - s."""
    delta = model.sigma.delta(s)
    if delta.is_zero():
        raise ValueError("sigma fixes this element; it detects no gap")
    return delta.valuation()
