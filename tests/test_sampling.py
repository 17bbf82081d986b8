"""The element and cut samplers against their ``Fraction`` forms."""

from __future__ import annotations

import random

import pytest

from ramify import sampling
from ramify.ordered_group import element, hull_element, p_inverted, quadratic

from . import sampling_reference as ref
from .strategies import ALL_DESCRIPTORS

GROUPS = ALL_DESCRIPTORS + [p_inverted(5), p_inverted(7), quadratic(3)]
SEEDS = range(100)


@pytest.mark.parametrize("hull", [False, True], ids=["group", "hull"])
@pytest.mark.parametrize("descriptor", GROUPS, ids=str)
def test_element_samplers_match_the_oracle(descriptor, hull):
    make = hull_element if hull else element
    for span in (3, 6, 8, 12):
        for seed in SEEDS:
            rng, rng_ref = random.Random(seed), random.Random(seed)
            for _ in range(4):
                for draw, want_draw in (
                    (sampling.random_element, ref.random_element),
                    (sampling.random_positive_element, ref.random_positive_element),
                ):
                    got = draw(rng, descriptor, hull, span)
                    want = want_draw(rng_ref, descriptor, hull, span)
                    assert (type(got), got.descriptor, got.nums, got.den) == (
                        type(want), want.descriptor, want.nums, want.den
                    )
                    # the membership check the sampler skips holds
                    assert make(descriptor, got.value) == got
            # the same draws from the generator
            assert rng.getstate() == rng_ref.getstate()


@pytest.mark.parametrize("descriptor", GROUPS, ids=str)
def test_cut_samplers_match_the_oracle(descriptor, monkeypatch):
    def cuts(seed):
        rng = random.Random(seed)
        out = [sampling.random_group_cut(rng, descriptor, allow_whole=whole) for whole in (True, False, False)]
        out += [sampling.random_hull_ideal(rng, descriptor) for _ in range(6)]
        return out, rng.getstate()

    got = [cuts(seed) for seed in SEEDS]
    # the same samplers, drawing their points from the Fraction forms
    monkeypatch.setattr(sampling, "random_positive_element", ref.random_positive_element)
    assert got == [cuts(seed) for seed in SEEDS]
