"""The element and cut samplers against their ``Fraction`` forms."""

from __future__ import annotations

import ast
import random
from pathlib import Path

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
                got = sampling.random_positive_element(rng, descriptor, hull, span)
                want = ref.random_positive_element(rng_ref, descriptor, hull, span)
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


def test_the_integer_roll_is_the_float_roll_times_2_to_the_53():
    for seed in range(50):
        rng, rng_ref = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert sampling._roll(rng) == rng_ref.random() * 2 ** 53
        assert rng.getstate() == rng_ref.getstate()


def _cut_draws(descriptor):
    """Each cut sampler beside its float form, as pairs of rng -> cut."""
    return (
        (lambda r: sampling.random_group_cut(r, descriptor), lambda r: ref.random_group_cut(r, descriptor)),
        (lambda r: sampling.random_group_cut(r, descriptor, False), lambda r: ref.random_group_cut(r, descriptor, False)),
        (lambda r: sampling.random_hull_ideal(r, descriptor), lambda r: ref.random_hull_ideal(r, descriptor)),
    )


@pytest.mark.parametrize("descriptor", GROUPS, ids=str)
def test_cut_samplers_roll_as_the_float_form_did(descriptor):
    for seed in range(1000):
        rng, rng_ref = random.Random(seed), random.Random(seed)
        for draw, want_draw in _cut_draws(descriptor):
            assert draw(rng) == want_draw(rng_ref)
        assert rng.getstate() == rng_ref.getstate()


class _Scripted(random.Random):
    """A seeded generator whose first roll is x / 2**53: the next two 32-bit
    words spell x for ``sampling._roll``, and ``random()`` returns x / 2**53
    for the float form; every later draw is the seed's."""

    def __init__(self, seed, x):
        super().__init__(seed)
        self.words = [(x >> 26) << 5, (x & (2 ** 26 - 1)) << 6]
        self.x = x

    def getrandbits(self, k):
        return self.words.pop(0) if self.words and k == 32 else super().getrandbits(k)

    def random(self):
        if self.x is None:
            return super().random()
        x, self.x = self.x, None
        return x / 2 ** 53


# the float thresholds 0.08, 0.3, 0.45, 0.5, 0.6 (x below) and 0.9 (x above)
_THRESHOLDS = (720575940379280, 2702159776422298, 4053239664633447, 2 ** 52, 5404319552844595, 8106479329266893)


def test_the_scripted_generator_rolls_its_x():
    for x in (0, 1, 2 ** 26 - 1, 2 ** 26, 2 ** 53 - 1) + _THRESHOLDS:
        assert sampling._roll(_Scripted(0, x)) == x and _Scripted(0, x).random() * 2 ** 53 == x


@pytest.mark.parametrize("descriptor", GROUPS, ids=str)
def test_cut_samplers_branch_as_the_float_form_at_each_threshold(descriptor):
    for x0 in _THRESHOLDS:
        for x in (x0 - 1, x0, x0 + 1):
            for seed in range(5):
                for draw, want_draw in _cut_draws(descriptor):
                    rng, rng_ref = _Scripted(seed, x), _Scripted(seed, x)
                    assert draw(rng) == want_draw(rng_ref)
                    assert rng.getstate() == rng_ref.getstate()


def test_no_module_holds_a_float_or_rolls_one():
    # every value the package computes is exact; a float constant or a
    # float roll (rng.random()) would be the first inexact one
    for path in sorted(Path(sampling.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))), (path.name, node.lineno)
            is_roll = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "random"
            assert not is_roll, (path.name, node.lineno)


@pytest.mark.parametrize("descriptor", [d for d in GROUPS if d.kind != "zp"], ids=str)
def test_irrational_bounds_exist_only_over_z_1_over_q(descriptor):
    # random_group_cut draws one only over Z[1/q]; elsewhere the sampler says None
    rng = random.Random(0)
    assert sampling.random_irrational_bound(rng, descriptor) is None
    assert rng.getstate() == random.Random(0).getstate()
    bound = sampling.random_irrational_bound(rng, p_inverted(3))
    assert not bound.is_rational and bound.sign() > 0
