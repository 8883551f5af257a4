"""Tests for the flat-top inversion kernel and its order condition."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gouest import (
    FLAT_TOP_PLATEAU,
    flat_top,
)


class TestFlatTop:
    def test_plateau_constant(self):
        assert FLAT_TOP_PLATEAU == 0.05
        for x in [0.0, 0.01, 0.03, 0.05, -0.05]:
            assert flat_top(x) == 1.0

    def test_vanishes_outside_unit_interval(self):
        for x in [1.0, 1.2, -1.0, -3.7]:
            assert flat_top(x) == 0.0

    def test_transition_value_matches_formula(self):
        # exp(-exp(-1/(|x| - plateau)) / (1 - |x|)) on the transition band
        want = math.exp(-math.exp(-1.0 / 0.45) / 0.5)
        assert flat_top(0.5) == pytest.approx(want, rel=1e-15)
        assert flat_top(0.5) == pytest.approx(0.8051424614756965, rel=1e-12)

    @given(st.floats(-5.0, 5.0, allow_nan=False))
    def test_even_symmetry(self, x):
        assert flat_top(-x) == flat_top(x)

    @given(st.floats(-5.0, 5.0, allow_nan=False))
    def test_range(self, x):
        val = flat_top(x)
        assert 0.0 <= val <= 1.0

    def test_continuity_at_branch_points(self):
        # smooth departure from the plateau
        assert flat_top(FLAT_TOP_PLATEAU + 1e-9) == pytest.approx(1.0, abs=1e-12)
        # smooth decay to zero at the edge of the support
        assert flat_top(1.0 - 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_on_transition(self):
        xs = np.linspace(FLAT_TOP_PLATEAU, 1.0, 2001)
        vals = flat_top(xs)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-1.5, 1.5, 31)
        vec = flat_top(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == flat_top(float(x))


def _kernel_condition(s: int, big_a: float) -> bool:
    """|1 - K(x)| <= A |x|^s on 10^4 points of [-1, 1] without 0."""
    x = np.linspace(-1.0, 1.0, 10_000)
    x = x[x != 0.0]
    return bool(np.all(np.abs(1.0 - flat_top(x)) <= big_a * np.abs(x) ** s + 1e-15))


class TestKernelCondition:
    def test_holds_for_stated_orders(self):
        for s in (0, 1, 2, 4):
            big_a = 1.0 / FLAT_TOP_PLATEAU**s
            assert _kernel_condition(s, big_a)

    def test_fails_for_tiny_constant(self):
        assert not _kernel_condition(1, 1e-9)

    def test_order_zero_tight_constant(self):
        # |1 - K(x)| <= A |x|^s with s = 0 needs A >= sup |1 - K| = 1
        assert _kernel_condition(0, 1.0)
        assert not _kernel_condition(0, 0.5)
