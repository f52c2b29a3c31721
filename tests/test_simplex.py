import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divbounds as db
from divbounds.errors import (
    EmptyOrTooShort,
    InvalidRange,
    LengthMismatch,
    NegativeEntry,
    NonFinite,
    NonPositiveAlpha,
    NotNormalized,
    NumericOverflow,
    ZeroEntry,
)


class TestNormalize:
    def test_proportional_scaling(self):
        d = db.normalize([2, 6])
        assert np.allclose(d.probs, [0.25, 0.75], atol=0)

    def test_uniform(self):
        d = db.normalize([1, 1, 1, 1])
        assert np.allclose(d.probs, [0.25] * 4, atol=0)

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroEntry):
            db.normalize([1, 0])

    def test_too_short(self):
        with pytest.raises(EmptyOrTooShort):
            db.normalize([1.0])
        with pytest.raises(EmptyOrTooShort):
            db.normalize([])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            db.normalize([1.0, -0.5])

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            db.normalize([1.0, float("nan")])
        with pytest.raises(NonFinite):
            db.normalize([1.0, float("inf")])

    def test_all_zero(self):
        with pytest.raises(ZeroEntry):
            db.normalize([0.0, 0.0])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, weights):
        d = db.normalize(weights)
        d2 = db.normalize(d.probs)
        assert np.max(np.abs(d.probs - d2.probs)) <= 1e-15


class TestSmooth:
    def test_add_one(self):
        d = db.smooth([1, 0], 1.0)
        assert np.allclose(d.probs, [2 / 3, 1 / 3], atol=0)

    def test_all_zero_counts(self):
        d = db.smooth([0, 0], 0.5)
        assert np.allclose(d.probs, [0.5, 0.5], atol=0)

    def test_vanishing_alpha_limit(self):
        d = db.smooth([3, 1], 1e-12)
        assert np.max(np.abs(d.probs - [0.75, 0.25])) <= 1e-11

    def test_bad_alpha(self):
        with pytest.raises(NonPositiveAlpha):
            db.smooth([1, 2], 0.0)
        with pytest.raises(NonPositiveAlpha):
            db.smooth([1, 2], -1.0)
        with pytest.raises(NonFinite):
            db.smooth([1, 2], float("nan"))


class TestDistribution:
    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            db.Distribution(np.array([0.5, 0.6]))

    def test_immutable(self):
        d = db.normalize([1, 3])
        with pytest.raises(ValueError):
            d.probs[0] = 0.5

    def test_len_and_iter(self):
        d = db.normalize([1, 1, 2])
        assert len(d) == 3
        assert sum(d) == pytest.approx(1.0, abs=1e-15)


class TestRatioRange:
    def test_identical(self):
        d = db.normalize([1, 1])
        rng = db.ratio_range(d, d)
        assert rng.r == rng.R == 1.0
        assert rng.degenerate

    def test_golden(self, golden_pair):
        P, Q = golden_pair
        rng = db.ratio_range(P, Q)
        assert rng.r == pytest.approx(1 / 3, abs=1e-15)
        assert rng.R == pytest.approx(3.0, abs=1e-15)

    def test_half_vs_quarter(self):
        rng = db.ratio_range(db.normalize([1, 1]), db.normalize([1, 3]))
        assert rng.r == pytest.approx(2 / 3, abs=1e-15)
        assert rng.R == pytest.approx(2.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            db.ratio_range(db.normalize([1, 1]), db.normalize([1, 1, 1]))

    @pytest.mark.parametrize(
        "call",
        [db.ratio_range, lambda P, Q: db.bound_interval("J", 0.5, P, Q), lambda P, Q: db.bound_set(0.5, P, Q)],
        ids=["ratio_range", "bound_interval", "bound_set"],
    )
    def test_overflowing_ratio_is_typed(self, call):
        # p_1/q_1 = 0.5/5e-324 overflows float64: a typed error, not R = inf
        # or numpy's RuntimeWarning.
        P, Q = db.normalize([1, 1]), db.normalize([5e-324, 1])
        with pytest.raises(NumericOverflow, match=r"^R = max p_i/q_i leaves the float range$"):
            call(P, Q)

    @pytest.mark.parametrize("r, R", [(2.0, 1.0), (0.0, 1.0), (-1.0, 2.0), (float("nan"), 1.0)])
    def test_invalid_range_raises_at_construction(self, r, R):
        with pytest.raises(InvalidRange, match=r"^need 0 < r <= R, got RatioRange\(r="):
            db.RatioRange(r, R)

    @pytest.mark.parametrize("r, R", [(0.5, math.inf), (math.inf, math.inf)])
    def test_infinite_range_raises_at_construction(self, r, R):
        with pytest.raises(NonFinite, match=r"^need finite r and R, got RatioRange\(r="):
            db.RatioRange(r, R)

    def test_brackets_one_and_reciprocal(self, pairs_100):
        for P, Q in pairs_100:
            fwd = db.ratio_range(P, Q)
            rev = db.ratio_range(Q, P)
            assert fwd.r <= 1.0 <= fwd.R
            assert fwd.r == pytest.approx(1.0 / rev.R, rel=1e-12)
            assert fwd.R == pytest.approx(1.0 / rev.r, rel=1e-12)
            swapped = fwd.swapped()
            assert swapped.r == pytest.approx(rev.r, rel=1e-12)
            assert swapped.R == pytest.approx(rev.R, rel=1e-12)
