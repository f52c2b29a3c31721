import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divbounds as db
from divbounds.errors import (
    EmptyOrTooShort,
    InvalidArgument,
    InvalidRange,
    LengthMismatch,
    NegativeEntry,
    NonFinite,
    NonPositiveAlpha,
    NotNormalized,
    NumericOverflow,
    ZeroEntry,
)
from divbounds.simplex import pair_probs


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

    @pytest.mark.parametrize("alpha", ["a", [1, 2]], ids=["str", "list"])
    def test_non_real_alpha_is_invalid_argument(self, alpha):
        with pytest.raises(InvalidArgument, match=f"^alpha must be a real number, got {re.escape(repr(alpha))}$"):
            db.smooth([1, 2], alpha)


class TestDistribution:
    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            db.Distribution(np.array([0.5, 0.6]))

    @pytest.mark.parametrize(
        "probs, error, message",
        [
            (np.array([0.5]), EmptyOrTooShort, "need a 1-d vector of length >= 2, got shape (1,)"),
            (np.array([[0.5, 0.5]]), EmptyOrTooShort, "need a 1-d vector of length >= 2, got shape (1, 2)"),
            ([math.nan, 1.0], NonFinite, "distribution entries must be finite"),
            ([-0.5, 1.5], NegativeEntry, "distribution entries must be nonnegative"),
            ([0.0, 1.0], ZeroEntry, "the simplex excludes zero probabilities"),
            ([0.5, 0.6], NotNormalized, "entries sum to 1.1, not 1 within 1e-09"),
        ],
        ids=["length-1", "2-d", "nan", "negative", "zero", "sum"],
    )
    def test_direct_construction_checks_its_entries(self, probs, error, message):
        with pytest.raises(error) as info:
            db.Distribution(probs)
        assert str(info.value) == message

    def test_immutable(self):
        d = db.normalize([1, 3])
        with pytest.raises(ValueError):
            d.probs[0] = 0.5

    def test_entries_are_its_own(self):
        base = np.array([[0.5, 0.5], [0.25, 0.75]])
        P, Q = db.Distribution(base[0]), db.Distribution(base[1])
        kl = db.divergence("KL", P, Q)
        assert not np.shares_memory(P.probs, base) and base.flags.writeable
        base[0] = [0.9, 0.1]
        assert P.probs.tolist() == [0.5, 0.5]
        assert db.divergence("KL", P, Q) == kl == db.divergence("KL", db.Distribution([0.5, 0.5]), Q)

    def test_len_and_iter(self):
        d = db.normalize([1, 1, 2])
        assert len(d) == 3
        assert sum(d) == pytest.approx(1.0, abs=1e-15)

    def test_adopts_a_read_only_float64_array_that_owns_its_data(self):
        probs = np.array([0.25, 0.75])
        probs.setflags(write=False)
        assert db.Distribution(probs).probs is probs

    @pytest.mark.parametrize("make", ["writable", "read_only_view", "list", "float32"])
    def test_copies_anything_else(self, make):
        base = np.array([[0.25, 0.75], [0.5, 0.5]])
        given = {
            "writable": base[0].copy(),
            "read_only_view": base[0],
            "list": [0.25, 0.75],
            "float32": np.array([0.25, 0.75], dtype=np.float32),
        }[make]
        if isinstance(given, np.ndarray):
            given.setflags(write=make == "writable")
        P = db.Distribution(given)
        assert P.probs is not given and not np.shares_memory(P.probs, base)
        assert P.probs.dtype == np.float64 and not P.probs.flags.writeable
        if make != "list":
            base[0] = [0.9, 0.1]
        assert P.probs.tolist() == [0.25, 0.75]

    def test_normalize_and_smooth_hand_over_a_read_only_quotient(self):
        for d in (db.normalize([1, 3]), db.smooth([0, 2], 1.0)):
            assert d.probs.flags.owndata and not d.probs.flags.writeable
            assert d.probs.tolist() == [0.25, 0.75]


#: Weights that fail the raw-weight check, as normalize(raw) (alpha None)
#: or smooth(raw, alpha), and the error type and message each raises.
WEIGHT_ERRORS = [
    ([-0.25, 1.0], None, NegativeEntry, "weights must be nonnegative"),
    # alpha would lift the negative weight: smooth checks raw first.
    ([-0.25, 1.0], 0.5, NegativeEntry, "weights must be nonnegative"),
    # raw is finite, raw + alpha is not: normalize checks the sum again.
    ([1.7e308, 1.0], 1e308, NonFinite, "weights must be finite"),
    ([math.nan, -1.0], None, NonFinite, "weights must be finite"),
    ([math.nan, -1.0], 0.5, NonFinite, "weights must be finite"),
    ([[1.0, 2.0], [3.0, 4.0]], None, EmptyOrTooShort, "need at least 2 entries, got shape (2, 2)"),
    ([[1.0, 2.0], [3.0, 4.0]], 0.5, EmptyOrTooShort, "need at least 2 entries, got shape (2, 2)"),
    ([0.0, 0.0], None, ZeroEntry, "weights sum to zero"),
    # Every weight is finite and nonzero, their sum is not.
    ([1e308, 1e308], None, NonFinite, "weights must sum to a finite value"),
]


@pytest.mark.filterwarnings("error")  # no numpy warning escapes before the error
@pytest.mark.parametrize("raw, alpha, error, message", WEIGHT_ERRORS)
def test_weight_errors_keep_their_type_and_message(raw, alpha, error, message):
    with pytest.raises(error) as info:
        db.normalize(raw) if alpha is None else db.smooth(raw, alpha)
    assert type(info.value) is error and str(info.value) == message


class TestPairProbs:
    SHORT, LONG = db.normalize([1, 2]), db.normalize([1, 2, 3])

    @pytest.mark.parametrize(
        "call",
        [
            pair_probs,
            db.ratio_range,
            lambda P, Q: db.divergence("KL", P, Q),
            lambda P, Q: db.phi_s(0.5, P, Q),
            lambda P, Q: db.eval_csiszar("J", P, Q),
            lambda P, Q: db.e_cf("J", P, Q),
        ],
        ids=["pair_probs", "ratio_range", "divergence", "phi_s", "eval_csiszar", "e_cf"],
    )
    def test_length_mismatch_message(self, call):
        with pytest.raises(LengthMismatch, match=r"^lengths differ: 2 vs 3$"):
            call(self.SHORT, self.LONG)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda P, Q: db.divergence("NOPE", P, Q), LengthMismatch),
            (lambda P, Q: db.eval_csiszar("NOPE", P, Q), LengthMismatch),
            (lambda P, Q: db.e_cf("NOPE", P, Q), LengthMismatch),
            (lambda P, Q: db.phi_s(math.nan, P, Q), NonFinite),
        ],
        ids=["divergence", "eval_csiszar", "e_cf", "phi_s"],
    )
    def test_first_error_on_a_pair_bad_in_two_ways(self, call, error):
        # The length is checked before the measure is resolved, and after s.
        with pytest.raises(error):
            call(self.SHORT, self.LONG)


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

    def test_fast_init_keeps_the_dataclass_contract(self):
        # RatioRange, MMBounds and BoundReport are frozen, slotted
        # dataclasses: keyword construction, arity errors, __post_init__
        # and frozenness are the dataclass's.
        from divbounds.csiszar_bounds import BoundReport, MMBounds

        rng = db.RatioRange(R=2.0, r=0.5)
        assert (rng.r, rng.R) == (0.5, 2.0) and rng == db.RatioRange(0.5, 2.0)
        mm = MMBounds(m=1.0, M=2.0, method="closed_form", s=0.5, range=rng)
        rep = BoundReport("J", 0.5, 1.0, 1.5, 2.0, mm, 0.5, 0.5)
        assert (mm.range, rep.mm, rep.upper_slack) == (rng, mm, 0.5)
        with pytest.raises(InvalidRange):
            db.RatioRange(R=0.5, r=2.0)
        with pytest.raises(TypeError):
            db.RatioRange(0.5)
        for obj, field in ((rng, "r"), (mm, "M"), (rep, "value")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, 0.0)

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
