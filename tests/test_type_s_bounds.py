import math

import numpy as np
import oracle
import pytest

import divbounds as db
from divbounds.errors import InvalidRange, LengthMismatch, NonFinite, NumericOverflow

LN3 = math.log(3.0)
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


class TestEPhiS:
    def test_golden_s1_equals_j(self, golden_pair):
        P, Q = golden_pair
        assert db.e_cf(db.phi_generator(1), P, Q) == pytest.approx(LN3, abs=1e-12)

    def test_zero_on_equal_pair(self):
        d = db.normalize([1, 4])
        for s in S_GRID:
            assert db.e_cf(db.phi_generator(s), d, d) == pytest.approx(0.0, abs=1e-15)

    def test_golden_s2(self, golden_pair):
        P, Q = golden_pair
        assert db.e_cf(db.phi_generator(2), P, Q) == pytest.approx(4 / 3, abs=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            db.e_cf(db.phi_generator(1), db.normalize([1, 1]), db.normalize([1, 1, 1]))


class TestAPhiS:
    RANGE = db.RatioRange(1 / 3, 3.0)

    def test_s1(self):
        assert db.a_cf(db.phi_generator(1), self.RANGE) == pytest.approx((4 / 3) * LN3, rel=1e-12)

    def test_degenerate(self):
        assert db.a_cf(db.phi_generator(2), db.RatioRange(1.0, 1.0)) == 0.0

    def test_s2(self):
        assert db.a_cf(db.phi_generator(2), self.RANGE) == pytest.approx(16 / 9, rel=1e-12)

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            db.a_cf(db.phi_generator(1), db.RatioRange(-1.0, 2.0))
        with pytest.raises(InvalidRange):
            db.a_cf(db.phi_generator(1), db.RatioRange(2.0, 1.0))

    def test_subnormal_range_is_finite_and_positive(self):
        # (R-r)/4 * (f'(R) - f'(r)) forms no (R - r)(s - 1), which would
        # underflow to 0 here (1e-320 * 1e-5); the bound is about 1.72e-321.
        a = db.a_cf(db.phi_generator(1.00001), db.RatioRange(1e-320, 2e-320))
        assert math.isfinite(a) and a > 0.0


class TestBPhiS:
    RANGE = db.RatioRange(1 / 3, 3.0)

    def test_s1(self):
        assert db.b_cf(db.phi_generator(1), self.RANGE) == pytest.approx(0.5 * LN3, rel=1e-12)

    def test_s0(self):
        assert db.b_cf(db.phi_generator(0), self.RANGE) == pytest.approx(0.5 * LN3, rel=1e-12)

    def test_s2(self):
        assert db.b_cf(db.phi_generator(2), self.RANGE) == pytest.approx(2 / 3, rel=1e-12)

    def test_requires_range_straddling_one(self):
        with pytest.raises(InvalidRange):
            db.b_cf(db.phi_generator(1), db.RatioRange(1.5, 3.0))
        with pytest.raises(InvalidRange):
            db.b_cf(db.phi_generator(1), db.RatioRange(1.0, 1.0))

    def test_pole_branches_are_continuous_in_s(self):
        for pole in (0.0, 1.0):
            base = db.b_cf(db.phi_generator(pole), self.RANGE)
            assert db.b_cf(db.phi_generator(pole + 1e-7), self.RANGE) == pytest.approx(base, abs=1e-5)


class TestBoundSet:
    def test_golden_s1(self, golden_pair):
        P, Q = golden_pair
        bs = db.bound_set(1, P, Q)
        assert bs.phi == pytest.approx(0.5493061, abs=1e-6)
        assert bs.e_bound == pytest.approx(1.0986123, abs=1e-6)
        assert bs.a_bound == pytest.approx(1.4648164, abs=1e-6)
        assert bs.b_bound == pytest.approx(0.5493061, abs=1e-6)
        assert bs.holds
        # b attains phi on this pair.
        assert bs.checks["phi_le_b"] == pytest.approx(0.0, abs=1e-12)

    def test_equal_pair_degenerates(self):
        d = db.normalize([2, 3])
        bs = db.bound_set(1, d, d)
        assert bs.phi == pytest.approx(0.0, abs=1e-15)
        assert bs.e_bound == pytest.approx(0.0, abs=1e-15)
        assert bs.a_bound == 0.0
        assert bs.b_bound is None
        assert "phi_le_b" not in bs.checks
        assert bs.holds

    def test_golden_s2(self, golden_pair):
        P, Q = golden_pair
        bs = db.bound_set(2, P, Q)
        assert bs.phi == pytest.approx(2 / 3, abs=1e-12)
        assert bs.e_bound == pytest.approx(4 / 3, abs=1e-12)
        assert bs.a_bound == pytest.approx(16 / 9, abs=1e-12)
        assert bs.b_bound == pytest.approx(2 / 3, abs=1e-12)
        assert bs.holds

    def test_range_missing_one_by_rounding_omits_b(self):
        # P and Q sum to 1 only to rounding: r <= R < 1, so B's hypothesis
        # r <= 1 <= R fails, and B is omitted as on r = R.
        P, Q = db.normalize([8.000000000000002, 5.000000000000001]), db.normalize([8, 5])
        assert db.ratio_range(P, Q) == db.RatioRange(0.9999999999999998, 0.9999999999999999)
        for s in S_GRID:
            bs = db.bound_set(s, P, Q)
            assert bs.b_bound is None, s
            assert math.isfinite(bs.e_bound) and math.isfinite(bs.a_bound), s
            assert set(bs.checks) == {"phi_nonneg", "phi_le_e", "phi_le_a", "e_le_a"}, s
        with pytest.raises(InvalidRange):
            db.b_cf(db.phi_generator(1), bs.range)

    def test_chain_on_random_pairs(self, pairs_100):
        for P, Q in pairs_100:
            for s in S_GRID:
                bs = db.bound_set(s, P, Q)
                for name, slack in bs.checks.items():
                    assert slack >= -1e-9, (s, name)


class TestGenericConsistency:
    """bound_set's phi and E/A/B are phi_s and the generic functionals of
    the power generator, bit for bit."""

    def test_matches_generic_functionals(self, pairs_100):
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 1.0 - 1e-11, 1.0 + 1e-11):
            gen = db.phi_generator(s)
            for P, Q in pairs_100[:25]:
                bs = db.bound_set(s, P, Q)
                assert bs.phi == db.phi_s(s, P, Q) == db.eval_csiszar(gen, P, Q), s
                assert bs.e_bound == db.e_cf(gen, P, Q), s
                assert bs.a_bound == db.a_cf(gen, bs.range), s
                assert bs.b_bound == (None if bs.range.degenerate else db.b_cf(gen, bs.range)), s

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s(self, s):
        d = db.normalize([1, 2])
        for call in (lambda: db.phi_generator(s), lambda: db.bound_set(s, d, d)):
            with pytest.raises(NonFinite, match=f"^s must be finite, got {s}$"):
                call()


class TestOverflow:
    """P = (1e-300, 1), Q = (1/2, 1/2) at s = -2: r = 2e-300, and every
    power-family term overflows (r^-2, r^-3)."""

    P = db.normalize([1e-300, 1])
    Q = db.normalize([1, 1])

    def test_e_phi_s(self):
        with pytest.raises(NumericOverflow, match=r"^e_cf of PHI_S\(-2\.0\) leaves the float range$"):
            db.e_cf(db.phi_generator(-2.0), self.P, self.Q)

    def test_a_phi_s(self):
        with pytest.raises(NumericOverflow, match=r"^a_cf of PHI_S\(-2\.0\) leaves the float range$"):
            db.a_cf(db.phi_generator(-2.0), db.ratio_range(self.P, self.Q))

    def test_b_phi_s(self):
        with pytest.raises(NumericOverflow, match=r"^b_cf of PHI_S\(-2\.0\) leaves the float range$"):
            db.b_cf(db.phi_generator(-2.0), db.ratio_range(self.P, self.Q))

    def test_bound_set(self):
        with pytest.raises(NumericOverflow):
            db.bound_set(-2.0, self.P, self.Q)

    def test_c_f_and_e_cf(self):
        # The same quantities as phi_s and e_phi_s, through the generic engine.
        gen = db.phi_generator(-2.0)
        with pytest.raises(NumericOverflow, match="C_f"):
            db.eval_csiszar(gen, self.P, self.Q)
        with pytest.raises(NumericOverflow, match="e_cf"):
            db.e_cf(gen, self.P, self.Q)


class TestAgainstTheDecimalReference:
    """a_cf and b_cf of phi_s against tests/oracle.py, at the harness's
    default s off the poles and at two s whose s - 1 rounds.  The error is
    counted in u = 2^-53 times the oracle's running-error scale, since the
    plain relative error of B grows without bound as r and R close in on 1.
    The worst measured on 2000 ranges each from the log-uniform family, the
    corner r in [0.88, 0.9], R in [1.1, 1.12] and the corner r near 1e-3,
    R near 1e3 was 2.1 for A and 4.7 for B; the bounds are 4 and 8."""

    S = (*(s for s in db.TrialConfig().s_samples if s not in (0.0, 1.0)), 0.3, -1.7)

    @staticmethod
    def _ranges():
        rng = np.random.default_rng(17)
        r = np.exp(rng.uniform(math.log(1e-3), math.log(0.9), 400))
        R = np.exp(rng.uniform(math.log(1.1), math.log(1e3), 400))
        return [(0.9, 1.1), (1e-3, 1.1), (0.9, 1e3), (1e-3, 1e3), *zip(r.tolist(), R.tolist())]

    @pytest.mark.parametrize("s", S)
    def test_a_and_b_within_a_few_units_of_their_scale(self, s):
        gen = db.phi_generator(s)
        worst_a = worst_b = 0.0
        for r, R in self._ranges():
            rng = db.RatioRange(r, R)
            worst_a = max(worst_a, oracle.error_in_scale(db.a_cf(gen, rng), oracle.phi_a(s, r, R), oracle.phi_a_scale(s, r, R)))
            worst_b = max(worst_b, oracle.error_in_scale(db.b_cf(gen, rng), oracle.phi_b(s, r, R), oracle.phi_b_scale(s, r, R)))
        assert worst_a <= 4.0
        assert worst_b <= 8.0
