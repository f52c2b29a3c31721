import math

import pytest

import divbounds as db
from divbounds.errors import InvalidRange, LengthMismatch, NonFinite, NumericOverflow

LN3 = math.log(3.0)
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


class TestEPhiS:
    def test_golden_s1_equals_j(self, golden_pair):
        P, Q = golden_pair
        assert db.e_phi_s(1, P, Q) == pytest.approx(LN3, abs=1e-12)

    def test_zero_on_equal_pair(self):
        d = db.normalize([1, 4])
        for s in S_GRID:
            assert db.e_phi_s(s, d, d) == pytest.approx(0.0, abs=1e-15)

    def test_golden_s2(self, golden_pair):
        P, Q = golden_pair
        assert db.e_phi_s(2, P, Q) == pytest.approx(4 / 3, abs=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            db.e_phi_s(1, db.normalize([1, 1]), db.normalize([1, 1, 1]))


class TestAPhiS:
    RANGE = db.RatioRange(1 / 3, 3.0)

    def test_s1(self):
        assert db.a_phi_s(1, self.RANGE) == pytest.approx((4 / 3) * LN3, rel=1e-12)

    def test_degenerate(self):
        assert db.a_phi_s(2, db.RatioRange(1.0, 1.0)) == 0.0

    def test_s2(self):
        assert db.a_phi_s(2, self.RANGE) == pytest.approx(16 / 9, rel=1e-12)

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            db.a_phi_s(1, db.RatioRange(-1.0, 2.0))
        with pytest.raises(InvalidRange):
            db.a_phi_s(1, db.RatioRange(2.0, 1.0))

    def test_subnormal_range_is_finite_and_positive(self):
        # (R-r)/4 * (f'(R) - f'(r)) forms no (R - r)(s - 1), which would
        # underflow to 0 here (1e-320 * 1e-5); the bound is about 1.72e-321.
        a = db.a_phi_s(1.00001, db.RatioRange(1e-320, 2e-320))
        assert math.isfinite(a) and a > 0.0


class TestBPhiS:
    RANGE = db.RatioRange(1 / 3, 3.0)

    def test_s1(self):
        assert db.b_phi_s(1, self.RANGE) == pytest.approx(0.5 * LN3, rel=1e-12)

    def test_s0(self):
        assert db.b_phi_s(0, self.RANGE) == pytest.approx(0.5 * LN3, rel=1e-12)

    def test_s2(self):
        assert db.b_phi_s(2, self.RANGE) == pytest.approx(2 / 3, rel=1e-12)

    def test_requires_range_straddling_one(self):
        with pytest.raises(InvalidRange):
            db.b_phi_s(1, db.RatioRange(1.5, 3.0))
        with pytest.raises(InvalidRange):
            db.b_phi_s(1, db.RatioRange(1.0, 1.0))

    def test_pole_branches_are_continuous_in_s(self):
        for pole in (0.0, 1.0):
            base = db.b_phi_s(pole, self.RANGE)
            assert db.b_phi_s(pole + 1e-7, self.RANGE) == pytest.approx(base, abs=1e-5)


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

    def test_chain_on_random_pairs(self, pairs_100):
        for P, Q in pairs_100:
            for s in S_GRID:
                bs = db.bound_set(s, P, Q)
                for name, slack in bs.checks.items():
                    assert slack >= -1e-9, (s, name)


class TestGenericConsistency:
    """e/a/b are the generic functionals of the power generator, bit for bit."""

    def test_matches_generic_functionals(self, pairs_100):
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 1.0 - 1e-11, 1.0 + 1e-11):
            gen = db.phi_generator(s)
            for P, Q in pairs_100[:25]:
                rng = db.ratio_range(P, Q)
                assert db.e_phi_s(s, P, Q) == db.e_cf(gen, P, Q), s
                assert db.a_phi_s(s, rng) == db.a_cf(gen, rng), s
                if not rng.degenerate:
                    assert db.b_phi_s(s, rng) == db.b_cf(gen, rng), s

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s(self, s):
        d, rng = db.normalize([1, 2]), db.RatioRange(0.5, 2.0)
        for call in (lambda: db.e_phi_s(s, d, d), lambda: db.a_phi_s(s, rng), lambda: db.b_phi_s(s, rng)):
            with pytest.raises(NonFinite, match=f"^s must be finite, got {s}$"):
                call()


class TestOverflow:
    """P = (1e-300, 1), Q = (1/2, 1/2) at s = -2: r = 2e-300, and every
    power-family term overflows (r^-2, r^-3)."""

    P = db.normalize([1e-300, 1])
    Q = db.normalize([1, 1])

    def test_e_phi_s(self):
        with pytest.raises(NumericOverflow):
            db.e_phi_s(-2.0, self.P, self.Q)

    def test_a_phi_s(self):
        with pytest.raises(NumericOverflow):
            db.a_phi_s(-2.0, db.ratio_range(self.P, self.Q))

    def test_b_phi_s(self):
        with pytest.raises(NumericOverflow):
            db.b_phi_s(-2.0, db.ratio_range(self.P, self.Q))

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
