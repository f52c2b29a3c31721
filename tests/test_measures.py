import math

import numpy as np
import pytest

import divbounds as db
from divbounds.errors import LengthMismatch, NonFinite, NumericOverflow, UnknownMeasure

from conftest import make_pairs


class TestDivergence:
    def test_zero_on_equal_pair(self):
        d = db.normalize([1, 2, 3])
        assert db.divergence("J", d, d) == pytest.approx(0.0, abs=1e-15)

    def test_golden_chi2(self, golden_pair):
        P, Q = golden_pair
        assert db.divergence("CHI2", P, Q) == pytest.approx(4 / 3, abs=1e-14)

    def test_golden_hellinger(self, golden_pair):
        P, Q = golden_pair
        assert db.divergence("HELLINGER", P, Q) == pytest.approx(1 - math.sqrt(3) / 2, abs=1e-14)

    def test_golden_t(self, golden_pair):
        P, Q = golden_pair
        assert db.divergence("T", P, Q) == pytest.approx(0.5 * math.log(4 / 3), abs=1e-14)

    def test_unknown_measure(self):
        d = db.normalize([1, 1])
        with pytest.raises(UnknownMeasure):
            db.divergence("NOPE", d, d)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            db.divergence("KL", db.normalize([1, 1]), db.normalize([1, 1, 1]))

    def test_bhattacharyya_range(self, pairs_100):
        for P, Q in pairs_100:
            b = db.divergence("BHATTACHARYYA", P, Q)
            assert 0.0 < b <= 1.0 + 1e-12

    def test_nonnegative(self, pairs_100):
        for mid in db.MEASURE_IDS:
            if mid == "BHATTACHARYYA":
                continue
            for P, Q in pairs_100:
                assert db.divergence(mid, P, Q) >= -1e-12, mid

    def test_symmetry(self, pairs_100):
        for P, Q in pairs_100[:30]:
            for mid in db.SYMMETRIC_IDS:
                fwd = db.divergence(mid, P, Q)
                rev = db.divergence(mid, Q, P)
                assert abs(fwd - rev) <= 1e-12 * (1 + abs(fwd)), mid

    def test_asymmetry_exhibited(self, golden_pair):
        P = db.normalize([0.7, 0.3])
        Q = db.normalize([0.4, 0.6])
        for mid in ("KL", "D1", "F1", "G1", "CHI2"):
            assert abs(db.divergence(mid, P, Q) - db.divergence(mid, Q, P)) > 1e-6, mid

    def test_adjoints_swap_arguments(self, pairs_100):
        for P, Q in pairs_100[:30]:
            for mid, adj in (("KL", "KL_ADJ"), ("D1", "D2"), ("F1", "F2"), ("G1", "G2"), ("CHI2", "CHI2_ADJ")):
                assert db.divergence(adj, P, Q) == pytest.approx(db.divergence(mid, Q, P), rel=1e-14)

    def test_halving_identities(self, pairs_100):
        # I and T are the symmetrized averages of their F/G halves.
        for P, Q in pairs_100[:30]:
            i = db.divergence("I", P, Q)
            t = db.divergence("T", P, Q)
            f_avg = 0.5 * (db.divergence("F1", P, Q) + db.divergence("F2", P, Q))
            g_avg = 0.5 * (db.divergence("G1", P, Q) + db.divergence("G2", P, Q))
            assert abs(i - f_avg) <= 1e-12 * (1 + abs(i))
            assert abs(t - g_avg) <= 1e-12 * (1 + abs(t))

    def test_hellinger_is_one_minus_bhattacharyya(self, pairs_100):
        for P, Q in pairs_100[:30]:
            h = db.divergence("HELLINGER", P, Q)
            b = db.divergence("BHATTACHARYYA", P, Q)
            assert h == pytest.approx(1.0 - b, abs=1e-14)


class TestEngineAgreement:
    @pytest.mark.parametrize("mid", db.CATALOG_IDS)
    def test_closed_form_matches_engine(self, mid, pairs_100):
        gen = db.catalog()[mid]
        for P, Q in pairs_100:
            direct = db.divergence(mid, P, Q)
            engine = db.eval_csiszar(gen, P, Q)
            assert abs(direct - engine) <= 1e-12 * (1 + abs(direct))


class TestPhiS:
    def test_golden_s2(self, golden_pair):
        P, Q = golden_pair
        assert db.phi_s(2, P, Q) == pytest.approx(2 / 3, abs=1e-14)

    def test_golden_s_half(self, golden_pair):
        P, Q = golden_pair
        assert db.phi_s(0.5, P, Q) == pytest.approx(4 * (1 - math.sqrt(3) / 2), abs=1e-12)

    def test_zero_on_equal_pair(self):
        d = db.normalize([2, 5])
        assert db.phi_s(1, d, d) == pytest.approx(0.0, abs=1e-15)

    def test_particular_cases(self, pairs_100):
        for P, Q in pairs_100:
            assert abs(db.phi_s(-1, P, Q) - 0.5 * db.divergence("CHI2_ADJ", P, Q)) <= 1e-10
            assert abs(db.phi_s(0, P, Q) - db.divergence("KL_ADJ", P, Q)) <= 1e-10
            assert abs(db.phi_s(0.5, P, Q) - 4 * db.divergence("HELLINGER", P, Q)) <= 1e-10
            assert abs(db.phi_s(1, P, Q) - db.divergence("KL", P, Q)) <= 1e-10
            assert abs(db.phi_s(2, P, Q) - 0.5 * db.divergence("CHI2", P, Q)) <= 1e-10

    def test_pole_continuity(self):
        # Mild pairs keep p/q inside [1e-2, 1e2] so the switch error is small.
        for P, Q in make_pairs(50, seed=77, concentration=1.0):
            for pole in (0.0, 1.0):
                base = db.phi_s(pole, P, Q)
                assert abs(db.phi_s(pole + 1e-6, P, Q) - base) <= 1e-4
                assert abs(db.phi_s(pole - 1e-6, P, Q) - base) <= 1e-4

    def test_matches_generator_route(self, pairs_100):
        for s in (-2.0, -0.5, 0.0, 0.7, 1.0, 2.0, 3.0, 1.0 - 1e-11, 1.0 + 1e-11):
            gen = db.phi_generator(s)
            for P, Q in pairs_100[:20]:
                assert db.phi_s(s, P, Q) == db.eval_csiszar(gen, P, Q), s

    def test_non_finite_s(self):
        d = db.normalize([1, 1])
        with pytest.raises(NonFinite):
            db.phi_s(float("inf"), d, d)

    def test_nonnegative(self, pairs_100):
        for P, Q in pairs_100:
            for s in (-2.0, -0.5, 0.3, 1.5, 3.0):
                assert db.phi_s(s, P, Q) >= -1e-12


def test_phi_s_overflow_is_typed():
    # (p/q)^s = (2e-300)^-2 overflows to inf.
    with pytest.raises(NumericOverflow):
        db.phi_s(-2.0, db.normalize([1e-300, 1]), db.normalize([1, 1]))


def test_phi_s_overflowing_ratio_is_typed():
    # p_1/q_1 = 0.5/5e-324 overflows before its square root is taken, as
    # ratio_range, bound_set and bound_interval reject the pair.
    with pytest.raises(NumericOverflow, match=r"^phi_s at s=0\.5 leaves the float range$"):
        db.phi_s(0.5, db.normalize([1, 1]), db.normalize([5e-324, 1]))
