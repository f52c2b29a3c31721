import math
import warnings

import numpy as np
import oracle
import pytest

import divbounds as db
from divbounds.errors import InvalidArgument, LengthMismatch, NonFinite, NumericOverflow, UnknownMeasure

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

    def test_non_real_s_is_invalid_argument(self):
        d = db.normalize([1, 2])
        with pytest.raises(InvalidArgument, match="^s must be a real number, got 'a'$"):
            db.phi_s("a", d, d)

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


def test_divergence_overflowing_ratio_is_typed():
    # p_2/q_2 = 0.5/5e-324 overflows: KL, J and CHI2 raise instead of
    # returning inf after a numpy warning; KL_ADJ and F1 stay finite.
    P, Q = db.normalize([1, 1]), db.normalize([5e-324, 1])
    for measure in ("KL", "J", "CHI2"):
        with pytest.raises(NumericOverflow, match=f"^divergence {measure} leaves the float range$"):
            db.divergence(measure, P, Q)
    assert db.divergence("KL_ADJ", P, Q) == pytest.approx(math.log(2.0), rel=1e-15)
    assert math.isfinite(db.divergence("F1", P, Q))


#: P = (1/2, 1/2) and Q = (5e-324, 1): p_1/q_1 overflows, q_1/p_1 is subnormal.
SUBNORMAL_PAIR = (db.normalize([1, 1]), db.normalize([5e-324, 1]))

#: The values that must stay finite on SUBNORMAL_PAIR in each order, as
#: (divergence ids, eval_csiszar ids).  Others may raise NumericOverflow.
FINITE_ON_SUBNORMAL_PAIR = {
    "P, Q": (
        {"KL_ADJ", "D2", "F1", "F2", "G1", "I", "BHATTACHARYYA", "HELLINGER", "CHI2_ADJ"},
        set(),
    ),
    "Q, P": (
        {"KL", "J", "D1", "F1", "F2", "G2", "I", "BHATTACHARYYA", "HELLINGER", "CHI2"},
        {"D1", "F1", "F2", "G2", "J", "I", "T"},
    ),
}


@pytest.mark.parametrize("order", FINITE_ON_SUBNORMAL_PAIR)
def test_overflow_contract_on_a_subnormal_pair(order):
    # Each divergence and C_f is a finite float or NumericOverflow, never
    # inf, nan or a numpy warning; a divergence and its C_f agree where both
    # are finite.  The raises are not pinned: T's divergence on (Q, P)
    # overflows in sqrt(p*q) although its C_f is finite.
    P, Q = SUBNORMAL_PAIR if order == "P, Q" else SUBNORMAL_PAIR[::-1]
    finite_div, finite_cf = FINITE_ON_SUBNORMAL_PAIR[order]
    values = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, ids, finite in ((db.divergence, db.MEASURE_IDS, finite_div), (db.eval_csiszar, db.CATALOG_IDS, finite_cf)):
            for mid in ids:
                try:
                    values[fn.__name__, mid] = value = fn(mid, P, Q)
                except NumericOverflow:
                    assert mid not in finite, (fn.__name__, mid)
                else:
                    assert math.isfinite(value), (fn.__name__, mid)
    assert {mid for name, mid in values if name == "divergence"} >= finite_div
    assert {mid for name, mid in values if name == "eval_csiszar"} >= finite_cf
    for mid in db.CATALOG_IDS:
        if ("divergence", mid) in values and ("eval_csiszar", mid) in values:
            assert values["eval_csiszar", mid] == pytest.approx(values["divergence", mid], rel=1e-14), mid


class TestAgainstTheDecimalReference:
    """divergence of the 15 named measures, and eval_csiszar of the nine
    catalog measures, against oracle.measure_cf, in u = 2^-53 times the
    oracle's running-error scale sum_i q_i |terms of f(x_i)|, on 40
    default-family pairs and on the finite values of SUBNORMAL_PAIR in both
    orders.  Each bound is the worst measured, rounded up: 1.11 for J by
    both routes (each catalog measure's bound is 2), 1.53 for KL, 1.06 for
    KL_ADJ, 1.65 for CHI2, 1.99 for CHI2_ADJ, 0.48 for HELLINGER and 2.54
    for BHATTACHARYYA."""

    BOUNDS = dict.fromkeys(db.MEASURE_IDS, 2.0) | {"HELLINGER": 1.0, "BHATTACHARYYA": 3.0}

    @pytest.mark.parametrize("mid", db.MEASURE_IDS)
    def test_within_a_few_units_of_the_scale(self, mid, pairs_100):
        P, Q = SUBNORMAL_PAIR
        cases = [(A, B, False) for A, B in pairs_100[:40]] + [(P, Q, True), (Q, P, True)]
        fns = (db.divergence, db.eval_csiszar) if mid in db.CATALOG_IDS else (db.divergence,)
        worst = 0.0
        for A, B, may_overflow in cases:
            exact, scale = oracle.measure_cf(mid, A.probs.tolist(), B.probs.tolist())
            for fn in fns:
                try:
                    value = fn(mid, A, B)
                except NumericOverflow:
                    if not may_overflow:
                        raise
                    continue
                worst = max(worst, oracle.error_in_scale(value, exact, scale))
        assert worst <= self.BOUNDS[mid]
