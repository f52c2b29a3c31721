import math

import numpy as np
import pytest

import divbounds as db
from divbounds.errors import DegeneratePair, DivBoundsError, InvalidArgument, NumericOverflow

LN3 = math.log(3.0)


class TestEstimatorId:
    def test_str(self):
        assert str(db.EstimatorId("XI", 3)) == "xi3"
        assert str(db.EstimatorId("ZETA", 1)) == "zeta1"
        assert str(db.EstimatorId("ZETA", np.int64(4))) == "zeta4"

    def test_index_validation(self):
        with pytest.raises(ValueError):
            db.EstimatorId("XI", 9)
        with pytest.raises(ValueError):
            db.EstimatorId("ZETA", 0)
        with pytest.raises(ValueError):
            db.EstimatorId("NU", 1)

    @pytest.mark.parametrize("family, t", [("XI", 9), ("ZETA", 0), ("NU", 1)])
    def test_validation_error_is_typed(self, family, t):
        with pytest.raises(InvalidArgument) as info:
            db.EstimatorId(family, t)
        assert isinstance(info.value, DivBoundsError)

    @pytest.mark.parametrize(
        "family, t, message",
        [("XI", 9, "XI index must be in 1..8"), ("ZETA", 0, "ZETA index must be in 1..4"), ("ZETA", 5, "ZETA index must be in 1..4"), ("NU", 1, "unknown family 'NU'"), (["XI"], 1, "unknown family ['XI']")],
    )
    def test_validation_messages(self, family, t, message):
        with pytest.raises(InvalidArgument) as info:
            db.EstimatorId(family, t)
        assert str(info.value) == message

    @pytest.mark.parametrize("t", ["1", 1.0, True])  # operator.index(True) is 1
    def test_an_index_that_is_not_an_integer_is_invalid_argument(self, t):
        with pytest.raises(InvalidArgument, match=r"^XI index must be in 1\.\.8$"):
            db.EstimatorId("XI", t)

    def test_all_estimators(self):
        ests = db.all_estimators()
        assert len(ests) == 12
        assert [str(e) for e in ests[:2]] == ["xi1", "xi2"]
        assert str(ests[-1]) == "zeta4"


class TestEstimate:
    def test_golden_zeta1(self, golden_pair):
        P, Q = golden_pair
        assert db.estimate(db.EstimatorId("ZETA", 1), P, Q) == pytest.approx(1.0, abs=1e-12)

    def test_golden_xi2(self, golden_pair):
        P, Q = golden_pair
        assert db.estimate(db.EstimatorId("XI", 2), P, Q) == pytest.approx(1.04920, abs=1e-4)

    def test_degenerate_pair(self):
        d = db.normalize([2, 5])
        with pytest.raises(DegeneratePair):
            db.estimate(db.EstimatorId("XI", 1), d, d)

    def test_an_id_that_is_not_an_estimator_id_is_invalid_argument(self, golden_pair):
        with pytest.raises(InvalidArgument, match="^not an EstimatorId: 'xi1'$"):
            db.estimate("xi1", *golden_pair)

    def test_containment(self, pairs_100):
        for P, Q in pairs_100:
            rng = db.ratio_range(P, Q)
            if rng.degenerate:
                continue
            for est in db.all_estimators():
                v = db.estimate(est, P, Q)
                assert rng.r - 1e-9 <= v <= rng.R + 1e-9, str(est)

    def test_zeta1_recomputed_from_divergences(self, golden_pair):
        # The estimator must depend on the pair only through its component
        # divergence values.
        P, Q = golden_pair
        j = db.divergence("J", P, Q)
        kl_adj = db.divergence("KL_ADJ", P, Q)
        expected = (j - kl_adj) / kl_adj
        assert db.estimate(db.EstimatorId("ZETA", 1), P, Q) == pytest.approx(expected, rel=1e-14)

    def test_xi5_recomputed_from_divergences(self, golden_pair):
        P, Q = golden_pair
        g1 = db.divergence("G1", P, Q)
        chi2_adj = db.divergence("CHI2_ADJ", P, Q)
        expected = 4 * g1 / (chi2_adj - 4 * g1)
        assert db.estimate(db.EstimatorId("XI", 5), P, Q) == pytest.approx(expected, rel=1e-14)

    def test_every_estimate_is_its_formula_bit_for_bit(self, pairs_100):
        # The paper's twelve ratios, written out on the pair's divergences.
        s = math.sqrt
        formulas = {
            "xi1": lambda d: s(2 * d["F1"]) / (s(d["CHI2_ADJ"]) - s(2 * d["F1"])),
            "xi2": lambda d: (s(d["KL"]) - s(d["F1"])) / s(d["F1"]),
            "xi3": lambda d: s(d["F2"]) / (s(d["KL_ADJ"]) - s(d["F2"])),
            "xi4": lambda d: (s(d["CHI2"]) - s(2 * d["F2"])) / s(2 * d["F2"]),
            "xi5": lambda d: 4 * d["G1"] / (d["CHI2_ADJ"] - 4 * d["G1"]),
            "xi6": lambda d: (d["KL_ADJ"] - 2 * d["G1"]) / (2 * d["G1"]),
            "xi7": lambda d: 2 * d["G2"] / (d["KL"] - 2 * d["G2"]),
            "xi8": lambda d: (d["CHI2"] - 4 * d["G2"]) / (4 * d["G2"]),
            "zeta1": lambda d: (d["J"] - d["KL_ADJ"]) / d["KL_ADJ"],
            "zeta2": lambda d: d["KL"] / (d["J"] - d["KL"]),
            "zeta3": lambda d: 2 * d["I"] / (d["KL_ADJ"] - 2 * d["I"]),
            "zeta4": lambda d: (d["KL"] - 2 * d["I"]) / (2 * d["I"]),
        }
        assert [str(e) for e in db.all_estimators()] == list(formulas)
        for P, Q in pairs_100[:20]:
            d = {m: db.divergence(m, P, Q) for m in db.MEASURE_IDS}
            for est in db.all_estimators():
                assert db.estimate(est, P, Q) == formulas[str(est)](d), str(est)

    def test_near_equal_pairs_raise_only_degenerate_pair(self):
        # p = q * (1 + 1e-8 z): several divergences round below zero, which
        # must surface as DegeneratePair, never as a raw math domain error.
        rng = np.random.default_rng(7)
        degenerate = 0
        for _ in range(50):
            n = int(rng.integers(2, 65))
            q = rng.uniform(0.5, 1.5, n)
            q /= q.sum()
            p = q * (1.0 + 1e-8 * rng.standard_normal(n))
            P, Q = db.Distribution(p / p.sum()), db.Distribution(q)
            for est in db.all_estimators():
                try:
                    db.estimate(est, P, Q)
                except DegeneratePair:
                    degenerate += 1
        assert degenerate > 0


def test_overflowing_divergence_is_typed():
    # KL(P||Q) overflows on this pair, so xi2 raises NumericOverflow, not
    # numpy's RuntimeWarning (an error under the test filter).
    P, Q = db.normalize([1, 1]), db.normalize([5e-324, 1])
    with pytest.raises(NumericOverflow, match="^divergence KL leaves the float range$"):
        db.estimate(db.EstimatorId("XI", 2), P, Q)
