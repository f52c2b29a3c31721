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
