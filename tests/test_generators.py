import math
import re

import numpy as np
import pytest

import divbounds as db
from divbounds.csiszar_bounds import a_cf_values, b_cf_values, b_defined
from divbounds.errors import InvalidArgument, LengthMismatch, NonFinite, NumericOverflow, UnknownMeasure

GRID = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 601))


class TestCatalog:
    def test_ids_and_count(self):
        cat = db.catalog()
        assert tuple(cat) == db.CATALOG_IDS
        assert len(cat) == 9

    def test_normalization_at_one(self):
        assert db.catalog()["J"].f(1) == 0

    def test_d1_curvature_at_one(self):
        assert db.catalog()["D1"].f_second(1) == pytest.approx(1.0, abs=1e-15)

    def test_t_curvature_at_one(self):
        assert db.catalog()["T"].f_second(1) == pytest.approx(0.25, abs=1e-15)

    def test_f_second_is_inf_only_past_the_float_range(self):
        # D2's f'' = (3x+1)/(x^2 (x+1)^2) is about 1e400 at x = 1e-200: inf,
        # not a division by x^2 = 0.0.
        f2 = db.catalog()["D2"].f_second
        assert f2(1e-200) == math.inf
        assert f2(np.array([1e-200, 0.5])).tolist() == [math.inf, f2(0.5)]

    def test_f_second_has_no_false_zero(self):
        # D1's f'' = (x+3)/(x+1)^2 is about 1e-160 at x = 1e160, where (x+1)^2 overflows.
        f2 = db.catalog()["D1"].f_second
        assert f2(1e160) == pytest.approx(1e-160, rel=1e-15)
        assert f2(np.array([1e160, 2.0])).tolist() == [f2(1e160), f2(2.0)]

    @pytest.mark.parametrize("mid", db.CATALOG_IDS)
    def test_convex_and_normalized_on_grid(self, mid):
        gen = db.catalog()[mid]
        assert abs(float(gen.f(1.0))) <= 1e-15
        assert float(np.min(gen.f_second(GRID))) > 0.0

    def test_generator_identities_pointwise(self):
        cat = db.catalog()
        fj = cat["J"].f(GRID)
        scale = 1.0 + np.abs(fj)
        assert np.max(np.abs(fj - (cat["D1"].f(GRID) + cat["D2"].f(GRID))) / scale) <= 1e-12
        assert np.max(np.abs(fj - 4.0 * (cat["I"].f(GRID) + cat["T"].f(GRID))) / scale) <= 1e-12
        d1 = cat["D1"].f(GRID)
        assert np.max(np.abs(d1 - 2.0 * (cat["F2"].f(GRID) + cat["G2"].f(GRID))) / scale) <= 1e-12

    def test_get_generator(self):
        assert db.get_generator("J") is db.catalog()["J"]
        with pytest.raises(UnknownMeasure):
            db.get_generator("NOPE")


class TestCheckGenerator:
    @pytest.mark.parametrize("mid", db.CATALOG_IDS)
    def test_finite_difference_agreement(self, mid):
        report = db.check_generator(db.catalog()[mid], GRID)
        assert report.max_abs_f_at_1 <= 1e-15
        assert report.min_f_second > 0.0
        assert report.max_f_prime_dev <= 1e-5
        assert report.max_f_second_dev <= 1e-5

    def test_phi_family_derivatives(self):
        for s in (-2.0, -0.5, 0.0, 0.5, 1.0, 1.7, 3.0):
            report = db.check_generator(db.phi_generator(s), GRID)
            assert report.max_abs_f_at_1 <= 1e-15
            assert report.min_f_second > 0.0
            assert report.max_f_prime_dev <= 1e-5
            assert report.max_f_second_dev <= 1e-5


class TestPhiGenerator:
    def test_power_branch(self):
        assert db.phi_generator(2).f(3.0) == pytest.approx(4.0, abs=1e-14)

    def test_zero_pole_branch(self):
        assert db.phi_generator(0).f(math.e) == pytest.approx(-1.0, abs=1e-14)

    def test_half_curvature(self):
        assert db.phi_generator(0.5).f_second(4.0) == pytest.approx(0.125, abs=1e-15)

    def test_pole_dispatch_threshold(self):
        assert db.phi_generator(1e-11).id == "PHI_S(0)"
        assert db.phi_generator(1.0 + 1e-11).id == "PHI_S(1)"
        assert db.phi_generator(1e-9).id != "PHI_S(0)"

    def test_id_carries_s_exactly(self):
        assert db.phi_generator(1.0000001).id != db.phi_generator(1.0).id
        assert db.phi_generator(0.1234567).id == "PHI_S(0.1234567)"

    def test_phis_str_is_the_generator_id(self):
        for s in (1.0000001, 1.0, 1.0 + 1e-11, 0.0, -0.0, 1e-11, 0.5, 2, -1.5):
            assert str(db.phi_generator(s)) == db.phi_generator(s).id, s
        assert str(db.phi_generator(1.0000001)) == "PHI_S(1.0000001)"
        assert str(db.phi_generator(2)) == "PHI_S(2.0)"

    def test_one_pole_is_entropy_form(self):
        gen = db.phi_generator(1)
        x = 2.5
        assert gen.f(x) == pytest.approx(x * math.log(x), abs=1e-15)

    def test_non_finite_s(self):
        with pytest.raises(NonFinite):
            db.phi_generator(float("nan"))

    def test_f_second_is_one_power(self):
        # f'' = x^(t-2) at every t, the poles of f included.
        for t in (-2.0, 0.0, 1e-11, 0.5, 1.0, 3.0):
            f2 = db.phi_generator(t).f_second
            assert f2 == db.Rational((1,), (1,), a=t)
            assert f2(4.0) == 4.0 ** (t - 2.0)


class TestRational:
    def test_catalog_exponent_is_two(self):
        for gen in db.catalog().values():
            assert type(gen.f_second) is db.Rational and gen.f_second.a == 2 and type(gen.f_second.a) is int

    def test_hash_and_equality_follow_num_den_and_a(self):
        f2 = db.catalog()["J"].f_second
        same = db.Rational(f2.num, f2.den, a=2.0)
        assert same == f2 and hash(same) == hash(f2)
        assert db.Rational(f2.num, f2.den, a=3) != f2
        assert db.Rational((1,), (1,), a=0.5) != db.Rational((1,), (1,), a=1.5)
        assert {f2: 1}[same] == 1

    @pytest.mark.parametrize("num, den", [((), (1,)), ((1,), ()), ((0,), (1,)), ((1,), (0, 0))])
    def test_empty_or_zero_polynomial(self, num, den):
        with pytest.raises(InvalidArgument):
            db.Rational(num, den)

    def test_generator_needs_a_rational_f_second(self):
        with pytest.raises(InvalidArgument, match="Rational"):
            db.Generator("X", f=lambda x: x * np.log(x), f_prime=lambda x: np.log(x) + 1.0, f_second=lambda x: 1.0 / x)
        gen = db.Generator("X", f=lambda x: x * np.log(x), f_prime=lambda x: np.log(x) + 1.0, f_second=db.Rational((1,), (1, 0)))
        assert db.g_eval(gen, 1.0, 3.0) == 1.0


class TestEvalCsiszar:
    def test_equal_pair_is_zero(self):
        d = db.normalize([2, 3, 5])
        assert db.eval_csiszar(db.catalog()["J"], d, d) == pytest.approx(0.0, abs=1e-15)

    def test_golden_j(self, golden_pair):
        P, Q = golden_pair
        assert db.eval_csiszar(db.catalog()["J"], P, Q) == pytest.approx(math.log(3), abs=1e-12)

    def test_golden_f2(self, golden_pair):
        P, Q = golden_pair
        assert db.eval_csiszar(db.catalog()["F2"], P, Q) == pytest.approx(0.1308123, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            db.eval_csiszar(db.catalog()["J"], db.normalize([1, 1]), db.normalize([1, 1, 1]))

    @pytest.mark.parametrize("mid", db.CATALOG_IDS)
    def test_nonnegative(self, mid, pairs_100):
        gen = db.catalog()[mid]
        for P, Q in pairs_100:
            assert db.eval_csiszar(gen, P, Q) >= -1e-12


#: Every catalog generator, and phi_generator(s) at the harness's default s,
#: near both poles and off the grid.
PREMISE_GENS = [
    *db.catalog().values(),
    *(db.phi_generator(s) for s in (*db.TrialConfig().s_samples, 0.3, -1.7, 1e-11, 1.0000001, 7.25)),
]


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _same_bits(one, column):
    """one[i] and column[i] hold the same float64, nan in the same places."""
    one, column = np.asarray(one, dtype=np.float64), np.asarray(column, dtype=np.float64)
    nan = np.isnan(one)
    return np.array_equal(nan, np.isnan(column)) and np.array_equal(one[~nan].view(np.int64), column[~nan].view(np.int64))


class TestOneValueAsAColumn:
    """numpy gives a 0-d array the bits of every entry of an array, so a_cf
    and b_cf on one range hold the bits of the harness's columns."""

    X = np.concatenate(
        [[5e-324, 1e-310, 1.0 - 2**-52, 1.0, 1.0 + 2**-52, 1e308], _log_uniform(np.random.default_rng(26), 5e-324, 1e308, 400)]
    )

    @pytest.mark.parametrize("gen", PREMISE_GENS, ids=str)
    def test_f_and_f_prime_on_a_0d_array_equal_the_array_entry(self, gen):
        with np.errstate(all="ignore"):
            for fn in (gen.f, gen.f_prime):
                column = fn(self.X)
                one = [fn(np.array(v)) for v in self.X.tolist()]
                assert _same_bits(one, column), (gen.id, fn)

    @staticmethod
    def _ranges():
        rng = np.random.default_rng(260)
        anywhere = np.sort(_log_uniform(rng, 5e-324, 1e308, (2, 100)), axis=0)
        r = np.concatenate([_log_uniform(rng, 1e-12, 1.0, 300), anywhere[0], [0.5, 1.0, 1e-300]])
        R = np.concatenate([_log_uniform(rng, 1.0, 1e12, 300), anywhere[1], [2.0, 1.0, 3.0]])
        return r, R

    @pytest.mark.parametrize("gen", PREMISE_GENS, ids=str)
    def test_a_cf_and_b_cf_equal_their_column_entry(self, gen):
        r, R = self._ranges()
        has_b = b_defined(r, R)
        with np.errstate(all="ignore"):
            columns = {db.a_cf: a_cf_values(gen, r, R), db.b_cf: b_cf_values(gen, r[has_b], R[has_b])}
        checked = {db.a_cf: range(r.size), db.b_cf: np.flatnonzero(has_b)}
        for functional, column in columns.items():
            for entry, i in zip(column.tolist(), checked[functional]):
                rng = db.RatioRange(float(r[i]), float(R[i]))
                if math.isfinite(entry):
                    value = functional(gen, rng)
                    assert type(value) is float
                    assert _same_bits(value, entry), (functional.__name__, gen.id, rng)
                else:
                    with pytest.raises(NumericOverflow, match=f"^{functional.__name__} of {re.escape(gen.id)} leaves the float range$"):
                        functional(gen, rng)


def test_every_export_resolves():
    missing = [name for name in db.__all__ if not hasattr(db, name)]
    assert missing == []
