import math
import re
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import divbounds as db
import divbounds.csiszar_bounds as cb
from divbounds.csiszar_bounds import CLOSED_FORM_REGIONS, global_extrema_table
from divbounds.errors import (
    DivBoundsError,
    InvalidArgument,
    InvalidRange,
    LengthMismatch,
    NonFinite,
    NonPositiveX,
    NotTabulated,
    NumericOverflow,
    UnknownMeasure,
)
from divbounds.generators import SplitPowers

from conftest import make_pairs

LN3 = math.log(3.0)
SQ2 = math.sqrt(2.0)


def _range_draws(count, seed):
    """Deterministic (r, R) draws with 0 < r <= 1 <= R <= 100."""
    from divbounds.harness import _mix, _uniforms

    out = []
    for u in _uniforms(_mix(np.arange(seed, seed + count, dtype=np.uint64)), 2):
        r = 0.01 + 0.99 * u[0]
        R = 1.0 + 99.0 * u[1]
        out.append(db.RatioRange(min(r, 1.0), max(R, 1.0)))
    return out


def _stationarity(measure):
    """(A, B) with S_s = A + s*B, from the measure's f''."""
    return cb._stationarity(db.get_generator(measure).f_second)


class TestGEval:
    def test_i_at_one(self):
        assert db.g_eval(db.catalog()["I"], 1, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_j_at_one(self):
        assert db.g_eval(db.catalog()["J"], 0.5, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_d1_interior_max(self):
        assert db.g_eval(db.catalog()["D1"], 1, 3.0) == pytest.approx(9 / 8, abs=1e-15)

    def test_array_input(self):
        xs = np.array([0.5, 1.0, 2.0])
        out = db.g_eval(db.catalog()["F2"], 2, xs)
        assert out.shape == xs.shape
        assert out[1] == pytest.approx(0.25, abs=1e-15)
        grid = db.g_eval(db.catalog()["F2"], 2, xs.reshape(3, 1))
        assert grid.shape == (3, 1) and grid.tobytes() == out.tobytes()
        assert db.g_eval(db.catalog()["F2"], 2, np.array(2.0)) == db.g_eval(db.catalog()["F2"], 2, 2.0)

    def test_nonpositive_x(self):
        with pytest.raises(NonPositiveX):
            db.g_eval(db.catalog()["J"], 1, 0.0)
        with pytest.raises(NonPositiveX):
            db.g_eval(db.catalog()["J"], 1, np.array([1.0, -2.0]))

    def test_float_overflow_is_typed(self):
        gen = db.catalog()["D1"]
        with pytest.raises(NumericOverflow):
            db.g_eval(gen, 100.0, 1e-6)  # x^(2-s) = 1e588
        with pytest.raises(NumericOverflow):
            db.g_eval(db.catalog()["F1"], 3.0, 1e-160)  # finite factors, infinite product
        with pytest.raises(NumericOverflow):
            db.g_eval(db.catalog()["J"], 3.0, 1e-200)  # f'' denominator underflows to 0, g = 1e600
        # An array raises where the float path raises, at its first such entry,
        # also for the power family's f'' = x^(t-2).
        with pytest.raises(NumericOverflow, match=re.escape("at x=1e-06, s=100.0")):
            db.g_eval(gen, 100.0, np.array([1.0, 1e-6, 1e-7]))
        with pytest.raises(NumericOverflow, match=re.escape("at x=10000000000.0, s=-300.0")):
            db.g_eval(db.phi_generator(3.0), -300.0, np.array([2.0, 1e10, 1e11]))
        assert issubclass(NumericOverflow, DivBoundsError)

    def test_underflowing_denominator_with_finite_g(self):
        # f'' = (x+1)/x^2 divides by x^2 = 0.0, but g = x^-0.5 + x^0.5 is 1e100.
        assert db.g_eval(db.catalog()["J"], 0.5, 1e-200) == pytest.approx(1e100, rel=1e-15)
        # D2 at a huge x: f''(x) = (3x+1)/(x^2 (x+1)^2) has D = inf, g = 3e200.
        assert db.g_eval(db.catalog()["D2"], -2.0, 1e200) == pytest.approx(3e200, rel=1e-15)
        assert db.g_eval(db.catalog()["T"], 0.5, 1e200) == pytest.approx(2.5e99, rel=1e-15)
        # phi_t's g = x^(t-s) is one power: 1 at s = t, however far x^(2-s) and
        # f''(x) = x^(t-2) are out of the float range.
        assert db.g_eval(db.phi_generator(0.5), 0.5, 1e-250) == 1.0
        P, Q = db.normalize([1e-250, 1]), db.normalize([1, 1])
        mm = db.mm_numeric(db.phi_generator(0.5), 0.5, db.ratio_range(P, Q))
        assert (mm.m, mm.M) == (1.0, 1.0)

    def test_overflowing_denominator_gives_no_false_zero(self):
        # D1's f'' = (x+3)/(x+1)^2 has D = inf at x = 1e200, so N/D = 0 is
        # finite; g = x^1.5 (x+3)/(x+1)^2 is about 1e100.
        x = 1e200
        log_g = 1.5 * math.log(x) + math.log(x) + math.log1p(3.0 / x) - 2.0 * (math.log(x) + math.log1p(1.0 / x))
        assert db.g_eval(db.catalog()["D1"], 0.5, x) == pytest.approx(math.exp(log_g), rel=1e-12)
        assert db.g_eval(db.catalog()["D1"], 0.5, np.array([x])).tolist() == [db.g_eval(db.catalog()["D1"], 0.5, x)]

    def test_subnormal_factor_takes_the_rescaled_path(self):
        # F1 and I at s = 0: x^2 is subnormal below x = 1.5e-154, where
        # x^2 * N/D loses up to 1.7e-4 relative; the scaled form computes
        # g = x/(x+1)^2 and x/(2x+2) as x^1 * n/d.
        xs = np.exp(np.linspace(math.log(1e-300), math.log(1e-154), 400))
        for mid in ("F1", "I"):
            gen = db.catalog()[mid]
            f2 = gen.f_second
            array = db.g_eval(gen, 0.0, xs).tolist()
            for x, a in zip(xs.tolist(), array):
                fx = Fraction(x)
                exact = float(fx**2 * cb.horner(f2.num, fx) / cb.horner(f2.den, fx))
                v = db.g_eval(gen, 0.0, x)
                assert abs(v - exact) <= 2 * math.ulp(exact), (mid, x)
                assert np.float64(a).tobytes() == np.float64(v).tobytes(), (mid, x)
        assert db.mm_exact("F1", 0.0, db.RatioRange(1e-158, 1.0)).m == pytest.approx(1e-158, rel=5e-16)

    def test_within_3_ulp_of_exact_g(self):
        # Every catalog g on the sandwich suites' s values and 241 log-spaced
        # x in [1e-300, 1e300], against 60 digits: within 3 ulp wherever the
        # exact g is a normal float, and NumericOverflow only where it is not.
        s_values = sorted({*db.TrialConfig().s_samples, 0.25, 0.75})
        xs = np.exp(np.linspace(math.log(1e-300), math.log(1e300), 241)).tolist()
        lo, hi = Decimal(sys.float_info.min), Decimal(sys.float_info.max)
        worst, raised = 0.0, 0
        with localcontext() as ctx:
            ctx.prec = 60
            # Each 2 - s is a multiple of 1/4, so x^(2-s) is an integer power of x^(1/4).
            roots = [Decimal(x).sqrt().sqrt() for x in xs]
            for mid, gen in db.catalog().items():
                f2 = gen.f_second
                ratios = [cb.horner(f2.num, Decimal(x)) / cb.horner(f2.den, Decimal(x)) for x in xs]
                for s in s_values:
                    k = int(4.0 * (2.0 - s))
                    assert k == 4.0 * (2.0 - s)
                    for x, root, ratio in zip(xs, roots, ratios):
                        exact = root**k * ratio
                        try:
                            v = db.g_eval(gen, s, x)
                        except NumericOverflow:
                            assert not lo <= exact <= hi, (mid, s, x)
                            raised += 1
                            continue
                        if lo <= exact <= hi:
                            err = float(abs(Decimal(v) - exact) / Decimal(math.ulp(float(exact))))
                            assert err <= 3.0, (mid, s, x, err)
                            worst = max(worst, err)
        assert raised and worst > 0.0

    def test_mm_exact_is_positive_or_overflows_on_wide_ranges(self):
        mm = db.mm_exact("D1", 0.5, db.RatioRange(0.5, 1e200))
        assert mm.m <= mm.M == pytest.approx(1e100, rel=1e-12)
        assert mm.m == pytest.approx(0.5499719409228704, rel=1e-12)
        oracle = db.mm_numeric(db.catalog()["D1"], 0.5, db.RatioRange(0.5, 1e200))
        assert (oracle.m, oracle.M) == pytest.approx((0.5499719409228704, mm.M), rel=1e-12)
        for mid in db.CATALOG_IDS:
            for s in db.TrialConfig().s_samples:
                for rng in (db.RatioRange(0.5, 1e200), db.RatioRange(1e-200, 2.0)):
                    try:
                        mm = db.mm_exact(mid, s, rng)
                    except NumericOverflow:
                        continue
                    assert 0.0 < mm.m <= mm.M, (mid, s, rng)


class TestMMNumeric:
    def test_d1_interior_maximum(self):
        mm = db.mm_numeric(db.catalog()["D1"], 1, db.RatioRange(1.0, 8.0))
        assert mm.M == pytest.approx(9 / 8, rel=1e-10)
        assert mm.method == "numeric"

    def test_degenerate_interval(self):
        gen = db.catalog()["T"]
        mm = db.mm_numeric(gen, 0.5, db.RatioRange(2.0, 2.0))
        assert mm.m == mm.M == pytest.approx(db.g_eval(gen, 0.5, 2.0), abs=1e-15)

    def test_f1_peak_at_one(self):
        mm = db.mm_numeric(db.catalog()["F1"], 0, db.RatioRange(1 / 3, 3.0))
        assert mm.M == pytest.approx(0.25, rel=1e-10)

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            db.mm_numeric(db.catalog()["J"], 1, db.RatioRange(0.0, 1.0))

    def test_extremum_in_end_cell(self):
        # g has its minimum at x = 0.1, inside the first grid cell, where no
        # sample is flanked by two neighbours.
        gen = db.catalog()["J"]
        mm = db.mm_numeric(gen, 1 / 11, db.RatioRange(0.09994969015355741, 166.19274411843972))
        assert mm.m <= db.g_eval(gen, 1 / 11, 0.1)
        assert mm.m == pytest.approx(1.3561314133862725, rel=1e-15)

    def test_brackets_g_on_interval(self):
        for mid in db.CATALOG_IDS:
            gen = db.catalog()[mid]
            for s in (-1.0, 0.5, 2.0):
                rng = db.RatioRange(0.2, 5.0)
                mm = db.mm_numeric(gen, s, rng)
                xs = np.exp(np.linspace(math.log(rng.r), math.log(rng.R), 64))
                gs = db.g_eval(gen, s, xs)
                assert float(gs.min()) >= mm.m - 1e-12
                assert float(gs.max()) <= mm.M + 1e-12


class TestMMClosed:
    def test_i_s1(self):
        mm = db.mm_closed("I", 1, db.RatioRange(1 / 3, 3.0))
        assert mm.method == "closed_form"
        assert mm.m == pytest.approx(1 / 8, rel=1e-14)
        assert mm.M == pytest.approx(3 / 8, rel=1e-14)

    def test_d1_s2(self):
        mm = db.mm_closed("D1", 2, db.RatioRange(1 / 3, 3.0))
        assert mm.m == pytest.approx(3 / 8, rel=1e-14)
        assert mm.M == pytest.approx(15 / 8, rel=1e-14)

    def test_gap_returns_none(self):
        assert db.mm_closed("D1", 1, db.RatioRange(1 / 3, 3.0)) is None
        assert db.mm_closed("T", 0.5, db.RatioRange(1 / 3, 3.0)) is None

    def test_phi_s_measure(self):
        rng = db.RatioRange(0.5, 4.0)
        mm = db.mm_closed(db.phi_generator(2.0), 2.0, rng)
        assert (mm.m, mm.M) == (1.0, 1.0)
        mm = db.mm_closed(db.phi_generator(3.0), 1.0, rng)
        assert mm.m == pytest.approx(0.25, rel=1e-14)
        assert mm.M == pytest.approx(16.0, rel=1e-14)
        mm = db.mm_closed(db.phi_generator(0.0), 1.0, rng)
        assert mm.m == pytest.approx(0.25, rel=1e-14)
        assert mm.M == pytest.approx(2.0, rel=1e-14)

    def test_phi_s_power_overflow_is_typed(self):
        with pytest.raises(NumericOverflow):
            db.mm_closed(db.phi_generator(300.0), -10.0, db.RatioRange(1e-30, 1e30))
        with pytest.raises(NumericOverflow):
            db.mm_closed(db.phi_generator(-300.0), 10.0, db.RatioRange(1e-30, 1e30))
        # g = x^2 underflows to 0 at r = 2e-200: the exact and the numeric
        # (m, M) both raise, as g_eval does for every catalog measure.
        P, Q = db.normalize([1e-200, 1]), db.normalize([1, 1])
        gen = db.phi_generator(3.0)
        with pytest.raises(NumericOverflow, match="leaves the float range"):
            db.bound_interval(gen, 1.0, P, Q)
        with pytest.raises(NumericOverflow, match="leaves the float range"):
            db.mm_numeric(gen, 1.0, db.ratio_range(P, Q))
        # A nan or infinite s is rejected before g, at every (m, M) entry point.
        rng = db.RatioRange(0.5, 2.0)
        for s in (math.nan, math.inf, -math.inf):
            for measure in ("J", db.phi_generator(0.5)):
                gen = db.get_generator(measure)
                calls = (
                    lambda: db.mm_exact(measure, s, rng),
                    lambda: db.mm_closed(measure, s, rng),
                    lambda: db.mm_numeric(gen, s, rng),
                    lambda: cb.mm_exact_values(measure, s, 0.5, 2.0),
                    lambda: cb.mm_exact_arrays(measure, s, np.array([0.5]), np.array([2.0])),
                    lambda: db.g_eval(gen, s, 1.0),
                    lambda: db.g_eval(gen, s, np.array([0.5, 1.0])),
                )
                for call in calls:
                    with pytest.raises(NonFinite, match=f"^s must be finite, got {s}$"):
                        call()

    def test_unknown_measure(self):
        with pytest.raises(UnknownMeasure):
            db.mm_closed("NOPE", 1, db.RatioRange(0.5, 2.0))

    def test_agrees_with_numeric_oracle(self):
        cat = db.catalog()
        ranges = _range_draws(20, seed=555)
        for mid, (lo, hi) in CLOSED_FORM_REGIONS.items():
            for s in (lo - 1.5, lo, hi, hi + 1.5):
                for rng in ranges:
                    closed = db.mm_closed(mid, s, rng)
                    assert closed is not None
                    numeric = db.mm_numeric(cat[mid], s, rng)
                    assert abs(closed.m - numeric.m) <= 1e-6 * (1 + abs(numeric.m)), (mid, s)
                    assert abs(closed.M - numeric.M) <= 1e-6 * (1 + abs(numeric.M)), (mid, s)

    def test_monotone_region_sign(self):
        # g must be nondecreasing below the gap and nonincreasing above it.
        xs = np.exp(np.linspace(math.log(0.05), math.log(20.0), 400))
        for mid, (lo, hi) in CLOSED_FORM_REGIONS.items():
            gen = db.catalog()[mid]
            for s, direction in ((lo, 1.0), (lo - 2.0, 1.0), (hi, -1.0), (hi + 2.0, -1.0)):
                diffs = direction * np.diff(db.g_eval(gen, s, xs))
                assert float(diffs.min()) >= -1e-12, (mid, s)


class TestMMExact:
    # (r, R) from nearly 1 out to 1e-6..1e6, plus a degenerate range.
    RANGES = [(1.0, 1.0)] + [(r, R) for r in (1e-6, 1e-3, 0.1, 0.6, 0.97) for R in (1.02, 1.8, 12.0, 1e3, 1e6)]

    def test_matches_numeric_oracle_in_gap(self):
        cat = db.catalog()
        worst = 0.0
        for mid, (lo, hi) in CLOSED_FORM_REGIONS.items():
            for s in np.linspace(lo, hi, 13)[1:-1]:
                for r, R in self.RANGES:
                    rng = db.RatioRange(r, R)
                    exact = db.mm_exact(mid, float(s), rng)
                    assert exact.method == "closed_form"
                    oracle = db.mm_numeric(cat[mid], float(s), rng)
                    worst = max(worst, abs(exact.m - oracle.m) / oracle.m, abs(exact.M - oracle.M) / oracle.M)
        assert worst <= 1e-12

    def test_interior_extremum_is_attained(self):
        # D1 at s = 1 peaks at x = 3 with g = 9/8; T at s = 0.5 bottoms out at x = 1 with g = 1/4.
        assert db.mm_exact("D1", 1.0, db.RatioRange(0.5, 8.0)).M == pytest.approx(9 / 8, rel=1e-15)
        assert db.mm_exact("T", 0.5, db.RatioRange(0.5, 8.0)).m == pytest.approx(0.25, rel=1e-15)

    def test_monotone_regions_have_no_stationary_point(self):
        # Inside each CLOSED_FORM_REGIONS side S_s has no root in (0, inf),
        # so g is monotone there and the endpoints are its extrema.
        for mid, (lo, hi) in CLOSED_FORM_REGIONS.items():
            a, b = _stationarity(mid)
            for s in np.concatenate([np.linspace(lo - 6.0, lo, 25), np.linspace(hi, hi + 6.0, 25)]):
                c = np.trim_zeros(np.array(a) + s * np.array(b), "f")
                roots = np.roots(c) if c.size > 1 else np.array([])
                real = roots[np.abs(roots.imag) <= 1e-9 * np.abs(roots)].real
                assert not np.any(real > 0.0), (mid, s, real)

    def test_unknown_measure(self):
        with pytest.raises(UnknownMeasure):
            db.mm_exact("NOPE", 1, db.RatioRange(0.5, 2.0))


def _mm_per_trial(measure, s, r, R):
    """The scalar reference: mm_exact_values once per trial, as arrays."""
    mm = [cb.mm_exact_values(measure, s, a, b) for a, b in zip(r.tolist(), R.tolist())]
    return tuple(np.array(mm, dtype=np.float64).reshape(-1, 2).T)


def _nan_where_the_scalar_form_raises(measure, s, r, R) -> int:
    """Assert that mm_exact_arrays on (r, R) is nan at exactly the entries
    where mm_exact_values raises, and holds its bits at every other entry;
    return how many entries raised."""
    ref = []
    for a, b in zip(r.tolist(), R.tolist()):
        try:
            ref.append(cb.mm_exact_values(measure, s, a, b))
        except NumericOverflow:
            ref.append((math.nan, math.nan))
    ref_m, ref_M = np.array(ref, dtype=np.float64).reshape(-1, 2).T
    raised = np.isnan(ref_m)
    m, M = cb.mm_exact_arrays(measure, s, r, R)
    assert np.isnan(m).tolist() == np.isnan(M).tolist() == raised.tolist(), (measure, s)
    assert (m[~raised].tobytes(), M[~raised].tobytes()) == (ref_m[~raised].tobytes(), ref_M[~raised].tobytes()), (measure, s)
    return int(raised.sum())


class TestMMExactArrays:
    # Every s a sandwich suite uses, the default grid, and one gap s per measure.
    S_VALUES = sorted({*db.TrialConfig().s_samples, 0.25, 0.75, *((lo + hi) / 2 for lo, hi in CLOSED_FORM_REGIONS.values())})
    # Ratio ranges out to 1e-300 and 1e250, where g overflows at some s.
    WIDE_R = np.array([1e-300, 1e-200, 1e-160, 1e-30, 1e-5, 0.5, 0.5, 0.9, 1.0, 1e-250])
    WIDE_RR = np.array([1.0, 2.0, 3.0, 1e30, 1e100, 1e160, 1e200, 1e200, 1.0, 1e250])

    def test_bit_identical_on_pair_table_ranges(self):
        for cfg in (
            db.TrialConfig(seed=42, trials=300),
            db.TrialConfig(seed=42, trials=300, concentration=12.0),
            db.TrialConfig(seed=42, trials=300, n_min=2, n_max=2),
        ):
            r, R = db.PairTable(cfg).extremes()
            for mid in db.CATALOG_IDS:
                for s in self.S_VALUES:
                    m, M = cb.mm_exact_arrays(mid, s, r, R)
                    ref_m, ref_M = _mm_per_trial(mid, s, r, R)
                    assert (m.tobytes(), M.tobytes()) == (ref_m.tobytes(), ref_M.tobytes()), (cfg, mid, s)

    def test_nan_exactly_where_the_scalar_form_raises(self):
        # Each entry alone, and all entries at once: an entry whose scalar
        # (m, M) leaves the float range is nan, and no other entry moves.
        r, R = self.WIDE_R, self.WIDE_RR
        raised = 0
        for mid in db.CATALOG_IDS:
            for s in self.S_VALUES:
                for i in range(r.size):
                    _nan_where_the_scalar_form_raises(mid, s, r[i : i + 1], R[i : i + 1])
                raised += _nan_where_the_scalar_form_raises(mid, s, r, R)
        assert raised

    def test_monotone_cells_call_no_g_eval_where_g_leaves_the_float_range(self, monkeypatch):
        # The array path evaluates g in the same scaled form as the float
        # path and marks an entry nan where that is not finite or is 0: no
        # entry takes the float path, not even one that leaves the range.
        calls, g_eval = [], cb.g_eval
        monkeypatch.setattr(cb, "g_eval", lambda gen, s, x: calls.append(x) or g_eval(gen, s, x))
        r, R = self.WIDE_R, self.WIDE_RR
        fired = 0
        for mid, (lo, hi) in CLOSED_FORM_REGIONS.items():
            for s in (lo, lo - 1.0, hi, hi + 1.0):
                fired += _nan_where_the_scalar_form_raises(mid, s, r, R) > 0
        assert fired > 0
        assert calls == []
        r, R = db.PairTable(db.TrialConfig(seed=42)).extremes()
        for mid, (lo, hi) in CLOSED_FORM_REGIONS.items():
            cb.mm_exact_arrays(mid, lo, r, R)
            cb.mm_exact_arrays(mid, hi, r, R)
        assert calls == []

    def test_gap_cells_are_one_array_g(self, monkeypatch):
        # A gap cell evaluates g on one array of the endpoints and the cached
        # stationary points that the ranges hold: no scalar g call at all,
        # let alone one per trial.
        calls, g_eval = [], cb.g_eval
        monkeypatch.setattr(cb, "g_eval", lambda gen, s, x: calls.append(x) or g_eval(gen, s, x))
        r, R = db.PairTable(db.TrialConfig(seed=42)).extremes()
        for mid, s in (("T", 0.5), ("D1", 1.0)):
            roots = cb._stationary_points(db.catalog()[mid].f_second, s)
            assert len(roots) == 1 and np.sum((r < roots[0]) & (roots[0] < R)) > 100, (mid, s)
            calls.clear()
            m, M = cb.mm_exact_arrays(mid, s, r, R)
            assert calls == [], (mid, s)
            ref_m, ref_M = _mm_per_trial(mid, s, r, R)
            assert (m.tobytes(), M.tobytes()) == (ref_m.tobytes(), ref_M.tobytes()), (mid, s)

    def test_array_g_eval_is_the_float_path_entry_by_entry(self):
        # Every point, and each array of them as a whole (flat, 2-d and 0-d),
        # against g_eval at each entry's float: equal bytes, or the error of
        # the first entry that raises.  numpy's array ** differs from
        # Python's in the last bit at a few percent of the log-spaced points.
        xs = np.concatenate([self.WIDE_R, self.WIDE_RR, np.exp(np.linspace(math.log(1e-3), math.log(1e3), 60))])
        gens = [*db.catalog().values(), db.phi_generator(0.5), db.phi_generator(3.0)]
        raised = 0
        for gen in gens:
            for s in self.S_VALUES:
                ref, first_error = [], None
                for x in xs.tolist():
                    try:
                        ref.append(cb.g_eval(gen, s, x))
                    except NumericOverflow as exc:
                        first_error = first_error or str(exc)
                        with pytest.raises(NumericOverflow, match=re.escape(str(exc))):
                            cb.g_eval(gen, s, np.array(x))
                        ref.append(math.nan)
                    else:
                        assert cb.g_eval(gen, s, np.array(x)) == ref[-1]
                for arr in (xs, xs.reshape(8, 10)):
                    if first_error is None:
                        assert cb.g_eval(gen, s, arr).tobytes() == np.array(ref).reshape(arr.shape).tobytes(), (gen.id, s)
                    else:
                        raised += 1
                        with pytest.raises(NumericOverflow, match=re.escape(first_error)):
                            cb.g_eval(gen, s, arr)
        assert raised

    def test_power_measures_empty_arrays_and_unknown_measure(self):
        r, R = self.WIDE_R[3:9], self.WIDE_RR[3:9]
        for measure, s in ((db.phi_generator(0.5), 1.0), (db.phi_generator(2.0), 2.0), (db.phi_generator(1.0), -0.5)):
            m, M = cb.mm_exact_arrays(measure, s, r, R)
            ref_m, ref_M = _mm_per_trial(measure, s, r, R)
            assert (m.tobytes(), M.tobytes()) == (ref_m.tobytes(), ref_M.tobytes()), (measure, s)
        # On the wide ranges an endpoint's x^(t-s) over- or underflows (at
        # trial 0, or at trial 1's m or M on the slice): the batched cell is
        # nan at each entry where the scalar form raises.
        raised = 0
        for r, R in ((self.WIDE_R, self.WIDE_RR), (self.WIDE_R[4:], self.WIDE_RR[4:])):
            for measure, s in ((db.phi_generator(3.0), 1.0), (db.phi_generator(-1.0), 2.0), (db.phi_generator(0.5), 0.5), (db.phi_generator(2.0), -1.5)):
                raised += _nan_where_the_scalar_form_raises(measure, s, r, R) > 0
        assert raised == 6
        for mid, s in (("J", 2.0), ("J", 0.5)):
            m, M = cb.mm_exact_arrays(mid, s, np.empty(0), np.empty(0))
            assert m.shape == M.shape == (0,)
        with pytest.raises(UnknownMeasure):
            cb.mm_exact_arrays("NOPE", 1.0, r, R)

    # r and R each mix entries <= 1 and > 1: 1 < r <= R and r <= R < 1, as
    # a pair that sums to 1 only to rounding gives, and r = R = 1.
    MIXED_R = np.array([0.25, 1.0, 1.0000000000000002, 0.5, 3.0, 0.9, 1e-3])
    MIXED_RR = np.array([4.0, 1.0, 1.0000000000000007, 0.75, 7.5, 1.1, 1e3])

    def test_mixed_sides_bit_identical_one_power_per_exponent(self):
        r, R = self.MIXED_R, self.MIXED_RR
        split = SplitPowers(np.concatenate([r, R]))
        exponents, ratios = set(), set()
        for mid in db.CATALOG_IDS:
            f_second = db.catalog()[mid].f_second
            sides = list(enumerate((f_second.low, f_second.high)))
            ratios |= {(side, n, d) for side, (_, n, d) in sides}
            for s in self.S_VALUES:
                ref = [a.tobytes() for a in _mm_per_trial(mid, s, r, R)]
                assert [a.tobytes() for a in cb.mm_exact_arrays(mid, s, r, R, split)] == ref, (mid, s)
                assert [a.tobytes() for a in cb.mm_exact_arrays(mid, s, r, R)] == ref, (mid, s)  # a fresh split
                exponents |= {(side, (f_second.a - s) + k) for side, (k, _, _) in sides}
        # One column per distinct exponent and per f'' side, kept for every cell.
        assert set(split.powers) == exponents and len(exponents) < 2 * len(db.CATALOG_IDS) * len(self.S_VALUES)
        assert set(split.ratios) == ratios

    def test_each_call_without_powers_reads_its_arrays_values(self):
        r, R = self.MIXED_R.copy(), self.MIXED_RR.copy()
        for mid, s in (("J", 0.5), ("T", 0.5), ("D1", -1.0)):
            for step in range(2):
                m, M = cb.mm_exact_arrays(mid, s, r, R)
                ref_m, ref_M = _mm_per_trial(mid, s, r, R)
                assert (m.tobytes(), M.tobytes()) == (ref_m.tobytes(), ref_M.tobytes()), (mid, s, step)
                r *= 1.5  # an array's new values are read on the next call
                R *= 1.5

    def test_new_arrays_of_one_shape_give_their_own_values(self):
        for scale in (2.0, 3.0, 5.0):
            r, R = self.MIXED_R * scale, self.MIXED_RR * scale
            for mid, s in (("J", 0.5), ("J", 2.0)):
                m, M = cb.mm_exact_arrays(mid, s, r, R)
                ref_m, ref_M = _mm_per_trial(mid, s, r, R)
                assert (m.tobytes(), M.tobytes()) == (ref_m.tobytes(), ref_M.tobytes()), (scale, mid, s)
        # One array of the pair new.
        other = self.MIXED_RR * 7.0
        m, M = cb.mm_exact_arrays("J", 0.5, r, other)
        ref_m, ref_M = _mm_per_trial("J", 0.5, r, other)
        assert (m.tobytes(), M.tobytes()) == (ref_m.tobytes(), ref_M.tobytes())


class TestGlobalExtrema:
    def test_d1(self):
        ext = db.global_extrema("D1", 1)
        assert (ext.kind, ext.value, ext.x) == ("sup", 9 / 8, 3.0)

    def test_t_s0(self):
        ext = db.global_extrema("T", 0)
        assert ext.kind == "inf"
        assert ext.value == pytest.approx((SQ2 - 1) / 2, abs=1e-15)
        assert ext.x == pytest.approx(SQ2 - 1, abs=1e-15)

    def test_i_half(self):
        ext = db.global_extrema("I", 0.5)
        assert (ext.kind, ext.value, ext.x) == ("sup", 0.25, 1.0)

    def test_not_tabulated(self):
        with pytest.raises(NotTabulated):
            db.global_extrema("J", 2)

    def test_table_shape(self):
        table = global_extrema_table()
        assert len(table) == 11
        assert all(ext.kind in ("sup", "inf") for ext in table.values())

    def test_values_are_attained_extrema(self):
        # Each tabulated value must equal g at the stated point and bound g
        # on a wide grid around it.
        xs = np.exp(np.linspace(math.log(1e-5), math.log(1e5), 2000))
        for (mid, s), ext in global_extrema_table().items():
            gen = db.catalog()[mid]
            assert db.g_eval(gen, s, ext.x) == pytest.approx(ext.value, rel=1e-12)
            gs = db.g_eval(gen, s, xs)
            if ext.kind == "sup":
                assert float(gs.max()) <= ext.value + 1e-9, (mid, s)
            else:
                assert float(gs.min()) >= ext.value - 1e-9, (mid, s)


class TestStationarity:
    def test_pinned_integer_coefficients(self):
        # S_s = A + s*B per measure, as plain ints of equal length.
        expected = {
            "D1": ((1, 3, 6), (-1, -4, -3)),
            "D2": ((-3, 1, 0), (-3, -4, -1)),
            "F1": ((0, -1, 1), (0, -1, -1)),
            "F2": ((0, 0, 2), (0, -1, -1)),
            "G1": ((0, -2, 0), (0, -2, -2)),
            "G2": ((0, 2, 4), (0, -2, -2)),
            "J": ((1, 0), (-1, -1)),
            "I": ((0, 0, 2), (0, -2, -2)),
            "T": ((4, 8, -4, 0), (-4, -4, -4, -4)),
        }
        table = {mid: _stationarity(mid) for mid in db.CATALOG_IDS}
        assert table == expected
        for a, b in table.values():
            assert all(type(k) is int for k in a + b)

    @pytest.mark.parametrize(
        "measure",
        [*CLOSED_FORM_REGIONS, *(db.phi_generator(t) for t in (-1.5, 0.0, 0.5, 1.0, 3.0))],
        # Cases named by s in %g form (PHI_S(3), not str's PHI_S(3.0)).
        ids=lambda m: f"PHI_S({m.f_second.a:g})" if isinstance(m, db.Generator) else str(m),
    )
    def test_paper_regions_agree_with_stationarity(self, measure):
        # Outside the gap S_s has no positive root, and its sign at x = 1 is
        # the direction of g: increasing for s <= s_lo, decreasing for s >= s_hi.
        # phi_generator(t)'s gap is the single point t (its f'' = x^(t-2) has
        # a = t), where S_s = 0 and g = 1.
        lo, hi = (measure.f_second.a,) * 2 if isinstance(measure, db.Generator) else CLOSED_FORM_REGIONS[measure]
        a, b = _stationarity(measure)
        for offset in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0):
            for s, sign in ((lo - offset, 1.0), (hi + offset, -1.0)):
                c = [x + s * y for x, y in zip(a, b)]
                assert cb._positive_roots(c) == [], (measure, s)
                assert sign * cb.horner(c, 1.0) > 0.0 or lo == s == hi, (measure, s)

    def test_roots_are_found_once_per_measure_and_s(self, monkeypatch):
        # S_s depends on (f'', s) alone: 50 distinct pairs, one search.
        searches = []
        positive_roots = cb._positive_roots
        monkeypatch.setattr(cb, "_positive_roots", lambda c: searches.append(c) or positive_roots(c))
        cb._stationary_points.cache_clear()
        pairs = make_pairs(50, seed=31)
        assert len({(P.probs.tobytes(), Q.probs.tobytes()) for P, Q in pairs}) == 50
        for P, Q in pairs:
            assert db.bound_interval("T", 0.5, P, Q).holds
        assert len(searches) == 1

    def test_cached_roots_give_the_per_range_extrema(self):
        # On every gap (measure, s) of the default grid, (m, M) from the
        # cached roots are g at r, R and the roots _real_roots finds inside
        # (r, R), within 2 ulp, and contain the numeric oracle's (m, M) up
        # to g's own rounding (g at a sample next to the root of S_s can
        # round an ulp past g at the root).
        ranges = [(rng.r, rng.R) for rng in _range_draws(16, seed=808)]
        ranges += zip(TestMMExactArrays.WIDE_R.tolist(), TestMMExactArrays.WIDE_RR.tolist())
        checked = raised = 0
        for mid, (lo, hi) in CLOSED_FORM_REGIONS.items():
            gen = db.catalog()[mid]
            a, b = _stationarity(mid)
            for s in (s for s in db.TrialConfig().s_samples if lo < s < hi):
                c = [x + s * y for x, y in zip(a, b)]
                for r, R in ranges:
                    try:
                        gs = [db.g_eval(gen, s, x) for x in (r, R, *cb._real_roots(c, r, R))]
                    except NumericOverflow as exc:
                        with pytest.raises(NumericOverflow, match=re.escape(str(exc))):
                            cb.mm_exact_values(mid, s, r, R)
                        raised += 1
                        continue
                    m, M = cb.mm_exact_values(mid, s, r, R)
                    assert abs(m - min(gs)) <= 2 * math.ulp(min(gs)), (mid, s, r, R)
                    assert abs(M - max(gs)) <= 2 * math.ulp(max(gs)), (mid, s, r, R)
                    oracle = db.mm_numeric(gen, s, db.RatioRange(r, R))
                    assert m <= oracle.m + 4 * math.ulp(m) and oracle.M <= M + 4 * math.ulp(M), (mid, s, r, R)
                    checked += 1
        assert checked > 400 and raised > 0

    def test_positive_roots(self):
        # (x - 1e-3)(x - 2)(x + 5) and x^2 (x - 7): roots at 0 and below 0 are dropped.
        c = np.polymul(np.polymul([1.0, -1e-3], [1.0, -2.0]), [1.0, 5.0]).tolist()
        assert cb._positive_roots(c) == pytest.approx([1e-3, 2.0], rel=1e-14)
        assert cb._positive_roots([1.0, -7.0, 0.0, 0.0]) == [7.0]
        assert cb._positive_roots([1.0, 1.0]) == [] and cb._positive_roots([3.0]) == []


def _paper_closed_forms() -> dict:
    """The paper's 11 global extrema, (measure, s) -> (kind, value, x), each
    closed form evaluated to 40 digits and rounded once to a float."""
    with localcontext() as ctx:
        ctx.prec = 40
        one, r2, r3 = Decimal(1), Decimal(2).sqrt(), Decimal(3).sqrt()
        table = {
            ("D1", 1.0): ("sup", 9 * one / 8, 3 * one),
            ("D2", 0.0): ("sup", 9 * one / 8, one / 3),
            ("F1", 0.0): ("sup", one / 4, one),
            ("F1", 0.5): ("sup", 3 * r3 / 16, one / 3),
            ("F2", 0.5): ("sup", 3 * r3 / 16, 3 * one),
            ("F2", 1.0): ("sup", one / 4, one),
            ("J", 0.5): ("inf", 2 * one, one),
            ("I", 0.5): ("sup", one / 4, one),
            ("T", 0.0): ("inf", (r2 - 1) / 2, r2 - 1),
            ("T", 0.5): ("inf", one / 4, one),
            ("T", 1.0): ("inf", (r2 - 1) / 2, r2 + 1),
        }
    return {key: (kind, float(value), float(x)) for key, (kind, value, x) in table.items()}


_PAPER_CLOSED_FORMS = _paper_closed_forms()


class TestDerivedExtrema:
    def test_keys_are_the_papers(self):
        assert set(global_extrema_table()) == set(_PAPER_CLOSED_FORMS)

    @pytest.mark.parametrize("key", list(_PAPER_CLOSED_FORMS), ids=lambda k: f"{k[0]}-s{k[1]:g}")
    def test_matches_closed_form(self, key):
        kind, value, x = _PAPER_CLOSED_FORMS[key]
        ext = db.global_extrema(*key)
        assert ext.kind == kind
        for got, want in ((ext.value, value), (ext.x, x)):
            assert abs(got - want) <= 2.0 * math.ulp(want), (key, got, want)


class TestGenericFunctionals:
    def test_e_cf_zero_on_equal_pair(self):
        d = db.normalize([1, 3])
        assert db.e_cf(db.catalog()["J"], d, d) == pytest.approx(0.0, abs=1e-15)

    def test_e_cf_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            db.e_cf(db.catalog()["J"], db.normalize([1, 3]), db.normalize([1, 2, 3]))

    def test_a_cf_specialization(self):
        rng = db.RatioRange(1 / 3, 3.0)
        assert db.a_cf(db.phi_generator(2), rng) == pytest.approx(16 / 9, rel=1e-12)

    def test_a_cf_degenerate(self):
        assert db.a_cf(db.catalog()["I"], db.RatioRange(1.0, 1.0)) == 0.0

    def test_b_cf_precondition(self):
        with pytest.raises(InvalidRange):
            db.b_cf(db.catalog()["I"], db.RatioRange(1.5, 2.0))

    def test_e_cf_specialization(self, golden_pair):
        P, Q = golden_pair
        # At s = 1, sum (p_i - q_i) f'(p_i/q_i) = sum (p_i - q_i) ln(p_i/q_i) is J.
        assert db.e_cf(db.phi_generator(1), P, Q) == pytest.approx(db.divergence("J", P, Q), abs=1e-12)

    @pytest.mark.parametrize(
        "rng, overflows",
        [(db.RatioRange(1e-310, 2.0), {("a_cf", "J"), ("b_cf", "D2")}), (db.RatioRange(0.5, 1e308), {("a_cf", "G1")})],
        ids=["r=1e-310", "R=1e308"],  # str of a set follows the string hash
    )
    def test_a_cf_and_b_cf_are_finite_or_typed_without_warnings(self, rng, overflows):
        # f or f' at 1e-310 or 1e308 (1/x, log((x+1)/(2x)), x^(s-1)) leaves
        # the float range for some generators: NumericOverflow, not inf,
        # nan or a numpy RuntimeWarning.
        raised = set()
        gens = [*db.catalog().values(), db.phi_generator(3.0), db.phi_generator(-2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gen in gens:
                for functional in (db.a_cf, db.b_cf):
                    try:
                        value = functional(gen, rng)
                    except NumericOverflow as exc:
                        raised.add((functional.__name__, gen.id))
                        assert str(exc).startswith(f"{functional.__name__} of {gen.id} "), exc
                    else:
                        assert math.isfinite(value), (functional.__name__, gen.id)
        assert raised >= overflows

    def test_b_cf_of_f1_is_finite_at_a_subnormal_r(self):
        # F1's f, x*ln(2x/(x+1)) + (1-x)/2, is finite at x = 1e-310, where
        # (x+1)/(2x) would overflow; B = (f(r) + (1-r) f(2)) / (2-r) is
        # (1/2 + 2 ln(4/3) - 1/2) / 2 = ln(4/3) to rounding.
        value = db.b_cf(db.catalog()["F1"], db.RatioRange(1e-310, 2.0))
        assert value == pytest.approx(math.log(4 / 3), rel=1e-15)


class TestBoundInterval:
    def test_golden_i_s1(self, golden_pair):
        P, Q = golden_pair
        rep = db.bound_interval("I", 1, P, Q)
        assert rep.lower == pytest.approx(0.0686633, abs=1e-6)
        assert rep.value == pytest.approx(0.1308123, abs=1e-6)
        assert rep.upper == pytest.approx(0.2059898, abs=1e-6)
        assert rep.holds
        assert rep.mm.method == "closed_form"

    def test_equal_pair_all_zero(self):
        d = db.normalize([3, 7])
        rep = db.bound_interval("J", 1, d, d)
        assert rep.lower == rep.value == rep.upper == pytest.approx(0.0, abs=1e-15)
        assert rep.holds

    def test_golden_j_s0(self, golden_pair):
        P, Q = golden_pair
        rep = db.bound_interval("J", 0, P, Q)
        assert rep.lower == pytest.approx((4 / 3) * 0.5 * LN3, rel=1e-10)
        assert rep.upper == pytest.approx(4 * 0.5 * LN3, rel=1e-10)
        assert rep.value == pytest.approx(LN3, rel=1e-12)
        assert rep.holds

    def test_gap_uses_exact_extrema(self, golden_pair):
        P, Q = golden_pair
        rep = db.bound_interval("D1", 1, P, Q)
        assert rep.mm.method == "closed_form"
        oracle = db.mm_numeric(db.catalog()["D1"], 1, rep.mm.range)
        assert rep.mm.m == pytest.approx(oracle.m, rel=1e-12)
        assert rep.mm.M == pytest.approx(oracle.M, rel=1e-12)
        assert rep.holds

    def test_auto_and_closed_never_call_numeric(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("mm_numeric called")

        monkeypatch.setattr(cb, "mm_numeric", forbidden)
        for P, Q in make_pairs(5, seed=17):
            for mid in db.CATALOG_IDS:
                for s in db.TrialConfig().s_samples:
                    rep = db.bound_interval(mid, s, P, Q)
                    assert rep.mm.method == "closed_form"
                    assert rep.holds, (mid, s)

    def test_numeric_method_forced(self, golden_pair):
        P, Q = golden_pair
        mm = db.mm_numeric("I", 1, db.ratio_range(P, Q))
        assert mm.method == "numeric"
        assert mm.m * db.phi_s(1, P, Q) == pytest.approx(0.0686633, abs=1e-6)

    def test_overflowing_g_is_typed(self):
        P, Q = db.normalize([1, 1e6]), db.normalize([1e6, 1])
        with pytest.raises(NumericOverflow):
            db.bound_interval("D1", 100.0, P, Q)

    @pytest.mark.parametrize("measure", db.CATALOG_IDS)
    def test_overflowing_phi_s_is_typed(self, measure):
        # phi_s = inf here used to give lower = nan and a false violation.
        with pytest.raises(NumericOverflow):
            db.bound_interval(measure, -2.0, db.normalize([1e-300, 1]), db.normalize([1, 1]))

    def test_holds_across_measures_and_s(self):
        for P, Q in make_pairs(20, seed=99):
            for mid in db.CATALOG_IDS:
                for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
                    rep = db.bound_interval(mid, s, P, Q)
                    assert rep.holds, (mid, s)

    @pytest.mark.parametrize("measure", ["J", db.phi_generator(0.5)], ids=str)
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_is_typed(self, measure, s):
        # s is checked before g, which would raise NumericOverflow at x = 1/3.
        P, Q = db.normalize([1, 2, 3]), db.normalize([3, 2, 1])
        with pytest.raises(NonFinite, match=f"^s must be finite, got {s}$"):
            db.bound_interval(measure, s, P, Q)
        with pytest.raises(NonFinite, match=f"^s must be finite, got {s}$"):
            db.mm_numeric(measure, s, db.ratio_range(P, Q))

    def test_non_real_s_is_invalid_argument(self):
        P, Q = db.normalize([1, 2, 3]), db.normalize([3, 2, 1])
        with pytest.raises(InvalidArgument, match="^s must be a real number, got 'x'$"):
            db.bound_interval("J", "x", P, Q)

    def test_one_errstate_and_no_public_wrapper(self, monkeypatch, golden_pair):
        entered = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def errstate(self, **kwargs):
                entered.append(kwargs)
                return np.errstate(**kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a public wrapper was called")

        ranges = []

        def counted_range(P, Q):
            ranges.append(db.ratio_range(P, Q))
            return ranges[-1]

        monkeypatch.setattr(cb, "np", CountingNumpy())
        for name in ("phi_s", "eval_csiszar"):
            monkeypatch.setattr(cb, name, forbidden)
        # The range is the one public accessor it asks, once a call.
        monkeypatch.setattr(cb, "ratio_range", counted_range)
        for measure in ("J", db.phi_generator(0.5)):
            entered.clear()
            ranges.clear()
            report = db.bound_interval(measure, 0.5, *golden_pair)
            assert report.holds
            assert entered == [{"over": "ignore", "invalid": "ignore"}]
            assert ranges == [report.mm.range]


def _public_parts(measure, s, P, Q):
    """bound_interval's fields from the public functions, called in its
    order of evaluation, or the first DivBoundsError they raise."""
    try:
        rng = db.ratio_range(P, Q)
        gen = db.get_generator(measure)
        mm = db.mm_exact(measure, s, rng)
        phi, value = db.phi_s(s, P, Q), db.eval_csiszar(gen, P, Q)
        lower, upper, lower_slack, upper_slack = cb.sandwich(mm.m, mm.M, phi, value)
    except DivBoundsError as exc:
        return exc
    return rng, dict(lower=lower, value=value, upper=upper, lower_slack=lower_slack, upper_slack=upper_slack, m=mm.m, M=mm.M)


def _bits(fields: dict) -> dict:
    return {k: np.float64(v).tobytes() for k, v in fields.items()}


def _assert_public_parity(measure, s, P, Q):
    """bound_interval gives the bits of its public parts, or raises the
    type and message of the first one that raises."""
    expected = _public_parts(measure, s, P, Q)
    if isinstance(expected, DivBoundsError):
        with pytest.raises(DivBoundsError) as info:
            db.bound_interval(measure, s, P, Q)
        assert (type(info.value), str(info.value)) == (type(expected), str(expected)), (measure, s)
        return expected
    rng, fields = expected
    rep = db.bound_interval(measure, s, P, Q)
    got = dict(
        lower=rep.lower,
        value=rep.value,
        upper=rep.upper,
        lower_slack=rep.lower_slack,
        upper_slack=rep.upper_slack,
        m=rep.mm.m,
        M=rep.mm.M,
    )
    assert _bits(got) == _bits(fields), (measure, s)
    assert (rep.mm.range, rep.mm.method, rep.measure, rep.s) == (rng, "closed_form", measure, s)
    return None


class TestBoundIntervalParity:
    MEASURES = (*db.CATALOG_IDS, db.phi_generator(0.5), db.phi_generator(2.0))
    # The default grid, and s at and next to the poles 0 and 1.
    S_GRID = (*db.TrialConfig().s_samples, 1e-11, 1.0 - 1e-11, -0.0)

    @pytest.mark.parametrize("kwargs", [{}, {"n_min": 2, "n_max": 2}, {"concentration": 12.0}], ids=str)
    def test_fields_are_the_bits_of_the_public_parts(self, kwargs):
        for P, Q in make_pairs(12, seed=5, **kwargs):
            for measure in self.MEASURES:
                for s in self.S_GRID:
                    assert _assert_public_parity(measure, s, P, Q) is None

    def test_errors_are_the_first_failing_public_parts(self):
        cases = [(mid, -2.0, [1e-300, 1], [1, 1]) for mid in (*db.CATALOG_IDS, db.phi_generator(-2.0))]  # g or phi_s overflows
        cases.append(("D1", 100.0, [1, 1e6], [1e6, 1]))  # g overflows
        cases.append(("J", 0.5, [1, 2], [1, 2, 3]))  # lengths differ
        errors = set()
        for measure, s, p, q in cases:
            exc = _assert_public_parity(measure, s, db.normalize(p), db.normalize(q))
            assert exc is not None, (measure, s)
            errors.add((type(exc).__name__, str(exc).split(" leaves")[0].split(" at x=")[0]))
        # Each of the three public parts is the first to fail somewhere.
        assert errors >= {
            ("NumericOverflow", "phi_s at s=-2.0"),
            ("NumericOverflow", "g(x) = x^(2-s) f''(x)"),
            ("LengthMismatch", "lengths differ: 2 vs 3"),
        }


class TestDifferenceBounds:
    def test_non_real_s_is_invalid_argument(self):
        P, Q = db.normalize([1, 2, 3]), db.normalize([3, 2, 1])
        with pytest.raises(InvalidArgument, match="^s must be a real number, got 'a'$"):
            db.difference_bounds("J", "a", P, Q)

    def test_mm_comes_from_the_pair_alone(self):
        # (m, M) are mm_exact's on the pair's own s and range; no caller can
        # put another s's or range's (m, M) into a report.
        P, Q = db.normalize([3, 1, 2]), db.normalize([1, 3, 2])
        rep = db.difference_bounds("J", 1.0, P, Q)
        assert rep.mm == db.mm_exact("J", 1.0, db.ratio_range(P, Q))
        assert rep.holds
        with pytest.raises(TypeError):
            db.difference_bounds("J", 1.0, P, Q, db.mm_exact("J", 0.5, db.RatioRange(0.9, 1.1)))
        with pytest.raises(TypeError):
            db.bound_interval("J", 1.0, P, Q, "numeric")

    def test_phi_generator_is_tight(self, pairs_100):
        # gen equal to the power generator makes g constant 1, so every
        # difference sandwich collapses to an identity.
        for s in (0.0, 0.5, 1.0, 2.0):
            for P, Q in pairs_100[:10]:
                rep = db.difference_bounds(db.phi_generator(s), s, P, Q)
                assert rep.mm.m == pytest.approx(1.0, rel=1e-9)
                assert rep.mm.M == pytest.approx(1.0, rel=1e-9)
                for name, slack in rep.checks.items():
                    assert abs(slack) <= 1e-9, name

    def test_j_generator_golden(self, golden_pair):
        P, Q = golden_pair
        rep = db.difference_bounds(db.catalog()["J"], 1, P, Q)
        assert rep.holds
        assert set(rep.checks) == {"e_lower", "e_upper", "a_lower", "a_upper", "b_lower", "b_upper"}

    def test_equal_pair_all_zero(self):
        d = db.normalize([1, 2, 3])
        rep = db.difference_bounds(db.catalog()["I"], 0, d, d)
        assert "b_lower" not in rep.checks  # degenerate range drops the chord form
        for slack in rep.checks.values():
            assert abs(slack) <= 1e-12

    def test_range_missing_one_by_rounding_drops_the_chord_form(self):
        # P and Q sum to 1 only to rounding, so r <= R < 1: B's hypothesis
        # r <= 1 <= R fails, and the B form is omitted as on r = R.
        P, Q = db.normalize([8.000000000000002, 5.000000000000001]), db.normalize([8, 5])
        assert db.ratio_range(P, Q).R < 1.0
        for mid in ("J", "D1", "T"):
            rep = db.difference_bounds(db.catalog()[mid], 1, P, Q)
            assert set(rep.checks) == {"e_lower", "e_upper", "a_lower", "a_upper"}, mid

    def test_holds_for_catalog(self, pairs_100):
        for i, (P, Q) in enumerate(pairs_100[:36]):
            mid = db.CATALOG_IDS[i % 9]
            s = (-1.0, 0.5, 1.0, 2.0)[(i // 9) % 4]
            rep = db.difference_bounds(db.catalog()[mid], s, P, Q)
            assert rep.holds, (mid, s)


    def test_catalog_default_matches_numeric_oracle(self, pairs_100):
        for i, (P, Q) in enumerate(pairs_100[:45]):
            mid = db.CATALOG_IDS[i % 9]
            gen = db.catalog()[mid]
            lo, hi = CLOSED_FORM_REGIONS[mid]
            for s in (lo - 0.5, 0.5 * (lo + hi), 0.25 * lo + 0.75 * hi, hi + 0.5):
                rep = db.difference_bounds(gen, s, P, Q)
                oracle = db.mm_numeric(gen, s, rep.range)
                assert rep.mm.method == "closed_form"
                assert rep.mm.m == pytest.approx(oracle.m, rel=1e-12, abs=0.0), (mid, s)
                assert rep.mm.M == pytest.approx(oracle.M, rel=1e-12, abs=0.0), (mid, s)
                assert rep.holds, (mid, s)

    def test_catalog_default_never_calls_numeric(self, monkeypatch, pairs_100):
        def forbidden(*args, **kwargs):
            raise AssertionError("mm_numeric called")

        monkeypatch.setattr(cb, "mm_numeric", forbidden)
        for P, Q in pairs_100[:5]:
            for mid in db.CATALOG_IDS:
                for s in db.TrialConfig().s_samples:
                    assert db.difference_bounds(db.catalog()[mid], s, P, Q).holds, (mid, s)

    def test_non_catalog_default_is_exact(self, golden_pair, pairs_100):
        # Every generator's f'' is a Rational, so a generator outside the
        # catalog gets the exact (m, M) too: here phi_(1/2) and a user
        # generator with f'' = (x^4 + 1) / (x^3 (x + 1)^2), whose g has a
        # stationary point for -1 <= s <= 1.
        c = 2.0 * math.log(2.0)
        user = db.Generator(
            "USER",
            f=lambda x: 3 * x * np.log(x) + 2 * np.log(x) + 0.5 / x - 2 * x * np.log1p(x) + (c - 3.5) * x + 3,
            f_prime=lambda x: 3 * np.log(x) + 2 / x - 0.5 / x**2 - 2 * np.log1p(x) + 2 / (x + 1) + c - 2.5,
            f_second=db.Rational((1, 0, 0, 0, 1), (1, 2, 1, 0, 0, 0)),
        )
        check = db.check_generator(user, np.exp(np.linspace(-3.0, 3.0, 61)))
        assert check.max_abs_f_at_1 <= 1e-15 and check.min_f_second > 0.0
        assert check.max_f_prime_dev <= 1e-8 and check.max_f_second_dev <= 1e-8
        cases = [(db.phi_generator(0.5), 1.0, golden_pair)]
        cases += [(user, s, pair) for s in (-1.0, 0.0, 0.5, 1.0, 2.0) for pair in (golden_pair, *pairs_100[:8])]
        interior = 0
        for gen, s, (P, Q) in cases:
            rep = db.difference_bounds(gen, s, P, Q)
            oracle = db.mm_numeric(gen, s, rep.range)
            assert rep.mm.method == "closed_form"
            assert rep.mm.m == pytest.approx(oracle.m, rel=1e-12, abs=0.0), (gen.id, s)
            assert rep.mm.M == pytest.approx(oracle.M, rel=1e-12, abs=0.0), (gen.id, s)
            assert rep.holds, (gen.id, s)
            interior += any(rep.range.r < x < rep.range.R for x in cb._stationary_points(gen.f_second, s))
        assert interior > 10


def test_result_types_are_slotted(golden_pair):
    P, Q = golden_pair
    rep = db.bound_interval("I", 1, P, Q)
    for obj in (rep, rep.mm, rep.mm.range):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def _mm_bits(mm) -> dict:
    return {"m": np.float64(mm.m).tobytes(), "M": np.float64(mm.M).tobytes(), "method": mm.method, "range": mm.range}


class TestOneHandle:
    """A Generator is accepted wherever a measure is named: a catalog one
    gives the bits of its id, any other its own exact (m, M)."""

    def test_non_measures_raise_unknown_measure(self, golden_pair):
        P, Q = golden_pair
        rng = db.RatioRange(0.5, 2.0)
        for bad in (["J"], {"J": 1}, None, 1.5):
            calls = (
                lambda: db.get_generator(bad),
                lambda: db.divergence(bad, P, Q),
                lambda: db.mm_closed(bad, 1.0, rng),
                lambda: db.mm_exact(bad, 1.0, rng),
                lambda: cb.mm_exact_values(bad, 1.0, 0.5, 2.0),
                lambda: cb.mm_exact_arrays(bad, 1.0, np.array([0.5]), np.array([2.0])),
                lambda: db.global_extrema(bad, 1.0),
                lambda: db.bound_interval(bad, 1.0, P, Q),
            )
            for call in calls:
                with pytest.raises(UnknownMeasure):
                    call()

    def test_generator_functionals_take_ids(self, golden_pair):
        P, Q = golden_pair
        rng = db.ratio_range(P, Q)
        calls = {
            "eval_csiszar": lambda g: db.eval_csiszar(g, P, Q),
            "e_cf": lambda g: db.e_cf(g, P, Q),
            "a_cf": lambda g: db.a_cf(g, rng),
            "a_cf degenerate": lambda g: db.a_cf(g, db.RatioRange(1.0, 1.0)),
            "b_cf": lambda g: db.b_cf(g, rng),
            "difference_bounds": lambda g: db.difference_bounds(g, 0.5, P, Q).checks,
            "g_eval": lambda g: db.g_eval(g, 0.5, 3.0),
            "g_eval array": lambda g: db.g_eval(g, 0.5, np.array([0.5, 3.0])).tolist(),
            "mm_numeric": lambda g: _mm_bits(db.mm_numeric(g, 0.5, rng)),
        }
        for name, call in calls.items():
            for mid in db.CATALOG_IDS:
                assert repr(call(mid)) == repr(call(db.catalog()[mid])), (name, mid)
            for bad in ("NOPE", ["J"], None, 1.5):
                with pytest.raises(UnknownMeasure):
                    call(bad)

    def test_catalog_generator_gives_the_bits_of_its_id(self):
        pairs = make_pairs(6, seed=18, concentration=6.0)
        gaps = tabulated = 0
        for mid in db.CATALOG_IDS:
            gen = db.catalog()[mid]
            assert db.get_generator(gen) is gen and str(gen) == mid
            for s in db.TrialConfig().s_samples:
                for P, Q in pairs:
                    by_id, by_gen = db.bound_interval(mid, s, P, Q), db.bound_interval(gen, s, P, Q)
                    fields = ("lower", "value", "upper", "lower_slack", "upper_slack")
                    assert _bits({k: getattr(by_id, k) for k in fields}) == _bits({k: getattr(by_gen, k) for k in fields})
                    assert _mm_bits(by_id.mm) == _mm_bits(by_gen.mm), (mid, s)
                    rng = by_id.mm.range
                    assert _mm_bits(db.mm_exact(mid, s, rng)) == _mm_bits(db.mm_exact(gen, s, rng)), (mid, s)
                    closed = db.mm_closed(mid, s, rng), db.mm_closed(gen, s, rng)
                    if closed[0] is None:
                        assert closed[1] is None, (mid, s)
                        gaps += 1
                    else:
                        assert _mm_bits(closed[0]) == _mm_bits(closed[1]), (mid, s)
                r = np.array([P.probs.min() for P, _ in pairs])  # any ranges will do
                R = np.array([max(1.0, 1.0 / v) for v in r])
                arrays = cb.mm_exact_arrays(mid, s, r, R), cb.mm_exact_arrays(gen, s, r, R)
                assert [a.tobytes() for a in arrays[0]] == [a.tobytes() for a in arrays[1]], (mid, s)
                extrema = []
                for measure in (mid, gen):
                    try:
                        extrema.append(db.global_extrema(measure, s))
                    except NotTabulated:
                        extrema.append(None)
                assert extrema[0] is extrema[1], (mid, s)
                tabulated += extrema[0] is not None
        assert gaps > 0 and tabulated > 0

    def test_user_generator(self):
        # f = (x-1)^2, whose C_f is chi-square; f'' = 2 at every x.
        gen = db.Generator("SQ", f=lambda x: (x - 1.0) ** 2, f_prime=lambda x: 2.0 * (x - 1.0), f_second=db.Rational((2,), (1,)))
        for P, Q in make_pairs(20, seed=18):
            for s in db.TrialConfig().s_samples:
                rep = db.bound_interval(gen, s, P, Q)
                assert rep.holds, s
                assert rep.value == pytest.approx(db.divergence("CHI2", P, Q), rel=1e-12)
                assert rep.mm == db.difference_bounds(gen, s, P, Q).mm, s
                assert db.mm_closed(gen, s, rep.mm.range) == rep.mm, s
        # Named like a catalog generator, it gets neither a gap nor a
        # tabulated extremum: those belong to the catalog's own J.
        like_j = db.Generator("J", gen.f, gen.f_prime, gen.f_second)
        assert db.mm_closed(like_j, 0.5, db.RatioRange(0.5, 2.0)) is not None
        assert db.mm_closed("J", 0.5, db.RatioRange(0.5, 2.0)) is None
        with pytest.raises(NotTabulated):
            db.global_extrema(like_j, 0.5)

    def test_bound_interval_resolves_once_and_checks_s_twice(self, monkeypatch):
        import divbounds.generators as gm

        counts = {"get_generator": 0, "require_finite_s": 0}
        for name in counts:
            original = getattr(gm, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for mod in (cb, gm):
                monkeypatch.setattr(mod, name, counting)
        calls = 0
        for P, Q in make_pairs(5, seed=18):
            for s in db.TrialConfig().s_samples:
                for mid in db.CATALOG_IDS:
                    db.bound_interval(mid, s, P, Q)
                    calls += 1
        assert counts == {"get_generator": calls, "require_finite_s": 2 * calls}
