"""Acceptance gate: ten numbered criteria, one pass/fail print each.

Each test prints "criterion N PASS: ..." on success; a failing assertion
both fails the test and prints the FAIL line.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import divbounds as db
from divbounds.csiszar_bounds import CLOSED_FORM_REGIONS, global_extrema_table
from divbounds.harness import _mix, _uniforms

from conftest import make_pairs

LN3 = math.log(3.0)
S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_identities(pairs_10k):
    worst = 0.0
    for P, Q in pairs_10k:
        j = db.divergence("J", P, Q)
        worst = max(
            worst,
            abs(j - db.divergence("D1", P, Q) - db.divergence("D2", P, Q)),
            abs(j - 4.0 * (db.divergence("I", P, Q) + db.divergence("T", P, Q))),
            abs(db.divergence("D1", P, Q) - 2.0 * (db.divergence("F2", P, Q) + db.divergence("G2", P, Q))),
        )
    _report(1, worst <= 1e-10, f"three identities over 10^4 pairs, worst |diff| = {worst:.3g}")


def test_criterion_2_phi_cases(pairs_1k):
    worst = 0.0
    for P, Q in pairs_1k:
        worst = max(
            worst,
            abs(db.phi_s(-1, P, Q) - 0.5 * db.divergence("CHI2_ADJ", P, Q)),
            abs(db.phi_s(0, P, Q) - db.divergence("KL_ADJ", P, Q)),
            abs(db.phi_s(0.5, P, Q) - 4.0 * db.divergence("HELLINGER", P, Q)),
            abs(db.phi_s(1, P, Q) - db.divergence("KL", P, Q)),
            abs(db.phi_s(2, P, Q) - 0.5 * db.divergence("CHI2", P, Q)),
        )
    # Continuity across the pole dispatch, on pairs with mild ratio ranges.
    worst_cont = 0.0
    for P, Q in make_pairs(200, seed=31, concentration=1.0):
        rng = db.ratio_range(P, Q)
        assert 1e-2 <= rng.r and rng.R <= 1e2
        for pole in (0.0, 1.0):
            base = db.phi_s(pole, P, Q)
            worst_cont = max(
                worst_cont,
                abs(db.phi_s(pole + 1e-6, P, Q) - base),
                abs(db.phi_s(pole - 1e-6, P, Q) - base),
            )
    ok = worst <= 1e-10 and worst_cont <= 1e-4
    _report(2, ok, f"particular cases worst |diff| = {worst:.3g}; pole continuity worst = {worst_cont:.3g}")


def test_criterion_3_engine_agreement(pairs_1k):
    worst = 0.0
    cat = db.catalog()
    for P, Q in pairs_1k:
        for mid in db.CATALOG_IDS:
            direct = db.divergence(mid, P, Q)
            engine = db.eval_csiszar(cat[mid], P, Q)
            worst = max(worst, abs(direct - engine) / (1.0 + abs(direct)))
    _report(3, worst <= 1e-12, f"closed form vs engine over 9 measures x 10^3 pairs, worst rel = {worst:.3g}")


def test_criterion_4_type_s_chain(pairs_1k, golden_pair):
    worst = math.inf
    for P, Q in pairs_1k:
        for s in S_GRID:
            bs = db.bound_set(s, P, Q)
            worst = min(worst, min(bs.checks.values()))
    P, Q = golden_pair
    bs = db.bound_set(1, P, Q)
    spots_ok = (
        abs(bs.phi - 0.5493061) <= 1e-6
        and abs(bs.e_bound - 1.0986123) <= 1e-6
        and abs(bs.a_bound - 1.4648164) <= 1e-6
        and abs(bs.b_bound - 0.5493061) <= 1e-6
    )
    ok = worst >= -1e-9 and spots_ok
    _report(4, ok, f"chain over 9 s x 10^3 pairs, worst slack = {worst:.3g}; golden spot values {'match' if spots_ok else 'MISMATCH'}")


def test_criterion_5_closed_vs_numeric():
    cat = db.catalog()
    worst = 0.0
    for t, (mid, (lo, hi)) in enumerate(CLOSED_FORM_REGIONS.items()):
        for i in range(200):
            u = _uniforms(_mix(9000 + 1000 * t + i), 3)
            # Alternate between the two monotone branches of the validity region.
            s = lo - 3.0 * u[0] if i % 2 == 0 else hi + 3.0 * u[0]
            r = 0.01 + 0.99 * float(u[1])
            R = 1.0 + 99.0 * float(u[2])
            rng = db.RatioRange(min(r, 1.0), max(R, 1.0))
            closed = db.mm_closed(mid, s, rng)
            assert closed is not None, (mid, s)
            numeric = db.mm_numeric(cat[mid], s, rng)
            worst = max(
                worst,
                abs(closed.m - numeric.m) / (1.0 + abs(numeric.m)),
                abs(closed.M - numeric.M) / (1.0 + abs(numeric.M)),
            )
    _report(5, worst <= 1e-6, f"closed-form m/M vs numeric optimizer, 200 draws x 9 measures, worst rel = {worst:.3g}")


def test_criterion_6_sandwich_bounds(golden_pair):
    pairs = make_pairs(1000, seed=63)
    worst = math.inf
    for i, (P, Q) in enumerate(pairs):
        for mid, (lo, hi) in CLOSED_FORM_REGIONS.items():
            # One s per (trial, measure), alternating validity branches.
            u = float(_uniforms(_mix(4000 + i), 9)[list(CLOSED_FORM_REGIONS).index(mid)])
            s = lo - 3.0 * u if i % 2 == 0 else hi + 3.0 * u
            rep = db.bound_interval(mid, s, P, Q)
            assert rep.mm.method == "closed_form"
            worst = min(worst, rep.lower_slack, rep.upper_slack)
    P, Q = golden_pair
    rep = db.bound_interval("I", 1, P, Q)
    spots_ok = (
        abs(rep.lower - 0.0686633) <= 1e-6
        and abs(rep.value - 0.1308123) <= 1e-6
        and abs(rep.upper - 0.2059898) <= 1e-6
    )
    ok = worst >= -1e-9 and spots_ok
    _report(6, ok, f"sandwich over 10^3 trials x 9 measures, worst slack = {worst:.3g}; golden (I, s=1) spot {'matches' if spots_ok else 'MISMATCH'}")


def test_criterion_7_global_propositions(pairs_10k, golden_pair):
    c34 = 3.0 * math.sqrt(3.0) / 4.0
    ct = 0.5 * (math.sqrt(2.0) - 1.0)
    worst = math.inf
    for P, Q in pairs_10k:
        kl = db.divergence("KL", P, Q)
        kl_adj = db.divergence("KL_ADJ", P, Q)
        h = db.divergence("HELLINGER", P, Q)
        j = db.divergence("J", P, Q)
        i = db.divergence("I", P, Q)
        t = db.divergence("T", P, Q)
        worst = min(
            worst,
            1.125 * kl - db.divergence("D1", P, Q),
            1.125 * kl_adj - db.divergence("D2", P, Q),
            0.25 * kl_adj - db.divergence("F1", P, Q),
            c34 * h - db.divergence("F1", P, Q),
            c34 * h - db.divergence("F2", P, Q),
            0.25 * kl - db.divergence("F2", P, Q),
            j / 8.0 - h,
            h - i,
            t - h,
            t - ct * max(kl, kl_adj),
        )
    P, Q = golden_pair
    h = db.divergence("HELLINGER", P, Q)
    spots_ok = (
        abs(h - 0.1339746) <= 1e-6
        and abs(db.divergence("J", P, Q) / 8.0 - 0.1373265) <= 1e-6
        and db.divergence("I", P, Q) <= h
        and abs(db.divergence("I", P, Q) - 0.1308123) <= 1e-6
        and abs(db.divergence("T", P, Q) - 0.1438410) <= 1e-6
        and db.divergence("T", P, Q) >= h
    )
    ok = worst >= -1e-12 and spots_ok
    _report(7, ok, f"global propositions over 10^4 pairs, worst slack = {worst:.3g}; tightness spots {'match' if spots_ok else 'MISMATCH'}")


def test_criterion_8_estimator_containment(pairs_10k, golden_pair):
    ests = db.all_estimators()
    worst = math.inf
    for P, Q in pairs_10k:
        rng = db.ratio_range(P, Q)
        if rng.degenerate:
            continue
        for est in ests:
            v = db.estimate(est, P, Q)
            worst = min(worst, v - (rng.r - 1e-9), (rng.R + 1e-9) - v)
    P, Q = golden_pair
    z1 = db.estimate(db.EstimatorId("ZETA", 1), P, Q)
    x2 = db.estimate(db.EstimatorId("XI", 2), P, Q)
    spots_ok = abs(z1 - 1.0) <= 1e-12 and abs(x2 - 1.04920) <= 1e-4
    ok = worst >= 0.0 and spots_ok
    _report(8, ok, f"12 estimators in [r-1e-9, R+1e-9] over 10^4 pairs, worst margin = {worst:.3g}; zeta1 = {z1:.6g}, xi2 = {x2:.6g}")


def test_criterion_9_tabulated_constants():
    cat = db.catalog()
    wide = db.RatioRange(1e-6, 1e6)
    worst_value = 0.0
    worst_point = 0.0
    for (mid, s), ext in global_extrema_table().items():
        gen = cat[mid]
        mm = db.mm_numeric(gen, s, wide)
        found = mm.M if ext.kind == "sup" else mm.m
        worst_value = max(worst_value, abs(found - ext.value))
        # Independent attaining-point check: bounded scalar minimization
        # around the tabulated point.
        sign = -1.0 if ext.kind == "sup" else 1.0
        res = minimize_scalar(
            lambda x: sign * db.g_eval(gen, s, x),
            bounds=(ext.x / 4.0, ext.x * 4.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        worst_point = max(worst_point, abs(res.x - ext.x))
    ok = worst_value <= 1e-9 and worst_point <= 1e-6
    _report(9, ok, f"11 tabulated extrema on [1e-6, 1e6]: worst value err = {worst_value:.3g}, worst attaining-point err = {worst_point:.3g}")


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "divbounds.cli", "verify", "--all", "--trials", "1000", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout
    _report(10, ok, f"verify --all --trials 1000 --seed 42 twice: exit codes ({first.returncode}, {second.returncode}), stdout {'byte-identical' if first.stdout == second.stdout else 'DIFFERS'}")
