"""The latest-pair memo of the public per-pair functions: a warm call gives
the bits and the errors of a cold one, a pair's vectors x = p / q and
d = p - q are formed once, and the memo keeps no pair, and no vector, alive."""

import dataclasses
import gc
import math
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

import divbounds as db
import divbounds.csiszar_bounds as csiszar_bounds
import divbounds.generators as generators
import divbounds.measures as measures
import divbounds.simplex as simplex
from divbounds.errors import DivBoundsError, LengthMismatch, NonFinite, NumericOverflow, UnknownMeasure

from conftest import make_pairs

DEFAULT_S = db.TrialConfig().s_samples
S_VALUES = DEFAULT_S + (1.0000001,)


def _calls():
    """(label, fn(P, Q)) for every public function that reads the memo, each
    measure, s and generator; phi_s(s) and eval_csiszar(phi_generator(s))
    share an entry, so both orders are asked for."""
    calls = [("ratio_range", db.ratio_range)]
    calls += [(f"divergence {m}", lambda P, Q, m=m: db.divergence(m, P, Q)) for m in db.MEASURE_IDS]
    for s in S_VALUES:
        calls.append((f"phi_s {s}", lambda P, Q, s=s: db.phi_s(s, P, Q)))
        calls.append((f"C_f phi {s}", lambda P, Q, s=s: db.eval_csiszar(db.phi_generator(s), P, Q)))
    calls += [(f"C_f {m}", lambda P, Q, m=m: db.eval_csiszar(db.catalog()[m], P, Q)) for m in db.CATALOG_IDS]
    calls += [(f"C_f id {m}", lambda P, Q, m=m: db.eval_csiszar(m, P, Q)) for m in db.CATALOG_IDS]
    calls += [(f"estimate {e}", lambda P, Q, e=e: db.estimate(e, P, Q)) for e in db.all_estimators()]
    calls += [(f"e_cf {m}", lambda P, Q, m=m: db.e_cf(db.catalog()[m], P, Q)) for m in db.CATALOG_IDS]
    for s in S_VALUES:
        calls.append((f"e_cf phi {s}", lambda P, Q, s=s: db.e_cf(db.phi_generator(s), P, Q)))
        calls.append((f"bound_set {s}", lambda P, Q, s=s: db.bound_set(s, P, Q)))
    for m in db.CATALOG_IDS:
        for s in DEFAULT_S:
            calls.append((f"bound_interval {m} {s}", lambda P, Q, m=m, s=s: db.bound_interval(m, s, P, Q)))
            calls.append((f"difference_bounds {m} {s}", lambda P, Q, m=m, s=s: db.difference_bounds(m, s, P, Q)))
    return calls


CALLS = _calls()


def _bits(value):
    """value with each float, in a report's fields and checks too, as its
    hex string."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, *(_bits(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return tuple((name, _bits(v)) for name, v in value.items())
    if value is None or type(value) is str:
        return value
    assert type(value) is float
    return value.hex()


def _outcome(fn, P, Q):
    """The bits of fn(P, Q), or the type and message of what it raised."""
    try:
        return _bits(fn(P, Q))
    except DivBoundsError as exc:
        return type(exc), str(exc)


def _copy(D):
    return db.Distribution(D.probs)


def _cold(P, Q):
    """Each call on its own equal-valued copy of the pair: a memo miss."""
    return [_outcome(fn, _copy(P), _copy(Q)) for _, fn in CALLS]


def _warm(P, Q):
    return [_outcome(fn, P, Q) for _, fn in CALLS]


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(simplex, "_latest", None)


def test_warm_calls_give_the_cold_bits(fresh_memo):
    pairs = make_pairs(50, seed=19)
    pairs.append((db.normalize([8.000000000000002, 5.000000000000001]), db.normalize([8, 5])))
    pairs.append((db.normalize([1, 1, 1]), db.normalize([1, 1, 1])))
    for P, Q in pairs:
        cold = _cold(P, Q)
        first = _warm(P, Q)
        second = _warm(P, Q)
        for (label, _), c, f, s in zip(CALLS, cold, first, second):
            assert c == f == s, label


def test_reversed_order_shares_the_phi_entry(fresh_memo):
    P, Q = make_pairs(1, seed=5)[0]
    for s in S_VALUES:
        cf = db.eval_csiszar(db.phi_generator(s), P, Q)
        assert db.phi_s(s, P, Q).hex() == cf.hex() == db.phi_s(s, _copy(P), _copy(Q)).hex()


def test_generators_with_one_id_keep_their_own_entries(fresh_memo):
    P, Q = make_pairs(1, seed=8)[0]
    square = db.Generator("J", f=lambda x: (x - 1.0) ** 2, f_prime=lambda x: 2.0 * (x - 1.0), f_second=db.Rational((2,), (1,)))
    quartic = db.Generator("J", f=lambda x: (x - 1.0) ** 4, f_prime=lambda x: 4.0 * (x - 1.0) ** 3, f_second=db.Rational((12, -24, 12), (1,)))
    values = [db.eval_csiszar(g, P, Q) for g in ("J", square, quartic)]
    assert values == [db.eval_csiszar(g, _copy(P), _copy(Q)) for g in ("J", square, quartic)]
    assert len(set(values)) == 3


def test_memo_holds_only_scalars(fresh_memo):
    P, Q = make_pairs(1, seed=6)[0]
    _warm(P, Q)
    held = simplex._latest.values
    assert len(held) == 1 + len(db.MEASURE_IDS) + len(S_VALUES) + len(db.CATALOG_IDS) + 1
    assert all(type(v) in (float, bool, db.RatioRange) for v in held.values())


def test_interleaved_pairs(monkeypatch, fresh_memo):
    counts = {"KL": 0, "extremes": 0}
    kl, extremes = measures._DISPATCH["KL"], simplex.ratio_extremes

    def counting_kl(p, q):
        counts["KL"] += 1
        return kl(p, q)

    def counting_extremes(x):
        counts["extremes"] += 1
        return extremes(x)

    monkeypatch.setitem(measures._DISPATCH, "KL", counting_kl)
    monkeypatch.setattr(simplex, "ratio_extremes", counting_extremes)
    (A, B), (C, D) = make_pairs(2, seed=7, n_min=8, n_max=8)
    expected = {}
    for pair in ((A, B), (C, D)):
        expected[pair] = (db.divergence("KL", *map(_copy, pair)), db.ratio_range(*map(_copy, pair)))
    counts.update(KL=0, extremes=0)
    seen = []
    for pair in ((A, B), (A, B), (C, D), (A, B), (A, B)):
        value, rng = db.divergence("KL", *pair), db.ratio_range(*pair)
        assert _bits(value) == _bits(expected[pair][0])
        assert _bits(rng) == _bits(expected[pair][1])
        seen.append((counts["KL"], counts["extremes"]))
    assert seen == [(1, 1), (1, 1), (2, 2), (3, 3), (3, 3)]
    # A pair that shares only P or only Q with the latest, or is it in the
    # other order, is another pair.
    others = ((A, B), (A, D), (C, D), (D, C))
    cold = [db.divergence("KL", *map(_copy, pair)) for pair in others]
    for pair, value in zip(others, cold):
        assert _bits(db.divergence("KL", *pair)) == _bits(value)
    assert counts["KL"] == 11


def test_bound_interval_reads_the_memoized_range(fresh_memo):
    P, Q = make_pairs(1, seed=14)[0]
    for m in db.CATALOG_IDS:
        assert db.bound_interval(m, 0.5, P, Q).mm.range is db.ratio_range(P, Q)
    assert simplex._latest.values[db.ratio_range] is db.ratio_range(P, Q)  # one entry, under ratio_range's key


@pytest.mark.parametrize("call", [db.ratio_range, lambda P, Q: db.bound_interval("J", 0.5, P, Q)], ids=["ratio_range", "bound_interval"])
def test_a_length_mismatch_leaves_the_slot_unchanged(call, fresh_memo):
    P, Q = make_pairs(1, seed=16)[0]
    db.ratio_range(P, Q)
    latest, values = simplex._latest, dict(simplex._latest.values)
    for _ in range(2):
        with pytest.raises(LengthMismatch, match="lengths differ: 2 vs 3"):
            call(ONE, db.normalize([1, 1, 1]))
        assert simplex._latest is latest and latest.values == values


def test_estimate_raises_a_length_mismatch_and_stores_no_verdict(fresh_memo):
    Q = db.normalize([1, 1, 1])
    for _ in range(2):
        with pytest.raises(LengthMismatch, match="lengths differ: 2 vs 3"):
            db.estimate(db.EstimatorId("XI", 1), ONE, Q)
        assert simplex._latest.values == {}


def test_a_grid_of_bound_intervals_reduces_x_once(monkeypatch, fresh_memo):
    counts = {"extremes": 0}
    extremes = simplex.ratio_extremes

    def counting_extremes(x):
        counts["extremes"] += 1
        return extremes(x)

    monkeypatch.setattr(simplex, "ratio_extremes", counting_extremes)
    P, Q = make_pairs(1, seed=14)[0]
    reports = [db.bound_interval(m, s, P, Q) for m in db.CATALOG_IDS for s in DEFAULT_S]
    assert len(reports) == 81
    assert counts["extremes"] == 1


@pytest.fixture
def sum_counts(monkeypatch, fresh_memo):
    """How many phi_s sums (of phi_generator(s) at a default s) and C_f
    sums (of any other f) the sum core weighted_sum has made."""
    phi_fs = {db.phi_generator(s).f for s in DEFAULT_S}
    counts = {"phi_s": 0, "C_f": 0}
    core = generators.weighted_sum

    def counting(h, w, x, views=None):
        counts["phi_s" if h in phi_fs else "C_f"] += 1
        return core(h, w, x, views)

    monkeypatch.setattr(generators, "weighted_sum", counting)
    monkeypatch.setattr(csiszar_bounds, "weighted_sum", counting)
    return counts


def test_a_bound_grid_sums_phi_s_once_per_s_and_c_f_every_call(sum_counts):
    (A, B), (C, D) = make_pairs(2, seed=15)
    grid = [(m, s) for m in db.CATALOG_IDS for s in DEFAULT_S]
    assert len(grid) == 81
    for m, s in grid:
        db.bound_interval(m, s, A, B)
    assert sum_counts == {"phi_s": 9, "C_f": 81}
    for s in DEFAULT_S:
        db.phi_s(s, A, B)
    assert sum_counts == {"phi_s": 9, "C_f": 81}
    for m, s in grid:
        db.bound_interval(m, s, A, B)
    assert sum_counts == {"phi_s": 9, "C_f": 162}
    for m, s in grid:
        db.bound_interval(m, s, C, D)
    assert sum_counts == {"phi_s": 18, "C_f": 243}


def test_an_overflowing_phi_s_is_raised_again_from_the_memo(sum_counts):
    P, Q = db.normalize([1, 1]), db.normalize([1e-160, 1])
    assert db.ratio_range(P, Q) == db.RatioRange(0.5, 5e159)
    calls = [lambda: db.bound_interval("J", 3.0, P, Q)] * 2 + [lambda: db.phi_s(3.0, P, Q)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning escapes
        for call in calls:
            with pytest.raises(NumericOverflow) as info:
                call()
            assert str(info.value) == "phi_s at s=3.0 leaves the float range"
    # One sum, on the cold call; phi_s is checked before C_f is summed.
    assert sum_counts == {"phi_s": 1, "C_f": 0}


ONE, TINY = db.normalize([1, 1]), db.normalize([5e-324, 1])


@pytest.mark.parametrize(
    "call, P, Q, error",
    [
        (db.ratio_range, ONE, TINY, NumericOverflow),
        (lambda P, Q: db.divergence("KL", P, Q), ONE, TINY, NumericOverflow),
        (lambda P, Q: db.divergence("J", P, Q), ONE, TINY, NumericOverflow),
        (lambda P, Q: db.phi_s(0.5, P, Q), ONE, TINY, NumericOverflow),
        (lambda P, Q: db.eval_csiszar("J", P, Q), ONE, TINY, NumericOverflow),
        (lambda P, Q: db.eval_csiszar(db.phi_generator(0.5), P, Q), ONE, TINY, NumericOverflow),
        (lambda P, Q: db.estimate(db.EstimatorId("ZETA", 1), P, Q), ONE, TINY, NumericOverflow),
        (db.ratio_range, ONE, db.normalize([1, 1, 1]), LengthMismatch),
        (lambda P, Q: db.divergence("KL", P, Q), ONE, db.normalize([1, 1, 1]), LengthMismatch),
        (lambda P, Q: db.phi_s(2.0, P, Q), ONE, db.normalize([1, 1, 1]), LengthMismatch),
        (lambda P, Q: db.eval_csiszar("J", P, Q), ONE, db.normalize([1, 1, 1]), LengthMismatch),
        (lambda P, Q: db.divergence("NOPE", P, Q), ONE, TINY, UnknownMeasure),
        (lambda P, Q: db.divergence(["KL"], P, Q), ONE, TINY, UnknownMeasure),
        (lambda P, Q: db.eval_csiszar("NOPE", P, Q), ONE, TINY, UnknownMeasure),
        (lambda P, Q: db.phi_s(math.nan, P, Q), ONE, TINY, NonFinite),
        (lambda P, Q: db.e_cf("J", P, Q), ONE, TINY, NumericOverflow),
        (lambda P, Q: db.e_cf(db.phi_generator(2.0), P, Q), ONE, TINY, NumericOverflow),
        (lambda P, Q: db.bound_set(0.5, P, Q), ONE, TINY, NumericOverflow),
        (lambda P, Q: db.e_cf("J", P, Q), ONE, db.normalize([1, 1, 1]), LengthMismatch),
        (lambda P, Q: db.bound_set(2.0, P, Q), ONE, db.normalize([1, 1, 1]), LengthMismatch),
    ],
)
def test_each_error_is_raised_again_with_its_message(call, P, Q, error, fresh_memo):
    messages = []
    for _ in range(2):
        with pytest.raises(error) as info:
            call(P, Q)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_an_overflowing_measure_leaves_the_others_on_its_pair(fresh_memo):
    P, Q = db.normalize([1, 1]), db.normalize([5e-324, 1])
    with pytest.raises(NumericOverflow):
        db.divergence("KL", P, Q)
    hellinger = db.divergence("HELLINGER", P, Q)
    assert hellinger == db.divergence("HELLINGER", P, Q) == db.divergence("HELLINGER", _copy(P), _copy(Q))
    with pytest.raises(NumericOverflow):
        db.divergence("KL", P, Q)


def test_the_memo_keeps_no_pair_alive(fresh_memo):
    P, Q = db.normalize(np.arange(1.0, 40.0)), db.normalize(np.arange(40.0, 1.0, -1.0))
    db.divergence("J", P, Q)
    db.ratio_range(P, Q)
    refs = weakref.ref(P), weakref.ref(Q)
    del P, Q
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    # A new pair, at whatever address, is a miss.
    P, Q = db.normalize(np.arange(2.0, 41.0)), db.normalize(np.arange(41.0, 2.0, -1.0))
    assert db.divergence("J", P, Q) == db.divergence("J", _copy(P), _copy(Q))


def test_threads_on_two_pairs_give_the_serial_bits(fresh_memo):
    pairs = make_pairs(2, seed=11)
    serial = [_cold(P, Q) for P, Q in pairs]
    barrier = threading.Barrier(4, timeout=30)
    results, errors = {}, []

    def work(k):
        try:
            barrier.wait()
            results[k] = [(j, _warm(*pairs[j])) for j in ((k + i) % 2 for i in range(12))]
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the memo's read and store
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for k in range(4):
        for j, got in results[k]:
            assert got == serial[j]


@pytest.fixture
def vector_counts(monkeypatch, fresh_memo):
    """How often each of the slot's vectors, x and d, has been formed."""
    counts = {"x": 0, "d": 0}

    def counting(name, form):
        def wrapper(p, q):
            counts[name] += 1
            return form(p, q)

        return wrapper

    for name, form in simplex._VECTORS.items():
        monkeypatch.setitem(simplex._VECTORS, name, counting(name, form))
    return counts


def test_each_vector_is_formed_once_a_pair(vector_counts):
    (A, B), (C, D) = make_pairs(2, seed=12, n_min=16, n_max=16)
    seen = []
    for pair in ((A, B), (A, B), (C, D), (A, B)):
        _warm(*pair)
        _warm(*pair)
        seen.append(dict(vector_counts))
    assert seen == [{"x": 1, "d": 1}, {"x": 1, "d": 1}, {"x": 2, "d": 2}, {"x": 3, "d": 3}]


def test_the_vectors_are_the_pairs_and_read_only(fresh_memo):
    P, Q = make_pairs(1, seed=13)[0]
    for name, expected in (("x", P.probs / Q.probs), ("d", P.probs - Q.probs)):
        vector = simplex.pair_vector(P, Q, name)
        assert vector is getattr(simplex._latest, name)
        assert vector.tobytes() == expected.tobytes()
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 1.0


def test_the_slot_goes_with_its_pair(fresh_memo):
    P, Q = db.normalize(np.arange(1.0, 40.0)), db.normalize(np.arange(40.0, 1.0, -1.0))
    _warm(P, Q)
    assert simplex._latest.x is not None and simplex._latest.d is not None
    del P, Q
    gc.collect()
    assert simplex._latest is None


@pytest.mark.parametrize(
    "call",
    [
        lambda P, Q: simplex.pair_vector(P, Q, "x"),
        lambda P, Q: simplex.pair_vector(P, Q, "d"),
        db.ratio_range,
        lambda P, Q: db.e_cf("J", P, Q),
        lambda P, Q: db.bound_set(0.5, P, Q),
        lambda P, Q: db.bound_interval("J", 0.5, P, Q),
    ],
)
def test_a_length_mismatch_is_raised_before_any_arithmetic(call, vector_counts):
    with pytest.raises(LengthMismatch):
        call(ONE, db.normalize([1, 1, 1]))
    assert vector_counts == {"x": 0, "d": 0}
