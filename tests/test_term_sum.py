"""Long pairs, whose term vectors generators.term_sum sums in slices in
the caller's thread: the bits of the whole-vector sum at and around the
slice boundaries, the caller's numpy error state in every slice, errors
raised from any slice, no thread started, a sum's peak memory, and sums
in a forked child; and blocks with more rows than a slice, summed in one
call."""

import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import divbounds as db
from divbounds.errors import NumericOverflow
from divbounds.generators import CATALOG_IDS, TERM_SLICE, TERMS, term_sum, weighted_sum
from divbounds.measures import divergence_sums
from divbounds.simplex import pair_vector

S_GRID = (-2, -1, -0.5, 0, 0.5, 1, 1.5, 2, 3)


def random_pair(n, seed):
    rng = np.random.default_rng(seed)
    return db.normalize(rng.gamma(0.5, size=n) + 1e-3), db.normalize(rng.gamma(0.5, size=n) + 1e-3)


def near_pair(n, seed):
    """p = q * (1 + 1e-4 z), re-normalized, as the histograms benchmark's near pairs."""
    rng = np.random.default_rng(seed)
    Q = db.normalize(rng.gamma(0.5, size=n) + 1e-3)
    return db.normalize(Q.probs * (1.0 + 1e-4 * rng.standard_normal(n))), Q


PAIRS = {
    "slice-1": lambda: random_pair(TERM_SLICE - 1, 1),
    "slice": lambda: random_pair(TERM_SLICE, 2),
    "slice+1": lambda: random_pair(TERM_SLICE + 1, 3),
    "2slice+7": lambda: random_pair(2 * TERM_SLICE + 7, 4),
    "near-400k": lambda: near_pair(400_000, 5),
}


@pytest.mark.parametrize("name", PAIRS)
def test_every_sum_keeps_the_bits_of_the_whole_vector(name):
    P, Q = PAIRS[name]()
    p, q = P.probs, Q.probs
    x, d = p / q, p - q
    got = [db.divergence(mid, P, Q) for mid in TERMS]
    want = [float(np.add.reduce(term(p, q))) for term in TERMS.values()]
    gens = db.catalog()
    got += [db.eval_csiszar(gens[mid], P, Q) for mid in CATALOG_IDS]
    want += [float(np.add.reduce(q * gens[mid].f(x))) for mid in CATALOG_IDS]
    for s in S_GRID:
        gen = db.phi_generator(s)
        got += [db.phi_s(s, P, Q), db.e_cf(gen, P, Q)]
        want += [float(np.add.reduce(q * gen.f(x))), float(np.add.reduce(d * gen.f_prime(x)))]
    assert got == want


def test_slices_start_where_simd_blocks_start():
    assert TERM_SLICE % 64 == 0


#: Sums whose term, evaluated on a whole pair, holds three (T) or four (I)
#: arrays of the pair's length at once.
PEAK_SUMS = {
    "divergence I": lambda P, Q: db.divergence("I", P, Q),
    "divergence T": lambda P, Q: db.divergence("T", P, Q),
    "eval_csiszar I": lambda P, Q: db.eval_csiszar("I", P, Q),
    "e_cf T": lambda P, Q: db.e_cf("T", P, Q),
}


@pytest.mark.parametrize("name", PEAK_SUMS)
def test_a_long_sum_holds_one_term_vector_and_one_slice_of_temporaries(name):
    # With x and d formed, a sliced sum allocates the term vector it
    # reduces (8n bytes) and one slice's temporaries.
    P, Q = near_pair(400_000, 5)
    pair_vector(P, Q, "x"), pair_vector(P, Q, "d")
    tracemalloc.start()
    try:
        PEAK_SUMS[name](P, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * len(P), peak / (8 * len(P))


def test_a_long_vector_is_summed_on_slice_boundaries_in_the_callers_thread():
    n = 2 * TERM_SLICE + 7
    a, b = np.arange(n, dtype=np.float64), np.full(n, 0.5)
    seen = []

    def term(a, b):
        seen.append((int(a[0]), len(a), threading.get_ident()))
        return a * b

    assert term_sum(term, a, b) == np.add.reduce(a * b)
    caller = threading.get_ident()
    assert seen == [(0, TERM_SLICE, caller), (TERM_SLICE, TERM_SLICE, caller), (2 * TERM_SLICE, 7, caller)]


def test_summing_a_long_pair_starts_no_thread():
    # In a child process, so that no thread another test left running hides one.
    code = """if True:
        import threading
        import divbounds as db
        import numpy as np
        w = np.random.default_rng(1).gamma(0.5, size=(2, 100_000)) + 1e-3
        P, Q = db.normalize(w[0]), db.normalize(w[1])
        before = threading.active_count()
        db.divergence("J", P, Q)
        db.bound_interval("J", 0.5, P, Q)
        assert threading.active_count() == before, (before, threading.active_count())
    """
    src = os.path.dirname(os.path.dirname(db.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize("n", [TERM_SLICE, 2])
def test_short_vectors_and_blocks_stay_in_the_callers_thread(n):
    calls = []

    def term(a, b):
        calls.append((a.shape, threading.get_ident()))
        return a * b

    block = np.ones((3, n))
    term_sum(term, block[0], block[1])
    term_sum(term, block, block)
    assert calls == [((n,), threading.get_ident()), ((3, n), threading.get_ident())]


def tall_block(seed):
    """A (TERM_SLICE + 1, 2) block of pairs, as a PairTable chunk of n = 2 holds."""
    w = np.random.default_rng(seed).gamma(0.5, size=(2, TERM_SLICE + 1, 2)) + 1e-3
    return w / np.add.reduce(w, axis=-1, keepdims=True)


def rows_reduced(t):
    return np.array([np.add.reduce(row) for row in t])


def recorded(fn, calls):
    def wrapped(*args):
        calls.append((args[0].shape, threading.get_ident()))
        return fn(*args)

    return wrapped


def test_a_block_taller_than_a_slice_keeps_the_bits_of_each_row():
    # Every measure takes one path, as does every generator: a few of each
    # keep the 33k-row reference loops short.
    p, q = tall_block(7)
    x, d = p / q, p - q
    for mid in ("KL", "J", "CHI2"):
        assert _bits(divergence_sums(mid, p, q)) == _bits(rows_reduced(TERMS[mid](p, q))), mid
    for gen in (db.catalog()["J"], db.phi_generator(0.5)):
        assert _bits(weighted_sum(gen.f, q, x)) == _bits(rows_reduced(q * gen.f(x))), gen
        assert _bits(weighted_sum(gen.f_prime, d, x)) == _bits(rows_reduced(d * gen.f_prime(x))), gen


def test_a_block_taller_than_a_slice_is_one_call_in_the_callers_thread(monkeypatch):
    p, q = tall_block(8)
    gen = db.catalog()["J"]
    calls = []
    with monkeypatch.context() as m:
        m.setattr(np, "log", recorded(np.log, calls))  # J's term takes one log
        divergence_sums("J", p, q)
    weighted_sum(recorded(gen.f, calls), q, p / q)
    weighted_sum(recorded(gen.f_prime, calls), p - q, p / q)
    assert calls == [(p.shape, threading.get_ident())] * 3


def test_a_layout_longer_than_a_slice_is_summed_block_by_block(monkeypatch):
    # (k, n) blocks back to back in 1-D arrays, as a PairTable span lays
    # them out: one term call on the whole layout, then each block's rows
    # reduced as the block alone is, never the layout as one long pair.
    rng = np.random.default_rng(9)
    shapes = [(300, 2), (7, 64), (2300, 13), (1, 5), (40, 64)]
    rows = [rng.gamma(0.5, size=(2, k, n)) + 1e-3 for k, n in shapes]
    rows = [w / np.add.reduce(w, axis=-1, keepdims=True) for w in rows]
    p, q = (np.concatenate([w[j].reshape(-1) for w in rows]) for j in (0, 1))
    assert p.size > TERM_SLICE
    ends = np.cumsum([k * n for k, n in shapes]).tolist()

    def views(t):
        return [t[end - k * n : end].reshape(k, n) for (k, n), end in zip(shapes, ends)]

    gen = db.catalog()["J"]
    calls = []
    with monkeypatch.context() as m:
        m.setattr(np, "log", recorded(np.log, calls))  # J's term takes one log
        got = divergence_sums("J", p, q, views)
    assert calls == [(p.shape, threading.get_ident())]
    assert _bits(got) == _bits(np.concatenate([divergence_sums("J", *w) for w in rows]))
    # C_f (h = f, w = q) and E (h = f', w = p - q), x = p / q.
    for h, weight in ((gen.f, lambda p, q: q), (gen.f_prime, lambda p, q: p - q)):
        calls.clear()
        got = weighted_sum(recorded(h, calls), weight(p, q), p / q, views)
        assert calls == [(p.shape, threading.get_ident())]
        assert _bits(got) == _bits(np.concatenate([weighted_sum(h, weight(*w), w[0] / w[1]) for w in rows]))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("state, outcome", [("raise", FloatingPointError), ("ignore", None)])
def test_every_slice_runs_under_the_callers_error_state(state, outcome):
    n = 3 * TERM_SLICE
    a = np.ones(n)
    a[-1] = 1e300  # in the last slice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over=state):
            if outcome is None:
                assert term_sum(lambda a, b: a * b, a, a) == np.inf
            else:
                with pytest.raises(outcome):
                    term_sum(lambda a, b: a * b, a, a)


def test_callers_in_many_threads_each_get_their_own_sum():
    n = 3 * TERM_SLICE + 5
    vectors = [np.random.default_rng(seed).random(n) for seed in range(6)]
    want = [np.add.reduce(v * v) for v in vectors]
    got = [[] for _ in vectors]

    def caller(i):
        for _ in range(5):
            got[i].append(term_sum(lambda a, b: a * b, vectors[i], vectors[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(len(vectors))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 5 for w in want]


def tiny_pair(tiny):
    """100k entries of 1e-5, P uniform and Q's last entry tiny (in the
    last slice): x = p / q overflows at 5e-324, and x ** 2 at 1e-300."""
    w = np.full(100_000, 1e-5)
    P = db.normalize(w)
    w[-1] = tiny
    return P, db.normalize(w)


OVERFLOWS = {
    "divergence J": (5e-324, lambda P, Q: db.divergence("J", P, Q)),
    "eval_csiszar J": (5e-324, lambda P, Q: db.eval_csiszar("J", P, Q)),
    "phi_s 1": (5e-324, lambda P, Q: db.phi_s(1, P, Q)),
    "e_cf J": (5e-324, lambda P, Q: db.e_cf("J", P, Q)),
    "bound_interval J 1": (5e-324, lambda P, Q: db.bound_interval("J", 1, P, Q)),
    "phi_s 2": (1e-300, lambda P, Q: db.phi_s(2, P, Q)),
    "eval_csiszar phi_2": (1e-300, lambda P, Q: db.eval_csiszar(db.phi_generator(2), P, Q)),
    "e_cf phi_3": (1e-300, lambda P, Q: db.e_cf(db.phi_generator(3), P, Q)),
    "bound_interval J 2": (1e-300, lambda P, Q: db.bound_interval("J", 2, P, Q)),
}


@pytest.mark.parametrize("name", OVERFLOWS)
def test_an_overflow_in_the_last_slice_raises_only_numeric_overflow(name):
    tiny, call = OVERFLOWS[name]
    P, Q = tiny_pair(tiny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow):
            call(P, Q)


class Refused(Exception):
    pass


def test_a_generator_error_in_the_last_slice_is_raised():
    def f(x):
        if np.any(x > 10.0):
            raise Refused("x > 10")
        return (x - 1.0) ** 2

    gen = db.Generator("REFUSES", f=f, f_prime=lambda x: 2.0 * (x - 1.0), f_second=db.Rational((2,), (1,)))
    w = np.ones(3 * TERM_SLICE)
    w[-1] = 100.0
    P, Q = db.normalize(w), db.normalize(np.ones(len(w)))
    with pytest.raises(Refused):
        db.eval_csiszar(gen, P, Q)
    with pytest.raises(Refused):
        db.bound_interval(gen, 0.5, P, Q)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_sums_a_long_pair():
    P, Q = random_pair(2 * TERM_SLICE + 7, 6)
    db.divergence("J", P, Q)  # the parent has summed a long pair
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=lambda: results.put(db.divergence("KL", P, Q)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # Python 3.12+ warns on fork with threads
        child.start()
    try:
        value = results.get(timeout=30)
    except queue.Empty:
        value = None
    finally:
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    assert value == db.divergence("KL", P, Q)


def test_a_term_that_sums_a_long_vector_itself_is_summed():
    # In a child process, so that a sum that blocked could be timed out.
    code = """if True:
        import numpy as np
        from divbounds.generators import TERM_SLICE, term_sum
        n = 2 * TERM_SLICE + 7
        a, inner = np.arange(n, dtype=np.float64), np.full(n, 0.5)
        # the inner sum runs in every slice of the outer one
        got = term_sum(lambda a, b: a * b * term_sum(lambda c, d: c * d, inner, inner), a, a)
        assert got == np.add.reduce(a * a * np.add.reduce(inner * inner))
    """
    src = os.path.dirname(os.path.dirname(db.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
