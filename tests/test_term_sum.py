"""Long pairs, whose term vectors generators.term_sum sums in slices split
between the caller and one worker thread: the bits of the whole-vector
sum at and around the slice boundaries, the caller's numpy error state in
the worker, errors raised from either half, and a worker in a forked
child."""

import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import divbounds as db
from divbounds.errors import NumericOverflow
from divbounds.generators import CATALOG_IDS, TERM_SLICE, TERMS, term_sum

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


def test_a_long_vector_is_split_on_slice_boundaries_between_two_threads():
    n = 2 * TERM_SLICE + 7
    a, b = np.arange(n, dtype=np.float64), np.full(n, 0.5)
    seen = []

    def term(a, b):
        seen.append((int(a[0]), len(a), threading.get_ident()))
        return a * b

    assert term_sum(term, a, b) == np.add.reduce(a * b)
    seen.sort()
    assert [(start, size) for start, size, _ in seen] == [(0, TERM_SLICE), (TERM_SLICE, TERM_SLICE), (2 * TERM_SLICE, 7)]
    caller = threading.get_ident()
    assert seen[0][2] == caller
    assert seen[1][2] == seen[2][2] != caller


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


@pytest.mark.parametrize("state, outcome", [("raise", FloatingPointError), ("ignore", None)])
def test_the_worker_runs_under_the_callers_error_state(state, outcome):
    n = 3 * TERM_SLICE
    a = np.ones(n)
    a[-1] = 1e300  # in the worker's half
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over=state):
            if outcome is None:
                assert term_sum(lambda a, b: a * b, a, a) == np.inf
            else:
                with pytest.raises(outcome):
                    term_sum(lambda a, b: a * b, a, a)


def test_callers_in_many_threads_share_the_worker():
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
    worker's half): x = p / q overflows at 5e-324, and x ** 2 at 1e-300."""
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
def test_an_overflow_in_the_workers_half_raises_only_numeric_overflow(name):
    tiny, call = OVERFLOWS[name]
    P, Q = tiny_pair(tiny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow):
            call(P, Q)


class Refused(Exception):
    pass


def test_a_generator_error_in_the_workers_half_is_raised():
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


def test_an_error_in_the_callers_half_waits_for_the_worker():
    n = 4 * TERM_SLICE
    done = []

    def term(a, b):
        if a[0] == 0.0:
            raise Refused("the caller's first slice")
        time.sleep(0.05)
        done.append(int(a[0]))
        return a * b

    with pytest.raises(Refused):
        term_sum(term, np.arange(n, dtype=np.float64), np.ones(n))
    assert done == [2 * TERM_SLICE, 3 * TERM_SLICE]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_sums_a_long_pair():
    P, Q = random_pair(2 * TERM_SLICE + 7, 6)
    db.divergence("J", P, Q)  # the parent's worker thread now exists
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


def test_a_term_that_sums_a_long_vector_in_the_worker_does_not_wait_on_itself():
    # In a child process: a worker that waited on itself would stay blocked.
    code = """if True:
        import numpy as np
        from divbounds.generators import TERM_SLICE, term_sum
        n = 2 * TERM_SLICE + 7
        a, inner = np.arange(n, dtype=np.float64), np.full(n, 0.5)
        # the inner sum runs in each half, the worker's included
        got = term_sum(lambda a, b: a * b * term_sum(lambda c, d: c * d, inner, inner), a, a)
        assert got == np.add.reduce(a * a * np.add.reduce(inner * inner))
    """
    src = os.path.dirname(os.path.dirname(db.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
