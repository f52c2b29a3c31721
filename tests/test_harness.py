import math
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

import divbounds as db
import divbounds.csiszar_bounds as cb
import divbounds.harness as harness
import divbounds.measures as measures
import divbounds.simplex as simplex
from divbounds.cli import main
from divbounds.errors import DegeneratePair, DivBoundsError, InvalidArgument, NumericOverflow, UnknownSuite, VanishingDenominator
from divbounds.generators import TERM_SLICE, VIOLATION_TOL, SplitPowers

#: Frozen output of random_pair(TrialConfig(seed=1, n_min=2, n_max=2), 0),
#: recorded once so any change to the generator construction is caught.
GOLDEN_FIXTURE_P = (0.43448830848571834, 0.5655116915142816)
GOLDEN_FIXTURE_Q = (0.9529444628341237, 0.04705553716587624)


class TestTrialConfig:
    def test_defaults(self):
        cfg = db.TrialConfig()
        assert cfg.trials == 1000
        assert (cfg.n_min, cfg.n_max) == (2, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            db.TrialConfig(trials=0)
        with pytest.raises(ValueError):
            db.TrialConfig(n_min=1)
        with pytest.raises(ValueError):
            db.TrialConfig(n_min=8, n_max=4)
        with pytest.raises(ValueError):
            db.TrialConfig(concentration=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"n_min": 1},
            {"n_min": 8, "n_max": 4},
            {"n_max": 10**6 + 1},
            {"concentration": 0.0},
            {"concentration": math.nan},
            {"s_samples": ()},
            {"s_samples": (0.5, math.nan)},
            {"seed": 1.5},
            {"trials": 2.5},
            {"n_min": 2.5},
            {"trials": "3"},
            {"concentration": "2"},
            {"s_samples": ("a",)},
            {"s_samples": 0.5},
            {"concentration": math.inf},
            {"concentration": 800.0},
        ],
    )
    def test_validation_error_is_typed(self, kwargs):
        with pytest.raises(InvalidArgument) as info:
            db.TrialConfig(**kwargs)
        assert isinstance(info.value, DivBoundsError)

    def test_s_samples_are_kept_as_a_tuple(self):
        # A list would stay writable inside the frozen config: unhashable,
        # unequal to its tuple, and an append would change a table's run.
        samples = [0.5, 2.0]
        cfg = db.TrialConfig(trials=5, s_samples=samples)
        assert cfg.s_samples == (0.5, 2.0)
        assert cfg == db.TrialConfig(trials=5, s_samples=(0.5, 2.0))
        assert hash(cfg) == hash(db.TrialConfig(trials=5, s_samples=(0.5, 2.0)))
        table = harness.PairTable(cfg)
        samples.append(3.0)
        assert db.run_suite("thm41", cfg, table).checks == 5 * 2 * 2


class TestRandomPair:
    def test_deterministic(self):
        cfg = db.TrialConfig(seed=7)
        for i in (0, 1, 99):
            for _ in range(2):
                P1, Q1 = db.random_pair(cfg, i)
                P2, Q2 = harness._build_pair(cfg, i)
                assert np.array_equal(P1.probs, P2.probs)
                assert np.array_equal(Q1.probs, Q2.probs)

    def test_golden_fixture(self):
        P, Q = db.random_pair(db.TrialConfig(seed=1, n_min=2, n_max=2), 0)
        assert tuple(P.probs) == GOLDEN_FIXTURE_P
        assert tuple(Q.probs) == GOLDEN_FIXTURE_Q

    def test_seed_changes_output(self):
        P1, _ = db.random_pair(db.TrialConfig(seed=1), 0)
        P2, _ = db.random_pair(db.TrialConfig(seed=2), 0)
        assert not np.array_equal(P1.probs, P2.probs)

    def test_support_size_in_range(self):
        cfg = db.TrialConfig(seed=3, n_min=4, n_max=9)
        for i in range(50):
            P, Q = db.random_pair(cfg, i)
            assert 4 <= len(P) <= 9
            assert len(P) == len(Q)

    def test_coordinates_floored(self):
        cfg = db.TrialConfig(seed=5, concentration=20.0, n_min=64, n_max=64)
        for i in range(10):
            P, Q = db.random_pair(cfg, i)
            assert float(P.probs.min()) >= 1e-12
            assert float(Q.probs.min()) >= 1e-12

    def test_small_concentration_approaches_uniform(self):
        cfg = db.TrialConfig(seed=11, concentration=1e-4, n_min=8, n_max=8)
        P, _ = db.random_pair(cfg, 0)
        assert float(np.max(np.abs(P.probs - 0.125))) <= 1e-4

    def test_largest_accepted_concentration_builds_pairs_without_a_warning(self):
        # The largest c with 64 * exp(c) finite: its next float is refused.
        c = math.log(sys.float_info.max / 64)
        while math.isfinite(64 * math.exp(math.nextafter(c, math.inf))):
            c = math.nextafter(c, math.inf)
        with pytest.raises(InvalidArgument, match="exp\\(concentration\\) finite"):
            db.TrialConfig(n_max=64, concentration=math.nextafter(c, math.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n_min in (2, 64):
                cfg = db.TrialConfig(seed=13, n_min=n_min, n_max=64, concentration=c)
                for i in range(50):
                    P, Q = db.random_pair(cfg, i)
                    assert float(P.probs.min()) >= 1e-12 and float(Q.probs.min()) >= 1e-12

    @pytest.mark.parametrize("index", [np.int64(3), np.int8(3), np.uint64(3), np.uint64(2**64 - 1)], ids=["int64", "int8", "uint64", "uint64-max"])
    def test_a_numpy_index_is_the_int_it_equals(self, monkeypatch, index):
        cfg = db.TrialConfig(seed=23)
        monkeypatch.setattr(harness, "_memo", harness._PairMemo(None))
        miss = db.random_pair(cfg, index)
        assert [type(i) for i in harness._memo.pairs] == [int]
        assert db.random_pair(cfg, int(index)) == miss == db.random_pair(cfg, index)
        fresh = harness._build_pair(cfg, int(index))
        assert all(a.probs.tobytes() == b.probs.tobytes() for a, b in zip(miss, fresh))

    @pytest.mark.parametrize(
        "config, index",
        [
            (db.TrialConfig(), 1.5),
            (db.TrialConfig(), 3.0),
            (db.TrialConfig(), np.float64(3.0)),
            (db.TrialConfig(), True),
            (db.TrialConfig(), np.bool_(False)),
            (db.TrialConfig(), "3"),
            (db.TrialConfig(), None),
            ("x", 0),
            (None, 0),
            ({"seed": 0}, np.int64(0)),
        ],
        ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool", "str", "None", "str-config", "None-config", "dict-config"],
    )
    def test_a_bad_index_or_config_raises_invalid_argument(self, config, index):
        db.random_pair(db.TrialConfig(), 3)  # a memo hit must not pass a bad input either
        with pytest.raises(InvalidArgument, match="need a TrialConfig and an integer trial index"):
            db.random_pair(config, index)


def _memo_key(cfg):
    return (cfg.seed, cfg.n_min, cfg.n_max, cfg.concentration)


class TestPairMemo:
    def test_cached_pair_is_bit_identical_to_a_fresh_build(self):
        cfg = db.TrialConfig(seed=21, concentration=6.0)
        for i in range(20):
            first = db.random_pair(cfg, i)
            cached = db.random_pair(cfg, i)
            fresh = harness._build_pair(cfg, i)
            assert cached[0] is first[0] and cached[1] is first[1]
            for a, b in zip(cached, fresh):
                assert a.probs.tobytes() == b.probs.tobytes()

    def test_run_suite_calls_share_pairs(self, monkeypatch):
        seen = []
        original = harness.random_pair

        def recording(config, trial_index):
            pair = original(config, trial_index)
            seen.append(pair)
            return pair

        monkeypatch.setattr(harness, "random_pair", recording)
        cfg = db.TrialConfig(seed=22, trials=5)
        db.run_suite("eq3", cfg)
        db.run_suite("prop51", cfg)
        assert len(seen) == 10
        for a, b in zip(seen[:5], seen[5:]):
            assert a[0] is b[0] and a[1] is b[1]

    def test_trials_and_s_samples_do_not_split_the_memo(self):
        base = db.TrialConfig(seed=23, trials=10)
        other = db.TrialConfig(seed=23, trials=3, s_samples=(0.5,))
        for i in range(3):
            a, b = db.random_pair(base, i), db.random_pair(other, i)
            assert a[0] is b[0] and a[1] is b[1]
        assert harness._memo.key == _memo_key(base)

    @pytest.mark.parametrize("change", [{"seed": 25}, {"n_max": 32}, {"n_min": 3}, {"concentration": 3.0}])
    def test_new_key_replaces_the_memo(self, change):
        cfg = db.TrialConfig(seed=24)
        first = db.random_pair(cfg, 0)
        other = db.TrialConfig(**{"seed": 24, **change})
        db.random_pair(other, 0)
        assert harness._memo.key == _memo_key(other)
        assert list(harness._memo.pairs) == [0]
        again = db.random_pair(cfg, 0)
        assert again[0] is not first[0]
        assert np.array_equal(again[0].probs, first[0].probs)

    def test_memo_stops_growing_at_the_budget(self):
        n = 200_000  # 2n entries a pair: two pairs fit in 1 << 20, a third does not
        cfg = db.TrialConfig(seed=26, trials=4, n_min=n, n_max=n)
        pairs = [db.random_pair(cfg, i) for i in range(4)]
        assert harness._memo.entries == 4 * n <= harness.PAIR_MEMO_BUDGET
        assert sorted(harness._memo.pairs) == [0, 1]
        assert db.random_pair(cfg, 1)[0] is pairs[1][0]
        past = db.random_pair(cfg, 3)
        assert past[0] is not pairs[3][0]
        assert np.array_equal(past[0].probs, pairs[3][0].probs)
        assert harness._memo.entries == 4 * n

    def test_threads_share_the_memo_safely(self):
        configs = [db.TrialConfig(seed=28, n_max=16), db.TrialConfig(seed=28, n_max=16, trials=7)]
        expected = [harness._build_pair(configs[0], i) for i in range(40)]
        errors = []

        def work(offset):
            try:
                for k in range(200):
                    i = (k * 7 + offset) % 40
                    P, Q = db.random_pair(configs[k % 2], i)
                    if P.probs.tobytes() != expected[i][0].probs.tobytes():
                        errors.append(i)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        memo = harness._memo
        assert sorted(memo.pairs) == list(range(40))
        assert memo.entries == sum(2 * len(P) for P, _ in memo.pairs.values())

    def test_shared_pairs_are_read_only(self):
        P, _ = db.random_pair(db.TrialConfig(seed=27), 0)
        with pytest.raises(ValueError):
            P.probs[0] = 0.5


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _one_trials_pair(cfg, i) -> tuple:
    """Trial i's (p, q) built alone, one vector and one 1-d sum at a time:
    the reference that the (k, n) block builder must match bit for bit."""
    u = harness._uniforms(harness._pair_keys(cfg, [i]), 1 + 2 * cfg.n_max)[0]
    n = harness._support_size(cfg, u[0])

    def build(block):
        raw = np.exp(cfg.concentration * (2.0 * block - 1.0))
        probs = np.maximum(raw / raw.sum(), 1e-12)
        return np.maximum(probs / probs.sum(), 1e-12)

    return build(u[1 : 1 + n]), build(u[1 + cfg.n_max : 1 + cfg.n_max + n])


def _chunks(table) -> list:
    """The trials of each chunk of a pair table, in layout order."""
    return [trials for chunks, _ in table._spans for trials in chunks]


class TestPairTable:
    # spans: a budget of 512 entries lays the 300 trials out as dozens of
    # spans, rebuilt for each quantity, most of several blocks (n = 2..64).
    @pytest.mark.parametrize("budget", [None, 512], ids=["held", "spans"])
    def test_quantities_equal_the_public_functions_bit_for_bit(self, monkeypatch, budget):
        cfg = db.TrialConfig(seed=31, trials=300)
        held = harness.PairTable(cfg)
        if budget is not None:
            monkeypatch.setattr(harness, "PAIR_MEMO_BUDGET", budget)
        stacks, stack = [], harness._stack
        monkeypatch.setattr(harness, "_stack", lambda config, trials: stacks.append(trials) or stack(config, trials))
        table = harness.PairTable(cfg)
        assert (table._held is None) == (budget is not None)
        if budget is not None:
            assert len(table._spans) > 10 and max(len(chunks) for chunks, _ in table._spans) > 2
        s_values = sorted({*cfg.s_samples, 0.25, 0.75})  # every s a suite uses
        sizes = set()
        for i in range(cfg.trials):
            P, Q = db.random_pair(cfg, i)
            sizes.add(len(P))
            rng = db.ratio_range(P, Q)
            r, R = table.extremes()
            assert (_bits(r[i]), _bits(R[i])) == (_bits(rng.r), _bits(rng.R))
            assert not table.coincide()[i]
            for m in db.MEASURE_IDS:
                assert _bits(table.d(m)[i]) == _bits(db.divergence(m, P, Q)), (i, m)
            for s in s_values:
                assert _bits(table.phi(s)[i]) == _bits(db.phi_s(s, P, Q)), (i, s)
                assert _bits(table.e_cf(db.phi_generator(s))[i]) == _bits(db.e_cf(db.phi_generator(s), P, Q)), (i, s)
            for m, gen in db.catalog().items():
                assert _bits(table.cf(m)[i]) == _bits(db.eval_csiszar(gen, P, Q)), (i, m)
                assert _bits(table.e_cf(m)[i]) == _bits(db.e_cf(gen, P, Q)), (i, m)
                for s in s_values:
                    rep = db.bound_interval(m, s, P, Q)
                    lower, upper = table.sandwich(m, s)
                    assert (_bits(lower[i]), _bits(upper[i])) == (_bits(rep.lower_slack), _bits(rep.upper_slack)), (i, m, s)
        assert min(sizes) <= 4 and max(sizes) >= 62
        for (name, *args), values in table._values.items():
            if name != "powers":  # the split the (m, M) cells share; no column
                assert np.asarray(values).tobytes() == np.asarray(getattr(held, name)(*args)).tobytes(), (name, *args)
        # Each chunk is built once a run when held, else once for each
        # quantity built from the spans (the others read only r and R, or
        # other quantities).
        quantities = sum(name in ("d", "cf", "e_cf", "coincide", "extremes") for name, *_ in table._values)
        assert len(stacks) == len(_chunks(table)) * (1 if budget is None else quantities)

    @pytest.mark.parametrize(
        "cfg",
        [db.TrialConfig(seed=42), db.TrialConfig(seed=3, trials=300, concentration=30.0)],
        ids=["seed42", "concentration30"],
    )
    def test_mm_columns_are_mm_exact_values_trial_by_trial(self, cfg, monkeypatch):
        # Every cell of the default s grid, on the run's one read-only (r, R),
        # which all 81 cells share; concentration 30 makes trial 248's P = Q,
        # so r = R = 1 there.
        made = []
        monkeypatch.setattr(cb, "SplitPowers", lambda x: made.append(x.shape) or SplitPowers(x))
        table = harness.PairTable(cfg)
        r, R = table.extremes()
        assert table.extremes() is table.extremes()
        assert not (r.flags.writeable or R.flags.writeable)
        if cfg.trials == 300:
            assert r[248] == R[248] == 1.0
        ranges = list(zip(r.tolist(), R.tolist()))
        exponents = set()
        for mid in db.CATALOG_IDS:
            f_second = db.catalog()[mid].f_second
            for s in cfg.s_samples:
                m, M = table.mm(mid, s)
                ref = np.array([cb.mm_exact_values(mid, s, a, b) for a, b in ranges])
                assert (m.tobytes(), M.tobytes()) == (ref[:, 0].tobytes(), ref[:, 1].tobytes()), (mid, s)
                exponents |= {(side, (f_second.a - s) + k) for side, (k, _, _) in enumerate((f_second.low, f_second.high))}
        # The 81 cells share the table's one split of r's entries then R's:
        # no cell splits them itself, and a default run makes 26 powers.
        assert made == []
        split = table._values["powers",]
        assert split.shape == (2 * cfg.trials,)
        assert set(split.powers) == exponents
        if cfg == db.TrialConfig(seed=42):
            assert len(split.powers) == 26

    @pytest.mark.parametrize(
        "read",
        [
            lambda t: t.d("J"),
            lambda t: t.cf("J"),
            lambda t: t.e_cf(db.phi_generator(0.5)),
            lambda t: t.phi(0.5),
            lambda t: t.coincide(),
            lambda t: t.extremes(),
            lambda t: t.mm("J", 0.5),
            lambda t: t.a(db.phi_generator(0.5)),
            lambda t: t.b(db.phi_generator(0.5)),
            lambda t: t.sandwich("J", 0.5),
        ],
        ids=["d", "cf", "e_cf", "phi", "coincide", "extremes", "mm", "a", "b", "sandwich"],
    )
    def test_every_column_is_read_only_and_computed_once(self, read):
        # Every suite of a run reads the same column: one that wrote into
        # it would change the checks of every later suite.
        table = harness.PairTable(db.TrialConfig(seed=42, trials=50))
        values = read(table)
        assert read(table) is values
        with pytest.raises(ValueError, match="read-only"):
            values[..., 0] = 0

    def test_each_run_recomputes(self, monkeypatch, capsys):
        stacks, sums = [], []
        stack, divergence_sums = harness._stack, harness.divergence_sums
        monkeypatch.setattr(harness, "_stack", lambda config, trials: stacks.append(trials) or stack(config, trials))
        monkeypatch.setattr(harness, "divergence_sums", lambda m, *layout: sums.append(m) or divergence_sums(m, *layout))
        argv = ["verify", "--all", "--trials", "20", "--seed", "34"]
        assert main(argv) == 0
        first = (len(stacks), len(sums))
        assert main(argv) == 0
        assert first[0] > 0 and first[1] > 0
        assert (len(stacks), len(sums)) == (2 * first[0], 2 * first[1])
        out = capsys.readouterr().out
        assert out[: len(out) // 2] == out[len(out) // 2 :]

    def test_ratio_range_is_one_reduction_per_block(self, monkeypatch):
        # r and R of a block come from one p / q and one ratio_extremes: a
        # run makes one call per support size, 63 for n = 2..64.
        calls, extremes = [], harness.ratio_extremes
        monkeypatch.setattr(harness, "ratio_extremes", lambda x: calls.append(x.shape) or extremes(x))
        db.run_all(db.TrialConfig(seed=42, trials=1000))
        assert len(calls) == 63 and len({shape[-1] for shape in calls}) == 63

    def test_a_quantity_is_one_call_of_f_over_the_run(self):
        # A held run of 1000 trials, n = 2..64, lays out 63 blocks, longer
        # together than TERM_SLICE entries: f runs on the whole layout once
        # per cf request, not once per block nor once per leaf.
        calls, j = [], db.catalog()["J"]
        counted = db.Generator("COUNTED", f=lambda x: calls.append(x.shape) or j.f(x), f_prime=j.f_prime, f_second=j.f_second)
        table = harness.PairTable(db.TrialConfig(seed=42, trials=1000))
        assert table._held is not None and len(table._held.views(table._held.p)) == 63
        cf = table.cf(counted)
        assert calls == [table._held.p.shape] and table._held.p.size > TERM_SLICE
        assert table.cf(counted) is cf and len(calls) == 1
        assert cf.tobytes() == table.cf("J").tobytes()
        harness.PairTable(table.config).cf(counted)
        assert len(calls) == 2

    def test_large_pairs_stack_within_the_budget(self, monkeypatch):
        n = 200_000  # 2n entries a pair: two pairs fit in one stack, three do not
        cfg = db.TrialConfig(seed=35, trials=5, n_min=n, n_max=n)
        live, peak = [], [0]
        stack = harness._stack

        def tracking(config, trials):
            blocks = stack(config, trials)
            live[:] = [ref for ref in live if ref() is not None]
            peak[0] = max(peak[0], sum(ref().size for ref in live) + sum(b.size for b in blocks))
            live.extend(weakref.ref(b) for b in blocks)
            return blocks

        monkeypatch.setattr(harness, "_stack", tracking)
        report = db.run_suite("eq3", cfg)
        assert 0 < peak[0] <= harness.PAIR_MEMO_BUDGET
        expected = min(
            -abs(db.divergence("J", P, Q) - db.divergence("D1", P, Q) - db.divergence("D2", P, Q))
            for P, Q in (db.random_pair(cfg, i) for i in range(cfg.trials))
        )
        assert report.checks == cfg.trials
        assert _bits(report.worst_slack) == _bits(expected)

    @pytest.mark.parametrize(
        "cfg",
        [
            db.TrialConfig(seed=0),
            db.TrialConfig(seed=7),
            db.TrialConfig(seed=42),
            db.TrialConfig(seed=50, trials=3, n_min=200_000, n_max=200_000),
            db.TrialConfig(seed=51, concentration=1e-4),
            db.TrialConfig(seed=52, concentration=20.0),
        ],
        ids=["seed0", "seed7", "seed42", "n200000", "concentration1e-4", "concentration20"],
    )
    def test_blocks_are_the_per_trial_pairs_bit_for_bit(self, cfg):
        sizes = set()
        for trials in _chunks(harness.PairTable(cfg)):
            p, q = harness._stack(cfg, trials)
            assert p.shape == q.shape == (len(trials), p.shape[1])
            sizes.add(p.shape[1])
            for row, i in enumerate(trials):
                P, Q = harness._build_pair(cfg, i)
                expected = [v.tobytes() for v in _one_trials_pair(cfg, i)]
                assert [p[row].tobytes(), q[row].tobytes()] == expected, i
                assert [P.probs.tobytes(), Q.probs.tobytes()] == expected, i
        if cfg.n_max == 64:
            assert sizes == set(range(2, 65))

    def test_the_table_builds_its_own_blocks(self, monkeypatch):
        def no_pairs(config, trial_index):
            raise AssertionError("the pair table read a pair")

        monkeypatch.setattr(harness, "random_pair", no_pairs)
        monkeypatch.setattr(harness, "_build_pair", no_pairs)
        table = harness.PairTable(db.TrialConfig(seed=53, trials=40))
        assert np.isfinite(table.d("J")).all() and np.isfinite(table.extremes()[1]).all()

    def test_standalone_suite_matches_the_run(self):
        cfg = db.TrialConfig(seed=36, trials=60)
        for report in db.run_all(cfg):
            assert db.run_suite(report.suite, cfg).to_dict() == report.to_dict()

    def test_table_of_another_config_is_rejected(self):
        table = db.PairTable(db.TrialConfig(seed=37, trials=5))
        with pytest.raises(InvalidArgument):
            db.run_suite("eq3", db.TrialConfig(seed=38, trials=5), table)


class TestRunSuite:
    def test_suite_registry(self):
        ids = db.suite_ids()
        assert len(ids) == 34
        assert "eq12" in ids and "thm32" in ids and "eq194" in ids

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            db.run_suite("nosuch", db.TrialConfig(trials=1))

    def test_identity_suite_clean(self):
        report = db.run_suite("eq12", db.TrialConfig(seed=0, trials=200))
        assert report.violations == 0
        assert report.checks == 200
        # Identity slacks are -|difference|, so the worst stays near zero.
        assert report.worst_slack >= -1e-9

    def test_prop51_clean_and_tight(self):
        report = db.run_suite("prop51", db.TrialConfig(seed=0, trials=200))
        assert report.violations == 0
        assert report.tightest_slack >= 0.0

    def test_thm41_custom_s_samples(self):
        cfg = db.TrialConfig(seed=0, trials=100, s_samples=(0.5, 3.0))
        report = db.run_suite("thm41", cfg)
        assert report.violations == 0

    def test_deterministic_reports(self):
        cfg = db.TrialConfig(seed=123, trials=50)
        a = db.run_suite("thm31", cfg).to_dict()
        b = db.run_suite("thm31", cfg).to_dict()
        assert a == b

    def test_frozen_sample_report(self):
        report = db.run_suite("eq194", db.TrialConfig(seed=3, trials=5))
        assert report.checks == 15
        assert report.violations == 0
        assert report.worst_slack == pytest.approx(0.018277322876822794, rel=1e-15)
        assert report.tightest_slack == report.worst_slack

    def test_nan_slack_is_a_violation(self, monkeypatch):
        # J = nan at trial 3 makes eq3's slack -|nan| = nan: no slack
        # compares below the threshold, but a nan must not pass.
        cfg = db.TrialConfig(seed=46, trials=10)
        _force_divergence(monkeypatch, cfg, "J", {3: math.nan})
        report = db.run_suite("eq3", cfg)
        assert (report.checks, report.violations) == (10, 1)
        [example] = report.examples
        assert (example["trial"], example["check"]) == (3, "J=D1+D2")
        assert math.isnan(example["slack"])
        assert example["p"] == db.random_pair(cfg, 3)[0].probs.tolist()

    def test_report_dict_shape(self):
        d = db.run_suite("eq3", db.TrialConfig(trials=3)).to_dict()
        assert set(d) == {
            "suite",
            "description",
            "trials",
            "checks",
            "violations",
            "worst_slack",
            "tightest_slack",
            "examples",
        }
        assert d["examples"] == []


class TestRunAll:
    def test_all_suites_clean(self):
        reports = db.run_all(db.TrialConfig(seed=0, trials=40))
        assert [r.suite for r in reports] == list(db.suite_ids())
        for r in reports:
            assert r.violations == 0, r.suite
            assert r.checks > 0, r.suite

    def test_a_coinciding_trial_has_no_estimator_checks(self, monkeypatch):
        # The 1e-12 floor makes trial 248's P = Q = [1, 1e-12] (n = 2): the
        # estimators are 0/0 there, so rem41 and rem51 check the other 299.
        cfg = db.TrialConfig(seed=3, trials=300, concentration=30.0)
        assert np.flatnonzero(harness.PairTable(cfg).coincide()).tolist() == [248]
        reports = {r.suite: r for r in db.run_all(cfg)}
        assert list(reports) == list(db.suite_ids())
        assert (reports["rem41"].checks, reports["rem51"].checks) == (299 * 16, 299 * 8)
        assert reports["rem41"].violations == reports["rem51"].violations == 0
        # With every measure inf or nan, each check of the 299 is a nan-slack
        # violation, and trial 248 still has none.
        d = harness.PairTable.d
        monkeypatch.setattr(harness.PairTable, "d", lambda table, measure: d(table, measure) / np.zeros(1))
        for sid in ("rem41", "rem51"):
            report = db.run_suite(sid, cfg)
            assert report.checks == report.violations == reports[sid].checks, sid
            assert [e["trial"] for e in report.examples] == [0, 0, 0], sid
            assert all(math.isnan(e["slack"]) for e in report.examples), sid

    def test_a_run_that_leaves_the_float_range_finishes_every_suite(self):
        # At s = 120, M * phi_s leaves the float range on about half the
        # trials: thm32 and the nine closed-form theorems count each such
        # trial as a nan-slack violation, no numpy warning escapes, and
        # every suite reports.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = db.run_all(db.TrialConfig(seed=42, trials=200, s_samples=(120.0,)))
        assert [r.suite for r in reports] == list(db.suite_ids())
        nan_suites = {r.suite for r in reports if any(math.isnan(e["slack"]) for e in r.examples)}
        assert nan_suites == {"thm32", *(f"thm{i}" for i in (41, 42, 43, 44, 45, 46, 51, 52, 53))}
        for r in reports:
            if r.suite in nan_suites:
                assert len(r.examples) == 3 and all(math.isnan(e["slack"]) for e in r.examples), r.suite

    def test_a_nan_slack_is_the_worst_slack(self):
        # At s = 120, M * phi_s leaves the float range on 14 of thm41's 40
        # checks; a finite worst_slack would hide them.
        report = db.run_suite("thm41", db.TrialConfig(seed=42, trials=20, s_samples=(120.0,)))
        assert report.violations == 14
        assert math.isnan(report.worst_slack)
        assert math.isfinite(report.tightest_slack)

    def test_a_narrowed_m_and_M_fail_exactly_the_sandwich_suites(self, monkeypatch):
        # (m * 1.2, M * 0.8) is no bound on g: every suite that reads (m, M)
        # reports violations, and every other suite is clean.
        exact = harness.mm_exact_arrays

        def narrowed(*args):
            m, M = exact(*args)
            return m * 1.2, M * 0.8

        monkeypatch.setattr(harness, "mm_exact_arrays", narrowed)
        reports = db.run_all(db.TrialConfig(seed=42, trials=1000))
        sandwiches = {"thm32", *(f"{k}{i}" for k in ("thm", "cor") for i in (41, 42, 43, 44, 45, 46, 51, 52, 53))}
        assert len(sandwiches) == 19
        assert {r.suite for r in reports if r.violations} == sandwiches
        assert len(reports) - len(sandwiches) == 15


def _reference_rows(sid, cfg, i):
    """The (name, slack) pairs of trial i of a column suite, from the public
    per-pair functions alone."""
    P, Q = db.random_pair(cfg, i)
    out = {}
    if sid == "thm31":
        for s in cfg.s_samples:
            for name, slack in db.bound_set(s, P, Q).checks.items():
                out[f"s={s:g}:{name}"] = slack
    elif sid == "thm32":
        measure, s = db.CATALOG_IDS[i % 9], cfg.s_samples[(i // 9) % len(cfg.s_samples)]
        rep = db.bound_interval(measure, s, P, Q)
        out[f"{measure},s={s:g}:lower"] = rep.lower_slack
        out[f"{measure},s={s:g}:upper"] = rep.upper_slack
        for name, slack in db.difference_bounds(db.get_generator(measure), s, P, Q).checks.items():
            out[f"{measure},s={s:g}:{name}"] = slack
    else:
        rng = db.ratio_range(P, Q)
        family, count = ("XI", 8) if sid == "rem41" else ("ZETA", 4)
        for t in range(1, count + 1):
            est = db.EstimatorId(family, t)
            v = db.estimate(est, P, Q)
            out[f"{est}>=r"] = v - rng.r
            out[f"{est}<=R"] = rng.R - v
    return [(name, _bits(slack)) for name, slack in out.items()]


def _counts_failing_trials(sid, cfg) -> dict:
    """Assert the failure rule on a column suite: each trial on which the
    public per-pair functions raise has a nan-slack check, every other
    trial's rows are theirs bit for bit, and run_suite counts each check
    that fails.  Returns {trial: the public functions' error}."""
    checks, errors = _checks(sid, harness.PairTable(cfg)), {}
    rows = [list(checks(i)) for i in range(cfg.trials)]
    for i in range(cfg.trials):
        try:
            ref = _reference_rows(sid, cfg, i)
        except DivBoundsError as exc:
            errors[i] = exc
            assert any(math.isnan(slack) for _, slack in rows[i]), (sid, i)
        else:
            assert [(name, _bits(slack)) for name, slack in rows[i]] == ref, (sid, i)
    failed = [(i, name, slack) for i in range(cfg.trials) for name, slack in rows[i] if not slack >= VIOLATION_TOL]
    report = db.run_suite(sid, cfg)
    assert (report.checks, report.violations) == (sum(map(len, rows)), len(failed)), sid
    assert [(e["trial"], e["check"], _bits(e["slack"])) for e in report.examples] == [(i, name, _bits(v)) for i, name, v in failed[:3]]
    return errors


def _is_pair(cfg, i, p, q, views=None):
    """Which rows of (p, q), one pair, a (k, n) block or a layout whose
    block views views gives (in layout order), are trial i's pair."""
    if views is not None:
        return np.concatenate([_is_pair(cfg, i, *rows) for rows in zip(views(p), views(q))])
    P, Q = db.random_pair(cfg, i)
    if p.shape[-1] != len(P):
        return np.zeros(p.shape[:-1], dtype=bool)
    return np.all(p == P.probs, axis=-1) & np.all(q == Q.probs, axis=-1)


def _is_ratio(cfg, i, x):
    """Which rows of x, one ratio vector p / q or a (k, n) block, are
    trial i's ratios."""
    P, Q = db.random_pair(cfg, i)
    if x.shape[-1] != len(P):
        return np.zeros(x.shape[:-1], dtype=bool)
    return np.all(x == P.probs / Q.probs, axis=-1)


def _force_ranges(monkeypatch, cfg, ranges: dict):
    """ratio_extremes, as the public ratio_range, bound_interval and the
    pair table call it, giving trial i the (r, R) of ranges[i] wherever x
    is its ratio vector."""
    extremes = simplex.ratio_extremes

    def forced(x):
        lo, hi = (np.array(v) for v in extremes(x))
        for i, (r, R) in ranges.items():
            at = _is_ratio(cfg, i, x)
            lo[at], hi[at] = r, R
        return lo[()], hi[()]

    monkeypatch.setattr(simplex, "ratio_extremes", forced)
    monkeypatch.setattr(harness, "ratio_extremes", forced)
    _fresh_pair_memo(monkeypatch)


def _force_divergence(monkeypatch, cfg, measure: str, values: dict):
    """The named measure, for the public functions and the pair table
    alike, with the value values[i] wherever p, q is trial i's pair."""
    fn = measures._DISPATCH[measure]

    def forced(p, q, views=None):
        out = np.array(fn(p, q, views))
        for i, v in values.items():
            out[_is_pair(cfg, i, p, q, views)] = v
        return out[()]

    monkeypatch.setitem(measures._DISPATCH, measure, forced)
    _fresh_pair_memo(monkeypatch)


def _fresh_pair_memo(monkeypatch):
    """An empty latest-pair memo for the test, so that no value memoized
    before a core was patched shadows the patch; the test's values, patched,
    go when the memo of before is put back."""
    monkeypatch.setattr(simplex, "_latest", None)


COLUMN_SUITES = ("thm31", "thm32", "rem41", "rem51")


@pytest.fixture
def rows_spy(monkeypatch):
    """The suites that built their rows from columns, in call order."""
    built = []
    rows = harness._rows

    def spy(groups):
        built.append(groups)
        return rows(groups)

    monkeypatch.setattr(harness, "_rows", spy)
    return built


def _checks(sid, table):
    """rows(i), trial i's (check name, slack) pairs of a suite, from the
    runner's helper on the table."""
    return harness._checks(harness._SUITES[sid], table)


def _suite_rows(sid, table) -> list:
    rows = _checks(sid, table)
    return [[(name, _bits(slack)) for name, slack in rows(i)] for i in range(table.config.trials)]


class TestColumnSuites:
    @pytest.mark.parametrize(
        "cfg",
        [
            db.TrialConfig(seed=42),
            db.TrialConfig(seed=43, trials=200, concentration=12.0),
            db.TrialConfig(seed=44, trials=200, n_min=2, n_max=2),
            db.TrialConfig(seed=45, trials=200, s_samples=(1e-11, 0.25, 0.75, 4.0, 0.25, -1.0)),
            db.TrialConfig(seed=49, trials=200, s_samples=(0.0, -0.0)),
        ],
        ids=["seed42", "concentration12", "n2", "s_samples", "signed_zero"],
    )
    def test_rows_equal_the_public_functions_bit_for_bit(self, cfg, rows_spy):
        table = harness.PairTable(cfg)
        for sid in COLUMN_SUITES:
            before = len(rows_spy)
            got = _suite_rows(sid, table)
            assert len(rows_spy) == before + 1, sid  # built from its columns, once
            for i in range(cfg.trials):
                assert got[i] == _reference_rows(sid, cfg, i), (sid, i)

    @pytest.mark.parametrize("vanishing, negative", [(3, 7), (7, 3), (3, None)])
    def test_estimator_errors_are_counted_violations(self, monkeypatch, vanishing, negative):
        # G1 = 1e-305 at one trial makes xi6's denominator 2 G1 vanish (a
        # finite quotient without the floor), and F1 = -1 at another puts a
        # negative value under xi1's square root: estimate raises at each,
        # and the estimator columns are nan there, whichever comes first.
        cfg = db.TrialConfig(seed=46, trials=20)
        _force_divergence(monkeypatch, cfg, "G1", {vanishing: 1e-305})
        expected = {vanishing: VanishingDenominator}
        if negative is not None:
            _force_divergence(monkeypatch, cfg, "F1", {negative: -1.0})
            expected[negative] = DegeneratePair
        errors = _counts_failing_trials("rem41", cfg)
        assert {i: type(exc) for i, exc in errors.items()} == expected

    def test_thm31_overflow_is_a_counted_violation(self, monkeypatch):
        # Trial 2: A is finite at s = 3 (1.25e308) but B's R^3 overflows;
        # trial 5: A's f'(r) = r^-3 / -3 overflows at the first s.
        cfg = db.TrialConfig(seed=47, trials=10)
        _force_ranges(monkeypatch, cfg, {2: (0.5, 1e103), 5: (1e-103, 2.0)})
        errors = _counts_failing_trials("thm31", cfg)
        assert {i: str(exc) for i, exc in errors.items()} == {
            2: "b_cf of PHI_S(3.0) leaves the float range",
            5: "a_cf of PHI_S(-2.0) leaves the float range",
        }

    def test_an_infinite_slack_is_a_violation(self, monkeypatch):
        # Trial 5's A is +inf at s = -2 (r^-3), so its slack A - phi_s is
        # +inf, which passes slack >= VIOLATION_TOL: it is given as nan.
        cfg = db.TrialConfig(seed=47, trials=10)
        _force_ranges(monkeypatch, cfg, {5: (1e-103, 2.0)})
        table = harness.PairTable(cfg)
        assert table.a(db.phi_generator(-2.0))[5] == math.inf
        assert list(_counts_failing_trials("thm31", cfg)) == [5]
        [first, *_] = db.run_suite("thm31", cfg).examples
        assert (first["trial"], first["check"]) == (5, "s=-2:phi_le_a") and math.isnan(first["slack"])

    def test_a_later_trials_overflow_is_counted_as_well(self, monkeypatch):
        # Trial 1's A overflows at s = -2 (r^-3), trial 7's at s = 120
        # (R^119): each trial is counted, the later one too.
        cfg = db.TrialConfig(seed=61, trials=12, s_samples=(-2.0, 120.0))
        _force_ranges(monkeypatch, cfg, {1: (1e-103, 2.0), 7: (0.5, 1e3)})
        errors = _counts_failing_trials("thm31", cfg)
        assert {i: str(exc) for i, exc in errors.items()} == {
            1: "a_cf of PHI_S(-2.0) leaves the float range",
            7: "a_cf of PHI_S(120.0) leaves the float range",
        }

    def test_thm32_counts_each_failing_trial_in_its_own_cell(self, monkeypatch):
        # Trial 1's a_cf of PHI_S(-2) overflows (r^-3), and trial 5's
        # x = 1e-200 leaves the float range in g.  The (m, M) of a cell is a
        # column over the whole run: the first cell's, D1 at s = -2, is nan
        # at trials 1 and 5, where g = 3 r^4 underflows, and its own trial
        # 0 keeps its checks.
        cfg = db.TrialConfig(seed=47, trials=12)
        _force_ranges(monkeypatch, cfg, {1: (1e-103, 2.0), 5: (1e-200, 2.0)})
        with np.errstate(all="ignore"):
            mm = harness.PairTable(cfg).mm("D1", -2.0)
        assert np.flatnonzero(np.isnan(mm).any(axis=0)).tolist() == [1, 5]
        errors = _counts_failing_trials("thm32", cfg)
        assert {i: str(exc) for i, exc in errors.items()} == {
            1: "a_cf of PHI_S(-2.0) leaves the float range",
            5: "g(x) = x^(2-s) f''(x) leaves the float range at x=1e-200, s=-2.0",
        }

    def test_g_overflow_is_counted_on_the_shared_columns(self, monkeypatch):
        # At s = -2, D1's g is about R^3 at R and 3 r^4 at r, G2's r^4 / 2:
        # trial 2's R = 1e105 and trial 5's r = 1e-110 leave the float range.
        # thm41 checks D1 on every trial, and thm32 checks G2 at s = -2 on
        # trial 5 alone.  At s = 120, M * phi_s leaves the float range on
        # most trials.  Each such trial has a nan slack; no other moves.
        cfg = db.TrialConfig(seed=61, trials=12, s_samples=(-2.0, 120.0))
        _force_ranges(monkeypatch, cfg, {2: (0.5, 1e105), 5: (1e-110, 2.0)})
        rows = _checks("thm41", harness.PairTable(cfg))
        errors = {}
        for i in range(cfg.trials):
            got = dict(rows(i))
            for s in cfg.s_samples:
                slacks = (got[f"s={s:g}:lower"], got[f"s={s:g}:upper"])
                try:
                    rep = db.bound_interval("D1", s, *db.random_pair(cfg, i))
                except NumericOverflow as exc:
                    errors[i, s] = str(exc)
                    assert any(map(math.isnan, slacks)), (i, s)
                else:
                    assert [_bits(v) for v in slacks] == [_bits(rep.lower_slack), _bits(rep.upper_slack)], (i, s)
        g_error = "g(x) = x^(2-s) f''(x) leaves the float range at x={}, s=-2.0"
        assert {key: e for key, e in errors.items() if key[1] == -2.0} == {(2, -2.0): g_error.format("1e+105"), (5, -2.0): g_error.format("1e-110")}
        assert len(errors) > 2
        report = db.run_suite("thm41", cfg)
        assert report.violations == sum(math.isnan(slack) for i in range(cfg.trials) for _, slack in rows(i))
        assert str(_counts_failing_trials("thm32", cfg)[5]) == g_error.format("1e-110")

    def test_a_column_that_leaves_the_float_range_counts_its_trial(self, monkeypatch):
        # C_f of the power generator is inf at trial 3, so phi_s leaves the
        # float range at every special s: phi_cases counts trial 3's five
        # checks, checks every other trial, and reads one pair a trial.
        cfg = db.TrialConfig(seed=46, trials=10)
        cf = harness.PairTable.cf

        def forced(table, measure):
            out = cf(table, measure).copy()
            out[3] = np.inf
            return out

        monkeypatch.setattr(harness.PairTable, "cf", forced)
        pairs = []
        random_pair = harness.random_pair
        monkeypatch.setattr(harness, "random_pair", lambda config, i: pairs.append(i) or random_pair(config, i))
        report = db.run_suite("phi_cases", cfg)
        assert (report.checks, report.violations) == (50, 5)
        names = [name for _, _, name in harness._SPECIAL_S.values()]
        assert [(e["trial"], e["check"]) for e in report.examples] == [(3, name) for name in names[:3]]
        assert all(math.isnan(e["slack"]) for e in report.examples)
        assert pairs == list(range(cfg.trials))

    def test_no_numpy_warning_escapes_a_suite(self, monkeypatch, rows_spy):
        # A measure column divided by zero is inf or nan, with numpy's
        # warnings off in every suite: the run finishes under warnings as
        # errors, each suite builds its rows from columns and reads one pair
        # a trial, and every eq3 and rem41 check is a nan-slack violation.
        cfg = db.TrialConfig(seed=46, trials=20)
        d = harness.PairTable.d
        monkeypatch.setattr(harness.PairTable, "d", lambda table, measure: d(table, measure) / np.zeros(1))
        pairs = []
        random_pair = harness.random_pair
        monkeypatch.setattr(harness, "random_pair", lambda config, i: pairs.append(i) or random_pair(config, i))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = {r.suite: r for r in db.run_all(cfg)}
        for sid in ("eq3", "rem41"):
            report = reports[sid]
            assert report.checks == report.violations > 0, sid
            assert all(math.isnan(e["slack"]) for e in report.examples), sid
        assert len(rows_spy) == len(reports) == 34
        assert pairs == list(range(cfg.trials)) * 34

    @staticmethod
    def _drops_only_its_own_b_checks(monkeypatch, rows_spy, trial, rng):
        cfg = db.TrialConfig(seed=48, trials=30)
        _force_ranges(monkeypatch, cfg, {trial: rng})
        table = harness.PairTable(cfg)
        r, R = table.extremes()
        assert (r[trial], R[trial]) == rng
        for sid in ("thm31", "thm32"):
            before = len(rows_spy)
            rows = _suite_rows(sid, table)
            assert len(rows_spy) == before + 1, sid  # built from its columns, once
            for i in range(cfg.trials):
                names = [name for name, _ in rows[i]]
                has_b = [name for name in names if ":phi_le_b" in name or ":b_" in name]
                assert (i == trial) == (not has_b), (sid, i)
            assert rows[trial] == _reference_rows(sid, cfg, trial), sid
            assert db.run_suite(sid, cfg).checks == sum(map(len, rows)), sid

    def test_degenerate_range_drops_only_its_own_b_checks(self, monkeypatch, rows_spy):
        self._drops_only_its_own_b_checks(monkeypatch, rows_spy, 4, (1.0, 1.0))

    def test_range_missing_one_by_rounding_drops_only_its_own_b_checks(self, monkeypatch, rows_spy):
        # 1 < r < R, as a pair that sums to 1 only to rounding can give:
        # B's hypothesis r <= 1 <= R fails, and B is omitted as on r = R.
        self._drops_only_its_own_b_checks(monkeypatch, rows_spy, 7, (1.0000000000000002, 1.0000000000000007))

    def test_support_sizes_come_from_the_pairs_first_uniform(self):
        seeds = (0, 42, 2**63 + 5, 2**64 - 1, 2**64 - 2, -1)
        keys = [int(k) for seed in seeds for k in harness._pair_keys(db.TrialConfig(seed=seed), [0, 1, 999, 2**31, 10**15, 2**64 - 1])]
        keys += [0, 2**64 - 1, 2**64 - harness._GOLDEN, 2**64 - harness._GOLDEN - 1]
        rows = harness._uniforms(keys, 3)
        assert rows.shape == (len(keys), 3)
        for key, row in zip(keys, rows):
            assert row.tobytes() == harness._uniforms(key, 3).tobytes(), key
        for seed in seeds:
            cfg = db.TrialConfig(seed=seed, trials=60, n_min=2, n_max=4)
            sizes = [{len(db.random_pair(cfg, i)[0]) for i in trials} for trials in _chunks(harness.PairTable(cfg))]
            assert all(len(n) == 1 for n in sizes), seed  # a chunk holds one support size
            assert [n.pop() for n in sizes] == [2, 3, 4], seed


#: The s of each closed-form sandwich suite at the default config: the
#: configured s_samples (thm) or the power family's special cases (cor)
#: outside the measure's CLOSED_FORM_REGIONS gap.
SANDWICH_S = {
    "thm41": (-2, -1, -0.5, 0, 0.5, 2, 3),
    "cor41": (-1, 0, 0.5, 2),
    "thm42": (-2, -1, 0.5, 1, 1.5, 2, 3),
    "cor42": (-1, 0.5, 1, 2),
    "thm43": (-2, -1, 1, 1.5, 2, 3),
    "cor43": (-1, 1, 2),
    "thm44": (-2, -1, -0.5, 0, 2, 3),
    "cor44": (-1, 0, 2),
    "thm45": (-2, -1, 0, 0.5, 1, 1.5, 2, 3),
    "cor45": (-1, 0, 0.5, 1, 2),
    "thm46": (-2, -1, -0.5, 0, 0.5, 1, 2, 3),
    "cor46": (-1, 0, 0.5, 1, 2),
    "thm51": (-2, -1, -0.5, 0, 1, 1.5, 2, 3),
    "cor51": (-1, 0, 1, 2),
    "thm52": (-2, -1, -0.5, 0, 1, 1.5, 2, 3),
    "cor52": (-1, 0, 1, 2),
    "thm53": (-2, -1, 2, 3),
    "cor53": (-1, 2),
}

_C_T = (math.sqrt(2.0) - 1.0) / 2.0

#: Propositions 4.1-5.3 and eq. (194) as the paper states them: each
#: check's slack from the named measures d(id) of one pair.
PAPER_PROPOSITIONS = {
    "prop41": {"D1<=9/8*KL": lambda d: 9 / 8 * d("KL") - d("D1")},
    "prop42": {"D2<=9/8*KL_adj": lambda d: 9 / 8 * d("KL_ADJ") - d("D2")},
    "prop43": {
        "F1<=KL_adj/4": lambda d: d("KL_ADJ") / 4 - d("F1"),
        "F1<=c*h": lambda d: 3 * math.sqrt(3) / 4 * d("HELLINGER") - d("F1"),
    },
    "prop44": {
        "F2<=c*h": lambda d: 3 * math.sqrt(3) / 4 * d("HELLINGER") - d("F2"),
        "F2<=KL/4": lambda d: d("KL") / 4 - d("F2"),
    },
    "prop51": {"h<=J/8": lambda d: d("J") / 8 - d("HELLINGER")},
    "prop52": {"I<=h": lambda d: d("HELLINGER") - d("I")},
    "prop53": {
        "c*KL_adj<=T": lambda d: d("T") / _C_T - d("KL_ADJ"),
        "c*KL<=T": lambda d: d("T") / _C_T - d("KL"),
        "h<=T": lambda d: d("T") - d("HELLINGER"),
    },
    "eq194": {
        "I<=h": lambda d: d("HELLINGER") - d("I"),
        "h<=T": lambda d: d("T") - d("HELLINGER"),
        "h<=J/8": lambda d: d("J") / 8 - d("HELLINGER"),
    },
}

#: The derived c = (sqrt2-1)/2 is correctly rounded, 2 ulp below the float
#: of the paper's formula, so these slacks T/c - KL are not bit-identical.
NEAR_PAPER = {"c*KL_adj<=T", "c*KL<=T"}


class TestSpecialCases:
    def test_sandwich_suites_check_the_special_cases_outside_the_gap(self):
        table = harness.PairTable(db.TrialConfig(trials=3))
        for sid, s_values in SANDWICH_S.items():
            names = [f"s={s:g}:{side}" for s in s_values for side in ("lower", "upper")]
            for i in range(3):
                assert [name for name, _ in _checks(sid, table)(i)] == names, (sid, i)
        sandwich = [sid for sid in db.suite_ids() if sid[:3] in ("thm", "cor") and sid not in ("thm31", "thm32")]
        assert sandwich == list(SANDWICH_S)

    def test_theorem_falls_back_to_the_corollarys_s(self):
        # s = 1 lies in D1's gap (0.75, 2), so thm41 takes cor41's s.
        cfg = db.TrialConfig(seed=0, trials=20, s_samples=(1.0,))
        table = harness.PairTable(cfg)
        rows = [list(_checks(sid, table)(0)) for sid in ("thm41", "cor41")]
        assert [name for name, _ in rows[0]] == [f"s={s:g}:{side}" for s in (-1, 0, 0.5, 2) for side in ("lower", "upper")]
        assert rows[0] == rows[1]
        assert db.run_suite("thm41", cfg).violations == 0

    def test_phi_cases_check_the_five_special_cases(self):
        table = harness.PairTable(db.TrialConfig(trials=2))
        names = [name for name, _ in _checks("phi_cases", table)(0)]
        assert names == ["phi(-1)=chi2_adj/2", "phi(0)=KL_adj", "phi(1/2)=4h", "phi(1)=KL", "phi(2)=chi2/2"]

    def test_propositions_are_the_papers_inequalities(self):
        cfg = db.TrialConfig(seed=42, trials=300)
        table = harness.PairTable(cfg)
        for sid, checks in PAPER_PROPOSITIONS.items():
            rows = _checks(sid, table)
            for i in range(cfg.trials):
                P, Q = db.random_pair(cfg, i)
                got = dict(rows(i))
                assert list(got) == list(checks), sid
                for name, slack in checks.items():
                    want = slack(lambda measure: db.divergence(measure, P, Q))
                    if name in NEAR_PAPER:  # within 1e-15 of the larger side, T/c
                        assert abs(got[name] - want) <= 1e-15 * db.divergence("T", P, Q) / _C_T, (sid, name, i)
                    else:
                        assert _bits(got[name]) == _bits(want), (sid, name, i)


@pytest.mark.parametrize(
    "slack, passes",
    [
        (VIOLATION_TOL, True),
        (math.nextafter(VIOLATION_TOL, -math.inf), False),
        (-0.0, True),
        (0.0, True),
        (math.nan, False),
        (math.inf, True),
        (-math.inf, False),
    ],
    ids=["tol", "below_tol", "-0.0", "0.0", "nan", "inf", "-inf"],
)
def test_one_violation_rule_at_every_site(slack, passes):
    # A slack passes from VIOLATION_TOL upward; the next float below it,
    # nan and -inf fail, at each of the four places that judge a slack.
    P, Q = db.normalize([1, 2]), db.normalize([2, 1])
    rng = db.ratio_range(P, Q)
    mm = db.MMBounds(m=0.0, M=1.0, method="closed_form", s=1.0, range=rng)
    report = db.SuiteReport("x", "", trials=1)
    report.record(0, "x", slack, P, Q)
    verdicts = {
        "BoundReport lower": db.BoundReport("J", 1.0, 0.0, 0.0, 0.0, mm, lower_slack=slack, upper_slack=0.0).holds,
        "BoundReport upper": db.BoundReport("J", 1.0, 0.0, 0.0, 0.0, mm, lower_slack=0.0, upper_slack=slack).holds,
        "DifferenceReport": db.DifferenceReport(1.0, rng, mm, {"x": slack, "y": 0.0}).holds,
        "TypeSBoundSet": db.TypeSBoundSet(1.0, rng, 0.0, 0.0, 0.0, None, {"x": slack, "y": 0.0}).holds,
        "SuiteReport.record": report.violations == 0,
    }
    assert verdicts == dict.fromkeys(verdicts, passes)
