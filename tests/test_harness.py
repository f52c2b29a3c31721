import math
import sys
import threading
import weakref

import numpy as np
import pytest

import divbounds as db
import divbounds.harness as harness
from divbounds.cli import main
from divbounds.errors import DivBoundsError, InvalidArgument, UnknownSuite

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
        ],
    )
    def test_validation_error_is_typed(self, kwargs):
        with pytest.raises(InvalidArgument) as info:
            db.TrialConfig(**kwargs)
        assert isinstance(info.value, DivBoundsError)


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


class TestPairTable:
    def test_quantities_equal_the_public_functions_bit_for_bit(self):
        cfg = db.TrialConfig(seed=31, trials=300)
        table = harness.PairTable(cfg)
        s_values = sorted({*cfg.s_samples, 0.25, 0.75})  # every s a suite uses
        sizes = set()
        for i in range(cfg.trials):
            P, Q = db.random_pair(cfg, i)
            sizes.add(len(P))
            rng = db.ratio_range(P, Q)
            assert (_bits(table.ranges()[i].r), _bits(table.ranges()[i].R)) == (_bits(rng.r), _bits(rng.R))
            assert not table.coincide()[i]
            for m in db.MEASURE_IDS:
                assert _bits(table.d(m)[i]) == _bits(db.divergence(m, P, Q)), (i, m)
            for s in s_values:
                assert _bits(table.phi(s)[i]) == _bits(db.phi_s(s, P, Q)), (i, s)
                assert _bits(table.e_phi(s)[i]) == _bits(db.e_phi_s(s, P, Q)), (i, s)
            for m, gen in db.catalog().items():
                assert _bits(table.cf(m)[i]) == _bits(db.eval_csiszar(gen, P, Q)), (i, m)
                assert _bits(table.e_cf(m)[i]) == _bits(db.e_cf(gen, P, Q)), (i, m)
                for s in s_values:
                    rep = db.bound_interval(m, s, P, Q)
                    lower, upper = table.sandwich(m, s)
                    assert (_bits(lower[i]), _bits(upper[i])) == (_bits(rep.lower_slack), _bits(rep.upper_slack)), (i, m, s)
        assert min(sizes) <= 4 and max(sizes) >= 62

    def test_each_run_recomputes(self, monkeypatch, capsys):
        stacks, sums = [], []
        stack, divergence_sums = harness._stack, harness.divergence_sums
        monkeypatch.setattr(harness, "_stack", lambda config, trials: stacks.append(trials) or stack(config, trials))
        monkeypatch.setattr(harness, "divergence_sums", lambda m, p, q: sums.append(m) or divergence_sums(m, p, q))
        argv = ["verify", "--all", "--trials", "20", "--seed", "34"]
        assert main(argv) == 0
        first = (len(stacks), len(sums))
        assert main(argv) == 0
        assert first[0] > 0 and first[1] > 0
        assert (len(stacks), len(sums)) == (2 * first[0], 2 * first[1])
        out = capsys.readouterr().out
        assert out[: len(out) // 2] == out[len(out) // 2 :]

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
