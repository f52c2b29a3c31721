import json
import math

import pytest

import divbounds as db
from divbounds.cli import load_distributions, main


@pytest.fixture()
def golden_json(tmp_path):
    path = tmp_path / "dists.json"
    path.write_text(json.dumps({"distributions": {"a": [3, 1], "b": [1, 3], "u": [1, 1]}}))
    return str(path)


@pytest.fixture()
def golden_csv(tmp_path):
    path = tmp_path / "dists.csv"
    path.write_text("a,3,1\nb,1,3\nu,1,1\n")
    return str(path)


class TestLoadDistributions:
    def test_json(self, golden_json):
        dists = load_distributions(golden_json, "json")
        assert dists == {"a": [3.0, 1.0], "b": [1.0, 3.0], "u": [1.0, 1.0]}

    def test_csv(self, golden_csv):
        dists = load_distributions(golden_csv, "csv")
        assert dists == {"a": [3.0, 1.0], "b": [1.0, 3.0], "u": [1.0, 1.0]}

    @pytest.mark.parametrize("weights", [3, [1, None], "12", [1, True], [1, 10**400]])
    def test_json_weights_must_be_an_array_of_numbers(self, tmp_path, capsys, weights):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"distributions": {"a": weights, "b": [1, 3]}}))
        code = main(["compute", "--input", str(path), "--p", "a", "--q", "b", "--measure", "J"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: distribution 'a': ")
        assert captured.out == ""

    def test_duplicate_csv_name(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,1,2\na,2,1\n")
        with pytest.raises(db.errors.DivBoundsError):
            load_distributions(str(path), "csv")

    @pytest.mark.parametrize(
        "name, text",
        [
            ("dup.csv", "a,1,2\na,2,1\nb,1,1\n"),
            ("dup.json", '{"distributions": {"a": [1, 2], "a": [2, 1], "b": [1, 1]}}'),
        ],
        ids=["csv", "json"],
    )
    def test_duplicate_name_is_usage_error(self, tmp_path, capsys, name, text):
        # json.load would keep the last "a" silently; both formats refuse it.
        path = tmp_path / name
        path.write_text(text)
        code = main(["compute", "--input", str(path), "--p", "a", "--q", "b", "--measure", "J"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {path}: duplicate distribution name 'a'\n"
        assert captured.out == ""


class TestCompute:
    def test_golden_j(self, golden_json, capsys):
        code = main(["compute", "--input", golden_json, "--p", "a", "--q", "b", "--measure", "J"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"J {math.log(3.0):.17g}" in out

    def test_same_name_twice(self, golden_json, capsys):
        code = main(["compute", "--input", golden_json, "--p", "u", "--q", "u", "--measure", "I"])
        assert code == 0
        assert "I 0" in capsys.readouterr().out

    def test_golden_chi2(self, golden_json, capsys):
        code = main(["compute", "--input", golden_json, "--p", "a", "--q", "b", "--measure", "CHI2"])
        assert code == 0
        assert "CHI2 1.3333333333333333" in capsys.readouterr().out

    def test_csv_format_inferred(self, golden_csv, capsys):
        code = main(["compute", "--input", golden_csv, "--p", "a", "--q", "b", "--measure", "CHI2"])
        assert code == 0
        assert "CHI2 1.3333333333333333" in capsys.readouterr().out

    def test_overflowing_ratio_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"distributions": {"u": [1, 1], "t": [5e-324, 1]}}))
        code = main(["compute", "--input", str(path), "--p", "u", "--q", "t", "--measure", "J"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: R = max p_i/q_i leaves the float range\n"
        assert captured.out == ""

    def test_json_roundtrip_is_bit_exact(self, golden_json, capsys):
        code = main(["compute", "--input", golden_json, "--p", "a", "--q", "b", "--all", "--s", "0.5", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        P, Q = db.normalize([3, 1]), db.normalize([1, 3])
        for mid in db.MEASURE_IDS:
            assert report["values"][mid] == db.divergence(mid, P, Q)
        assert report["values"]["PHI_S(0.5)"] == db.phi_s(0.5, P, Q)
        rng = db.ratio_range(P, Q)
        assert report["r"] == rng.r and report["R"] == rng.R

    def test_each_s_gets_its_own_line(self, golden_json, capsys):
        # 1 and 1.0000001 print alike under :g; the generator id tells them apart.
        code = main(["compute", "--input", golden_json, "--p", "a", "--q", "b", "--s", "1", "--s", "1.0000001", "--s", "2"])
        assert code == 0
        P, Q = db.normalize([3, 1]), db.normalize([1, 3])
        lines = capsys.readouterr().out.splitlines()[2:]
        assert lines == [f"{name} {db.phi_s(s, P, Q):.17g}" for name, s in (("PHI_S(1)", 1.0), ("PHI_S(1.0000001)", 1.0000001), ("PHI_S(2.0)", 2.0))]

    def test_bits_flag(self, golden_json, capsys):
        main(["compute", "--input", golden_json, "--p", "a", "--q", "b", "--measure", "J", "--json", "--bits"])
        report = json.loads(capsys.readouterr().out)
        assert report["values"]["J"] == pytest.approx(math.log(3.0) / math.log(2.0), rel=1e-15)
        assert report["units"] == "bits"

    def test_smooth_admits_zeros(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"distributions": {"a": [1, 0], "b": [1, 1]}}))
        code = main(["compute", "--input", str(path), "--p", "a", "--q", "b", "--measure", "KL", "--smooth", "1"])
        assert code == 0

    def test_zero_entry_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"distributions": {"a": [1, 0], "b": [1, 1]}}))
        code = main(["compute", "--input", str(path), "--p", "a", "--q", "b", "--measure", "KL"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["compute", "--input", "/nonexistent.json", "--p", "a", "--q", "b", "--measure", "J"])
        assert code == 2

    def test_unknown_measure(self, golden_json, capsys):
        code = main(["compute", "--input", golden_json, "--p", "a", "--q", "b", "--measure", "NOPE"])
        assert code == 2

    def test_nothing_requested(self, golden_json, capsys):
        code = main(["compute", "--input", golden_json, "--p", "a", "--q", "b"])
        assert code == 2


class TestBounds:
    def test_golden_i_s1(self, golden_json, capsys):
        code = main(["bounds", "--input", golden_json, "--p", "a", "--q", "b", "--measure", "I", "--s", "1", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["lower"] == pytest.approx(0.0686633, abs=1e-6)
        assert report["upper"] == pytest.approx(0.2059898, abs=1e-6)
        assert report["holds"] is True
        assert report["method"] == "closed_form"
        chain = db.bound_set(1.0, db.normalize([3, 1]), db.normalize([1, 3]))
        assert (report["e_bound"], report["a_bound"], report["b_bound"]) == (chain.e_bound, chain.a_bound, chain.b_bound)

    def test_gap_reports_closed_form(self, golden_json, capsys):
        code = main(["bounds", "--input", golden_json, "--p", "a", "--q", "b", "--measure", "D1", "--s", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "method closed_form" in out
        assert "holds" in out

    def test_method_is_not_an_option(self, golden_json, capsys):
        # (m, M) always come from mm_exact; argparse rejects the old selector.
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--input", golden_json, "--p", "a", "--q", "b", "--measure", "I", "--s", "1", "--method", "numeric"])
        assert info.value.code == 2
        assert "unrecognized arguments: --method numeric" in capsys.readouterr().err

    def test_equal_pair_all_zero(self, golden_json, capsys):
        code = main(["bounds", "--input", golden_json, "--p", "u", "--q", "u", "--measure", "J", "--s", "1", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["lower"] == report["value"] == report["upper"] == 0.0
        assert report["b_bound"] is None
        main(["bounds", "--input", golden_json, "--p", "u", "--q", "u", "--measure", "J", "--s", "1"])
        assert "\nb_bound n/a\nholds\n" in capsys.readouterr().out

    def test_range_missing_one_by_rounding_has_no_b_bound(self, tmp_path, capsys):
        # The pair sums to 1 only to rounding: r <= R < 1, so B is undefined.
        path = tmp_path / "rounded.json"
        path.write_text(json.dumps({"distributions": {"c": [8.000000000000002, 5.000000000000001], "d": [8, 5]}}))
        code = main(["bounds", "--input", str(path), "--p", "c", "--q", "d", "--measure", "J", "--s", "1"])
        assert code == 0
        assert "\nb_bound n/a\n" in capsys.readouterr().out

    def test_non_catalog_measure_rejected(self, golden_json, capsys):
        code = main(["bounds", "--input", golden_json, "--p", "a", "--q", "b", "--measure", "KL", "--s", "1"])
        assert code == 2


    def test_overflow_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"distributions": {"a": [1, 1e6], "b": [1e6, 1]}}))
        code = main(["bounds", "--input", str(path), "--p", "a", "--q", "b", "--measure", "D1", "--s", "100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""


    def test_overflowing_phi_s_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({"distributions": {"a": [1e-300, 1], "u": [1, 1]}}))
        code = main(["bounds", "--input", str(path), "--p", "a", "--q", "u", "--measure", "D1", "--s", "-2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestVerify:
    def test_small_suite(self, capsys):
        code = main(["verify", "--suite", "eq194", "--trials", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite=eq194" in out
        assert "total_violations=0" in out

    def test_unknown_suite(self, capsys):
        code = main(["verify", "--suite", "nosuch"])
        assert code == 2

    def test_no_suite_requested(self, capsys):
        code = main(["verify"])
        assert code == 2

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--suite", "eq3", "--suite", "thm31", "--trials", "25", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_json_report(self, capsys):
        code = main(["verify", "--suite", "eq12", "--trials", "5", "--seed", "1", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["violations"] == 0
        assert report["suites"][0]["suite"] == "eq12"


class TestCatalog:
    def test_lists_nine_plus_family(self, capsys):
        code = main(["catalog", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        ids = [e["id"] for e in report["measures"]]
        assert ids[:9] == list(db.CATALOG_IDS)
        assert ids[9] == "PHI_S(s)"
        assert len(ids) == 10

    def test_text_mentions_regions_and_extrema(self, capsys):
        code = main(["catalog"])
        out = capsys.readouterr().out
        assert code == 0
        assert "D1: f=(x-1)*ln((x+1)/2)" in out
        assert "closed-form s <= 0.75 or s >= 2" in out
        assert "sup g = 1.125" in out
