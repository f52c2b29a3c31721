"""Input that is not numeric at all raises a DivBoundsError subclass, not
a raw Python error."""

import pytest

import divbounds as db
import divbounds.harness as harness
from divbounds.errors import DivBoundsError, InvalidArgument, InvalidRange, UnknownMeasure, UnknownSuite

CFG = db.TrialConfig(trials=3)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: db.run_suite(["eq3"], CFG), UnknownSuite),
        (lambda: harness.PairTable("cfg"), InvalidArgument),
        (lambda: db.run_suite("eq3", "cfg"), InvalidArgument),
        (lambda: db.global_extrema("J", "a"), InvalidArgument),
        (lambda: db.global_extrema("J", None), InvalidArgument),
        (lambda: db.normalize(["a", "b"]), InvalidArgument),
        (lambda: db.smooth(["a"], 1.0), InvalidArgument),
        (lambda: db.Distribution(["a", "b"]), InvalidArgument),
        (lambda: db.check_generator(db.catalog()["J"], "abc"), InvalidArgument),
        (lambda: db.g_eval("J", 0.5, "abc"), InvalidArgument),
        (lambda: db.RatioRange("a", 2.0), InvalidRange),
        (lambda: db.check_generator("nope", [1.0]), UnknownMeasure),
        (lambda: db.check_generator(3, [1.0]), UnknownMeasure),
    ],
    ids=[
        "run_suite-list-id",
        "PairTable-str-config",
        "run_suite-str-config",
        "global_extrema-str-s",
        "global_extrema-None-s",
        "normalize-str-weights",
        "smooth-str-weights",
        "Distribution-str-entries",
        "check_generator-str-grid",
        "g_eval-str-x",
        "RatioRange-str-r",
        "check_generator-str-generator",
        "check_generator-int-generator",
    ],
)
def test_non_numeric_input_raises_a_typed_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, DivBoundsError)
    if error is InvalidArgument:
        assert isinstance(info.value, ValueError)  # callers that catch ValueError still do


def test_check_generator_takes_a_catalog_id_as_its_generator():
    grid = [0.5, 1.0, 2.0]
    assert db.check_generator("J", grid) == db.check_generator(db.catalog()["J"], grid)


_P = db.Distribution([0.25, 0.75])

#: The public per-pair functions, each called on a pair (P, Q).
_PAIR_CALLS = {
    "divergence": lambda P, Q: db.divergence("J", P, Q),
    "phi_s": lambda P, Q: db.phi_s(0.5, P, Q),
    "eval_csiszar": lambda P, Q: db.eval_csiszar("J", P, Q),
    "ratio_range": db.ratio_range,
    "bound_interval": lambda P, Q: db.bound_interval("J", 0.5, P, Q),
    "bound_set": lambda P, Q: db.bound_set(0.5, P, Q),
    "e_cf": lambda P, Q: db.e_cf("J", P, Q),
    "difference_bounds": lambda P, Q: db.difference_bounds("J", 0.5, P, Q),
    "estimate": lambda P, Q: db.estimate(db.EstimatorId("XI", 1), P, Q),
}

#: The public functions of one ratio range, at an s outside J's gap.
_RANGE_CALLS = {
    "mm_exact": lambda rng: db.mm_exact("J", 2.0, rng),
    "mm_closed": lambda rng: db.mm_closed("J", 2.0, rng),
    "mm_numeric": lambda rng: db.mm_numeric("J", 2.0, rng),
    "a_cf": lambda rng: db.a_cf("J", rng),
    "b_cf": lambda rng: db.b_cf("J", rng),
}

_NOT_A_PAIR = [
    (f"{name}-{kind}-as-{side}", call, (bad, _P) if side == "P" else (_P, bad))
    for name, call in _PAIR_CALLS.items()
    for kind, bad in (("list", [0.5, 0.5]), ("tuple", (0.5, 0.5)), ("None", None))
    for side in ("P", "Q")
]
_NOT_A_RANGE = [(f"{name}-{kind}", call, (bad,)) for name, call in _RANGE_CALLS.items() for kind, bad in (("tuple", (0.5, 2.0)), ("str", "ab"))]


@pytest.mark.parametrize("call, args", [case[1:] for case in _NOT_A_PAIR + _NOT_A_RANGE], ids=[case[0] for case in _NOT_A_PAIR + _NOT_A_RANGE])
def test_a_pair_or_range_of_the_wrong_type_raises_invalid_argument(call, args):
    with pytest.raises(InvalidArgument, match="must be Distributions|need a RatioRange"):
        call(*args)
