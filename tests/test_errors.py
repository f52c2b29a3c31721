"""Input that is not numeric at all raises a DivBoundsError subclass, not
a raw Python error."""

import pytest

import divbounds as db
import divbounds.harness as harness
from divbounds.errors import DivBoundsError, InvalidArgument, InvalidRange, UnknownSuite

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
    ],
)
def test_non_numeric_input_raises_a_typed_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, DivBoundsError)
    if error is InvalidArgument:
        assert isinstance(info.value, ValueError)  # callers that catch ValueError still do
