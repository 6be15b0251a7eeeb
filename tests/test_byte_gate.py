import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "byte_gate.py")
_SPEC = importlib.util.spec_from_file_location("byte_gate", _PATH)
byte_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(byte_gate)

EARLIER = [
    "default/decay workers=1 csv N,re,im",
    "default/decay workers=1 csv 10,0.5,0.25",
    "default/decay workers=1 csv 20,0.125,-0.5",
    "default/decay workers=1 result fit.C=9871.59",
    "default/counterexample workers=1 result series.shift_symbol(L=10).final_N=10",
    'default/counterexample workers=1 result flow="bh"',
]


def _compare(now):
    return byte_gate._compare(EARLIER, now, 1e-9, 1e-12)


def test_equal_outputs_move_nothing():
    report, failures = _compare(list(EARLIER))
    assert failures == 0
    assert report == ["0 of 6 lines moved, 0 failures (tolerance 1e-09 + 1e-12 |ref|)"]


def test_each_moved_line_and_field_is_reported_with_its_largest_move():
    now = list(EARLIER)
    now[1] = "default/decay workers=1 csv 10,0.5000000000001,0.25"
    now[2] = "default/decay workers=1 csv 20,0.125,-0.50000000000025"
    now[3] = "default/decay workers=1 result fit.C=9871.590000005"
    report, failures = _compare(now)
    assert failures == 0
    assert report[:3] == [
        "moved 1e-13: default/decay workers=1 csv 1",
        "moved 2.5e-13: default/decay workers=1 csv 2",
        "moved 5e-09: default/decay workers=1 result fit.C",
    ]
    assert "field default/decay csv re: largest move 1e-13" in report
    assert "field default/decay csv im: largest move 2.5e-13" in report
    assert report[-1].startswith("3 of 6 lines moved, 0 failures")


@pytest.mark.parametrize(
    "index, line",
    [
        (3, "default/decay workers=1 result fit.C=9871.6"),  # past 1e-9 + 1e-12 |ref|
        (5, 'default/counterexample workers=1 result flow="car"'),  # not a number
        (1, "default/decay workers=1 csv 10,0.5"),  # a field fewer
    ],
)
def test_a_move_past_the_reference_tolerance_fails(index, line):
    now = list(EARLIER)
    now[index] = line
    report, failures = _compare(now)
    assert failures == 1
    past = [r for r in report if "PAST TOLERANCE" in r]
    assert len(past) == 1 and past[0].startswith("moved")


def test_a_missing_or_extra_line_fails():
    report, failures = _compare(EARLIER[:-1] + ["default/decay workers=4 exit=1 boom"])
    assert failures == 2
    assert 'only in the earlier run: default/counterexample workers=1 result flow' in report
    assert "only in the new run: default/decay workers=4 exit=1 boom" in report


def test_a_result_key_may_hold_an_equals_sign():
    assert byte_gate._split_leaf("series.shift_symbol(L=10).final_N=10") == (
        "series.shift_symbol(L=10).final_N",
        "10",
    )
