"""Golden-trace replay: the recorded traces in ``tests/golden/`` must
reproduce exactly on every run.

A failure here means the simulation's observable behaviour changed.  If
the change is intentional, refresh with
``PYTHONPATH=src python -m repro validate --refresh-golden`` and commit
the JSON diff; if not, a determinism or semantics regression slipped in.
"""

import json
import math

import pytest

from repro.validate.golden import GOLDEN_CASES, _diff, capture, golden_dir, verify


def test_golden_dir_has_all_traces():
    recorded = {p.stem for p in golden_dir().glob("*.json")}
    assert {c.name for c in GOLDEN_CASES} <= recorded


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c.name)
def test_trace_replays_exactly(case):
    diffs = verify(case)
    assert not diffs, "trace diverged:\n" + "\n".join(diffs[:10])


def test_recorded_spec_matches_registry():
    """The JSON spec block must agree with the in-code case (guards
    against editing one without the other)."""
    for case in GOLDEN_CASES:
        recorded = json.loads((golden_dir() / f"{case.name}.json").read_text())
        spec = recorded["spec"]
        assert spec["distribution"] == case.distribution
        assert spec["sync"] == case.sync
        assert spec["delivery"] == case.delivery
        assert spec["n_days"] == case.n_days == len(recorded["curve"]["new_infections"])


def test_diff_reports_changed_leaves():
    a = {"x": 1, "y": [1.0, 2.0], "z": "s"}
    assert _diff(a, {"x": 1, "y": [1.0, 2.0], "z": "s"}) == []
    diffs = _diff(a, {"x": 2, "y": [1.0, 2.0 + 1e-6], "z": "t"})
    assert len(diffs) == 3
    assert any("x" in d for d in diffs)


def test_diff_compares_floats_to_the_last_bit():
    """Virtual-time floats are compared with ``==``: one ulp is a diff,
    and a trace survives its own JSON round trip unchanged."""
    t = 0.022623323370072817
    assert _diff({"t": t}, {"t": t}) == []
    assert len(_diff({"t": t}, {"t": math.nextafter(t, 1.0)})) == 1
    trace = capture(GOLDEN_CASES[0])
    assert _diff(json.loads(json.dumps(trace)), trace) == []


def test_missing_trace_reports_single_diff(tmp_path):
    diffs = verify(GOLDEN_CASES[0], directory=tmp_path)
    assert len(diffs) == 1 and "missing" in diffs[0]


def test_capture_is_deterministic():
    case = GOLDEN_CASES[0]
    assert _diff(capture(case), capture(case)) == []
