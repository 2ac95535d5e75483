"""Self-test of the bench ladder (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ladder -q

Runs the whole ladder once at smoke size and checks the harness, not
the program's speed.
"""

from __future__ import annotations

import copy
import importlib
import json

import pytest

from benchmarks.ladder import compare, layers
from benchmarks.ladder.__main__ import _contract_line, main
from benchmarks.ladder.child import verify_record
from benchmarks.ladder.harness import LADDER_ONLY, LADDER_ONLY_WORKLOADS, contract
from benchmarks.ladder.workloads import NAMES, build

from repro.core.disease import DiseaseModel
from repro.spec import execute


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder") / "smoke.json"
    assert main(["--smoke", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_contract_names_the_workloads_the_code_builds():
    listed = [w["name"] for w in contract()["workloads"]]
    assert sorted(listed + list(LADDER_ONLY_WORKLOADS)) == sorted(NAMES)
    assert "setup_s" in {m["name"] for m in contract()["end_to_end"]}


def test_smoke_emits_every_metric_for_every_workload(smoke):
    gated = [m["name"] for m in contract()["end_to_end"]]
    declared = {m["name"] for m in contract()["per_layer"]}
    assert set(smoke["workloads"]) == set(NAMES)
    seen_nonzero = set()
    for name, result in smoke["workloads"].items():
        e2e = result["end_to_end"]
        assert list(e2e) == gated + list(LADDER_ONLY)
        for metric in gated:
            assert e2e[metric]["value"] > 0
        # null exactly where specified
        assert (e2e["model_s_per_day"]["value"] is None) == (name != "charm_gp_split")
        assert e2e["run_spread_pct"]["value"] is None  # one repetition
        assert e2e["failed_share"]["value"] == 0
        assert result["correct"] and result["errors"] == []
        assert set(result["per_layer"]) <= declared
        seen_nonzero |= {k for k, v in result["per_layer"].items() if v}
        # the contract line carries every declared metric, whatever the workload
        for trace, names in ((True, declared), (False, set(gated))):
            line = json.loads(_contract_line(result, trace))
            assert set(line["metrics"]) == names
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
    # no declared layer metric is dead (back-pressure needs a full ring,
    # which a smoke-size run never produces)
    assert declared - seen_nonzero <= {"smp.backpressure_events"}
    assert smoke["fingerprint"]["ckernel_available"] is True


def test_verification_rejects_a_corrupted_result():
    spec = build("seq_dense_compiled", smoke=True).spec
    result = execute(spec)
    assert verify_record(result.record(), result.n_persons, spec.n_days) == []
    result.total_infections += 1
    assert verify_record(result.record(), result.n_persons, spec.n_days)
    result.total_infections -= 1
    result.final_histogram["recovered"] = result.final_histogram.get("recovered", 0) + 1
    assert verify_record(result.record(), result.n_persons, spec.n_days)
    assert verify_record(result.record(), result.n_persons + 1, spec.n_days + 1)


def _shim_targets():
    for shim in layers.SHIMS:
        owner = importlib.import_module(shim.module)
        *path, name = shim.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        yield owner, name


def test_shims_are_fully_removed():
    originals = [vars(owner)[name] for owner, name in _shim_targets()]
    advance_day = DiseaseModel.advance_day
    with pytest.raises(ZeroDivisionError):
        with layers.installed(layers.Tally()):
            assert DiseaseModel.advance_day is not advance_day
            1 / 0
    assert DiseaseModel.advance_day is advance_day
    for (owner, name), original in zip(_shim_targets(), originals):
        assert vars(owner)[name] is original


def test_compare_flags_a_slowdown_and_passes_identical_inputs(smoke, tmp_path, capsys):
    rows, changed = compare.compare(smoke, smoke)
    assert rows and changed == []
    assert {r["status"] for r in rows} == {"ok"}

    # a synthetic slowdown just past the declared bound
    bound = next(m["bound"] for m in contract()["end_to_end"] if m["name"] == "person_days_per_s")
    slow = copy.deepcopy(smoke)
    metric = slow["workloads"]["seq_sparse"]["end_to_end"]["person_days_per_s"]
    metric["value"] *= 1 - bound - 0.05
    metric["samples"] = [s * (1 - bound - 0.05) for s in metric["samples"]]
    rows, _ = compare.compare(smoke, slow)
    regressed = [(r["workload"], r["metric"]) for r in rows if r["status"] == "regressed"]
    assert regressed == [("seq_sparse", "person_days_per_s")]

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(smoke) + "\n")
    b.write_text(json.dumps(slow) + "\n")
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out

    failing = copy.deepcopy(smoke)
    failing["workloads"]["sweep_small"]["end_to_end"]["failed_share"]["value"] = 0.125
    rows, _ = compare.compare(smoke, failing)
    assert [r["metric"] for r in rows if r["status"] == "regressed"] == ["failed_share"]


def test_wide_interleaved_runs_are_unresolved_not_regressed():
    a = {"value": 10.0, "samples": [8.0, 10.0, 12.0]}
    b = {"value": 8.5, "samples": [7.0, 8.5, 11.0]}
    assert compare.verdict(a, b, "higher", 0.10)[0] == "unresolved"
    tight = {"value": 8.5, "samples": [8.4, 8.5, 8.6]}
    assert compare.verdict({"value": 10.0, "samples": [9.9, 10.0, 10.1]}, tight,
                           "higher", 0.10)[0] == "regressed"
