"""Registry, the RunSpec scenario fields and CLI integration.

A scenario choice must behave like every other spec in the repo: named
and validated at construction, JSON/TOML round-trippable, stably
hashed, and reachable from both the RunSpec layer and the CLI.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.scenarios import (
    ScenarioDefinition,
    build_components,
    get,
    names,
    register,
)
from repro.spec import PopulationSpec, RunSpec


class TestRegistry:
    def test_expected_scenarios_registered(self):
        assert names() == sorted(names())
        assert set(names()) == {
            "waning-vaccination", "contact-tracing", "hospital-capacity",
            "turnover", "two-variant",
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            get("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(get("turnover"))

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            build_components("turnover", speed=3)

    def test_builder_applies_overrides(self):
        disease, components = build_components(
            "two-variant", cross_immunity=0.25, bias=0.9
        )
        assert disease.states[disease.index["R_A"]].susceptibility == 0.75
        assert components[0].bias == 0.9

    def test_definitions_describe_themselves(self):
        for name in names():
            defn = get(name)
            assert isinstance(defn, ScenarioDefinition)
            assert defn.description
            assert defn.params() == defn.defaults


class TestScenarioSpec:
    """A scenario choice is the ``scenario`` / ``scenario_params`` pair
    of a :class:`RunSpec`: validated at construction, round-tripped and
    hashed with the rest of the spec."""

    @staticmethod
    def spec(name, params=None):
        return RunSpec(
            population=PopulationSpec(n_persons=60, name="spec-build"),
            n_days=2, scenario=name, scenario_params=params or {},
        )

    def test_json_and_toml_roundtrip(self):
        spec = self.spec("hospital-capacity", {"beds": 3})
        assert RunSpec.from_json(spec.to_json()) == spec
        assert RunSpec.from_toml(spec.to_toml()) == spec

    def test_hash_is_stable_and_param_sensitive(self):
        a = self.spec("turnover")
        b = self.spec("turnover", {})
        c = self.spec("turnover", {"rate": 0.2})
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()
        # Key order never matters: canonical JSON sorts.
        d = self.spec("waning-vaccination", {"coverage": 0.5, "day": 1})
        e = self.spec("waning-vaccination", {"day": 1, "coverage": 0.5})
        assert list(d.scenario_params) != list(e.scenario_params)
        assert d.content_hash() == e.content_hash()

    def test_invalid_specs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown scenario 'no-such'"):
            self.spec("no-such")
        with pytest.raises(
            ValueError,
            match=r"scenario 'turnover' has no parameter\(s\) \['beds'\] "
                  r"\(accepted: \['rate'\]\)",
        ):
            self.spec("turnover", {"beds": 1})

    def test_build_materialises_a_scenario(self):
        spec = self.spec("turnover", {"rate": 0.3})
        sc = spec.build_scenario()
        assert sc.n_days == 2
        assert sc.interventions.interventions[0].rate == 0.3


class TestRunSpecIntegration:
    def base(self, **kw):
        return RunSpec(
            population=PopulationSpec(n_persons=120, name="rs"), n_days=3, **kw
        )

    def test_scenario_fields_roundtrip_and_hash(self):
        spec = self.base(scenario="two-variant",
                         scenario_params={"bias": 0.8})
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert RunSpec.from_toml(spec.to_toml()) == spec
        assert spec.content_hash() != self.base().content_hash()
        # Absent and empty scenario hash identically (pruned canonical).
        assert "scenario" not in self.base().canonical()

    def test_validation(self):
        with pytest.raises(ValueError, match="scenario_params"):
            self.base(scenario_params={"bias": 0.8})
        with pytest.raises(ValueError, match="own disease model"):
            self.base(scenario="turnover", disease="sir")
        with pytest.raises(ValueError, match="unknown scenario"):
            self.base(scenario="no-such")
        with pytest.raises(ValueError, match="no parameter"):
            self.base(scenario="turnover", scenario_params={"beds": 1})

    def test_build_scenario_prepends_components(self):
        spec = self.base(scenario="hospital-capacity",
                         interventions="stay_home compliance=0.5")
        sc = spec.build_scenario()
        kinds = [type(iv).__name__ for iv in sc.interventions]
        assert kinds == ["HospitalCapacity", "StayHomeWhenSymptomatic"]
        assert "H_over" in sc.disease.index
        assert spec.build_disease().index == sc.disease.index

    def test_scenario_run_executes_on_seq(self):
        result = self.base(scenario="turnover").run()
        assert result.total_infections >= 0
        assert "S" in result.final_histogram


class TestCli:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in names():
            assert name in out

    def test_scenarios_show(self, capsys):
        assert main(["scenarios", "show", "--name", "two-variant"]) == 0
        out = capsys.readouterr().out
        assert "cross_immunity" in out
        assert main(["scenarios", "show"]) == 2

    def test_run_with_scenario_flag(self, capsys, tmp_path):
        spec_path = tmp_path / "s.json"
        assert main([
            "run", "--persons", "120", "--days", "3", "--backend", "seq",
            "--scenario", "waning-vaccination",
            "--scenario-param", "coverage=0.5",
            "--save-spec", str(spec_path),
        ]) == 0
        assert "attack rate" in capsys.readouterr().out
        saved = json.loads(spec_path.read_text())
        assert saved["scenario"] == "waning-vaccination"
        assert saved["scenario_params"] == {"coverage": 0.5}
        # The saved spec replays.
        assert main(["run", "--spec", str(spec_path)]) == 0

    def test_sweepable(self):
        spec = RunSpec(
            population=PopulationSpec(n_persons=100, name="axis"), n_days=2
        )
        swept = dataclasses.replace(spec, scenario="turnover")
        assert swept.canonical()["scenario"] == "turnover"
