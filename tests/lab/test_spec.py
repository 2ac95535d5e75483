"""The RunSpec layer: serialisation, hashing and executor equivalence.

The spec is the repo's one canonical definition of "a run": it must
round-trip losslessly through JSON and TOML, hash stably (and
sensitively — any knob change must change the key), and drive every
backend to the *same bits* the hand-assembled constructors produce.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import Scenario, SequentialSimulator, TransmissionModel
from repro.core.simulator import SequentialSimulator as SeqSim
from repro.spec import (
    PartitionSpec,
    PopulationSpec,
    RunSpec,
    RuntimeSpec,
    canonical_json,
    content_hash,
    execute,
)
from repro.synthpop import PopulationConfig, generate_population


def small_spec(**overrides) -> RunSpec:
    base = dict(
        population=PopulationSpec(n_persons=300, seed=11, name="tiny"),
        n_days=4,
        seed=3,
        initial_infections=8,
        transmissibility=3e-4,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestSerialisation:
    def test_json_roundtrip_is_lossless(self):
        spec = small_spec(
            partition=PartitionSpec(method="rr", k=4, split=True),
            runtime=RuntimeSpec(backend="smp", workers=2, kernel="flat"),
            interventions="close_schools day=2 duration=7\n",
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_toml_roundtrip_is_lossless(self):
        spec = small_spec(runtime=RuntimeSpec(backend="charm", workers=4))
        assert RunSpec.from_toml(spec.to_toml()) == spec

    def test_load_dispatches_on_suffix(self, tmp_path):
        spec = small_spec()
        (tmp_path / "s.json").write_text(spec.to_json())
        (tmp_path / "s.toml").write_text(spec.to_toml())
        assert RunSpec.load(tmp_path / "s.json") == spec
        assert RunSpec.load(tmp_path / "s.toml") == spec

    def test_canonical_form_prunes_unset_knobs(self):
        # An absent knob and an explicit default-None knob are the same
        # run — they must hash identically.
        a = PopulationSpec(n_persons=100)
        b = PopulationSpec(n_persons=100, state=None, path=None)
        assert a.canonical() == b.canonical()
        assert a.content_hash() == b.content_hash()


class TestHashing:
    def test_hash_is_stable_across_processes(self):
        # Pinned value: the cache persists on disk across processes, so
        # the key derivation can never drift silently.
        assert content_hash({"n": 1}) == "984530e49acf879ea2a3b7c3062fca65"
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: dataclasses.replace(s, seed=s.seed + 1),
            lambda s: dataclasses.replace(s, n_days=s.n_days + 1),
            lambda s: dataclasses.replace(s, transmissibility=1e-3),
            lambda s: dataclasses.replace(
                s, population=dataclasses.replace(s.population, seed=99)
            ),
            lambda s: dataclasses.replace(
                s, runtime=RuntimeSpec(backend="smp", workers=2)
            ),
            lambda s: dataclasses.replace(
                s, interventions="close_schools day=1 duration=7\n"
            ),
        ],
    )
    def test_any_knob_change_changes_the_hash(self, mutate):
        spec = small_spec()
        assert mutate(spec).content_hash() != spec.content_hash()

    def test_partition_hash_mixes_population(self):
        part = PartitionSpec(method="rr", k=4)
        assert part.content_hash("aaa") != part.content_hash("bbb")


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RuntimeSpec(backend="mpi")

    def test_generated_requires_n_persons(self):
        with pytest.raises(ValueError, match="n_persons"):
            PopulationSpec(kind="generated")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            PopulationSpec(kind="preset", preset="exponential")

    def test_disease_name_validated(self):
        with pytest.raises(ValueError, match="disease"):
            small_spec(disease="measles")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected_before_hashing(self, seed):
        # Used to construct and content-hash fine, then die inside the
        # first derive_seed of execute().
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            small_spec(seed=seed)
        d = small_spec().canonical()
        d["seed"] = seed
        with pytest.raises(ValueError, match="seed must be in"):
            RunSpec.from_dict(d)

    def test_boundary_seeds_accepted(self):
        assert small_spec(seed=2**64 - 1).seed == 2**64 - 1
        assert small_spec(seed=0).seed == 0


class TestConstructionEquivalence:
    def test_population_spec_matches_direct_generation(self):
        direct = generate_population(
            PopulationConfig(n_persons=300), 11, name="tiny"
        )
        via_spec = PopulationSpec(n_persons=300, seed=11, name="tiny").build()
        assert (via_spec.visit_person == direct.visit_person).all()
        assert (via_spec.visit_location == direct.visit_location).all()
        assert (via_spec.visit_start == direct.visit_start).all()

    def test_preset_spec_matches_direct_builder(self):
        from repro.smp.presets import heavy_tailed_graph

        direct = heavy_tailed_graph(n_persons=200, n_locations=20)
        via_spec = PopulationSpec(
            kind="preset", preset="heavy-tailed", n_persons=200,
            params={"n_locations": 20},
        ).build()
        assert (via_spec.visit_location == direct.visit_location).all()

    def test_from_spec_equals_hand_assembled_sequential(self):
        spec = small_spec()
        graph = spec.population.build()
        hand = SequentialSimulator(
            Scenario(
                graph=graph, n_days=4, seed=3, initial_infections=8,
                transmission=TransmissionModel(3e-4),
            )
        ).run()
        via_spec = SeqSim.from_spec(spec, graph=graph).run()
        assert via_spec.curve == hand.curve
        assert via_spec.final_histogram == hand.final_histogram


class TestExecuteAcrossBackends:
    def test_all_backends_bit_identical(self):
        seq = execute(small_spec())
        smp = execute(small_spec(runtime=RuntimeSpec(backend="smp", workers=2)))
        charm = execute(small_spec(runtime=RuntimeSpec(backend="charm", workers=2)))
        for other in (smp, charm):
            assert other.new_infections == seq.new_infections
            assert other.prevalence == seq.prevalence
            assert other.final_histogram == seq.final_histogram
        # The deterministic projection must exclude timings entirely.
        rec = seq.record()
        assert "wall_seconds" not in rec and "spec_hash" in rec

    def test_execute_reports_builds_through_cache(self):
        from repro.lab import ArtifactCache

        cache = ArtifactCache()
        first = execute(small_spec(), cache=cache)
        second = execute(small_spec(), cache=cache)
        assert first.builds == 1 and second.builds == 0
