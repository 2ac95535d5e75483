"""The RunSpec layer: one canonical, hashable definition of "a run".

Before this module existed, "a run" was assembled by hand at every call
site — CLI flags here, :class:`~repro.core.scenario.Scenario` kwargs
there, backend constructor arguments somewhere else — which made the
paper's run *families* (strong-scaling series, ablations, replication
ensembles) unscriptable.  A :class:`RunSpec` captures the full cross
product in one serialisable value:

    population spec × partition spec × disease/intervention params ×
    runtime config (backend / kernel / delivery / detector / seed)

and is consumed by every executor: ``repro run`` / ``repro simulate`` /
``repro validate`` on the CLI,
:meth:`~repro.core.simulator.SequentialSimulator.from_spec`,
:meth:`~repro.core.parallel.ParallelEpiSimdemics.from_spec`,
:meth:`~repro.smp.backend.SmpSimulator.from_spec`, the benchmarks, and
the sweep engine in :mod:`repro.lab`.

Specs round-trip through JSON and TOML and have a stable
:meth:`~RunSpec.content_hash` (BLAKE2b over the canonical JSON form),
which is what the :mod:`repro.lab` artifact cache keys populations and
partitions by — the same sub-spec can never be built twice without the
cache noticing.

>>> spec = RunSpec(population=PopulationSpec(n_persons=200), n_days=4)
>>> RunSpec.from_json(spec.to_json()) == spec
True
>>> spec.content_hash() == RunSpec.from_toml(spec.to_toml()).content_hash()
True
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "PopulationSpec",
    "PartitionSpec",
    "RuntimeSpec",
    "RunSpec",
    "RunResult",
    "execute",
    "canonical_json",
    "content_hash",
    "KERNELS",
]

#: Exposure kernels ``RuntimeSpec.kernel`` can name (see
#: :mod:`repro.core.exposure`, which re-exports this; ``"compiled"``
#: needs ``repro.core.ckernel.available``).  Here because this module
#: imports nothing: the CLI builds its parser without ``repro.core``.
KERNELS = ("flat", "compiled")

_DIGEST_SIZE = 16  # 128-bit BLAKE2b, hex length 32


def canonical_json(value: Any) -> str:
    """The canonical serialised form hashes are computed over.

    Sorted keys, no whitespace, shortest-repr floats — two specs with
    the same canonical dict always produce the same bytes.

    >>> canonical_json({"b": 1, "a": [1.5, 2]})
    '{"a":[1.5,2],"b":1}'
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_hash(value: Any) -> str:
    """BLAKE2b hex digest of :func:`canonical_json` of ``value``.

    >>> len(content_hash({"n": 1}))
    32
    """
    return hashlib.blake2b(
        canonical_json(value).encode(), digest_size=_DIGEST_SIZE
    ).hexdigest()


def _prune(d: dict) -> dict:
    """Drop ``None`` values and empty dicts so canonical forms stay
    minimal (an unset knob and an absent knob hash identically)."""
    return {k: v for k, v in d.items() if v is not None and v != {}}


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PopulationSpec:
    """How to obtain the person–location graph.

    Five kinds, mirroring every construction path in the repo:

    ``generated``
        :func:`repro.synthpop.generate_population` with ``n_persons``
        plus optional :class:`~repro.synthpop.PopulationConfig`
        overrides in ``params``.
    ``streamed``
        :func:`repro.synthpop.generate_population_streamed` — the
        memory-bounded block-streamed generator.  ``params`` may carry
        ``block_persons`` (content-affecting RNG granularity, hashed);
        ``backing`` is a pure execution knob and is **excluded** from
        the content hash — a RAM and a memmap build of the same spec
        are one artifact.
    ``state``
        :func:`repro.synthpop.state_population` for a Table-I state
        code at ``scale``.
    ``preset``
        a named shared preset — currently ``"heavy-tailed"``, the
        Zipf-skewed graph of :func:`repro.smp.presets.heavy_tailed_graph`
        that the SMP oracle, the kernel/scaling benchmarks and the lab
        all share (one builder, one cache key).
    ``file``
        a population directory written by
        :func:`repro.synthpop.save_population` (not content-addressable,
        so the lab cache passes it through).

    >>> PopulationSpec(n_persons=100).build().n_persons
    100
    >>> PopulationSpec(kind="preset", preset="heavy-tailed",
    ...                n_persons=100, params={"n_locations": 10}).build().n_visits
    300
    >>> a = PopulationSpec(kind="streamed", n_persons=100, backing="ram")
    >>> b = PopulationSpec(kind="streamed", n_persons=100, backing="memmap")
    >>> a.content_hash() == b.content_hash()  # backing is execution-only
    True
    """

    kind: str = "generated"
    n_persons: int | None = None
    seed: int = 0
    name: str | None = None
    #: Table-I state code (kind="state").
    state: str | None = None
    scale: float | None = None
    #: preset name (kind="preset").
    preset: str | None = None
    #: saved-population path (kind="file").
    path: str | None = None
    #: extra builder kwargs (PopulationConfig overrides / preset knobs).
    params: dict = field(default_factory=dict)
    #: kind="streamed" residency: ram / memmap / auto (execution-only,
    #: never hashed).
    backing: str | None = None

    _KINDS = ("generated", "streamed", "state", "preset", "file")
    _PRESETS = ("heavy-tailed",)
    _BACKINGS = ("ram", "memmap", "auto")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown population kind {self.kind!r}")
        if self.kind in ("generated", "streamed") and self.n_persons is None:
            raise ValueError(f"kind={self.kind!r} needs n_persons")
        if self.kind == "state" and self.state is None:
            raise ValueError("kind='state' needs a state code")
        if self.kind == "preset" and self.preset not in self._PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r} (expected one of {self._PRESETS})"
            )
        if self.kind == "file" and not self.path:
            raise ValueError("kind='file' needs a path")
        if self.backing is not None and self.backing not in self._BACKINGS:
            raise ValueError(
                f"backing must be one of {self._BACKINGS}, got {self.backing!r}"
            )
        if self.kind != "streamed" and self.backing is not None:
            raise ValueError("backing only applies to kind='streamed'")

    @property
    def cacheable(self) -> bool:
        """File-backed populations are already artifacts; everything
        else is reproducible from the spec and therefore cacheable."""
        return self.kind != "file"

    def canonical(self) -> dict:
        """Content-defining fields only: ``backing`` changes *where*
        the arrays live, never a single byte of content, so it is
        dropped before hashing."""
        d = _prune(dataclasses.asdict(self))
        d.pop("backing", None)
        return d

    def content_hash(self) -> str:
        return content_hash(self.canonical())

    def build(self):
        """Construct the graph (uncached — the lab cache wraps this)."""
        from repro import observe

        with observe.span("spec.pop_build", kind=self.kind):
            return self._build()

    def _build(self):
        if self.kind == "generated":
            from repro.synthpop import PopulationConfig, generate_population

            name = self.name or f"generated-{self.n_persons}"
            return generate_population(
                PopulationConfig(n_persons=self.n_persons, **self.params),
                self.seed, name=name,
            )
        if self.kind == "streamed":
            from repro.synthpop import PopulationConfig
            from repro.synthpop.stream import (
                DEFAULT_BLOCK_PERSONS,
                generate_population_streamed,
            )

            params = dict(self.params)
            block = params.pop("block_persons", DEFAULT_BLOCK_PERSONS)
            return generate_population_streamed(
                PopulationConfig(n_persons=self.n_persons, **params),
                self.seed,
                backing=self.backing or "auto",
                block_persons=block,
                name=self.name or f"streamed-{self.n_persons}",
            )
        if self.kind == "state":
            from repro.synthpop import state_population

            scale = 1e-3 if self.scale is None else self.scale
            return state_population(
                self.state, scale=scale, seed=self.seed, **self.params
            )
        if self.kind == "preset":
            from repro.smp.presets import heavy_tailed_graph

            kwargs = dict(self.params)
            if self.n_persons is not None:
                kwargs["n_persons"] = self.n_persons
            if "seed" not in kwargs:
                kwargs["seed"] = self.seed if self.seed else 7
            return heavy_tailed_graph(**kwargs)
        from repro.synthpop import load_population

        return load_population(self.path)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionSpec:
    """How to split the graph across PEs / worker processes.

    ``method`` is one of ``block`` (contiguous SMP ownership, the
    :func:`repro.smp.layout.block_partition` default), ``rr``
    (round-robin) or ``gp`` (the multilevel partitioner).  ``split``
    applies :func:`~repro.partition.split_heavy_locations` first —
    note the split transforms the *graph*, so :meth:`build` returns
    the (possibly new) graph alongside the partition.

    >>> PartitionSpec(method="rr", k=4).canonical()["method"]
    'rr'
    """

    method: str = "block"
    k: int = 1
    split: bool = False
    max_partitions: int = 4096

    _METHODS = ("block", "rr", "gp")

    def __post_init__(self) -> None:
        if self.method not in self._METHODS:
            raise ValueError(f"unknown partition method {self.method!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def canonical(self) -> dict:
        return _prune(dataclasses.asdict(self))

    def content_hash(self, population_hash: str = "") -> str:
        """Key for the partition artifact; includes the population's
        hash because a partition is meaningless without its graph."""
        return content_hash({"pop": population_hash, **self.canonical()})

    def build(self, graph):
        """Partition ``graph``; returns ``(graph, partition)`` because
        ``split=True`` replaces the graph."""
        from repro import observe

        with observe.span("spec.part_build", method=self.method, k=self.k):
            if self.split:
                from repro.partition import split_heavy_locations

                graph = split_heavy_locations(
                    graph, max_partitions=self.max_partitions
                ).graph
            if self.method == "block":
                from repro.smp.layout import block_partition

                part = block_partition(graph.n_persons, graph.n_locations, self.k)
            elif self.method == "rr":
                from repro.partition import round_robin_partition

                part = round_robin_partition(graph, self.k)
            else:
                from repro.partition import partition_bipartite

                part = partition_bipartite(graph, self.k)
            return graph, part


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuntimeSpec:
    """Execution backend and its knobs.

    >>> RuntimeSpec(backend="smp", workers=2).canonical()["workers"]
    2
    """

    backend: str = "seq"
    workers: int = 1
    #: exposure kernel: flat / compiled (None = compiled, else flat)
    kernel: str | None = None
    #: charm message delivery: direct / aggregated / tram
    delivery: str = "aggregated"
    #: charm phase detector: cd (completion) / qd (quiescence)
    sync: str = "cd"

    _BACKENDS = ("seq", "charm", "smp")

    def __post_init__(self) -> None:
        if self.backend not in self._BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")

    def canonical(self) -> dict:
        return _prune(dataclasses.asdict(self))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run.

    The disease model is named (``"influenza"`` / ``"sir"``, with
    template kwargs in ``disease_params``) or inlined as PTTSL source
    prefixed ``"ptts:"``; interventions are the
    :func:`~repro.core.interventions.parse_intervention_script` DSL
    text (intervention objects hold trigger state, so the spec stores
    the *script* and builds a fresh schedule per run).

    ``scenario`` names a registered :mod:`repro.scenarios` entry (with
    overrides in ``scenario_params``); it supplies both the disease
    model and the model components, so ``disease`` / ``disease_params``
    must stay at their defaults when it is set.  DSL interventions
    still compose on top (components run first in the schedule).

    >>> s = RunSpec(population=PopulationSpec(n_persons=150), n_days=3)
    >>> s2 = dataclasses.replace(s, seed=1)
    >>> s.content_hash() != s2.content_hash()
    True
    >>> t = dataclasses.replace(s, scenario="turnover")
    >>> t.canonical()["scenario"]
    'turnover'
    """

    population: PopulationSpec
    partition: PartitionSpec | None = None
    n_days: int = 16
    seed: int = 0
    initial_infections: int = 10
    transmissibility: float = 2.0e-4
    disease: str = "influenza"
    disease_params: dict = field(default_factory=dict)
    interventions: str = ""
    scenario: str = ""
    scenario_params: dict = field(default_factory=dict)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)

    def __post_init__(self) -> None:
        # The root of every keyed stream: a uint64, checked here so a bad
        # seed fails at construction, not deep inside the first draw.
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.n_days < 1:
            raise ValueError("n_days must be positive")
        if self.initial_infections < 0:
            raise ValueError("initial_infections must be non-negative")
        if not (
            self.disease in ("influenza", "sir") or self.disease.startswith("ptts:")
        ):
            raise ValueError(
                "disease must be 'influenza', 'sir' or 'ptts:<source>'"
            )
        if self.disease.startswith("ptts:") and self.disease_params:
            raise ValueError("disease_params only apply to named templates")
        if self.scenario_params and not self.scenario:
            raise ValueError("scenario_params need a scenario name")
        if self.scenario:
            if self.disease != "influenza" or self.disease_params:
                raise ValueError(
                    "a scenario supplies its own disease model; leave "
                    "disease/disease_params at their defaults"
                )
            from repro.scenarios import registry

            registry.get(self.scenario).params(**self.scenario_params)

    # -- serialisation --------------------------------------------------
    def canonical(self) -> dict:
        d = {
            "population": self.population.canonical(),
            "partition": self.partition.canonical() if self.partition else None,
            "n_days": self.n_days,
            "seed": self.seed,
            "initial_infections": self.initial_infections,
            "transmissibility": self.transmissibility,
            "disease": self.disease,
            "disease_params": self.disease_params or None,
            "interventions": self.interventions or None,
            "scenario": self.scenario or None,
            "scenario_params": self.scenario_params or None,
            "runtime": self.runtime.canonical(),
        }
        return _prune(d)

    def content_hash(self) -> str:
        return content_hash(self.canonical())

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.canonical(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, d: dict) -> "RunSpec":
        d = dict(d)
        pop = PopulationSpec(**d.pop("population"))
        part = d.pop("partition", None)
        runtime = d.pop("runtime", None)
        return cls(
            population=pop,
            partition=PartitionSpec(**part) if part else None,
            runtime=RuntimeSpec(**runtime) if runtime else RuntimeSpec(),
            **d,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def to_toml(self) -> str:
        return _toml_dumps(self.canonical())

    @classmethod
    def from_toml(cls, text: str) -> "RunSpec":
        import tomllib

        return cls.from_dict(tomllib.loads(text))

    @classmethod
    def load(cls, path) -> "RunSpec":
        """Read a spec file; ``.toml`` by suffix, JSON otherwise."""
        from pathlib import Path

        p = Path(path)
        text = p.read_text()
        return cls.from_toml(text) if p.suffix == ".toml" else cls.from_json(text)

    # -- construction ---------------------------------------------------
    def build_disease(self):
        from repro.core.disease import influenza_model, sir_model

        if self.scenario:
            from repro.scenarios import build_components

            return build_components(self.scenario, **self.scenario_params)[0]
        if self.disease == "influenza":
            return influenza_model(**self.disease_params)
        if self.disease == "sir":
            return sir_model(**self.disease_params)
        from repro.core.pttsl import parse_ptts

        return parse_ptts(self.disease[len("ptts:"):])

    def build_interventions(self):
        from repro.core.interventions import (
            InterventionSchedule,
            parse_intervention_script,
        )

        if not self.interventions:
            return InterventionSchedule()
        return parse_intervention_script(self.interventions)

    def build_scenario(self, graph=None):
        """The :class:`~repro.core.scenario.Scenario` this spec names.

        ``graph`` short-circuits the population build (pass a cached or
        pre-split graph).
        """
        from repro.core.interventions import InterventionSchedule
        from repro.core.scenario import Scenario
        from repro.core.transmission import TransmissionModel

        if graph is None:
            graph = self.population.build()
        if self.scenario:
            from repro.scenarios import build_components

            disease, components = build_components(
                self.scenario, **self.scenario_params
            )
            interventions = InterventionSchedule(
                components + list(self.build_interventions())
            )
        else:
            disease = self.build_disease()
            interventions = self.build_interventions()
        return Scenario(
            graph=graph,
            disease=disease,
            transmission=TransmissionModel(self.transmissibility),
            interventions=interventions,
            n_days=self.n_days,
            initial_infections=self.initial_infections,
            seed=self.seed,
        )

    def resolved_partition(self) -> PartitionSpec | None:
        """The partition actually used: the explicit one, or the
        backend default (block for smp, rr for charm, none for seq)
        sized to the worker count."""
        if self.partition is not None:
            return self.partition
        if self.runtime.backend == "smp":
            return PartitionSpec(method="block", k=self.runtime.workers)
        if self.runtime.backend == "charm":
            return PartitionSpec(method="rr", k=self.runtime.workers)
        return None

    def run(self, graph=None) -> "RunResult":
        """Execute this spec on its configured backend."""
        return execute(self, graph=graph)


# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Uniform executor output, independent of backend.

    :meth:`record` is the *deterministic* projection (no wall-clock
    fields) — the value the lab's result store persists and the
    replication-determinism tests compare byte for byte.
    """

    spec_hash: str
    backend: str
    n_persons: int
    new_infections: list[int]
    prevalence: list[float]
    total_infections: int
    peak_day: int
    final_histogram: dict[str, int]
    wall_seconds: float = 0.0
    n_workers: int = 1
    #: population/partition artifact builds this run triggered (0 on a
    #: warm cache) — the lab aggregates these into its hit-rate stats
    builds: int = 0
    #: modelled makespan of a charm run (None on seq / smp); a timing,
    #: so it stays out of :meth:`record` like ``wall_seconds``
    virtual_seconds: float | None = None

    @property
    def attack_rate(self) -> float:
        return self.total_infections / max(1, self.n_persons)

    def record(self) -> dict:
        """Deterministic result payload (sorted keys, no timings)."""
        return {
            "spec_hash": self.spec_hash,
            "backend": self.backend,
            "n_persons": self.n_persons,
            "new_infections": list(self.new_infections),
            "prevalence": [float(p) for p in self.prevalence],
            "total_infections": self.total_infections,
            "peak_day": self.peak_day,
            "final_histogram": dict(sorted(self.final_histogram.items())),
        }


def _result_from(spec: RunSpec, sim_result, n_persons: int, wall: float,
                 **extra) -> RunResult:
    curve = sim_result.curve
    return RunResult(
        spec_hash=spec.content_hash(),
        backend=spec.runtime.backend,
        n_persons=n_persons,
        new_infections=list(curve.new_infections),
        prevalence=list(curve.prevalence),
        total_infections=sim_result.total_infections,
        peak_day=curve.peak_day if curve.n_days else -1,
        final_histogram=dict(sim_result.final_histogram),
        wall_seconds=wall,
        **extra,
    )


def execute(spec: RunSpec, graph=None, cache=None) -> RunResult:
    """Run ``spec`` end to end; the single dispatch point every
    frontend (CLI, lab pool, benchmarks) goes through.

    ``cache`` is an optional :class:`repro.lab.cache.ArtifactCache`;
    when given, population and partition builds are content-addressed
    through it (and ``RunResult.builds`` reports how many actually
    happened).
    """
    import time

    from repro import observe

    t0 = time.perf_counter()
    builds = 0
    with observe.span(
        "spec.execute", backend=spec.runtime.backend, hash=spec.content_hash()
    ):
        if graph is None:
            if cache is not None:
                before = cache.stats.builds
                graph = cache.population(spec.population)
                builds += cache.stats.builds - before
            else:
                graph = spec.population.build()

        rt = spec.runtime
        if rt.backend == "seq":
            from repro.core.simulator import SequentialSimulator

            result = SequentialSimulator.from_spec(spec, graph=graph).run()
            return _result_from(
                spec, result, graph.n_persons,
                time.perf_counter() - t0, builds=builds,
            )

        pspec = spec.resolved_partition()
        if cache is not None and spec.population.cacheable:
            before = cache.stats.builds
            graph, part = cache.partition(spec.population, pspec, graph)
            builds += cache.stats.builds - before
        else:
            graph, part = pspec.build(graph)

        if rt.backend == "smp":
            from repro.smp.backend import SmpSimulator

            sim = SmpSimulator.from_spec(spec, graph=graph, partition=part)
            out = sim.run()
            return _result_from(
                spec, out.result, graph.n_persons,
                time.perf_counter() - t0,
                n_workers=out.n_workers, builds=builds,
            )

        from repro.core.parallel import ParallelEpiSimdemics

        sim = ParallelEpiSimdemics.from_spec(spec, graph=graph, partition=part)
        out = sim.run()
        return _result_from(
            spec, out.result, graph.n_persons,
            time.perf_counter() - t0,
            n_workers=rt.workers, builds=builds,
            virtual_seconds=out.total_virtual_time,
        )


# ----------------------------------------------------------------------
def _toml_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return json.dumps(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_toml_value(x) for x in v) + "]"
    raise TypeError(f"unsupported TOML value {v!r}")


def _toml_dumps(d: dict, prefix: str = "") -> str:
    """Minimal TOML emitter for nested dicts of scalars/lists — all a
    canonical spec ever contains (round-trips through ``tomllib``)."""
    scalars = {k: v for k, v in sorted(d.items()) if not isinstance(v, dict)}
    tables = {k: v for k, v in sorted(d.items()) if isinstance(v, dict)}
    lines = [f"{k} = {_toml_value(v)}" for k, v in scalars.items()]
    out = "\n".join(lines)
    for k, v in tables.items():
        name = f"{prefix}{k}"
        body = _toml_dumps(v, prefix=name + ".")
        out += f"\n\n[{name}]\n{body}" if out else f"[{name}]\n{body}"
    return out
