"""Benchmark fixtures: cached scaled state populations and result files.

Every bench regenerates one of the paper's tables/figures and writes
its series to ``benchmarks/results/<name>.txt`` (EXPERIMENTS.md indexes
these).  Population synthesis is cached on disk under
``benchmarks/_cache`` by the lab's :class:`~repro.lab.ArtifactCache`,
keyed by the population spec's content hash (state, scale, seed).

``REPRO_BENCH_SCALE`` multiplies every population scale (default 1.0);
raise it on a bigger machine to push the experiments closer to paper
scale.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.lab import ArtifactCache
from repro.spec import PopulationSpec

BENCH_DIR = Path(__file__).parent
CACHE_DIR = BENCH_DIR / "_cache"
RESULTS_DIR = BENCH_DIR / "results"

#: Baseline per-state scales: big states scaled harder so every bench
#: finishes in CI-friendly time while preserving the size ordering
#: CA > NY > MI > NC > IA > AR > WY.
STATE_SCALES = {
    "CA": 4e-4,
    "NY": 4e-4,
    "MI": 6e-4,
    "NC": 6e-4,
    "IA": 1.2e-3,
    "AR": 1.2e-3,
    "WY": 3e-3,
}

SCALE_MULT = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
SEED = 1


def _load_state(state: str) -> "PersonLocationGraph":
    scale = STATE_SCALES[state] * SCALE_MULT
    spec = PopulationSpec(kind="state", state=state, scale=scale, seed=SEED)
    return ArtifactCache(root=CACHE_DIR).population(spec)


@pytest.fixture(scope="session")
def state_graphs():
    """The seven Table-I states at bench scale."""
    return {s: _load_state(s) for s in STATE_SCALES}


@pytest.fixture(scope="session")
def wy():
    return _load_state("WY")


@pytest.fixture(scope="session")
def ia():
    return _load_state("IA")


@pytest.fixture(scope="session")
def ca():
    return _load_state("CA")


@pytest.fixture()
def report(request):
    """Collects lines and writes them to results/<test-name>.txt."""
    lines: list[str] = []

    class Reporter:
        def __call__(self, text: str = "") -> None:
            lines.append(str(text))

        def table(self, rows, header=None) -> None:
            if header:
                self(header)
            for row in rows:
                self(row)

    rep = Reporter()
    yield rep
    RESULTS_DIR.mkdir(exist_ok=True)
    name = request.node.name.replace("[", "_").replace("]", "")
    out = RESULTS_DIR / f"{name}.txt"
    out.write_text("\n".join(lines) + "\n")
    print(f"\n[{name}] -> {out}")
    print("\n".join(lines))
