"""A run's first day pays for no import it does not use.

A plain ``np.unique`` asks ``np.ma.is_masked`` whether its input is
masked, and that first touch imports ``numpy.ma`` — ~15 ms, more than a
whole simmering day — into a run that never builds a masked array.  The
run path takes distinct values with :func:`repro.util.distinct`
instead.  This guard runs smoke-size specs, with every intervention
that draws per person, in a fresh interpreter (``sys.modules`` there
holds exactly what the run imported) under the ``compiled`` kernel
where the library builds, the ``flat`` kernel, and the charm backend;
``numpy.ma`` must not be among the modules afterwards.  The self-test
plants a ``np.unique`` on the run path and expects the guard to see it.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

RUNS = textwrap.dedent("""
    import dataclasses, sys
    import numpy as np
    from repro.core import ckernel
    from repro.spec import PopulationSpec, RunSpec, RuntimeSpec, execute
    {spy}
    spec = RunSpec(
        population=PopulationSpec(kind="generated", n_persons=600, seed=20140519),
        n_days=8, seed=5, initial_infections=20, transmissibility=4e-4,
        interventions="stay_home compliance=0.5\\nweekends\\nanxiety saturation=0.001",
    )
    runtimes = [RuntimeSpec(kernel="flat"), RuntimeSpec(backend="charm", workers=2, kernel="flat")]
    if ckernel.available():
        runtimes.append(RuntimeSpec(kernel="compiled"))
    for runtime in runtimes:
        assert sum(execute(dataclasses.replace(spec, runtime=runtime)).record()["new_infections"])
    print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
""")

#: the run path's first distinct-values call, back on a plain np.unique
SPY = textwrap.dedent("""
    from repro.core import disease
    disease.distinct = lambda values: np.unique(values)
""")


def _ma_modules_after_runs(spy: str = "") -> list[str]:
    """``numpy.ma`` modules loaded once the runs are done, in a fresh process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", RUNS.format(spy=spy)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300, check=True,
    )
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_runs_never_import_numpy_ma():
    assert _ma_modules_after_runs() == []


def test_guard_sees_a_planted_np_unique():
    assert "numpy.ma" in _ma_modules_after_runs(SPY)
