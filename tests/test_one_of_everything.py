"""Static guard: the day, the run loop, the prevalence rule, ``PhaseTimes``
and the oracle's report exist once.

The six-step day lives in ``src/repro/core/day.py``; a backend only
decides who owns which rows and how records move.  This test walks every
module under ``src/repro`` with the stdlib ``ast`` (same style as
``test_dead_code.py``) and rejects the shapes a second copy of the day
would have:

* ``DayContext(…)`` constructed, or ``.advance_day(`` / ``.visit_mask(`` /
  ``.update_treatments(`` / ``.post_apply(`` / ``.infect(`` /
  ``compute_infections(`` called, anywhere but ``core/day.py`` (the
  modules that *define* those names are exempt);
* a function named ``_prevalence``;
* more than one class whose name ends in ``PhaseTimes``;
* an ``InfectionEvent(`` construction on the run path — infections
  travel as ``(person, location, minute)`` arrays; only the read-only
  ``LocationPhaseResult.infections`` view may build the objects;
* a ``backend`` parameter on ``ParallelEpiSimdemics.__init__``
  (``RuntimeSpec.backend`` through ``spec.execute`` is the dispatch);
* ``.step_day(`` called outside ``core/simulator.py`` — a private copy
  of the run loop (``run_with_checkpointing`` resumes through
  ``SequentialSimulator.run(until=…)``);
* more than one class in ``validate/oracle.py`` whose name ends in
  ``Report``, or in ``CellResult``: every backend reports one
  ``SimulationResult``, so the oracle needs one report and one cell;
* the word ``lexsort`` anywhere under ``core/``, docstrings included:
  the exposure walk hands the kernels their ``(location, sublocation)``
  blocks, so no kernel sorts candidates into them again;
* a second location-phase form: ``searchsorted`` in ``core/exposure.py``
  or in the block walk's source in ``core/ckernel.py`` (the ∩ with a
  handed-in row list), or ``np.sort(np.concatenate`` under ``core/`` or
  ``smp/`` (an owner sorting the rows it received) — owners pass a
  location mask and a removed-visit mask;
* process management outside ``workers.py``, the one worker runtime:
  an import of ``multiprocessing.connection`` or a ``connection.wait(``
  (the park), or a ``Pipe(`` / ``Process(`` / ``is_alive(`` /
  ``get_context(`` / ``Pool(`` call, with no exemption: every ensemble
  runs on the lab pool;
* a second on-disk population format: ``open_memmap(`` outside
  ``synthpop/store.py`` (the column-directory format), and an
  ``np.savez`` / ``np.savez_compressed`` call anywhere but
  ``core/checkpoint.py`` and ``lab/cache.py``'s partition entries;
* a dependency beside numpy: an ``import scipy`` / ``import networkx``
  (top-level or inside a function) under ``src/``, ``examples/`` or
  ``benchmarks/``, or a ``pyproject.toml`` ``dependencies`` list other
  than numpy's.
"""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

DAY = "core/day.py"

#: call name -> modules (beside ``core/day.py``) that may use it: the
#: definers, e.g. ``InterventionSchedule.post_apply`` fanning out to its
#: components' ``post_apply``.
DAY_PRIMITIVES = {
    "DayContext": {"core/interventions.py"},
    "advance_day": {"core/disease.py"},
    "infect": {"core/disease.py"},
    "visit_mask": {"core/interventions.py"},
    "update_treatments": {"core/interventions.py"},
    "post_apply": {"core/interventions.py"},
    "compute_infections": {"core/exposure.py"},
}

#: where no ``InfectionEvent(…)`` may be built
RUN_PATH = ("core/exposure.py", "core/simulator.py", "core/parallel.py", "core/day.py", "smp/")

#: the run loop's home, the one module that steps days
STEP_DAY_CALLERS = {"core/simulator.py"}

ORACLE = "validate/oracle.py"

#: the package no ``lexsort`` may appear in
SORT_FREE = "core/"

#: where no owner may sort the visit rows it received
RECEIVE_SORT_FREE = ("core/", "smp/")

#: the one module that spawns, pipes and parks worker processes
RUNTIME = "workers.py"

#: process-management calls no module beside RUNTIME may make
SPAWN_CALLS = ("Pipe", "Process", "is_alive", "get_context", "Pool")

#: the one module that writes population columns
POPULATION_FORMAT = "synthpop/store.py"

#: on-disk writer call -> the modules that may make it
WRITERS = {
    "open_memmap": {POPULATION_FORMAT},
    "savez": {"core/checkpoint.py", "lab/cache.py"},
    "savez_compressed": {"core/checkpoint.py", "lab/cache.py"},
}


def _called_name(call: ast.Call) -> str | None:
    """``f(…)`` → ``f``; ``a.b.f(…)`` → ``f``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _violations(tree: ast.AST, module: str):
    """``(lineno, message)`` for every forbidden shape in one module."""
    view = None  # the one function allowed to build InfectionEvent objects
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "LocationPhaseResult":
            view = next(
                (f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "infections"),
                None,
            )
    in_view = {id(n) for n in ast.walk(view)} if view is not None else set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_prevalence":
                yield node.lineno, "a second prevalence rule (function `_prevalence`)"
            if node.name == "__init__" and module == "core/parallel.py":
                if "backend" in [a.arg for a in node.args.args + node.args.kwonlyargs]:
                    yield node.lineno, "`backend` parameter on a core/parallel.py constructor"
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name in DAY_PRIMITIVES and module != DAY and module not in DAY_PRIMITIVES[name]:
            yield node.lineno, f"day primitive `{name}(` called outside {DAY}"
        if name == "InfectionEvent" and module.startswith(RUN_PATH) and id(node) not in in_view:
            yield node.lineno, "`InfectionEvent(` built on the run path"
        if name == "step_day" and module not in STEP_DAY_CALLERS:
            yield node.lineno, "`step_day(` outside core/simulator.py (a copy of the run loop)"


def _oracle_classes(tree: ast.AST) -> dict[str, list[str]]:
    """The classes whose names end in ``Report`` / ``CellResult``."""
    names = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    return {suffix: [n for n in names if n.endswith(suffix)] for suffix in ("Report", "CellResult")}


def _mentions(source: str, word: str) -> list[int]:
    """Line numbers of ``source`` that mention ``word``."""
    return [i for i, line in enumerate(source.splitlines(), 1) if word in line]


def _walk_source(ckernel_source: str) -> str:
    """The block walk in ``core/ckernel.py``: the C function, then its
    Python entry point."""
    c_start = ckernel_source.index("int64_t repro_block_walk(")
    py_start = ckernel_source.index("\ndef block_walk(")
    return (ckernel_source[c_start:ckernel_source.index("\n}\n", c_start)]
            + ckernel_source[py_start:ckernel_source.index("\ndef ", py_start + 1)])


def _runtime_violations(tree: ast.AST, module: str):
    """``(lineno, message)`` for process management outside RUNTIME."""
    if module == RUNTIME:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parks = any(a.name == "multiprocessing.connection" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            parks = node.module == "multiprocessing.connection" or (
                node.module == "multiprocessing" and "connection" in [a.name for a in node.names]
            )
        else:
            parks = False
        if parks:
            yield node.lineno, f"`multiprocessing.connection` imported outside {RUNTIME}"
        if isinstance(node, ast.Call):
            name = _called_name(node)
            if name in SPAWN_CALLS:
                yield node.lineno, f"`{name}(` outside {RUNTIME}"
            owner = getattr(node.func, "value", None)
            if name == "wait" and "connection" in (getattr(owner, "id", None), getattr(owner, "attr", None)):
                yield node.lineno, f"`connection.wait(` outside {RUNTIME}"


def _writer_violations(tree: ast.AST, module: str):
    """``(lineno, message)`` for every on-disk writer outside its home."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _called_name(node)
            if name in WRITERS and module not in WRITERS[name]:
                yield node.lineno, f"`{name}(` outside {', '.join(sorted(WRITERS[name]))}"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), filename=str(path))


def test_day_primitives_are_called_from_core_day_only():
    found = [
        f"{module}:{lineno}: {message}"
        for module, tree in _modules()
        for lineno, message in _violations(tree, module)
    ]
    assert not found, "\n".join(found)


def test_core_day_does_call_every_primitive():
    """The guard is vacuous if the names drift: ``core/day.py`` must be
    where each primitive *is* called."""
    tree = ast.parse((SRC / DAY).read_text())
    called = {_called_name(n) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert set(DAY_PRIMITIVES) <= called


def test_exactly_one_phase_times_class():
    classes = [
        f"{module}:{node.name}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("PhaseTimes")
    ]
    assert classes == ["core/day.py:PhaseTimes"]


def test_one_oracle_report_and_one_cell_class():
    found = _oracle_classes(ast.parse((SRC / ORACLE).read_text()))
    assert found == {"Report": ["OracleReport"], "CellResult": ["CellResult"]}


def test_no_lexsort_in_core():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{lineno}"
        for path in sorted((SRC / SORT_FREE).rglob("*.py"))
        for lineno in _mentions(path.read_text(), "lexsort")
    ]
    assert not found, found


def test_one_location_phase_form():
    exposure = (SRC / "core/exposure.py").read_text()
    walk = _walk_source((SRC / "core/ckernel.py").read_text())
    assert "repro_block_walk" in walk and "def block_walk" in walk
    assert not _mentions(exposure, "searchsorted") and not _mentions(walk, "searchsorted")
    found = [
        f"{path.relative_to(SRC).as_posix()}:{lineno}"
        for package in RECEIVE_SORT_FREE
        for path in sorted((SRC / package).rglob("*.py"))
        for lineno in _mentions(path.read_text(), "np.sort(np.concatenate")
    ]
    assert not found, found


def test_core_day_imports_no_runtime():
    """Sequential set-up time and RSS must not pick up either runtime."""
    tree = ast.parse((SRC / DAY).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    banned = ("repro.smp", "repro.charm", "multiprocessing")
    assert not [m for m in imported if m.startswith(banned)]


def test_guard_catches_seeded_violations():
    """The guard itself must flag the shapes the parent commit had."""
    backend_copy = (
        "class Sim:\n"
        "    def __init__(self, scenario, backend='charm'):\n"
        "        self.scenario = scenario\n"
        "    def _prevalence(self):\n"
        "        return 0.0\n"
        "    def step(self, day):\n"
        "        ctx = DayContext(day=day)\n"
        "        self.scenario.interventions.update_treatments(ctx)\n"
        "        d.advance_day(state, remaining, treatment, day, rngf)\n"
        "        keep = sc.interventions.visit_mask(ctx, rows=rows)\n"
        "        phase = compute_infections(rows, g, state, d, tm, day, rngf)\n"
        "        self.scenario.disease.infect(persons, state, remaining, treatment)\n"
        "        sc.interventions.post_apply(ctx)\n"
        "        return [InfectionEvent(person=1, location=2, minute=3)]\n"
    )
    messages = [m for _, m in _violations(ast.parse(backend_copy), "core/parallel.py")]
    assert len(messages) == 10, messages
    assert sum("day primitive" in m for m in messages) == 7
    # the same calls are what core/day.py is for, and the definers may fan out
    assert not list(_violations(ast.parse("ctx = DayContext(day=0)\nd.infect(p)\n"), DAY))
    assert not list(
        _violations(ast.parse("iv.post_apply(ctx)\n"), "core/interventions.py")
    )
    # the read-only view is the one place the objects may be built
    view = (
        "class LocationPhaseResult:\n"
        "    @property\n"
        "    def infections(self):\n"
        "        return [InfectionEvent(*row) for row in self.records.tolist()]\n"
        "def _draw_and_emit(result):\n"
        "    result.append(InfectionEvent(1, 2, 3))\n"
    )
    flagged = list(_violations(ast.parse(view), "core/exposure.py"))
    assert [lineno for lineno, _ in flagged] == [6]
    # the compiled kernel's block build before the walk handed it on
    resort = (
        "def _compiled_kernel(c):\n"
        "    order = np.lexsort((c.subloc, c.location))  # sorted position -> row\n"
        "    return order\n"
    )
    assert _mentions(resort, "lexsort") == [2]
    # the subset walk's ∩ with a row list, and an owner's receive-side sort
    subset_walk = (
        "def _numpy_walk(visit_rows, graph, health_state, disease):\n"
        "    at = np.minimum(np.searchsorted(visit_rows, rows), visit_rows.size - 1)\n"
    )
    assert _mentions(subset_walk, "searchsorted") == [2]
    c_walk = (
        "int64_t repro_block_walk(int64_t n_rows, const int64_t *visit_rows)\n{\n"
        "    lo = searchsorted(visit_rows, n_rows, r);\n}\n"
        "def block_walk(visit_rows, graph):\n    return walk(visit_rows)\n"
        "def accumulate_exposures(rows):\n    pass\n"
    )
    assert _mentions(_walk_source(c_walk), "searchsorted") == [3]
    receive_sort = "        rows = np.sort(np.concatenate(self.buffered_rows))\n"
    assert _mentions(receive_sort, "np.sort(np.concatenate") == [1]


def test_guard_catches_seeded_oracle_copies():
    """The oracle guards flag the shapes the oracle had before its collapse."""
    four_families = (
        "class OracleReport: pass\n"
        "class KernelDiffReport: pass\n"
        "class SmpOracleReport: pass\n"
        "class CellResult: pass\n"
        "class SmpCellResult: pass\n"
    )
    found = _oracle_classes(ast.parse(four_families))
    assert len(found["Report"]) == 3 and len(found["CellResult"]) == 2
    private_loop = (
        "def sequential_reference(scenario, kernel=None):\n"
        "    sim = SequentialSimulator(scenario, kernel=kernel)\n"
        "    for _ in range(scenario.n_days):\n"
        "        day_result, phase = sim.step_day()\n"
    )
    flagged = list(_violations(ast.parse(private_loop), ORACLE))
    assert [lineno for lineno, _ in flagged] == [4]
    for home in sorted(STEP_DAY_CALLERS):
        assert not list(_violations(ast.parse(private_loop), home))


def test_worker_processes_are_managed_in_workers_only():
    found = [
        f"{module}:{lineno}: {message}"
        for module, tree in _modules()
        for lineno, message in _runtime_violations(tree, module)
    ]
    assert not found, "\n".join(found)


def test_guard_catches_seeded_worker_runtimes():
    """The runtime guard flags the spawn / park / liveness shapes that
    ``lab/pool.py`` and ``smp/backend.py`` each had, and is not vacuous."""
    pool_copy = (
        "import multiprocessing\n"
        "from multiprocessing.connection import wait as _conn_wait\n"
        "mp = multiprocessing.get_context('fork')\n"
        "parent, child = mp.Pipe()\n"
        "p = mp.Process(target=_worker_main, args=(0, child), daemon=True)\n"
        "ready = _conn_wait([parent], timeout=0.1)\n"
        "if not ready and not p.is_alive():\n"
        "    raise LabWorkerError('died')\n"
    )
    flagged = sorted(line for line, _ in _runtime_violations(ast.parse(pool_copy), "lab/pool.py"))
    assert flagged == [2, 3, 4, 5, 7]
    park = "from multiprocessing import connection\nconnection.wait(conns)\nmultiprocessing.connection.wait(c)\n"
    assert sorted(line for line, _ in _runtime_violations(ast.parse(park), "smp/backend.py")) == [1, 2, 3]
    assert not list(_runtime_violations(ast.parse(pool_copy), RUNTIME))
    # validate/external.py's fork Pool, exempt until its ensembles ran on the lab pool
    external = "ctx = multiprocessing.get_context('fork')\npool = ctx.Pool(2)\nctx.Pipe()\n"
    assert [line for line, _ in _runtime_violations(ast.parse(external), "validate/external.py")] == [1, 2, 3]
    runtime = ast.parse((SRC / RUNTIME).read_text())
    called = {_called_name(n) for n in ast.walk(runtime) if isinstance(n, ast.Call)}
    assert {"get_context", "Pipe", "Process", "wait"} <= called


def test_one_population_format():
    found = [
        f"{module}:{lineno}: {message}"
        for module, tree in _modules()
        for lineno, message in _writer_violations(tree, module)
    ]
    assert not found, "\n".join(found)


def test_guard_catches_seeded_population_formats():
    """The writer guard flags the ``.npz`` population format that
    ``synthpop/io.py`` was, a column writer outside the store, and is
    not vacuous."""
    npz_format = (
        "def save_population(graph, path):\n"
        "    arrays = dict(visit_person=graph.visit_person)\n"
        "    np.savez_compressed(path, **arrays)\n"
        "    np.savez(path, **arrays)\n"
    )
    assert [line for line, _ in _writer_violations(ast.parse(npz_format), "synthpop/io.py")] == [3, 4]
    columns = "out = np.lib.format.open_memmap(tmp / 'x.npy', mode='w+', dtype=d, shape=s)\n"
    assert [line for line, _ in _writer_violations(ast.parse(columns), "lab/cache.py")] == [1]
    assert not list(_writer_violations(ast.parse(columns), POPULATION_FORMAT))
    assert not list(_writer_violations(ast.parse(npz_format), "core/checkpoint.py"))
    for module, name in ((POPULATION_FORMAT, "open_memmap"), ("core/checkpoint.py", "savez_compressed"),
                         ("lab/cache.py", "savez_compressed")):
        tree = ast.parse((SRC / module).read_text())
        assert name in {_called_name(n) for n in ast.walk(tree) if isinstance(n, ast.Call)}


#: the trees no scipy / networkx import may appear in
DEPENDENCY_FREE = ("src", "examples", "benchmarks")

#: packages once declared beside numpy, each imported by one duplicate module
DROPPED_DEPENDENCIES = ("scipy", "networkx")


def _dependency_violations(tree: ast.AST):
    """``(lineno, message)`` for every scipy / networkx import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in DROPPED_DEPENDENCIES:
                yield node.lineno, f"`{name}` imported"


def _declared_dependencies(pyproject: str) -> list[str]:
    """The package names in ``[project] dependencies``, version pins dropped."""
    deps = tomllib.loads(pyproject)["project"]["dependencies"]
    return [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps]


def test_numpy_is_the_only_dependency():
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{lineno}: {message}"
        for tree_root in DEPENDENCY_FREE
        for path in sorted((ROOT / tree_root).rglob("*.py"))
        for lineno, message in _dependency_violations(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, "\n".join(found)
    assert _declared_dependencies((ROOT / "pyproject.toml").read_text()) == ["numpy"]


def test_guard_catches_seeded_dependencies():
    """The dependency guard flags the imports ``analysis/experiments.py``
    and ``synthpop/contact.py`` made (inside functions) and the
    ``pyproject.toml`` that declared them, and is not vacuous."""
    seeded = (
        "import numpy as np\n"
        "def attack_rate_ci(self):\n"
        "    from scipy import stats\n"
        "    return stats.norm.ppf(0.975)\n"
        "def to_networkx(self):\n"
        "    import networkx as nx\n"
        "import scipy.stats\n"
        "from networkx.algorithms import components\n"
        "import scipyish\n"
    )
    assert sorted(line for line, _ in _dependency_violations(ast.parse(seeded))) == [3, 6, 7, 8]
    pyproject = '[project]\ndependencies = ["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"]\n'
    assert _declared_dependencies(pyproject) == ["numpy", "scipy", "networkx"]
