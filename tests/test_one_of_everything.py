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
  of the run loop — except in ``core/checkpoint.py``, the one copy left
  (``run_with_checkpointing`` resumes mid-run);
* more than one class in ``validate/oracle.py`` whose name ends in
  ``Report``, or in ``CellResult``: every backend reports one
  ``SimulationResult``, so the oracle needs one report and one cell;
* the word ``lexsort`` anywhere under ``core/``, docstrings included:
  the exposure walk hands the kernels their ``(location, sublocation)``
  blocks, so no kernel sorts candidates into them again;
* process management outside ``workers.py``, the one worker runtime:
  an import of ``multiprocessing.connection`` or a ``connection.wait(``
  (the park), or a ``Pipe(`` / ``Process(`` / ``is_alive(`` /
  ``get_context(`` / ``Pool(`` call — except ``validate/external.py``'s
  pickling ``Pool`` from a ``get_context``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

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

#: the run loop's home, and the one module that still runs its own
STEP_DAY_CALLERS = {"core/simulator.py", "core/checkpoint.py"}

ORACLE = "validate/oracle.py"

#: the package no ``lexsort`` may appear in
SORT_FREE = "core/"

#: the one module that spawns, pipes and parks worker processes
RUNTIME = "workers.py"

#: process-management call -> modules beside RUNTIME that may make it
SPAWN_CALLS = {
    "Pipe": set(),
    "Process": set(),
    "is_alive": set(),
    "get_context": {"validate/external.py"},
    "Pool": {"validate/external.py"},
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


def _lexsorts(source: str) -> list[int]:
    """Line numbers of ``source`` that mention ``lexsort``."""
    return [i for i, line in enumerate(source.splitlines(), 1) if "lexsort" in line]


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
            if name in SPAWN_CALLS and module not in SPAWN_CALLS[name]:
                yield node.lineno, f"`{name}(` outside {RUNTIME}"
            owner = getattr(node.func, "value", None)
            if name == "wait" and "connection" in (getattr(owner, "id", None), getattr(owner, "attr", None)):
                yield node.lineno, f"`connection.wait(` outside {RUNTIME}"


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
        for lineno in _lexsorts(path.read_text())
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
    assert _lexsorts(resort) == [2]


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
    external = "ctx = multiprocessing.get_context('fork')\npool = ctx.Pool(2)\nctx.Pipe()\n"
    assert [line for line, _ in _runtime_violations(ast.parse(external), "validate/external.py")] == [3]
    runtime = ast.parse((SRC / RUNTIME).read_text())
    called = {_called_name(n) for n in ast.walk(runtime) if isinstance(n, ast.Call)}
    assert {"get_context", "Pipe", "Process", "wait"} <= called
