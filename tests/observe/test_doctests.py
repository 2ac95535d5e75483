"""Every documented example in the audited public APIs must run.

The docstring-audit contract: each ``__all__`` export of
``repro.observe``, ``repro.validate``, ``repro.synthpop`` and
``repro.scenarios`` carries a runnable example.
CI also runs ``pytest --doctest-modules`` over these trees directly;
this tier-1 test keeps the guarantee under a plain ``pytest tests/``
run too.
"""

import doctest

import pytest

import repro.observe.export
import repro.observe.profile
import repro.observe.recorder
import repro.scenarios.components
import repro.scenarios.models
import repro.scenarios.registry
import repro.synthpop.generator
import repro.synthpop.graph
import repro.synthpop.powerlaw
import repro.synthpop.states
import repro.synthpop.store
import repro.synthpop.stream
import repro.validate.invariants
import repro.validate.oracle

MODULES = [
    repro.observe.recorder,
    repro.observe.export,
    repro.observe.profile,
    repro.validate.invariants,
    repro.validate.oracle,
    repro.scenarios.components,
    repro.scenarios.models,
    repro.scenarios.registry,
    repro.synthpop.generator,
    repro.synthpop.graph,
    repro.synthpop.powerlaw,
    repro.synthpop.states,
    repro.synthpop.store,
    repro.synthpop.stream,
]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(mod):
    result = doctest.testmod(mod, verbose=False)
    assert result.attempted > 0, f"{mod.__name__} has no doctests"
    assert result.failed == 0


def _documented_exports(mod):
    return [(name, getattr(mod, name)) for name in mod.__all__]


@pytest.mark.parametrize("mod", [
    __import__("repro.observe", fromlist=["x"]),
    __import__("repro.validate", fromlist=["x"]),
    __import__("repro.synthpop", fromlist=["x"]),
    __import__("repro.scenarios", fromlist=["x"]),
], ids=lambda m: m.__name__)
def test_every_export_has_docstring_with_example(mod):
    missing, no_example = [], []
    for name, obj in _documented_exports(mod):
        doc = getattr(obj, "__doc__", None)
        if not doc:
            missing.append(name)
        elif ">>>" not in doc and not isinstance(obj, dict):
            no_example.append(name)
    assert not missing, f"{mod.__name__}: exports without docstrings: {missing}"
    assert not no_example, f"{mod.__name__}: exports without runnable examples: {no_example}"
