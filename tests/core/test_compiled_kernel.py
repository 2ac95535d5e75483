"""The compiled (C-via-ctypes) exposure kernel: bit-exact or absent.

The ``"compiled"`` kernel runs the location phase in C from the block
walk to the per-``(location, person)`` slot sums, without the flat
kernel's column gather or pair materialisation.  Its contract has two
halves:

* when a C toolchain is present, it is **bit-identical** to the
  pure-numpy kernels — same events in the same order, same minutes,
  same statistics, same epidemic through the SMP backend;
* when no toolchain is available (or ``REPRO_NO_CKERNEL=1``), nothing
  in the repo breaks — ``available()`` is False with a reason, the
  kernel raises a clear error, and everything else runs pure numpy.

These tests skip cleanly on toolchain-less machines; CI runs them both
ways (with the compiler and with ``REPRO_NO_CKERNEL=1``).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import Scenario, TransmissionModel, ckernel, exposure, influenza_model
from repro.core.exposure import KERNELS, compute_infections
from repro.core.simulator import SequentialSimulator
from repro.synthpop import PopulationConfig, generate_population
from repro.util.rng import RngFactory
from tests.strategies import scenarios

from .test_block_walk import walk_phases

needs_ckernel = pytest.mark.skipif(
    not ckernel.available(),
    reason=f"no compiled kernel: {ckernel.build_error()}",
)


def test_compiled_is_a_registered_kernel():
    assert "compiled" in KERNELS


def _infection_tuples(result):
    # Order is part of the contract — no sorting here.
    return [(e.person, e.location, e.minute) for e in result.infections]


def _phase_inputs(scenario, infected_frac=0.25):
    g = scenario.graph
    d = scenario.disease
    state, _ = d.initial_health(g.n_persons)
    rng = np.random.default_rng(scenario.seed)
    n_sick = max(1, int(g.n_persons * infected_frac)) if g.n_persons else 0
    if n_sick:
        sick = rng.choice(g.n_persons, n_sick, replace=False)
        state[sick] = d.state_index(
            d.states[int(np.flatnonzero(d.is_infectious)[0])].name
        )
    return g, d, state


@needs_ckernel
class TestCompiledBitExact:
    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_same_infections_same_order_same_stats(self, scenario):
        g, d, state = _phase_inputs(scenario)
        f = RngFactory(scenario.seed)
        flat = compute_infections(
            g, state, d, scenario.transmission, 0, f,
            collect_stats=True, kernel="flat",
        )
        compiled = compute_infections(
            g, state, d, scenario.transmission, 0, f,
            collect_stats=True, kernel="compiled",
        )
        assert _infection_tuples(compiled) == _infection_tuples(flat)
        assert compiled.events == flat.events
        assert compiled.interactions == flat.interactions

    def test_full_run_differential(self):
        from repro.validate.oracle import run_kernel_differential

        graph = generate_population(
            PopulationConfig(n_persons=500), 13, name="ck-diff"
        )
        report = run_kernel_differential(
            graph, n_days=5, seed=3, kernel_a="flat", kernel_b="compiled"
        )
        assert report.all_equal, report.format()

    def test_sequential_simulator_accepts_compiled(self):
        graph = generate_population(
            PopulationConfig(n_persons=300), 7, name="ck-seq"
        )

        def scenario():
            return Scenario(
                graph=graph, n_days=4, seed=2, initial_infections=6,
                transmission=TransmissionModel(3e-4),
            )

        res_f = SequentialSimulator(scenario(), kernel="flat").run()
        res_c = SequentialSimulator(scenario(), kernel="compiled").run()
        assert res_c.curve == res_f.curve
        assert res_c.final_histogram == res_f.final_histogram

    def test_smp_backend_compiled_bitexact(self):
        from repro.validate.oracle import run_smp_matrix

        report = run_smp_matrix(
            workers=(2,), presets=("tiny",), n_days=4, kernel="compiled"
        )
        assert report.all_equal, report.format()


def _slot_sums(kernel, graph, disease, health, owned, removed):
    """The per-slot arrays a kernel hands ``_draw_and_emit``, touched
    slots only, ``total_h`` as bytes, by key.  Slots must come grouped
    by ascending location; within one location their order is free
    (the compiled kernel emits single-visit persons first)."""
    seen = []
    real = exposure._draw_and_emit

    def spy(result, keys, total_h, first_minute, pair_count, *args):
        touched = pair_count > 0
        assert np.all(np.diff(keys // graph.n_persons) >= 0)  # grouped by location
        by_key = np.argsort(keys[touched])
        seen.append((keys[touched][by_key].tolist(), total_h[touched][by_key].tobytes(),
                     first_minute[touched][by_key].tolist(),
                     pair_count[touched][by_key].tolist()))
        return real(result, keys, total_h, first_minute, pair_count, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exposure, "_draw_and_emit", spy)
        compute_infections(graph, health, disease, TransmissionModel(4e-3), 3, RngFactory(11),
                           owned=owned, removed=removed, collect_stats=True, kernel=kernel)
    return seen


@needs_ckernel
@given(walk_phases())
@settings(max_examples=300, deadline=None)
def test_compiled_slot_sums_equal_the_flat_kernels(phase):
    """keys, the ``total_h`` bytes, ``first_minute`` and ``pair_count``
    of the C accumulation against the flat kernel, its definition."""
    assert _slot_sums("compiled", *phase) == _slot_sums("flat", *phase)


@needs_ckernel
def test_compiled_slot_sums_on_a_dense_day(small_graph):
    disease = influenza_model()
    health = np.where(np.arange(small_graph.n_persons) % 5, disease.index["susceptible"],
                      disease.index["infectious_symptomatic"])
    for owned in (None, np.arange(small_graph.n_locations) % 2 == 0):
        flat = _slot_sums("flat", small_graph, disease, health, owned, None)
        assert len(flat) == 1 and len(flat[0][0]) > 50
        assert _slot_sums("compiled", small_graph, disease, health, owned, None) == flat


def test_no_kernel_means_compiled_where_the_library_loads():
    """A spec without ``kernel`` runs the C path when the library loads
    and ``flat`` under ``REPRO_NO_CKERNEL=1``; the spec never records it."""
    code = (
        "from repro import observe\n"
        "from repro.core import ckernel\n"
        "from repro.spec import PopulationSpec, RunSpec, execute\n"
        "spec = RunSpec(population=PopulationSpec(kind='generated', n_persons=300, seed=3),\n"
        "               n_days=3, seed=5, initial_infections=10)\n"
        "assert 'kernel' not in spec.canonical()['runtime']  # None stays None\n"
        "with observe.observing() as obs:\n"
        "    execute(spec)\n"
        "kernels = {s.attrs['kernel'] for s in obs.closed_spans() if s.name == 'exposure.compute'}\n"
        "assert kernels == {'compiled' if ckernel.available() else 'flat'}, kernels\n"
        "print(kernels.pop())\n"
    )
    ran = {}
    for disabled in ("0", "1"):
        env = dict(os.environ, REPRO_NO_CKERNEL=disabled)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        ran[disabled] = subprocess.run(
            [sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True,
        ).stdout.strip()
    assert ran["1"] == "flat"  # the child checked "0" against its own available()
    if ckernel.available():
        assert ran["0"] == "compiled"


def test_disabled_by_env_is_a_clean_miss():
    """REPRO_NO_CKERNEL=1 means unavailable-with-reason, not an error.

    Runs in a subprocess because availability is memoised per process.
    """
    code = (
        "from repro.core import ckernel\n"
        "assert not ckernel.available()\n"
        "assert 'REPRO_NO_CKERNEL' in ckernel.build_error()\n"
        "for loop, arity in ((ckernel.block_walk, 4), (ckernel.accumulate_exposures, 6)):\n"
        "    try:\n"
        "        loop(*[None] * arity)\n"
        "    except RuntimeError as exc:\n"
        "        assert 'unavailable' in str(exc)\n"
        "    else:\n"
        "        raise AssertionError('expected RuntimeError')\n"
    )
    env = dict(os.environ, REPRO_NO_CKERNEL="1")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@needs_ckernel
def test_concurrent_fresh_builds_race_to_one_library(tmp_path):
    """N processes hitting an empty cache serialise on the build lock:
    all succeed, exactly one .so remains, no lock/tmp litter."""
    code = (
        "from repro.core import ckernel\n"
        "assert ckernel.available(), ckernel.build_error()\n"
    )
    env = dict(os.environ, REPRO_CKERNEL_CACHE=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(3)
    ]
    for p in procs:
        _, err = p.communicate(timeout=120)
        assert p.returncode == 0, err.decode()
    assert len(list(tmp_path.glob("*.so"))) == 1
    assert list(tmp_path.glob("*.lock")) == []
    assert list(tmp_path.glob("*.tmp*")) == []
    assert list(tmp_path.glob("*.c")) == []


@needs_ckernel
def test_stale_lock_is_stolen(tmp_path, monkeypatch):
    """A lock left by a dead builder must not wedge later processes."""
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
    lock = ckernel._library_path().with_suffix(".lock")
    assert lock.parent == tmp_path
    lock.write_text("99999")
    stale = __import__("time").time() - 2 * ckernel._LOCK_STALE_SECONDS
    os.utime(lock, (stale, stale))
    out = ckernel._compile()
    assert out.exists()
    assert not lock.exists()


def test_fresh_lock_waiter_returns_when_library_appears(tmp_path):
    """While another process holds a live lock, a waiter polls and
    returns as soon as the .so lands — without ever compiling."""
    import threading

    out = tmp_path / "exposure-x.so"
    lock = tmp_path / "exposure-x.lock"
    lock.write_text("1")

    def finish_build():
        __import__("time").sleep(0.2)
        out.write_bytes(b"not really an so")
        lock.unlink()

    t = threading.Thread(target=finish_build)
    t.start()
    try:
        acquired = ckernel._acquire_build_lock(lock, out)
    finally:
        t.join()
    assert acquired is False
    assert out.exists()


@needs_ckernel
def test_cache_is_reused_not_rebuilt(tmp_path, monkeypatch):
    """A second process finds the .so in the cache (sha-named, atomic)."""
    cached = sorted(ckernel.cache_dir().glob("exposure-*.so"))
    assert cached, "available() implies a built library in the cache"
    # The library name embeds the hash of the source and the compile
    # flags: editing either would miss the cache instead of loading
    # stale bits.
    assert ckernel._library_path() in cached


def test_flags_change_the_cached_path(monkeypatch):
    """A library built from the same source with other flags is another
    file: the tag hashes the flag list too, not only ``C_SOURCE``."""
    path = ckernel._library_path()
    assert path.name.startswith("exposure-") and path.suffix == ".so"
    assert ckernel._library_path() == path  # a pure function of source and flags
    for flags in (ckernel._CFLAGS + ("-O3",), ckernel._CFLAGS[:-1], ckernel._CFLAGS[::-1]):
        monkeypatch.setattr(ckernel, "_CFLAGS", flags)
        assert ckernel._library_path() != path
    monkeypatch.setattr(ckernel, "_CFLAGS", ckernel._CFLAGS[::-1])
    assert ckernel._library_path() == path
    monkeypatch.setattr(ckernel, "C_SOURCE", ckernel.C_SOURCE + "\n")
    assert ckernel._library_path() != path
