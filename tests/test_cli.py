"""CLI commands end-to-end (in-process)."""

import re

import pytest

from repro.cli import main
from repro.synthpop import save_population


@pytest.fixture()
def pop_file(tmp_path, tiny_graph):
    return str(save_population(tiny_graph, tmp_path / "pop.d"))


class TestGenerate:
    def test_generate_state(self, tmp_path, capsys):
        out = str(tmp_path / "wy.d")
        assert main(["generate", out, "--state", "WY", "--scale", "2e-4", "--seed", "3"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "wy.d" / "header.json").exists()

    def test_generate_explicit_persons(self, tmp_path, capsys):
        out = str(tmp_path / "c.d")
        assert main(["generate", out, "--persons", "150"]) == 0
        assert "150 people" in capsys.readouterr().out

    @pytest.mark.parametrize("existing", ["dir", "file"])
    def test_generate_refuses_an_existing_path(self, tmp_path, capsys, existing):
        from repro.synthpop import load_population

        out = tmp_path / "old.d"
        if existing == "dir":
            assert main(["generate", str(out), "--persons", "120"]) == 0
            before = load_population(out).content_hash()
        else:
            out.write_text("keep me")
        capsys.readouterr()
        assert main(["generate", str(out), "--persons", "150", "--seed", "9"]) == 2
        captured = capsys.readouterr()
        assert "exists" in captured.err and "wrote" not in captured.out
        if existing == "dir":
            assert load_population(out).content_hash() == before
        else:
            assert out.read_text() == "keep me"


class TestInfo:
    def test_info_fields(self, pop_file, capsys):
        assert main(["info", pop_file]) == 0
        out = capsys.readouterr().out
        assert "people" in out and "max location in-degree" in out


class TestSimulate:
    def test_simulate_prints_curve(self, pop_file, capsys):
        assert main(["simulate", pop_file, "--days", "5", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "attack rate" in out
        assert out.count("\n") > 6  # csv rows

    def test_simulate_with_scripts(self, pop_file, tmp_path, capsys):
        iv = tmp_path / "iv.txt"
        iv.write_text("vaccinate coverage=0.5 day=0\nstay_home compliance=0.5\n")
        dm = tmp_path / "m.ptts"
        dm.write_text(
            "susceptible S\nstate S susceptibility=1.0\nstate E dwell=fixed(1)\n"
            "state I infectivity=1.0 dwell=fixed(2)\nstate R\n"
            "transition E -> I:1.0\ntransition I -> R:1.0\nentry -> E\n"
        )
        assert main([
            "simulate", pop_file, "--days", "4",
            "--interventions", str(iv), "--disease", str(dm),
        ]) == 0
        assert "attack rate" in capsys.readouterr().out


class TestPartition:
    def test_partition_gp(self, pop_file, capsys):
        assert main(["partition", pop_file, "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "S_ub" in out and "edge cut" in out

    def test_partition_rr_with_split(self, pop_file, capsys):
        assert main(["partition", pop_file, "-k", "4", "--method", "rr", "--split"]) == 0
        out = capsys.readouterr().out
        assert "splitLoc" in out


class TestScale:
    def test_scale_sweep(self, pop_file, capsys):
        assert main(["scale", pop_file, "--cores", "1", "16", "--split"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_scale_rr(self, pop_file, capsys):
        assert main(["scale", pop_file, "--cores", "1", "16", "--strategy", "rr"]) == 0
        assert "speedup" in capsys.readouterr().out


class TestRunSpecFlow:
    def test_run_saves_and_reloads_a_spec(self, tmp_path, capsys):
        spec_path = str(tmp_path / "run.toml")
        assert main([
            "run", "--persons", "200", "--backend", "seq", "--days", "3",
            "--save-spec", spec_path,
        ]) == 0
        first = capsys.readouterr().out
        assert "wrote spec" in first and "total cases" in first
        assert main(["run", "--spec", spec_path]) == 0
        second = capsys.readouterr().out
        # Same spec => same epidemic (timing lines differ).
        assert first.split("total cases")[1] == second.split("total cases")[1]

    def test_run_charm_prints_the_modelled_virtual_time(self, tmp_path, capsys):
        from repro.core.parallel import ParallelEpiSimdemics
        from repro.spec import RunSpec

        spec_path = tmp_path / "charm.json"
        assert main([
            "run", "--persons", "300", "--backend", "charm", "--workers", "4",
            "--days", "4", "--save-spec", str(spec_path),
        ]) == 0
        out = capsys.readouterr().out
        assert re.search(r"wall time    : [0-9.]+s on 4 PE\(s\)", out)
        printed = re.search(r"virtual time : ([0-9.]+)s modelled", out).group(1)
        spec = RunSpec.from_json(spec_path.read_text())
        vt = ParallelEpiSimdemics.from_spec(spec).run().total_virtual_time
        assert printed == f"{vt:.3f}"

    @pytest.mark.parametrize("backend, workers", [("seq", 1), ("smp", 2)])
    def test_run_prints_wall_time_and_workers(self, capsys, backend, workers):
        assert main([
            "run", "--persons", "200", "--backend", backend, "--days", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert re.search(rf"wall time    : [0-9.]+s on {workers} process\(es\)", out)
        assert "virtual time" not in out

    def test_run_rejects_ambiguous_population(self, pop_file, capsys):
        assert main(["run", pop_file, "--persons", "100"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_run_rejects_an_out_of_range_seed(self, capsys):
        assert main(["run", "--persons", "100", "--days", "2", "--seed", "-1"]) == 2
        assert "seed must be in [0, 2**64), got -1" in capsys.readouterr().err


class TestSweep:
    def test_quick_sweep_and_results_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "sweep", "--quick", "--workers", "0", "--out", store,
            "--cache", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "4 runs" in out and "result store" in out

        assert main(["results", store]) == 0
        out = capsys.readouterr().out
        assert "transmissibility=0.0002" in out

        assert main(["results", store, "--replay", "0"]) == 0
        assert "reproduced exactly" in capsys.readouterr().out

        assert main(["results", store, "--point", "transmissibility=0.0004"]) == 0
        out = capsys.readouterr().out
        assert out.count("replicate") == 2

    def test_sweep_dry_run_lists_tasks(self, capsys):
        assert main([
            "sweep", "--quick", "--dry-run",
            "--grid", "transmissibility=1e-4,2e-4", "--replications", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "6 runs" in out
        assert out.count("hash") == 6

    def test_sweep_rejects_malformed_grid(self, capsys):
        assert main(["sweep", "--quick", "--grid", "transmissibility"]) == 2
        assert "--grid" in capsys.readouterr().err


class TestParserIsCheapToBuild:
    def test_build_parser_leaves_the_exposure_module_out(self):
        """Every command — ``repro results``, ``--help`` — builds the
        parser; the ``--kernel`` choices come from ``repro.spec`` so that
        costs no ``repro.core`` import (~80 ms).  A fresh interpreter,
        because this process has long since imported everything."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys; from repro.cli import build_parser; p = build_parser();"
            "from repro.spec import KERNELS;"
            "ns = p.parse_args(['validate', '--kernel', KERNELS[-1]]);"
            "print(ns.kernel, sorted(m for m in sys.modules if m.startswith('repro.core')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["compiled", "[]"]

    def test_one_kernel_tuple(self):
        from repro import spec
        from repro.core import exposure

        assert exposure.KERNELS is spec.KERNELS == ("flat", "compiled")


class TestRetiredKernel:
    """``"grouped"`` left ``src/``: every way a kernel name comes in —
    a spec, a TOML file, a stored sweep record, the CLI — refuses it,
    naming the kernels there are."""

    def _spec(self):
        from repro.spec import PopulationSpec, RunSpec

        return RunSpec(population=PopulationSpec(n_persons=100), n_days=2)

    def test_spec_and_toml_name_the_kernels(self):
        import dataclasses

        from repro.spec import KERNELS, RunSpec, RuntimeSpec

        message = re.escape(f"kernel must be one of {KERNELS}, got 'grouped'")
        with pytest.raises(ValueError, match=message):
            RuntimeSpec(kernel="grouped")
        toml = dataclasses.replace(self._spec(), runtime=RuntimeSpec(kernel="flat")).to_toml()
        assert RunSpec.from_toml(toml).runtime.kernel == "flat"
        with pytest.raises(ValueError, match=message):
            RunSpec.from_toml(toml.replace('kernel = "flat"', 'kernel = "grouped"'))
        record = self._spec().canonical()
        record["runtime"] = {"kernel": "grouped"}
        with pytest.raises(ValueError, match=message):
            RunSpec.from_dict(record)

    def test_a_stored_record_naming_it_does_not_replay(self, tmp_path):
        from repro.lab import ResultStore, replay
        from repro.spec import KERNELS

        spec = self._spec().canonical()
        spec["runtime"] = {"kernel": "grouped"}
        ResultStore(tmp_path).append_records([{"index": 0, "spec": spec}])
        with pytest.raises(ValueError, match=re.escape(f"one of {KERNELS}")):
            replay(tmp_path, 0)

    def test_run_refuses_it(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["run", "pop.d", "--kernel", "grouped"])
        assert exit_.value.code == 2
        assert "invalid choice: 'grouped'" in capsys.readouterr().err
