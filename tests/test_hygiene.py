"""Repository hygiene: generated artefacts must never be committed.

``benchmarks/_cache/`` (the benchmarks' population cache) and
``__pycache__`` bytecode once crept into the tree; this guard keeps
the git index free of machine-generated files.  It asks git for the
tracked file list, so it is a no-op (skipped) outside a git checkout.
"""

import fnmatch
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: glob patterns that must never match a tracked path
FORBIDDEN = (
    "benchmarks/_cache/*",
    "*__pycache__*",
    "*.pyc",
    ".pytest_cache/*",
    ".hypothesis/*",
)


def _tracked_files():
    try:
        out = subprocess.run(
            ["git", "ls-files"], cwd=REPO, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return out.stdout.splitlines()


def test_no_generated_files_tracked():
    tracked = _tracked_files()
    if tracked is None:
        pytest.skip("not a git checkout")
    offenders = [
        path
        for path in tracked
        if any(fnmatch.fnmatch(path, pat) for pat in FORBIDDEN)
    ]
    assert not offenders, (
        "machine-generated files are tracked by git (add them to "
        f".gitignore and `git rm --cached`): {offenders}"
    )


def test_gitignore_covers_bench_cache():
    ignore = (REPO / ".gitignore").read_text().splitlines()
    assert "benchmarks/_cache/" in ignore
    assert "__pycache__/" in ignore
