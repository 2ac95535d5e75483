"""The bench ladder: this repo's one performance benchmark.

Seven workloads, three gated end-to-end metrics and ~60 per-layer
metrics, declared in the root ``BENCHMARK.json`` and measured by
``python -m benchmarks.ladder`` — see ``README.md`` in this directory.
"""

import sys
from pathlib import Path

# The program under test is this checkout's ``src/``, also when the
# command is run without PYTHONPATH (as ``BENCHMARK.json`` does) or
# another ``repro`` is installed.  Without a ``src/`` the first
# ``import repro`` fails, which is the right answer outside a checkout.
_SRC = Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
