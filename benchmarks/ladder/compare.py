"""``python -m benchmarks.ladder compare A.json B.json`` — the regression gate.

One row per (workload, gated end-to-end metric): both medians, how much
worse B is than A, the bound, and a verdict:

``ok``          B is not worse than A by more than the bound.
``regressed``   it is.
``unresolved``  the run-to-run spread of either side exceeds the bound
                *and* the two sides' runs interleave — the benchmark
                cannot tell at this repetition count.

Bounds come from ``BENCHMARK.json`` (and :data:`LADDER_ONLY` for the
metrics only the ladder reports).  Exit code 1 on any ``regressed``.
Counts that must repeat exactly for one seed are listed when they
differ; across commits that is information, not a verdict.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from benchmarks.ladder.harness import LADDER_ONLY, contract, spread_pct

__all__ = ["EXACT_COUNTS", "verdict", "compare", "main"]

#: layer metrics that are pure functions of (commit, seed)
EXACT_COUNTS = (
    "ptts.transitions", "exposure.candidate_visits", "exposure.infections",
    "rng.stream_calls", "partition.edge_cut", "partition.n_split_locations",
    "charm.messages", "charm.events", "charm.model_s_per_day", "smp.wire_bytes",
)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(ok | regressed | unresolved, worsening)`` for one metric entry
    of each side (``{"value", "samples"?}``)."""
    va, vb = a["value"], b["value"]
    if va is None or vb is None:
        return "regressed", 0.0  # measured on one side only
    if va == 0:
        # No base to take a share of (failed_share on a healthy run):
        # the bound is absolute.
        return ("regressed" if vb > bound else "ok"), vb
    worse = (va - vb) / va if better == "higher" else (vb - va) / va
    sa, sb = a.get("samples", []), b.get("samples", [])
    if sa and sb:
        spread = max(spread_pct(s) or 0.0 for s in (sa, sb)) / 100.0
        interleave = min(sa) <= max(sb) and min(sb) <= max(sa)
        if spread > bound and interleave:
            return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(a: dict, b: dict) -> tuple[list[dict], list[str]]:
    """Rows for every gated pair present on both sides, and the exact
    counts that changed."""
    gates = {m["name"]: m for m in contract()["end_to_end"]}
    gates.update({k: v for k, v in LADDER_ONLY.items() if v["bound"] is not None})
    rows, changed = [], []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, gate in gates.items():
            ea, eb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            if ea["value"] is None and eb["value"] is None:
                continue  # not defined on this workload
            status, worse = verdict(ea, eb, gate["better"], gate["bound"])
            spreads = [spread_pct(e.get("samples", [])) for e in (ea, eb)]
            rows.append({
                "workload": name, "metric": metric, "a": ea["value"], "b": eb["value"],
                "worse_pct": 100.0 * worse, "bound_pct": 100.0 * gate["bound"],
                "spread_pct": max((s for s in spreads if s is not None), default=None),
                "status": status,
            })
        la, lb = wa.get("per_layer") or {}, wb.get("per_layer") or {}
        changed += [
            f"{name}: {k} {la[k]} -> {lb[k]}"
            for k in EXACT_COUNTS if k in la and k in lb and la[k] != lb[k]
        ]
    return rows, changed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.ladder compare A.json B.json", file=sys.stderr)
        return 2
    # a history.jsonl is read at its latest entry
    a, b = (json.loads(Path(p).read_text().splitlines()[-1]) for p in argv)
    rows, changed = compare(a, b)
    for side, r in (("A", a), ("B", b)):
        fp = r["fingerprint"]
        print(f"{side}: {fp['git_sha']} seed {fp['seed']} n={fp['repeats']} "
              f"{fp['cpu_count']}x {fp['cpu_model']}")
    print(f"{'workload':<20}{'metric':<20}{'A':>12}{'B':>12}{'worse':>9}{'bound':>8}"
          f"{'spread':>8}  status")
    for r in rows:
        spread = "" if r["spread_pct"] is None else f"{r['spread_pct']:.1f}%"
        print(f"{r['workload']:<20}{r['metric']:<20}{r['a'] or 0:>12.4g}{r['b'] or 0:>12.4g}"
              f"{r['worse_pct']:>8.1f}%{r['bound_pct']:>7.0f}%{spread:>8}  {r['status']}")
    if a["fingerprint"]["seed"] == b["fingerprint"]["seed"]:
        for line in changed:
            print(f"exact count changed: {line}")
    counts = {s: sum(r["status"] == s for r in rows) for s in ("ok", "unresolved", "regressed")}
    print(", ".join(f"{n} {s}" for s, n in counts.items()))
    return 1 if counts["regressed"] else 0
