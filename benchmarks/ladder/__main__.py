"""``python -m benchmarks.ladder`` — the bench ladder's command line.

Three ways in:

``python -m benchmarks.ladder [--seed N] [--repeats R] [--workload NAME] [--smoke] [--out FILE]``
    the whole ladder (or one workload): every end-to-end metric by name
    and unit, the per-layer table from one traced run per workload, the
    verifications; ``--out`` writes the result as one JSON line (append
    it to ``history.jsonl``) and a Chrome trace per workload beside it.
``... --workload NAME --seed N --seconds S --trace 0|1``
    the ``BENCHMARK.json`` contract: one workload, measured for ``S``
    seconds, one JSON object on the last line of stdout.
``python -m benchmarks.ladder compare A.json B.json``
    the regression gate over two ``--out`` files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.ladder import compare
from benchmarks.ladder.harness import LADDER_ONLY_WORKLOADS, contract, fingerprint, measure
from benchmarks.ladder.workloads import DEFAULT_SEED, NAMES

#: printed under the per-layer tables (choosing-metrics §3)
INTERACTION_NOTES = """\
How the layers interact:
  * With nothing else contending, a faster layer saves at most its share
    of run_s: a 10x PTTS win caps near 1/(1 - 0.9*share) — large on
    seq_dense_compiled, ~nil on seq_sparse, where exposure holds the time.
  * rng.* and ckernel.* rows are *inside* ptts.* / exposure.compute_s
    (of-which rows); sim.coverage_pct sums only the rows that tile run_s.
  * On smp_dense_w2 the day waits for the slower worker, so per-phase
    seconds are last-crossing times, and smp.efficiency is bounded by the
    serial smp.arena_build_s + smp.fork_s + smp.apply_s share.
  * charm.model_s_per_day is virtual time: it moves with partition
    quality and message counts, never with how fast this box is."""


#: seconds spent in set-up or in extra children, not inside run_s
_OUTSIDE_RUN = ("synthpop.", "partition.", "ckernel.load_s", "lab.cold_minus_warm_s")


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def _print_workload(result: dict, why: str) -> None:
    print(f"\n== {result['workload']} — {why}")
    run = result["run_s"]
    print(
        f"   run_s median {run['median']:.3f} [q1 {run['q1']:.3f}, q3 {run['q3']:.3f}, "
        f"min {run['min']:.3f}, n={run['n']}]  digest {result['digest']}  "
        f"{result['failed']}/{result['attempted']} failed"
    )
    print(f"   {'end-to-end metric':<22}{'value':>12}  {'unit':<14}{'q1':>11}{'q3':>11}{'min':>11}{'n':>4}")
    for name, m in result["end_to_end"].items():
        stats = "".join(f"{_fmt(m[k]):>11}" for k in ("q1", "q3", "min")) + f"{m['n']:>4}" \
            if "n" in m else ""
        print(f"   {name:<22}{_fmt(m['value']):>12}  {m['unit']:<14}{stats}")
    layer = result["per_layer"]
    if layer:
        units = {m["name"]: m["unit"] for m in contract()["per_layer"]}
        traced_run_s = run["median"] * (1 + layer["observe.traced_overhead_pct"] / 100)
        print(f"   {'per-layer metric (traced run)':<34}{'value':>12}  {'unit':<10}{'of run_s':>9}")
        for name, value in layer.items():
            if not value:
                continue  # layer not entered by this workload
            in_run = units[name] == "s" and not name.startswith(_OUTSIDE_RUN)
            share = f"{100 * value / traced_run_s:8.1f}%" if in_run else ""
            print(f"   {name:<34}{_fmt(value):>12}  {units[name]:<10}{share}")
    for err in result["errors"]:
        print(f"   ERROR: {err}")


def _contract_line(result: dict, trace: bool) -> str:
    """The one JSON object the ``BENCHMARK.json`` contract asks for."""
    if trace:
        declared = contract()["per_layer"]
        values = result["per_layer"] or {}
        # every declared layer metric, 0 where the workload never entered it
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in declared
        }
    else:
        metrics = {
            m["name"]: {k: result["end_to_end"][m["name"]][k] for k in ("value", "unit")}
            for m in contract()["end_to_end"]
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    ap = argparse.ArgumentParser(prog="python -m benchmarks.ladder", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--repeats", type=int, default=5, help="timed children per workload")
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at <= 2K persons / <= 3 days, one repetition")
    ap.add_argument("--out", help="write the result (one JSON line) here")
    ap.add_argument("--seconds", type=float, help="contract mode: seconds to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="contract mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    args = ap.parse_args(argv)
    why = {w["name"]: w["why"] for w in contract()["workloads"]} | LADDER_ONLY_WORKLOADS

    if args.trace is not None:
        if args.workload is None or args.seconds is None:
            ap.error("--trace needs --workload and --seconds")
        # The traced invocation spends half its budget on the untraced
        # runs its overhead figure is relative to, the rest on the trace.
        result = measure(
            args.workload, args.seed, smoke=args.smoke, traced=bool(args.trace),
            min_reps=2 if args.trace else 3,
            budget_s=args.seconds / 2 if args.trace else args.seconds,
        )
        run = result["run_s"]
        print(f"{args.workload}: run_s median {run['median']:.3f} [q1 {run['q1']:.3f}, "
              f"q3 {run['q3']:.3f}, min {run['min']:.3f}, n={run['n']}]", file=sys.stderr)
        for err in result["errors"]:
            print(f"ERROR: {err}", file=sys.stderr)
        print(_contract_line(result, bool(args.trace)))
        return 0

    repeats = 1 if args.smoke else max(1, args.repeats)
    out = Path(args.out) if args.out else None
    results = {}
    for name in [args.workload] if args.workload else NAMES:
        trace_out = str(out.with_name(f"{out.stem}.{name}.trace.json")) if out else None
        results[name] = measure(
            name, args.seed, smoke=args.smoke, min_reps=repeats, trace_out=trace_out
        )
        _print_workload(results[name], why[name])
    print("\n" + INTERACTION_NOTES)

    ok = True
    for name, r in results.items():
        coverage = (r["per_layer"] or {}).get("sim.coverage_pct", 0.0)
        if coverage < 95.0:
            print(f"WARNING: {name}: named layer rows cover only {coverage:.1f}% of traced run_s")
        if not r["correct"] or r["failed"]:
            ok = False
            print(f"FAILED: {name}: {r['failed']}/{r['attempted']} operations failed; "
                  f"{len(r['errors'])} error(s)")
    if out:
        payload = {
            "fingerprint": fingerprint(args.seed, repeats),
            "smoke": args.smoke,
            "workloads": results,
        }
        out.write_text(json.dumps(payload) + "\n")
        print(f"result -> {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
