"""Paired comparison of two sets of benchmark runs.

Usage::

    python3 bench/compare.py BASE.json CHANGE.json [--allow-dirty]

Both files are written by ``bench/run.py --save``.  For each workload and
end-to-end metric it prints each side's median and quartiles, the share
of pairs the change wins (runs are paired in the order they were made;
ties count for neither side) and a verdict against the metric's bound in
BENCHMARK.json:

* ``improved``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the base's interquartile range;
* ``unresolved``: either side's relative interquartile range is wider
  than the bound, unless every change run beats every base run;
* ``regressed``: the change's median is worse than the base's by more
  than the bound;
* ``no worse``: otherwise.

A rise in the failed-op rate is a regression.  Per-layer medians of the
traced runs are printed with their deltas, without a verdict.  A base
measured on a dirty tree is refused unless ``--allow-dirty`` is given.
Exit status: 0, or 1 if any pairing regressed, or 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def wins(base: Sequence[float], change: Sequence[float], better: str) -> Tuple[int, int]:
    """(pairs the change wins, pairs compared)."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(base, change))
    return sum(1 for b, c in pairs if sign * (c - b) < 0), len(pairs)


def verdict(
    base: Sequence[float], change: Sequence[float], bound: float, better: str
) -> str:
    """One of improved / no worse / unresolved / regressed (module doc)."""
    sign = 1 if better == "lower" else -1
    b1, b_med, b3 = quartiles(base)
    c_med = quartiles(change)[1]
    won, pairs = wins(base, change, better)
    if pairs and won >= WIN_SHARE * pairs and sign * (b_med - c_med) > b3 - b1:
        return "improved"
    every_run_better = (
        max(change) < min(base) if better == "lower" else min(change) > max(base)
    )
    if max(relative_iqr(base), relative_iqr(change)) > bound and not every_run_better:
        return "unresolved"
    if b_med and sign * (c_med - b_med) / abs(b_med) > bound:
        return "regressed"
    return "no worse"


def load_runs(path: Path) -> Dict[str, Any]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"compare: cannot read {path}: {exc}")
    if not isinstance(data, dict) or "runs" not in data:
        raise SystemExit(f"compare: {path} is not a bench/run.py --save file")
    return data


def series(
    data: Dict[str, Any], workload: str, metric: str, trace: int
) -> List[float]:
    return [
        run["result"]["metrics"][metric]["value"]
        for run in data["runs"]
        if run["workload"] == workload and run["trace"] == trace
        and metric in run["result"]["metrics"]
    ]


def fail_rate(data: Dict[str, Any], workload: str) -> float:
    runs = [r["result"] for r in data["runs"] if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def digest_mismatches(base: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """(workload, seed) pairs whose runs disagree on results_digest."""
    seen: Dict[Tuple[str, int], set] = {}
    for run in base["runs"] + change["runs"]:
        seen.setdefault((run["workload"], run["seed"]), set()).add(run["results_digest"])
    return [f"{w} seed={s}" for (w, s), d in sorted(seen.items()) if len(d) > 1]


def _fmt(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:10.4g} [{q1:.4g}, {q3:.4g}]"


def compare(
    base: Dict[str, Any], change: Dict[str, Any], benchmark: Dict[str, Any]
) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """Report lines and (workload, metric, verdict) rows."""
    lines: List[str] = []
    rows: List[Tuple[str, str, str]] = []
    workloads: List[str] = []
    for run in base["runs"]:
        if run["workload"] not in workloads:
            workloads.append(run["workload"])
    for workload in workloads:
        lines.append(f"== {workload}")
        b_seeds = [r["seed"] for r in base["runs"] if r["workload"] == workload and not r["trace"]]
        c_seeds = [r["seed"] for r in change["runs"] if r["workload"] == workload and not r["trace"]]
        if b_seeds[: len(c_seeds)] != c_seeds[: len(b_seeds)]:
            lines.append("   note: paired runs used different seeds")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            b = series(base, workload, name, 0)
            c = series(change, workload, name, 0)
            if not b or not c:
                lines.append(f"   {name:<12} missing on one side")
                continue
            result = verdict(b, c, metric["bound"], metric["better"])
            won, pairs = wins(b, c, metric["better"])
            delta = (quartiles(c)[1] - quartiles(b)[1]) / abs(quartiles(b)[1]) * 100
            lines.append(
                f"   {name:<12} {_fmt(b)} -> {_fmt(c)} {metric['unit']:<3} "
                f"{delta:+6.1f}%  wins {won}/{pairs}  bound {metric['bound']:.0%}  "
                f"{result}  (n={len(b)}/{len(c)})"
            )
            rows.append((workload, name, result))
        b_rate, c_rate = fail_rate(base, workload), fail_rate(change, workload)
        result = "regressed" if c_rate > b_rate else "no worse"
        lines.append(f"   {'fail_rate':<12} {b_rate:.6g} -> {c_rate:.6g}  {result}")
        rows.append((workload, "fail_rate", result))
        layer_lines = []
        for metric in benchmark["per_layer"]:
            b = series(base, workload, metric["name"], 1)
            c = series(change, workload, metric["name"], 1)
            if b and c:
                b_med, c_med = statistics.median(b), statistics.median(c)
                rel = f"{(c_med - b_med) / abs(b_med) * 100:+.1f}%" if b_med else ""
                layer_lines.append(
                    f"     {metric['name']:<36} {b_med:12.6g} -> {c_med:12.6g} "
                    f"{metric['unit']:<12} {rel}"
                )
        if layer_lines:
            lines.append("   per-layer medians (traced runs):")
            lines.extend(layer_lines)
    mismatches = digest_mismatches(base, change)
    lines.append(
        "results_digest: identical across all runs" if not mismatches
        else "results_digest differs: " + ", ".join(mismatches)
    )
    return lines, rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--allow-dirty", action="store_true",
                        help="accept a base measured on a dirty tree")
    args = parser.parse_args(argv)
    base, change = load_runs(args.base), load_runs(args.change)
    dirty = base.get("meta", {}).get("dirty")
    if dirty and not args.allow_dirty:
        print(f"compare: {args.base} was measured on a dirty tree; "
              "refusing it as a base (use --allow-dirty)", file=sys.stderr)
        return 2
    if dirty is None:
        print(f"compare: note: {args.base} records no git state", file=sys.stderr)
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    lines, rows = compare(base, change, benchmark)
    print("\n".join(lines))
    regressed = [f"{w} {m}" for w, m, v in rows if v == "regressed"]
    print("verdict: " + ("regressed: " + ", ".join(regressed) if regressed else "no regression"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
