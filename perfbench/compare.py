#!/usr/bin/env python3
"""Summarise or compare sets of benchmark result files.

    python3 perfbench/compare.py BASE.json...                  # spread of one set
    python3 perfbench/compare.py BASE.json... --new NEW.json...  # NEW against BASE

A result file is what run.py writes to perfbench/runs/, or its last line of
standard output saved to a file. Files of one workload and trace mode form a set; mix
no workloads within one set. For each metric the tool prints the median and
the spread (distance between the first and third quartile, as a share of the
median) of each set. With `--new` it also prints the change of the median
and, for end-to-end metrics, whether it is worse than the metric's bound in
BENCHMARK.json, in the metric's own better direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(paths: list[str]) -> tuple[dict[str, list[float]], float]:
    """Metric name -> values, and the share of failed operations."""
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        if not result["correct"]:
            print(f"warning: {path} reports incorrect outputs", file=sys.stderr)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, failed / attempted if attempted else 0.0


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--new", nargs="+", default=None)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    spec = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    base, base_failed = load_set(args.base)
    new, new_failed = load_set(args.new) if args.new else ({}, None)
    print(f"failed share: base {base_failed:.6f}" + (f", new {new_failed:.6f}" if args.new else ""))
    header = f"{'metric':46} {'base median':>14} {'spread':>7}"
    if args.new:
        header += f" {'new median':>14} {'spread':>7} {'change':>8} {'bound':>6}  verdict"
    print(header)
    regressed = False
    for name, vals in base.items():
        m = spec.get(name, {})
        line = f"{name:46} {statistics.median(vals):14.6g} {spread(vals):7.3f}"
        if args.new and name in new:
            b, n = statistics.median(vals), statistics.median(new[name])
            change = (n - b) / b if b else 0.0
            worse = -change if m.get("better") == "higher" else change
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "WORSE" if worse > bound else "ok"
                regressed |= worse > bound
            line += f" {n:14.6g} {spread(new[name]):7.3f} {change:+8.3f} {bound if bound is not None else '':>6}  {verdict}"
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
