"""Compare two results of the end-to-end benchmark, metric by metric.

    python3 benchmarks/e2e/compare.py PARENT/result.json CHANGE/result.json

For every workload in both files and every ``end_to_end`` metric of
BENCHMARK.json, prints both medians and IQRs, the change's relative
delta (positive = worse) and the metric's bound, with a verdict:

* ``ok``: even the change's worse quartile against the parent's better
  one stays within the bound;
* ``unresolved``: the medians are within the bound but the quartiles
  are not, so the spread is too wide to call the metric unchanged;
* ``REGRESSION``: the change's median is worse by more than the bound.

Exits 1 on any regression, on a workload the change failed to measure
or got wrong, or when its share of failed units rose; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def judge(
    parent: Dict[str, Any], change: Dict[str, Any], spec: Dict[str, Any]
) -> Tuple[float, str]:
    """(relative delta, verdict) of one metric; a positive delta is worse."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    base = parent["median"]
    delta = sign * (change["median"] - base) / base
    if sign > 0:
        widest = (change["q3"] - parent["q1"]) / base
    else:
        widest = (parent["q3"] - change["q1"]) / base
    if delta > spec["bound"]:
        return delta, "REGRESSION"
    if widest > spec["bound"]:
        return delta, "unresolved"
    return delta, "ok"


def _failed_frac(workload: Dict[str, Any]) -> float:
    return workload["failed"] / max(workload["attempted"], 1)


def compare(
    parent: Dict[str, Any], change: Dict[str, Any], benchmark: Dict[str, Any]
) -> Tuple[List[str], bool]:
    """Report lines, and whether the change regressed anywhere."""
    lines = [
        f"{'workload':<12} {'metric':<13} {'parent (IQR)':>24} "
        f"{'change (IQR)':>24} {'delta':>8} {'bound':>6}  verdict"
    ]
    regressed = False
    for name, before in parent["workloads"].items():
        after: Optional[Dict[str, Any]] = change["workloads"].get(name)
        if after is None or not after["correct"]:
            lines.append(f"{name:<12} not measured or incorrect in the change")
            regressed = True
            continue
        if _failed_frac(after) > _failed_frac(before):
            lines.append(
                f"{name:<12} failed units rose: {_failed_frac(before):.4f} "
                f"-> {_failed_frac(after):.4f}  REGRESSION"
            )
            regressed = True
        for spec in benchmark["end_to_end"]:
            a = before["end_to_end"].get(spec["name"])
            b = after["end_to_end"].get(spec["name"])
            if a is None or b is None:
                lines.append(f"{name:<12} {spec['name']:<13} missing")
                regressed = True
                continue
            delta, verdict = judge(a, b, spec)
            regressed |= verdict == "REGRESSION"
            lines.append(
                f"{name:<12} {spec['name']:<13} "
                f"{a['median']:>13.6g} ({a['iqr']:>8.3g}) "
                f"{b['median']:>13.6g} ({b['iqr']:>8.3g}) "
                f"{delta:>+8.2%} {spec['bound']:>6.0%}  {verdict}"
            )
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the baseline result.json")
    parser.add_argument("change", type=Path, help="the result.json to judge")
    args = parser.parse_args(argv)
    documents = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in (args.parent, args.change, BENCHMARK_JSON)
    ]
    lines, regressed = compare(*documents)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
