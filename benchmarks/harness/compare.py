"""``python -m benchmarks.harness compare A.json B.json``.

Per workload and end-to-end metric: B's median against A's, judged by the
bound ``BENCHMARK.json`` fixes for the metric. A pair whose run-to-run
spread exceeds the bound on either side is *unresolved*: the harness
cannot tell a change from noise there and says so instead of saying
"unchanged". Exits 1 when any metric regressed, 2 when the two files
cannot be compared at all.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List


def verdict(
    before: Dict[str, Any], after: Dict[str, Any], better: str, bound: float
) -> Dict[str, Any]:
    """Judge one metric. ``change`` is the share of ``before`` by which
    ``after`` is worse (negative: better)."""
    old, new = before["value"], after["value"]
    worse_by = (new - old) if better == "lower" else (old - new)
    change = worse_by / abs(old) if old else (0.0 if new == old else float("inf"))
    if max(before["spread"], after["spread"]) > bound:
        status = "unresolved"
    elif change > bound:
        status = "regressed"
    else:
        status = "ok"
    return {"before": old, "after": new, "change": change, "bound": bound, "status": status}


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    if a["mode"] != b["mode"]:
        raise ValueError(f"cannot compare a {a['mode']} result with a {b['mode']} one")
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            raise ValueError(f"workload {workload} is missing from the second result")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                a["workloads"][workload]["end_to_end"][name],
                b["workloads"][workload]["end_to_end"][name],
                metric["better"],
                metric["bound"],
            )
            rows.append({"workload": workload, "metric": name, **row})
        fails = b["workloads"][workload]["end_to_end"]["fail_rate"]["value"]
        rows.append(
            {
                "workload": workload,
                "metric": "fail_rate",
                "before": a["workloads"][workload]["end_to_end"]["fail_rate"]["value"],
                "after": fails,
                "change": fails,
                "bound": 0.0,
                "status": "regressed" if fails > 0 else "ok",
            }
        )
    return rows


def compare_main(argv: List[str]) -> int:
    from benchmarks.harness.cli import HarnessError, load_spec

    if len(argv) != 2:
        raise HarnessError("usage: python -m benchmarks.harness compare A.json B.json")
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    try:
        rows = compare(results[0], results[1], load_spec())
    except ValueError as exc:
        raise HarnessError(str(exc)) from exc
    for row in rows:
        print(
            f"{row['workload']:15s} {row['metric']:22s} {row['before']:12.4f} -> "
            f"{row['after']:12.4f}  {row['change']:+8.2%} (bound {row['bound']:.0%})  "
            f"{row['status']}"
        )
    regressed = [row for row in rows if row["status"] == "regressed"]
    unresolved = [row for row in rows if row["status"] == "unresolved"]
    print(f"{len(regressed)} regressed, {len(unresolved)} unresolved, {len(rows)} compared")
    return 1 if regressed else 0
