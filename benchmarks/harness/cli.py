"""Command line of the harness: the full report, the driver's single-run
contract, and ``compare``.

This process never imports ``repro``: it starts one child interpreter per
repetition (``child.py``) and takes medians over what they report. The
specification (metric names, units, directions, bounds, ``run_seconds``)
is read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.harness.calib import CALIB_REF_MS
from benchmarks.harness.loop import combine, timed_metrics
from benchmarks.harness.stats import median, spread

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fewer repetitions than this and a median is just a sample.
MIN_REPETITIONS = 3
QUICK_DIVISOR = 5
CHILD_TIMEOUT_S = 150

#: Operations per repetition, sized for about two seconds of timed work on
#: the box the benchmark was defined on (two shared cores): short enough
#: that a run holds five repetitions, long enough that p95 has 50 samples
#: beyond it and ``adhoc_partial`` cycles its 512-entry caches.
OPS = {
    "browse_inproc": 2000,
    "order_inproc": 1000,
    "shop_tcp": 1000,
    "adhoc_partial": 2000,
    "shop_sharded": 1500,
}


class HarnessError(RuntimeError):
    """The harness cannot produce a result (not: the result is bad)."""


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_child(request: Dict[str, Any]) -> Dict[str, Any]:
    """One child interpreter; its last output line is the result."""
    if not (SOURCE / "repro").is_dir():
        raise HarnessError(f"no program to measure: {SOURCE / 'repro'} is missing")
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), str(ROOT)] + ([inherited] if inherited else [])
    )
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "benchmarks.harness.child", json.dumps(request)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child {request} exceeded {CHILD_TIMEOUT_S}s") from exc
    if completed.returncode != 0:
        raise HarnessError(
            f"child {request} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def measure(
    names: Sequence[str], seed: int, seconds: float, traced: bool, quick: bool
) -> Dict[str, List[Dict[str, Any]]]:
    """Repetitions per workload, round-robin across ``names`` so slow
    drift of the machine lands on every workload alike, until each has
    ``seconds`` of timed work (and ``MIN_REPETITIONS``). ``quick`` is one
    short repetition each."""
    repetitions: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}

    def wanted(name: str) -> bool:
        done = repetitions[name]
        if quick:
            return not done
        timed = sum(rep["raw"]["timed_s"] for rep in done)
        return len(done) < MIN_REPETITIONS or timed < seconds

    while any(wanted(name) for name in names):
        for name in names:
            if wanted(name):
                ops = OPS[name] // QUICK_DIVISOR if quick else OPS[name]
                repetitions[name].append(
                    run_child({"workload": name, "seed": seed, "ops": ops, "traced": traced})
                )
    return repetitions


def summarize(
    repetitions: List[Dict[str, Any]], field: str, units: Dict[str, str]
) -> Dict[str, Dict[str, Any]]:
    """Median and spread over repetitions of every metric in ``field``."""
    summary = {}
    for name in repetitions[0][field]:
        values = [rep[field][name] for rep in repetitions]
        summary[name] = {
            "value": median(values),
            "unit": units[name],
            "spread": spread(values),
            "repetitions": len(values),
        }
    return summary


def end_to_end_summary(
    repetitions: List[Dict[str, Any]], units: Dict[str, str]
) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of one seed's repetitions.

    The repetitions did identical work, so the timed metrics come from the
    per-operation and per-chunk medians over repetitions (``combine``);
    set-up, memory and the row count are medians of per-repetition values.
    ``spread`` is always that of the per-repetition values.
    """
    summary = summarize(repetitions, "metrics", units)
    combined = timed_metrics(
        combine([rep["latencies"] for rep in repetitions]),
        combine([rep["chunk_seconds"] for rep in repetitions]),
        repetitions[0]["writes"],
    )
    for name, value in combined.items():
        summary[name]["value"] = value
    return summary


def layer_summary(
    untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]], units: Dict[str, str]
) -> Dict[str, Dict[str, Any]]:
    """The traced repetitions' layer metrics, plus what tracing cost:
    untraced against traced throughput of the same operations."""
    layers = summarize(traced, "layers", units)
    plain = [rep["metrics"]["ops_s"] for rep in untraced]
    slowed = [rep["metrics"]["ops_s"] for rep in traced]
    layers["obs.trace_overhead_pct"] = {
        "value": (median(plain) / median(slowed) - 1.0) * 100.0,
        "unit": units["obs.trace_overhead_pct"],
        "spread": max(spread(plain), spread(slowed)),
        "repetitions": len(traced),
    }
    return layers


def probe_metrics(seed: int, smoke: bool, units: Dict[str, str]):
    """Probes and, when asked, the CLI smoke, each in its own child.
    Returns the metrics and the smoke's outcome (attempted/failed)."""
    values = run_child({"probes": True})
    checked = {"attempted": 0, "failed": 0, "problems": []}
    values["net.serve_boot_s"] = 0.0
    if smoke:
        checked = run_child({"smoke": True, "seed": seed})
        values["net.serve_boot_s"] = checked.pop("net.serve_boot_s")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}, checked


def units_of(spec: Dict[str, Any]) -> Dict[str, str]:
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def outcome(checked: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Failures counted against attempts, over repetitions and smoke."""
    attempted = sum(entry["attempted"] for entry in checked)
    failed = sum(entry["failed"] for entry in checked)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "problems": [text for entry in checked for text in entry["problems"]][:10],
    }


# -- the driver's contract: one workload, one JSON line ----------------------


def driver_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    units = units_of(spec)
    if not trace:
        repetitions = measure([workload], seed, seconds, traced=False, quick=False)[workload]
        metrics = end_to_end_summary(repetitions, units)
        wanted = spec["end_to_end"]
        result = outcome(repetitions)
    else:
        # A quarter of the time untraced, half traced (the pair gives the
        # tracing overhead); then the probes, which do not depend on the
        # workload, and on the wire workload the real-CLI smoke.
        untraced = measure([workload], seed, seconds / 4, traced=False, quick=False)[workload]
        traced = measure([workload], seed, seconds / 2, traced=True, quick=False)[workload]
        probes, smoke = probe_metrics(seed, workload == "shop_tcp", units)
        metrics = {**layer_summary(untraced, traced, units), **probes}
        wanted = spec["per_layer"]
        result = outcome(untraced + traced + [smoke])
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {
                "value": metrics[metric["name"]]["value"],
                "unit": metrics[metric["name"]]["unit"],
            }
            for metric in wanted
        },
    }
    print(json.dumps(line))
    return 0


# -- the full report ----------------------------------------------------------


def full_run(names: Sequence[str], seed: int, quick: bool) -> Dict[str, Any]:
    spec = load_spec()
    units = units_of(spec)
    seconds = float(spec["run_seconds"])
    untraced = measure(names, seed, seconds, traced=False, quick=quick)
    traced = measure(names, seed, seconds / 4, traced=True, quick=quick)
    probes, smoke = probe_metrics(seed, True, units)
    report: Dict[str, Any] = {
        "mode": "quick" if quick else "full",
        "seed": seed,
        "calib_ref_ms": CALIB_REF_MS,
        "workloads": {},
        "probes": probes,
        "smoke": smoke,
    }
    for name in names:
        result = outcome(untraced[name] + traced[name])
        end_to_end = end_to_end_summary(untraced[name], units)
        end_to_end["fail_rate"] = {
            "value": result["fail_rate"],
            "unit": "failed/attempted",
            "spread": 0.0,
            "repetitions": len(untraced[name]) + len(traced[name]),
        }
        report["workloads"][name] = {
            **result,
            "end_to_end": end_to_end,
            "per_layer": layer_summary(untraced[name], traced[name], units),
            "raw": untraced[name][-1]["raw"],
            "calls": traced[name][-1]["calls"],
        }
    report["correct"] = smoke["failed"] == 0 and all(
        entry["correct"] for entry in report["workloads"].values()
    )
    return report


def print_report(report: Dict[str, Any], spec: Dict[str, Any]) -> None:
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    print(f"mode={report['mode']} seed={report['seed']} calib_ref_ms={report['calib_ref_ms']}")
    for name, entry in report["workloads"].items():
        print(
            f"\n== {name}: correct={entry['correct']} attempted={entry['attempted']} "
            f"failed={entry['failed']}"
        )
        for metric, value in entry["end_to_end"].items():
            bound = bounds.get(metric)
            bound_text = f"  bound {bound:.0%}" if bound is not None else ""
            print(
                f"  {metric:34s} {value['value']:14.4f} {value['unit']:12s} "
                f"spread {value['spread']:6.2%} over {value['repetitions']}{bound_text}"
            )
        samples = entry["raw"]["samples"]
        print(
            f"  samples: all={samples['all']} read={samples['read']} write={samples['write']}"
            f"  raw(wall): ops_s={entry['raw']['ops_s']:.1f} p99_ms={entry['raw']['lat_p99_ms']}"
        )
        for metric, value in entry["per_layer"].items():
            print(f"    {metric:38s} {value['value']:14.4f} {value['unit']}")
    print("\n== probes")
    for metric, value in report["probes"].items():
        print(f"    {metric:38s} {value['value']:14.4f} {value['unit']}")
    print(f"\nsmoke: {report['smoke']}")
    print(f"correct={report['correct']}")


def check_writable(path: Path, quick: bool) -> None:
    """Never let a quick run replace a full one: the two are not
    comparable, and a lost full baseline cannot be told from a regression."""
    if quick and path.exists():
        with open(path, encoding="utf-8") as handle:
            if json.load(handle).get("mode") == "full":
                raise HarnessError(f"{path} holds a full result; not overwriting it with a quick one")


def write_report(report: Dict[str, Any], path: Path) -> None:
    check_writable(path, report["mode"] == "quick")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- argument handling --------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] == "compare":
            from benchmarks.harness.compare import compare_main

            return compare_main(argv[1:])
        parser = argparse.ArgumentParser(prog="python -m benchmarks.harness")
        parser.add_argument("--workload", action="append", choices=sorted(OPS))
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, help="driver contract: one workload, one JSON line")
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--quick", action="store_true")
        parser.add_argument("--out", type=Path)
        args = parser.parse_args(argv)
        if args.seconds is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--seconds takes exactly one --workload")
            return driver_run(args.workload[0], args.seed, args.seconds, bool(args.trace))
        if args.out is not None:
            check_writable(args.out, args.quick)  # before spending minutes measuring
        report = full_run(args.workload or list(OPS), args.seed, args.quick)
        print_report(report, load_spec())
        if args.out is not None:
            write_report(report, args.out)
        return 0 if report["correct"] else 1
    except HarnessError as exc:
        print(f"harness: {exc}", file=sys.stderr)
        return 2
