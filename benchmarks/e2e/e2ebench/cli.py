"""Command line: one run, the whole suite, or a comparison of two suites.

``--trace 0|1`` selects the single-run form the benchmark driver calls:
one workload, in this interpreter, ending with one JSON line.  Without
``--trace`` the suite runs: each selected workload in a fresh interpreter
of its own, one after the other, ``--runs`` seeds each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from e2ebench.stats import quartiles, spread

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
OUT_DIR = HERE / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# One run (the form the driver calls)
# ---------------------------------------------------------------------------


def run_single(args) -> int:
    from e2ebench import workloads

    workload = workloads.find_workload(args.workload)
    if args.quick:
        workload = workloads.quick(workload)
    report = workloads.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), OUT_DIR
    )
    for name, metric in report["metrics"].items():
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}")
    for name, summary in report["samples"].items():
        tail = summary.get("tail")
        print(
            f"  {name}: n={summary['n']} q1={summary['q1']:.3f} "
            f"median={summary['median']:.3f} q3={summary['q3']:.3f}"
            + (f" p{tail['p']}={tail['value']:.3f}" if tail else "")
        )
    for key, value in report["detail"].items():
        if key != "output_chain":
            print(f"  {key}: {value}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    if args.report:
        Path(args.report).write_text(json.dumps(report) + "\n")
    print(
        json.dumps(
            {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    # The result line carries ``correct``; a run that printed one succeeded
    # as a process.  The suite is what exits non-zero on a failed check.
    return 0


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{workload}-{seed}-{trace}.report.json"
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--report", str(report_path),
    ]  # fmt: skip
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if not report_path.exists():
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: no report")
    report = json.loads(report_path.read_text())
    report_path.unlink()
    return report


def _aggregate(reports: list[dict]) -> dict:
    """Median, quartiles and spread of each metric over one workload's runs."""
    metrics = {}
    for name, first in reports[0]["metrics"].items():
        values = [report["metrics"][name]["value"] for report in reports]
        q1, median, q3 = quartiles(values)
        metrics[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread(values),
            "values": values,
        }
    return metrics


def _environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def _microblog_digests_agree(runs: dict, seeds: list[int]) -> list[str]:
    """Same seed, same posts: tcp and in-process outputs must be bit-identical."""
    names = [name for name in runs if name.startswith("microblog-")]
    problems = []
    if len(names) == 2:
        for index, seed in enumerate(seeds):
            a, b = (runs[name][index]["detail"] for name in names)
            common = min(a["compared_rounds"], b["compared_rounds"])
            if a["output_chain"][common - 1] != b["output_chain"][common - 1]:
                problems.append(
                    f"seed {seed}: {names[0]} and {names[1]} outputs differ "
                    f"within the first {common} rounds"
                )
    return problems


def run_suite(args) -> int:
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seeds = [args.seed + i for i in range(args.runs)]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            print(f"# {name} seed {seed}", flush=True)
            runs[name].append(_child(name, seed, seconds, 0, args.quick))
            if args.traced:
                traced[name].append(_child(name, seed, seconds, 1, args.quick))

    result = {
        "schema": 1,
        **_environment(),
        "seed": args.seed,
        "runs": args.runs,
        "seconds": seconds,
        "workloads": {},
    }
    problems = _microblog_digests_agree(runs, seeds)
    for name in names:
        reports = runs[name] + traced[name]
        attempted = sum(report["attempted"] for report in reports)
        failed = sum(report["failed"] for report in reports)
        for report in reports:
            problems.extend(f"{name}: {failure}" for failure in report["failures"])
        entry = {
            "ops_attempted": attempted,
            "ops_failed": failed,
            "failed_ops_ratio": failed / attempted,
            "metrics": _aggregate(runs[name]),
            "samples": runs[name][0]["samples"],
            "detail": {
                key: value
                for key, value in runs[name][0]["detail"].items()
                if key != "output_chain"
            },
        }
        if traced[name]:
            entry["per_layer"] = _aggregate(traced[name])
        result["workloads"][name] = entry
        print(f"\n{name}: {failed} of {attempted} checks failed, {args.runs} run(s)")
        for section in ("metrics", "per_layer"):
            for metric, agg in entry.get(section, {}).items():
                print(
                    f"  {metric:42s} {agg['median']:14.4f} {agg['unit']:6s} "
                    f"n={len(agg['values'])} spread={agg['spread']:.3f}"
                )
    result["problems"] = problems
    for problem in problems:
        print(f"FAILED: {problem}")

    if not args.workload and not args.quick:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / "latest.json").write_text(json.dumps(result, indent=1) + "\n")
        with open(RESULTS / "history.ndjson", "a", encoding="utf-8") as history:
            history.write(json.dumps(result) + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Row per (workload, end-to-end metric): B against base A."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    rules = {m["name"]: m for m in load_spec()["end_to_end"]}
    bad = False
    print(
        f"{'workload':26s} {'metric':26s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>7s} {'worse by':>9s} {'bound':>6s}  status"
    )
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, rule in rules.items():
            agg_a, agg_b = entry_a["metrics"][metric], entry_b["metrics"][metric]
            ratio = agg_b["median"] / agg_a["median"]
            worse = ratio - 1 if rule["better"] == "lower" else 1 - ratio
            if worse > rule["bound"]:
                status = "regressed"
                bad = True
            elif max(agg_a["spread"], agg_b["spread"]) > rule["bound"]:
                status = "unresolved"
            else:
                status = "ok"
            print(
                f"{name:26s} {metric:26s} {agg_a['median']:12.4f} "
                f"{agg_b['median']:12.4f} {ratio:7.3f} {worse:+9.3f} "
                f"{rule['bound']:6.2f}  {status} (base A, {rule['better']} is better)"
            )
        ratio_a, ratio_b = entry_a["failed_ops_ratio"], entry_b["failed_ops_ratio"]
        status = "ok" if ratio_b <= ratio_a else "regressed"
        bad = bad or ratio_b > ratio_a
        print(
            f"{name:26s} {'failed_ops_ratio':26s} {ratio_a:12.4f} {ratio_b:12.4f} "
            f"{'':7s} {'':9s} {0:6.2f}  {status} "
            f"({entry_b['ops_failed']} of {entry_b['ops_attempted']} in B)"
        )
    return 1 if bad else 0


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, help="measured window per run")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="single run: 0 reports end-to-end metrics, 1 per-layer metrics",
    )  # fmt: skip
    parser.add_argument("--traced", action="store_true", help="suite: add the traced pass")
    parser.add_argument("--runs", type=int, default=1, help="suite: seeds per workload")
    parser.add_argument("--quick", action="store_true", help="toy group, four clients")
    parser.add_argument("--report", help="single run: also write the full report here")
    parser.add_argument("--out", help="suite: also write the results here")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_suite(args)
    if args.workload is None or args.seconds is None:
        parser.error("--trace needs --workload and --seconds")
    return run_single(args)
