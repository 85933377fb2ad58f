"""Measure how steady the benchmark is: an interleaved A/A check, then traced runs.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py

For every workload in ``BENCHMARK.json`` it makes two sets of ten
untraced runs of the same code, set A with seeds 1..10 and set B with
seeds 11..20, alternating A and B run by run, so that a slow spell of the
host falls on both sets alike. For each end-to-end metric it reports each
set's median and spread ``(q3 - q1) / median`` (quartiles from
``statistics.quantiles(values, n=4)``) and how far B's median lies from
A's, next to the metric's bound. Then ten traced runs per workload
(seeds 1..10) give the median and spread of every per-layer metric that
is not 0 in all of them (a layer of another workload's path reads 0).
Every run is a separate ``perfbench/run.py`` process. The raw runs go to
``perfbench/steadiness.json`` and the tables to ``perfbench/STEADINESS.md``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS_A = range(1, 11)
SEEDS_B = range(11, 21)
OUT_JSON = os.path.join(BENCH_DIR, "steadiness.json")
OUT_MARKDOWN = os.path.join(BENCH_DIR, "STEADINESS.md")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result.update(seed=seed, wall_s=wall)
    result["host"] = next((json.loads(l[len("# host "):]) for l in lines
                           if l.startswith("# host ")), None)
    return result


def stats(runs: list, name: str) -> dict:
    values = [r["metrics"][name]["value"] for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def log(workload: str, label: str, result: dict) -> None:
    print(f"{workload} {label} seed {result['seed']}: {result['wall_s']:.1f} s, "
          f"failed {result['failed']}/{result['attempted']}", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds_a": list(SEEDS_A),
              "seeds_b": list(SEEDS_B), "workloads": {}}

    def save() -> None:
        with open(OUT_JSON, "w") as fh:
            json.dump(report, fh, indent=1)
        with open(OUT_MARKDOWN, "w") as fh:
            fh.write(markdown(report, spec))

    for workload in [w["name"] for w in spec["workloads"]]:
        runs_a, runs_b = [], []
        for seed_a, seed_b in zip(SEEDS_A, SEEDS_B):
            runs_a.append(run_once(workload, seed_a, seconds, 0))
            log(workload, "A", runs_a[-1])
            runs_b.append(run_once(workload, seed_b, seconds, 0))
            log(workload, "B", runs_b[-1])
        report["host"] = runs_a[0]["host"]
        report["workloads"][workload] = {"a": runs_a, "b": runs_b}
        save()
    for workload in report["workloads"]:
        traced = []
        for seed in SEEDS_A:
            traced.append(run_once(workload, seed, seconds, 1))
            log(workload, "traced", traced[-1])
        report["workloads"][workload]["traced"] = traced
        save()
    print(markdown(report, spec))
    return 0


def _runs_line(label: str, runs: list) -> str:
    walls = [r["wall_s"] for r in runs]
    failed = sorted({r["failed"] for r in runs})
    attempted = sorted({r["attempted"] for r in runs})
    return (f"{label}: wall time per run {min(walls):.1f}-{max(walls):.1f} s; "
            f"failed operations per run {failed[0]}-{failed[-1]} of "
            f"{attempted[0]}-{attempted[-1]} attempted.")


def markdown(report: dict, spec: dict) -> str:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lines = [
        "# Benchmark steadiness",
        "",
        f"Every run is one `perfbench/run.py` process with `--seconds "
        f"{report['seconds']}`. Quartiles are `statistics.quantiles(values, "
        "n=4)`; spread is (q3 - q1) / median. Set A (seeds 1..10) and set B "
        "(seeds 11..20) run the same code, alternating run by run. `B vs A` "
        "is (median B - median A) / median A, and `worse` is that move in "
        "the direction the metric gets worse, as a share of A's median.",
        "",
        f"Host: `{json.dumps(report.get('host'), sort_keys=True)}`",
        "",
    ]
    for workload, data in report["workloads"].items():
        a, b = data["a"], data["b"]
        lines += [
            f"## {workload}",
            "",
            _runs_line("Set A", a),
            _runs_line("Set B", b),
            "",
            "| metric | unit | bound | median A | q1 A | q3 A | spread A | "
            "median B | q1 B | q3 B | spread B | B vs A | worse |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for name in sorted(a[0]["metrics"]):
            sa, sb = stats(a, name), stats(b, name)
            move = (sb["median"] - sa["median"]) / sa["median"]
            worse = move if e2e[name]["better"] == "lower" else -move
            lines.append(
                f"| `{name}` | {e2e[name]['unit']} | {e2e[name]['bound']:.2f} | "
                + "".join(f"{s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                          f"{s['spread']:.4f} | " for s in (sa, sb))
                + f"{move:+.4f} | {max(worse, 0.0):.4f} |")
        lines.append("")
        if "traced" in data:
            traced = data["traced"]
            lines += [
                _runs_line("Traced, seeds 1..10", traced),
                "",
                "| per-layer metric | unit | median | q1 | q3 | spread |",
                "|---|---|---|---|---|---|",
            ]
            for name in traced[0]["metrics"]:
                if not any(r["metrics"][name]["value"] for r in traced):
                    continue  # 0 in every run: a layer of another path
                s = stats(traced, name)
                lines.append(
                    f"| `{name}` | {traced[0]['metrics'][name]['unit']} | "
                    f"{s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                    f"{s['spread']:.4f} |")
            lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
