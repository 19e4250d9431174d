"""Record the benchmark's numbers for one checkout in ``BENCH_<tag>.json``.

    python3 bench/record.py --tag T [--checkout DIR]

For each workload that ``BENCHMARK.json`` declares, runs
``python3 perfbench/run.py --workload W`` (end to end) and the same with
``--trace 1`` (per layer) in the checkout DIR (by default the one holding
this script), one after the other, and writes ``BENCH_<tag>.json`` at the
root of the checkout holding this script. Per workload the file holds the
end-to-end metrics, the quartiles of the program's raw wall times and of its
ratios to the reference copy, the per-layer medians, whether the runs passed
the benchmark's correctness gate, and run.py's environment block. It then
runs ``cli.run`` on each shipped preset in ``PRESET_RUNS`` fresh processes
at ``CARNOT_THREADS=1``, taking the presets in turn so that a slow spell of
the shared host touches all of them, and records per preset the median of
the manifests' ``timings["total"]`` as ``total_s``, its quartiles, the run
count, the exit code and the median of the processes' peak RSS; a preset
whose runs exit with different codes stops the recording. Last it runs the Tier-1 suite,
``python -m pytest -q --continue-on-collection-errors``, once in one child
process in the checkout, and records its wall time, its passed and failed
counts, its exit code and the child's peak RSS. To record a "before", point
``--checkout`` at a copy of the earlier commit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

from manifests import PRESETS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# fresh processes per preset: one run cannot tell a change from the host's speed
PRESET_RUNS = 5

# Runs one preset in a checkout's process; prints {"total_s", "exit_code",
# "peak_rss_mb"} as one JSON line.
PRESET_RUNNER = """
import json, resource, sys
from carnot import cli
manifest = cli.run(cli.preset(sys.argv[1]))
print(json.dumps({"total_s": manifest["timings"]["total"],
                  "exit_code": manifest["exit_code"],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def run_py(checkout: str, workload: str, trace: bool) -> tuple[dict, dict, dict]:
    """(environment, summary, result) printed by one run.py invocation."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    env, summary, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-3:])
    return env["environment"], summary["summary"], result


def run_preset(checkout: str, name: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"), "CARNOT_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", PRESET_RUNNER, name], cwd=checkout,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"preset {name} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_presets(checkout: str) -> dict:
    runs = {name: [] for name in PRESETS}
    for _ in range(PRESET_RUNS):
        for name in PRESETS:
            runs[name].append(run_preset(checkout, name))
    out = {}
    for name, rs in runs.items():
        codes = {r["exit_code"] for r in rs}
        if len(codes) != 1:
            raise SystemExit(f"preset {name} exited with codes {sorted(codes)}")
        q1, median, q3 = statistics.quantiles([r["total_s"] for r in rs], n=4)
        out[name] = {"total_s": median, "total_s_q1": q1, "total_s_q3": q3,
                     "runs": len(rs), "exit_code": codes.pop(),
                     "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rs)}
        print(f"{name}: total {median:.3f} s (quartiles {q1:.3f}-{q3:.3f}), "
              f"peak RSS {out[name]['peak_rss_mb']:.1f} MB", file=sys.stderr)
    return out


def record_tier1(checkout: str) -> dict:
    """Wall time, counts, exit code and peak RSS of one Tier-1 pytest process."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    with tempfile.TemporaryFile("w+") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=checkout, env=env, stdout=out,
                                stderr=subprocess.STDOUT, text=True)
        # wait4 gives the resource use of this child alone
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        summary = out.read().strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed)", summary)}
    result = {"wall_s": wall, "passed": counts.get("passed", 0),
              "failed": counts.get("failed", 0), "exit_code": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024}
    print(f"tier-1: {summary}; peak RSS {result['peak_rss_mb']:.1f} MB", file=sys.stderr)
    return result


def record(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    out = {}
    for name in names:
        env, summary, plain = run_py(checkout, name, False)
        _, _, traced = run_py(checkout, name, True)
        out[name] = {
            "end_to_end": {k: m["value"] for k, m in plain["metrics"].items()},
            "wall_s_runs": summary["wall_s"],
            "wall_ratio": summary["wall_ratio"],
            "correct": plain["correct"] and traced["correct"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "environment": env,
        }
        print(f"{name}: wall_s {out[name]['end_to_end']['wall_s']:.4f}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--checkout", default=ROOT)
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    bench = {"tag": args.tag, "workloads": record(checkout),
             "presets": record_presets(checkout), "tier1": record_tier1(checkout)}
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
