"""carnot benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]

Run it from the root of a checkout; it imports carnot from the checkout's
``src`` and its frozen reference copy ``carnot_ref`` (this directory; the
same code as ``src/carnot`` when the benchmark was written) from here.

The host this runs on is shared: its speed changes by up to a half for
minutes at a time, so no time measured in one run is steady from run to run.
Each time is therefore measured against the reference copy, interleaved with
it on the same inputs, and reported as the program's time over the
reference's, times the reference's time on a quiet host
(``workloads.WORKLOADS[name]["reference"]``). A program change that makes a
run slower by a share makes the metric larger by that share, whatever the
host's speed.

A run first starts ``SETUPS`` pairs of fresh processes that only set up, as
a CLI call does (``worker.py``): one for the program, one for the reference,
in alternating order. ``setup_s`` is the median of their ratios. Then one
process sets up both and calls ``cli.run`` on the workload's config back to
back, under the workload's ``CARNOT_THREADS``, in pairs of a program run and
a reference run whose order alternates, until S seconds have passed since
the start. ``wall_s`` is the median of the pairs' ratios, leaving out the
first pair, which warms the process up; the summary line gives the raw
times, their quartiles and 90th percentile too.
``peak_rss_mb`` is that process's ``ru_maxrss`` after its first run, the
program's. Every run's verdicts and exit code are compared with the
workload's expected ones, and every run's manifest with the first one of the
same package; these comparisons are ``attempted`` and the mismatches
``failed``.

With ``--trace 1`` only the program runs, with no set-up processes, and
every second run is traced; the metrics are per layer, medians over the
traced runs (the lower middle one of an even count, so counts stay whole),
from spans around carnot's public functions (``spans.py``), written to
``perfbench/out/``. The last line of standard output is one JSON object; the
lines before it give the environment and the check counts. ``--workload
all`` prints every end-to-end metric of every workload, by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170  # for all processes of one invocation
SETUPS = 8  # pairs of set-up-only processes before the measured one

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def session(name: str, seed: int, seconds: float, trace: bool, deadline: float,
            package: str = "carnot") -> dict:
    """Runs one worker process; seconds=0 only sets up ``package``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["CARNOT_THREADS"] = str(workloads.WORKLOADS[name]["threads"])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--package", package]
    if trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--spans", os.path.join(out, f"{name}-seed{seed}.spans.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def allowed(want) -> tuple:
    return want if isinstance(want, tuple) else (want,)


class Gate:
    """Compares each run with the expected verdicts and exit code, and each
    manifest with the first one of the same package."""

    def __init__(self, name: str):
        spec = workloads.WORKLOADS[name]
        self.verdicts, self.exit_code = spec["verdicts"], spec["exit_code"]
        self.digests: dict[str, str] = {}
        self.checks = self.bad_checks = self.runs = self.bad_runs = 0
        self.problems: list[str] = []

    def __call__(self, run: dict, tag: str):
        got = run["verdicts"]
        self.checks += len(self.verdicts)
        for i, want in enumerate(self.verdicts):
            have = got[i] if i < len(got) else None
            if have not in allowed(want):
                self.bad_checks += 1
                self.problems.append(f"run {tag}: check {i} gave {have}, expected {want}")
        first = self.digests.setdefault(run["package"], run["digest"])
        self.runs += 1
        if run["exit_code"] not in allowed(self.exit_code) or run["digest"] != first:
            self.bad_runs += 1
            self.problems.append(
                f"run {tag}: exit code {run['exit_code']} (expected {self.exit_code}),"
                f" manifest {'same as' if run['digest'] == first else 'differs from'}"
                f" the first {run['package']} run's")


def pair_ratios(runs: list[dict]) -> list[float]:
    """Program time over reference time for each consecutive pair of runs but
    the first: the process's first run is slower (its heap is not grown yet),
    and it is always the program's."""
    times = {}
    for i, run in enumerate(runs):
        times.setdefault(i // 2, {})[run["package"]] = run["wall_s"]
    return [t["carnot"] / t["carnot_ref"] for pair, t in times.items()
            if pair > 0 and len(t) == 2]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (summary, result line) for one invocation."""
    deadline = time.monotonic() + TIME_LIMIT_S
    start = time.monotonic()
    setups = []  # (program, reference) set-up times, in alternating order
    for i in range(0 if trace else SETUPS):
        order = ("carnot", "carnot_ref")[::-1 if i % 2 else 1]
        times = {p: session(name, seed, 0, False, deadline, p)["setup_s"] for p in order}
        setups.append((times["carnot"], times["carnot_ref"]))
    main = session(name, seed, max(1.0, seconds - (time.monotonic() - start)), trace,
                   deadline)
    gate = Gate(name)
    for i, run in enumerate(main["runs"]):
        gate(run, f"{i}{run['package'][6:]}{'t' if run['traced'] else ''}")
    plain = sorted(run["wall_s"] for run in main["runs"]
                   if run["package"] == "carnot" and not run["traced"])
    traced = [run for run in main["runs"] if run["traced"]]
    reference = workloads.WORKLOADS[name]["reference"]

    if trace:
        values = {key: statistics.median_low(run["layers"][key] for run in traced)
                  for key in traced[0]["layers"]}
        values["trace.overhead_s"] = min(run["wall_s"] for run in traced) - plain[0]
        ratios = []
    else:
        ratios = pair_ratios(main["runs"])
        values = {"wall_s": statistics.median(ratios) * reference["wall_s"],
                  "setup_s": statistics.median(prog / ref for prog, ref in setups)
                  * reference["setup_s"],
                  "peak_rss_mb": main["peak_rss_mb"]}
    units = {m["name"]: m["unit"]
             for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are measured "
                           "or declared, not both")
    q1, q2, q3 = statistics.quantiles(plain, n=4)  # worker.MIN_RUNS keeps two or more
    ref = sorted(run["wall_s"] for run in main["runs"] if run["package"] == "carnot_ref")
    summary = {
        "checks_attempted": gate.checks, "checks_failed": gate.bad_checks,
        "check_fail_share": gate.bad_checks / gate.checks,
        "runs": gate.runs, "runs_failed": gate.bad_runs, "problems": gate.problems,
        "wall_s": {"runs": len(plain), "min": plain[0], "q1": q1, "median": q2,
                   "q3": q3, "p90": plain[int(0.9 * (len(plain) - 1))],
                   "first": main["runs"][0]["wall_s"]},
        "reference_wall_s": {"runs": len(ref), "min": ref[0] if ref else None,
                             "median": statistics.median(ref) if ref else None},
        "wall_ratio": dict(zip(("q1", "median", "q3"), statistics.quantiles(ratios, n=4)),
                           pairs=len(ratios)) if ratios else None,
        "traced_wall_s": [run["wall_s"] for run in traced],
        "setup_s": setups,
        "heat_seeds": main["heat_seeds"],
    }
    failed = gate.bad_checks + gate.bad_runs
    result = {"correct": failed == 0, "attempted": gate.checks + gate.runs,
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return summary, result


def environment(name: str, seed: int, heat_seeds) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": name,
        "CARNOT_THREADS": workloads.WORKLOADS[name]["threads"],
        "seed": seed,
        "heat_seeds": heat_seeds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "carnot", "__init__.py")):
        print(f"error: no carnot sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.workload == "all":
        ok = True
        for name in workloads.WORKLOADS:
            summary, res = run_workload(name, args.seed, args.seconds, False)
            ok &= res["correct"]
            for metric, m in res["metrics"].items():
                print(f"{name:13} {metric:16} {m['value']:12.4f} {m['unit']}")
            print(f"{name:13} {'check_fail_share':16} {summary['check_fail_share']:12.4f}"
                  f"  ({summary['checks_failed']} of {summary['checks_attempted']}"
                  f" checks; correct={res['correct']})")
        return 0 if ok else 1

    summary, res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment(args.workload, args.seed,
                                                 summary["heat_seeds"])}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
