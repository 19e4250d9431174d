"""Fingerprint, or compare, what checkouts of carnot print.

    python3 bench/manifests.py [--checkout DIR [--checkout DIR]]

The entries are:

- each shipped preset and each benchmark workload at seeds 0 and 7
  (``perfbench/workloads.config_for``), run by ``cli.run`` at
  ``CARNOT_THREADS`` 1 and 2; the output is ``manifest_canonical_bytes``;
- ``heat.sample`` on each builtin algebra, plain and once tilted, and
  ``heat.coupled_refinement`` at steps [4, 16, 64] on three of them, at small
  n; the output is the samples (and log weights) as JSON lists, whose repr
  floats round-trip, so equal outputs mean equal bits;
- ``calculus.frame_sum`` over ``calculus.horizontal_jets``, and
  ``calculus.euler_derivative_batch``, of each field of the builtin LSH
  library, on a 1000-point ``lsh.grid_points`` grid of engel and of
  heisenberg(2); the output is |grad f|^2, Delta f, |grad log f|^2 (the sum
  of the squared d1 of each jet's ``log()``) and Ef as JSON lists;
- ``calculus.to_expr`` of each field of the builtin LSH library on each of
  the five ``heat.sample`` algebras, and of ``calculus.parse_field`` of one
  expression per operator of the mini-language; the output is the rendered
  texts as JSON;
- ``carnot check KIND`` for each kind, ``carnot check lsi --form L2``,
  ``carnot sweep alpha``, and on a 33-point t grid, which a sweep at this n
  evaluates in several blocks, ``carnot sweep alpha`` of the Dilated field
  ``@expdil`` on engel and ``carnot check contractivity`` on a tilted batch,
  all at small n, and ``carnot check lsh --points FILE``
  on a heisenberg(1) batch CSV that ``heat.sample(...).save_csv`` of the
  first checkout writes once into a temporary directory, so every checkout
  reads the same bytes; at the edge of double range, ``carnot check lsi`` and
  ``carnot check chain`` of 1e-170 (e^x + e^-x), x = x_1_1, whose |grad f|^2
  is subnormal, and ``carnot check lsi --form L2`` of 1e-200 e^x, whose
  mass |f|_2^2 is 0.0; and where ``reports.ABS_FLOOR`` decides, ``carnot
  check contractivity`` of 1e-9 exp(-x_1_1^2), which holds only through the
  floor (the same field at scale 1 is violated), and ``carnot check chain``
  of 1e160 exp(0.7 x_1_1) on a tilted batch, violated with z = -22.77 on a
  margin of one ulp of its sides; and on a walk batch of engel, where the
  upper-layer jets are live, ``carnot check chain``, ``carnot check lsi`` and
  ``carnot check lsi --form L2`` of e^x + e^(-y/2), x = x_1_1, y = x_2_1;
  ``carnot check time-space`` of exp(x_2_1 / 2) on heisenberg(2), an
  exact-h-type batch, and of x_1_1 + x_2_1 + 8 on H3 x R, a JSON algebra
  that ``algebra.classify_h_type`` accepts but whose batches walk, written
  once into the temporary directory; the output is stdout;
- three configs of sweeps at the edge of double range, run by ``cli.run``:
  on engel, a ``contractivity`` check at t = -300, where the dilation weight
  exp(300) ** 3 overflows, beside a ``time-space`` check, which fails the
  sweep alone; a ``contractivity`` check of (pow x_1_1 2) on a 33-point grid
  whose 21st t, 368, makes e^(-tE) f underflow to 0 on some samples, so the
  sweep fails there, in the third of several blocks; and an ``alpha-sweep``
  of 1e-200 exp(x_1_1), whose powers underflow to 0 on every sample from an
  interior t of a 33-point grid while its norms do not, so it reports values.
  The output is ``manifest_canonical_bytes``, or the type and text of the
  exception that ended the run (with exit code 3);
- a config run by ``cli.run`` at ``CARNOT_THREADS=2`` of an ``lsh`` check
  of each field of the builtin LSH library on heisenberg(2), all on one
  80 000-point grid, which ``lsh.check_lsh`` takes in 2.4 blocks of points;
  the output is ``manifest_canonical_bytes``.

With one checkout (by default the one holding this script) it prints, per
entry, the exit code and the sha256 of the output. With two it prints both
exit codes and whether the outputs are byte-identical; for each entry that
differs, it lists the JSON paths that differ (trailing list indices folded
into ``[*]``), how many values differ there and the largest relative
difference of those that are numbers. It exits 1 when any entry differs.
Each checkout runs in its own process, with ``PYTHONPATH`` at its ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = ("gaussian-sharpness", "heisenberg-time-space", "heisenberg-slsi-sweep",
           "htype-classify", "engel-exploratory", "heat-kernel-identities")
WORKLOAD_SEEDS = (0, 7)
THREADS = ("1", "2")
CHECK_KINDS = ("lsi", "slsi", "shc", "time-space", "chain", "contractivity", "lsh")
CLI_ARGS = ["--algebra", "heisenberg(1)", "--field", "@expx1", "--n", "4000",
            "--steps", "16", "--seed", "3"]
SAMPLE_ALGEBRAS = ("euclidean(1)", "euclidean(3)", "heisenberg(1)", "heisenberg(2)", "engel")
SAMPLE_KW = {"s": 1.3, "n_samples": 300, "seed": 5}
TILTED = ("heisenberg(1)", [0.5, -1.0])
REFINE_ALGEBRAS = ("heisenberg(1)", "engel", "euclidean(1)")
REFINE_STEPS = [4, 16, 64]
JET_ALGEBRAS = ("engel", "heisenberg(2)")
JET_GRID_N = 1000
# one expression per operator, unary and binary ``-`` and a nested ``dilated``
RENDER_EXPRS = ("(+ x_1_1 x_1_2 2.0)", "(* 0.5 x_1_1 x_2_1)", "(- x_1_2)",
                "(- x_1_1 x_2_1)", "(pow x_1_1 2.5)", "(exp (* 0.7 x_1_2))",
                "(log (+ 1.0 (pow x_2_1 2.0)))",
                "(dilated (dilated (+ x_1_1 x_2_1) 0.3) -0.2)")
# fields at the edge of double range for the entropy checks
SCALED_COSH = "(* 1e-170 (+ (exp x_1_1) (exp (- x_1_1))))"
TINY_EXP = "(* 1e-200 (exp x_1_1))"
# a field of both layers, for the horizontal columns on an engel walk batch
ENGEL_SUM = "(+ (exp x_1_1) (exp (* -0.5 x_2_1)))"
ENGEL_ARGS = ["--algebra", "engel", "--field", ENGEL_SUM, "--n", "2000", "--steps", "16",
              "--seed", "5"]
# a field of the centre on heisenberg(2), whose batch is exact-h-type, and
# H3 x R, whose J_z is a partial isometry with a kernel: its batches walk
CENTRE_ARGS = ["--field", "(exp (* 0.5 x_2_1))", "--n", "4000", "--steps", "16", "--seed", "3"]
H3_X_R = {"layer_dims": [3, 1], "brackets": [[[1, 1], [1, 2], [[2, 1], 1.0]]]}
# the edges of the verdict floor, each with its full argv
FLOOR_COMMANDS = {
    "carnot check contractivity of 1e-9 exp(-x_1_1^2), n=4000": [
        "check", "contractivity", "--algebra", "heisenberg(1)",
        "--field", "(* 1e-9 (exp (- (pow x_1_1 2))))", "--n", "4000", "--steps", "8",
        "--seed", "0"],
    "carnot check chain of 1e160 exp(0.7 x_1_1), n=2000, tilted": [
        "check", "chain", "--algebra", "heisenberg(1)",
        "--field", "(* 1e160 (exp (* 0.7 x_1_1)))", "--n", "2000", "--steps", "8",
        "--seed", "3", "--tilt", "0.5,-1.0"],
}
GRID_33 = ",".join(repr(i / 32) for i in range(33))
POINTS_SAMPLE = {"s": 1.0, "n_samples": 500, "n_steps": 16, "seed": 3}
EDGE_SWEEP_CONFIGS = {
    "config engel time-space + contractivity grid [-300, 0]": {
        "algebra": "engel", "fields": {"f": {"library": "expx1"}},
        "heat": {"s": 1.0, "n": 200, "steps": 8, "seed": 1},
        "checks": [{"check": "time-space", "field": "f"},
                   {"check": "contractivity", "field": "f", "grid": [-300, 0]}]},
    "config contractivity of (pow x_1_1 2), fails at t = 368 of 33, n=4000": {
        "algebra": "heisenberg(1)", "fields": {"f": {"expr": "(pow x_1_1 2)"}},
        "heat": {"s": 1.0, "n": 4000, "steps": 8, "seed": 1},
        "checks": [{"check": "contractivity", "field": "f",
                    "grid": [i / 19 for i in range(20)] + list(range(368, 381))}]},
    "config alpha-sweep of 1e-200 exp(x_1_1), 33 t, n=4000": {
        "algebra": "heisenberg(1)", "fields": {"f": {"expr": "(* 1e-200 (exp x_1_1))"}},
        "heat": {"s": 1.0, "n": 4000, "steps": 8, "seed": 1},
        "checks": [{"check": "alpha-sweep", "field": "f", "q": 2.0, "c": 1.0,
                    "grid": [i / 32 for i in range(33)]}]},
}

# every field of the builtin LSH library on heisenberg(2)
H5_LIBRARY = ("const1", "expx1", "explin", "coshx1", "exppow", "expdil", "sqnorm-eps",
              "gauss-neg", "gauss-neg2")
LSH_BLOCKS_ENTRY = "config heisenberg(2) lsh of the library, grid_n=80000 (2.4 blocks)"
LSH_BLOCKS_CONFIG = {
    "algebra": "heisenberg(2)", "fields": {name: {"library": name} for name in H5_LIBRARY},
    "checks": [{"check": "lsh", "field": name, "grid_n": 80_000} for name in H5_LIBRARY]}

# Writes the points file of the lsh entry: argv is the path and the keywords
# of heat.sample as JSON.
POINTS_WRITER = """
import json, sys
from carnot import algebra, heat
kw = json.loads(sys.argv[2])
heat.sample(algebra.builtin("heisenberg(1)"), **kw).save_csv(sys.argv[1])
"""

# Runs in a checkout's process: reads the jobs from stdin, prints one JSON
# line {"entry", "exit", "text"} per job.
RUNNER = """
import json, os, sys
from carnot import algebra, calculus, cli, heat, lsh
where = os.path.dirname(os.path.abspath(cli.__file__))
if where != os.path.join(sys.argv[1], "carnot"):
    raise SystemExit(f"imported carnot from {where}, not from {sys.argv[1]}")
for job in json.load(sys.stdin):
    if "jets" in job:
        alg = algebra.builtin(job["jets"])
        pts = lsh.grid_points(alg, job["n"])
        for entry in lsh.builtin_lsh_library(alg):
            jets, n = calculus.horizontal_jets(entry.field, alg, pts), len(pts)
            sums = {"grad_sq": calculus.frame_sum((j.d1 * j.d1 for j in jets), n),
                    "lap": calculus.frame_sum((j.d2 for j in jets), n),
                    "grad_log_sq": calculus.frame_sum(
                        (r * r for r in (j.log().d1 for j in jets)), n),
                    "euler": calculus.euler_derivative_batch(entry.field, alg, pts)}
            text = json.dumps({k: v.tolist() for k, v in sums.items()})
            print(json.dumps({"entry": f"{job['entry']} @{entry.name}", "exit": 0,
                              "text": text}), flush=True)
        continue
    if "render" in job:
        texts = {name: {e.name: calculus.to_expr(e.field)
                        for e in lsh.builtin_lsh_library(algebra.builtin(name))}
                 for name in job["render"]}
        texts["parse_field"] = {expr: calculus.to_expr(calculus.parse_field(expr))
                                for expr in job["exprs"]}
        print(json.dumps({"entry": job["entry"], "exit": 0, "text": json.dumps(texts)}),
              flush=True)
        continue
    if "sample" in job or "refine" in job:
        kw = job.get("sample") or job["refine"]
        alg = algebra.builtin(kw.pop("algebra"))
        if "sample" in job:
            b = heat.sample(alg, **kw)
            arrays = {"samples": b.samples, "log_weights": b.log_weights}
        else:
            arrays = {f"k={k}": b.samples
                      for k, b in heat.coupled_refinement(alg, **kw).items()}
        text = json.dumps({k: v.tolist() for k, v in arrays.items() if v is not None})
        print(json.dumps({"entry": job["entry"], "exit": 0, "text": text}), flush=True)
        continue
    os.environ["CARNOT_THREADS"] = job["threads"]
    config = cli.preset(job["preset"]) if "preset" in job else job["config"]
    try:
        manifest = cli.run(config)
    except Exception as exc:
        print(json.dumps({"entry": job["entry"], "exit": 3,
                          "text": f"{type(exc).__name__}: {exc}"}), flush=True)
        continue
    print(json.dumps({"entry": job["entry"], "exit": manifest["exit_code"],
                      "text": cli.manifest_canonical_bytes(manifest).decode()}),
          flush=True)
"""


def run_jobs() -> list:
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    jobs = []
    for threads in THREADS:
        jobs += [{"entry": f"preset {name} threads={threads}", "preset": name,
                  "threads": threads} for name in PRESETS]
        jobs += [{"entry": f"workload {name} seed={seed} threads={threads}",
                  "config": workloads.config_for(name, seed), "threads": threads}
                 for name in workloads.WORKLOADS for seed in WORKLOAD_SEEDS]
    samples = [(name, None) for name in SAMPLE_ALGEBRAS] + [TILTED]
    jobs += [{"entry": f"heat.sample {name}" + (f" tilt={tilt}" if tilt else ""),
              "sample": {"algebra": name, "n_steps": 33, "tilt": tilt, **SAMPLE_KW}}
             for name, tilt in samples]
    jobs += [{"entry": f"heat.coupled_refinement {name} {REFINE_STEPS}",
              "refine": {"algebra": name, "steps_list": REFINE_STEPS, **SAMPLE_KW}}
             for name in REFINE_ALGEBRAS]
    jobs += [{"entry": f"jets {name} grid={JET_GRID_N}", "jets": name, "n": JET_GRID_N}
             for name in JET_ALGEBRAS]
    jobs.append({"entry": "calculus.to_expr of the library and the operator forms",
                 "render": SAMPLE_ALGEBRAS, "exprs": RENDER_EXPRS})
    jobs += [{"entry": entry, "config": config, "threads": "1"}
             for entry, config in EDGE_SWEEP_CONFIGS.items()]
    jobs.append({"entry": LSH_BLOCKS_ENTRY, "config": LSH_BLOCKS_CONFIG, "threads": "2"})
    return jobs


def cli_commands(points: str, h3xr: str) -> dict:
    commands = {f"carnot check {kind}": ["check", kind, *CLI_ARGS] for kind in CHECK_KINDS}
    commands["carnot check lsi --form L2"] = ["check", "lsi", "--form", "L2", *CLI_ARGS]
    commands["carnot sweep alpha"] = ["sweep", "alpha", *CLI_ARGS]
    commands["carnot sweep alpha --algebra engel --field @expdil --grid <33 t>"] = [
        "sweep", "alpha", "--algebra", "engel", "--field", "@expdil", *CLI_ARGS[4:],
        "--grid", GRID_33]
    commands["carnot check contractivity --tilt 0.5,-1.0 --grid <33 t>"] = [
        "check", "contractivity", *CLI_ARGS, "--tilt", "0.5,-1.0", "--grid", GRID_33]
    for kind in ("lsi", "chain"):
        commands[f"carnot check {kind} --field {SCALED_COSH}"] = [
            "check", kind, *CLI_ARGS[:2], "--field", SCALED_COSH, *CLI_ARGS[4:]]
    commands[f"carnot check lsi --form L2 --field {TINY_EXP}"] = [
        "check", "lsi", "--form", "L2", *CLI_ARGS[:2], "--field", TINY_EXP, *CLI_ARGS[4:]]
    for name, form in (("chain", []), ("lsi", []), ("lsi --form L2", ["--form", "L2"])):
        commands[f"carnot check {name} --algebra engel --field {ENGEL_SUM}"] = [
            "check", name.split()[0], *form, *ENGEL_ARGS]
    commands.update(FLOOR_COMMANDS)
    commands["carnot check time-space --algebra heisenberg(2) --field (exp (* 0.5 x_2_1))"] = [
        "check", "time-space", "--algebra", "heisenberg(2)", *CENTRE_ARGS]
    commands["carnot check time-space --algebra H3xR.json --field (+ x_1_1 x_2_1 8)"] = [
        "check", "time-space", "--algebra", h3xr, "--field", "(+ x_1_1 x_2_1 8)",
        *CENTRE_ARGS[2:]]
    commands["carnot check lsh --points FILE"] = ["check", "lsh", "--points", points,
                                                  *CLI_ARGS]
    return commands


def _env(checkout: str) -> tuple[str, dict]:
    src = os.path.join(os.path.abspath(checkout), "src")
    return src, {**os.environ, "PYTHONPATH": src, "CARNOT_THREADS": "1"}


def write_points(checkout: str, path: str) -> None:
    _, env = _env(checkout)
    subprocess.run([sys.executable, "-c", POINTS_WRITER, path, json.dumps(POINTS_SAMPLE)],
                   env=env, check=True)


def outputs(checkout: str, points: str, h3xr: str) -> dict:
    """entry -> (exit code, output text) for one checkout; ``points`` is the
    CSV of the lsh points-file entry and ``h3xr`` the H3 x R algebra file."""
    src, env = _env(checkout)
    proc = subprocess.run([sys.executable, "-c", RUNNER, src], env=env, text=True,
                          input=json.dumps(run_jobs()), capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"runs in {checkout} failed ({proc.returncode}):\n{proc.stderr}")
    out = {}
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        out[rec["entry"]] = rec["exit"], rec["text"]
    for entry, argv in cli_commands(points, h3xr).items():
        proc = subprocess.run([sys.executable, "-m", "carnot", *argv], env=env,
                              text=True, capture_output=True)
        out[entry] = proc.returncode, proc.stdout
    return out


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def leaf_diffs(a, b, path="$"):
    """Yields (path, relative difference or None) for each value that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in a and key in b:
                yield from leaf_diffs(a[key], b[key], f"{path}.{key}")
            else:
                yield f"{path}.{key}", None
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from leaf_diffs(x, y, f"{path}[{i}]")
    elif _number(a) and _number(b):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            scale = max(abs(a), abs(b))
            yield path, abs(a - b) / scale if math.isfinite(scale) else None
        elif type(a) is not type(b):  # 1 and 1.0 print differently
            yield path, 0.0
    elif a != b or type(a) is not type(b):
        yield path, None


def diff_summary(text_a: str, text_b: str) -> list:
    """[(path, number of values that differ, max relative difference or None)]."""
    try:
        a, b = json.loads(text_a), json.loads(text_b)
    except json.JSONDecodeError:
        return [("(not JSON)", 1, None)]
    groups: dict = {}
    for path, rel in leaf_diffs(a, b):
        key = re.sub(r"(\[\d+\])+$", "[*]", path)
        count, worst = groups.get(key, (0, 0.0))
        groups[key] = count + 1, None if rel is None or worst is None else max(worst, rel)
    return [(key, count, worst) for key, (count, worst) in groups.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--checkout", action="append",
                    help="checkout to run (give two to compare); default: this one")
    args = ap.parse_args(argv)
    checkouts = args.checkout or [ROOT]
    if len(checkouts) > 2:
        ap.error("give at most two checkouts")
    with tempfile.TemporaryDirectory() as tmp:
        points, h3xr = os.path.join(tmp, "points.csv"), os.path.join(tmp, "H3xR.json")
        write_points(checkouts[0], points)
        with open(h3xr, "w") as fh:
            json.dump(H3_X_R, fh)
        results = [outputs(c, points, h3xr) for c in checkouts]
    if len(results) == 1:
        for entry, (code, text) in results[0].items():
            print(f"{code}  {hashlib.sha256(text.encode()).hexdigest()}  {entry}")
        return 0
    first, second = results
    differ = 0
    for entry, (code_a, text_a) in first.items():
        code_b, text_b = second[entry]
        same = code_a == code_b and text_a == text_b
        differ += not same
        print(f"{'same' if same else 'DIFF'}  exit {code_a}/{code_b}  {entry}")
        if text_a != text_b:
            for path, count, worst in diff_summary(text_a, text_b):
                rel = "n/a" if worst is None else f"{worst:.2g}"
                print(f"    {path}: {count} differ, max relative {rel}")
    print(f"{differ} of {len(first)} entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
