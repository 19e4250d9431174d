"""One CLI-like session of a workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                [--package carnot|carnot_ref] [--spans PATH]

With ``--seconds 0`` it only times set-up (import, algebra, BCH table,
fields, config validation) of ``--package``: the program (``carnot``, from
the checkout's ``src``) or its frozen reference copy (``carnot_ref``, in this
directory). Otherwise it sets up both and calls ``cli.run`` of the workload's
config back to back, each call timed on its own, in pairs of one program run
and one reference run whose order alternates, until S seconds have passed and
at least ``MIN_RUNS`` runs are done. With ``--trace 1`` only the program runs,
every second run traced, and the spans of all traced runs are written to PATH
at the end.

Prints one JSON object: the set-up time, the program's peak RSS after its
first run and, per run, its package, wall time, verdicts, exit code, a digest
of ``cli.manifest_canonical_bytes`` and, when traced, its per-layer metrics.
``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``
and ``CARNOT_THREADS`` set to the workload's value.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WHERE = {"carnot": SRC, "carnot_ref": HERE}
MIN_RUNS = 6  # three of each kind (program and reference, or untraced and
# traced), so that two pairs remain after the warm-up pair


def setup(package: str, config: dict):
    """What every CLI call pays before sampling; returns the cli module."""
    pkg = importlib.import_module(package)
    algebra, calculus, cli, group, lsh = (importlib.import_module(f"{package}.{m}")
                                          for m in ("algebra", "calculus", "cli",
                                                    "group", "lsh"))
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if where != os.path.join(WHERE[package], package):
        raise SystemExit(f"imported {package} from {where}, not from {WHERE[package]}")
    alg = algebra.resolve(config["algebra"])
    group.bch_table(alg)
    for spec in config.get("fields", {}).values():
        if "library" in spec:
            lsh.library_field(alg, spec["library"])
        else:
            calculus.parse_field(spec["expr"], spec.get("params"))
    cli.validate_config(config)
    return cli


def install_tracer():
    """Wraps the program's public functions; returns the tracer."""
    import carnot
    from carnot import algebra, calculus, cli, group, heat, inequalities, lsh

    tracer = spans.Tracer()
    every = [carnot] + [m for k, m in sys.modules.items() if k.startswith("carnot.")]
    tracer.install([algebra, group, calculus, heat, lsh, inequalities, cli], every)
    return tracer


def verdict_of(rep: dict):
    """The check's verdict; a two-sample check violated by its energy
    statistic alone, with every moment z-score within threshold, is told
    apart as ENERGY_ONLY."""
    if (rep.get("verdict") == "violated" and "energy_z" in rep
            and all(abs(z) < rep["z_threshold"] for z in rep["moment_z"].values())):
        return workloads.ENERGY_ONLY
    return rep.get("verdict")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--package", choices=sorted(WHERE), default="carnot")
    ap.add_argument("--spans", help="file the traced runs write their spans to")
    args = ap.parse_args(argv)

    config = workloads.config_for(args.workload, args.seed)
    t0 = time.perf_counter()
    clis = {args.package: setup(args.package, config)}
    setup_s = time.perf_counter() - t0
    if args.seconds > 0 and not args.trace:
        clis["carnot_ref"] = setup("carnot_ref", config)

    runs, tracers, rss = [], [], None
    start = time.perf_counter()
    while args.seconds > 0 and (len(runs) < MIN_RUNS
                                or time.perf_counter() - start < args.seconds):
        pair, second = divmod(len(runs), 2)
        if args.trace:
            package, tracer = "carnot", install_tracer() if second else None
        else:
            package, tracer = ("carnot", "carnot_ref")[(pair + second) % 2], None
        cli = clis[package]
        t1 = time.perf_counter()
        manifest = cli.run(config)
        wall_s = time.perf_counter() - t1
        rss = rss or peak_rss_mb()  # the first run is the program's
        run = {
            "package": package,
            "wall_s": wall_s,
            "traced": tracer is not None,
            "verdicts": [verdict_of(rep) for rep in manifest["reports"]],
            "exit_code": manifest["exit_code"],
            "digest": hashlib.sha256(cli.manifest_canonical_bytes(manifest)).hexdigest(),
        }
        if tracer is not None:
            tracer.uninstall()
            tracers.append(tracer)
            run["layers"] = spans.layer_metrics(tracer.spans)
        runs.append(run)
    if tracers:
        stem = os.path.basename(args.spans).split(".")[0]
        with open(args.spans, "w") as fh:
            for i, tracer in enumerate(tracers):
                tracer.write(fh, run_id=f"{stem}-{i}")
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "heat_seeds": [config["heat"]["seed"]]
        + [b["seed"] for b in config.get("extra_batches", {}).values()],
        "runs": runs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
