"""Benchmark workloads: one experiment config per workload.

Each workload is a config for ``cli.run`` plus what the run must produce.
Three are the shipped presets ``heisenberg-time-space``,
``gaussian-sharpness`` and ``heat-kernel-identities``, written out here so
that the benchmark, not the program, fixes its inputs; ``engel-fields`` is
defined here. Each keeps its algebra, fields, checks and step counts, but
samples fewer paths than shipped (a hundredth to a fifth), so that a
benchmark run holds many runs of the config: from about five of
``identities``, whose two energy tests cost a second each at any ``n``, to
hundreds of ``gauss-rng``. The workload seed ``k`` is added to every
``heat`` and ``extra_batches`` seed, so ``k = 0`` keeps the shipped seeds.

``threads`` is the ``CARNOT_THREADS`` value the workload process runs with.
``reference`` holds the fastest ``cli.run`` and the median set-up time of the
frozen reference copy (``carnot_ref``) on a quiet 2-CPU Intel Xeon host with
Python 3.11.7 and numpy 2.4.6; ``run.py`` reports the program's times as its
ratio to the reference copy's, times these.
``verdicts`` lists the expected verdict of each check in declaration order,
or a tuple of the verdicts allowed, and ``exit_code`` the expected exit code
of the run, or a tuple of those allowed.
"""

from __future__ import annotations

import math

# Fields of the LSH library that get the full battery on engel.
LSH_FIELDS = ("expx1", "coshx1", "explin", "exppow", "expdil")
T_GRID = [i / 32 for i in range(33)]
# exp(x_1_1)^2.5: the top 0.1% of samples can carry more than 20% of the
# sLSI and time-space integrals (at n = 40k, 9 of seeds 1..40), which the
# program rightly reports as "inconclusive - heavy tail".
HEAVY = ("holds", "inconclusive")
# The energy z-score of a two-sample heat check (a 512-point subsample per
# side, 100 permutations) passes the threshold 4 by chance at about one seed
# in 75 per check (seeds 0..75 of identities: inverse-symmetry at 66, scaling
# at 36), with every moment z-score small. The gate accepts that outcome,
# told apart by worker.verdict_of, and no other violation.
ENERGY_ONLY = "violated (energy z only)"
ENERGY = ("holds", ENERGY_ONLY)


def _engel_fields_config() -> dict:
    fields = {name: {"library": name} for name in LSH_FIELDS}
    fields["gauss-neg"] = {"library": "gauss-neg"}
    fields["sqnorm-eps"] = {"library": "sqnorm-eps"}
    fields["upper"] = {"expr": "(+ (* x_1_1 x_2_1) x_3_1 (pow x_1_2 2))"}
    checks = []
    for name in LSH_FIELDS:
        checks += [
            {"check": "slsi", "field": name, "c": 0.5, "beta": 0.0},
            {"check": "slsi", "field": name, "c": 1.0, "beta": 0.0},
            {"check": "time-space", "field": name},
            {"check": "alpha-sweep", "field": name, "q": math.e, "c": 1.0,
             "beta": 0.0, "grid": T_GRID},
            {"check": "contractivity", "field": name, "grid": T_GRID},
            {"check": "lsh", "field": name, "grid_n": 100_000},
        ]
    checks += [
        {"check": "lsh", "field": "gauss-neg", "grid_n": 100_000},
        {"check": "lsh", "field": "sqnorm-eps", "grid_n": 100_000},
        {"check": "time-space", "field": "upper"},
    ]
    return {
        "name": "engel-fields",
        "algebra": "engel",
        "exploratory": True,
        "fields": fields,
        "heat": {"s": 1.0, "n": 4_000, "steps": 128, "seed": 53},
        "checks": checks,
    }


WORKLOADS = {
    "h3-walk": {
        "config": lambda: {
            "name": "heisenberg-time-space",
            "algebra": "heisenberg(1)",
            "fields": {"fsq": {"expr": "(pow x_1_1 2)"},
                       "fexp": {"expr": "(exp x_1_1)"},
                       "fmix": {"expr": "(+ (* x_1_1 x_1_2) x_2_1 8)"}},
            "heat": {"s": 1.0, "n": 10_000, "steps": 256, "seed": 11},
            "checks": [{"check": "time-space", "field": "fsq"},
                       {"check": "time-space", "field": "fexp"},
                       {"check": "time-space", "field": "fmix"}],
        },
        "threads": 1,
        "verdicts": ["holds"] * 3,
        "exit_code": 0,
        "reference": {"wall_s": 0.287, "setup_s": 0.14},
    },
    "gauss-rng": {
        "config": lambda: {
            "name": "gaussian-sharpness",
            "algebra": "euclidean(1)",
            "fields": {"f": {"expr": "(exp (* 2 x_1_1))"}},
            "heat": {"s": 2.0, "n": 2_000, "steps": 8, "seed": 2024, "tilt": [3.0]},
            "checks": [{"check": "shc", "field": "f", "p": 1, "q": 4, "t": "tJ",
                        "c": 0.5, "beta": 0.0}],
        },
        "threads": 1,
        "verdicts": ["holds"],
        "exit_code": 0,
        "reference": {"wall_s": 0.0122, "setup_s": 0.14},
    },
    "identities": {
        # the tail check needs at least 1e4 samples
        "config": lambda: {
            "name": "heat-kernel-identities",
            "algebra": "heisenberg(1)",
            "heat": {"s": 4.0, "n": 10_000, "steps": 256, "seed": 41},
            "extra_batches": {"quarter-time": {"s": 1.0, "n": 10_000, "steps": 256,
                                               "seed": 42}},
            "checks": [{"check": "inverse-symmetry"},
                       {"check": "scaling", "lambda": 2.0, "batch": "quarter-time"},
                       {"check": "tail"}],
        },
        "threads": 1,
        "verdicts": [ENERGY, ENERGY, "holds"],
        "exit_code": (0, 1),
        "reference": {"wall_s": 1.84, "setup_s": 0.14},
    },
    "engel-fields": {
        "config": _engel_fields_config,
        "threads": 2,
        "verdicts": ["holds"] * 18 + [HEAVY, HEAVY, HEAVY] + ["holds"] * 9
        + ["violated", "holds", "holds"],
        "exit_code": 1,
        "reference": {"wall_s": 0.423, "setup_s": 0.14},
    },
}


def config_for(name: str, seed: int) -> dict:
    """The workload's config with its sampling seeds shifted by ``seed``."""
    config = WORKLOADS[name]["config"]()
    for batch in [config["heat"], *config.get("extra_batches", {}).values()]:
        batch["seed"] += seed
    return config
