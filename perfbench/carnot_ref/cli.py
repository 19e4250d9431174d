"""Command line entry point and experiment orchestration.

Subcommands: ``algebra validate``, ``algebra htype``, ``sample``,
``check <kind>``, ``sweep alpha``, ``run <config>``, ``preset <name>``.

A run executes the checks of a JSON experiment config in declaration order
and emits a manifest embedding the fully resolved config, a config hash,
and one report per check (every estimate carries its standard error).
Re-running the same config and seed reproduces the manifest bit for bit,
modulo the separate "timings" block; the CARNOT_THREADS environment
variable only changes how checks are scheduled, never their values.

Exit codes: 0 all checks hold, 1 any violated, 2 any inconclusive,
3 structural/config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import __version__, algebra as algebra_mod, calculus, heat, inequalities, lsh
from .errors import CarnotError, ConfigError
from .reports import (
    ABS_FLOOR,
    MODE_EXPLORATORY,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    Z_THRESHOLD,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_STRUCTURAL = 3

VERDICT_ERROR = "error"


# -- config validation ----------------------------------------------------------

_TOP_KEYS = {"name", "algebra", "fields", "heat", "extra_batches", "checks",
             "thresholds", "exploratory", "output"}
_HEAT_KEYS = {"s", "n", "steps", "seed", "tilt"}
_FIELD_KEYS = {"expr", "params", "library"}
_THRESHOLD_KEYS = {"z", "abs_floor"}
_CHECK_KEYS = {
    "lsi": {"field", "c", "beta", "form"},
    "slsi": {"field", "c", "beta"},
    "shc": {"field", "p", "q", "t", "c", "beta", "exploratory"},
    "time-space": {"field"},
    "chain": {"field"},
    "alpha-sweep": {"field", "q", "c", "beta", "grid"},
    "contractivity": {"field", "grid"},
    "inverse-symmetry": set(),
    "scaling": {"lambda", "batch"},
    "tail": set(),
    "algebra-validate": set(),
    "h-type": set(),
    "lsh": {"field", "points", "grid_n", "radius", "tol"},
}


def _reject_unknown(mapping: dict, allowed: set, where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def validate_config(config: dict) -> dict:
    """Strict validation; returns the config with defaults resolved."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(config, _TOP_KEYS, "config")
    if "algebra" not in config:
        raise ConfigError("config needs an 'algebra'")
    if "checks" not in config or not isinstance(config["checks"], list):
        raise ConfigError("config needs a 'checks' list")

    out = {
        "name": config.get("name", "run"),
        "algebra": config["algebra"],
        "fields": {},
        "heat": None,
        "extra_batches": {},
        "checks": [],
        "thresholds": {"z": Z_THRESHOLD, "abs_floor": ABS_FLOOR},
        "exploratory": bool(config.get("exploratory", False)),
        "output": config.get("output", {}),
    }
    if "thresholds" in config:
        _reject_unknown(config["thresholds"], _THRESHOLD_KEYS, "thresholds")
        out["thresholds"].update(config["thresholds"])
    for name, fd in (config.get("fields") or {}).items():
        _reject_unknown(fd, _FIELD_KEYS, f"fields.{name}")
        if ("expr" in fd) == ("library" in fd):
            raise ConfigError(f"fields.{name} needs exactly one of 'expr' or 'library'")
        out["fields"][name] = dict(fd)
    if "heat" in config and config["heat"] is not None:
        _reject_unknown(config["heat"], _HEAT_KEYS, "heat")
        hc = {"s": float(config["heat"]["s"]), "n": int(config["heat"]["n"]),
              "steps": int(config["heat"].get("steps", 512)),
              "seed": int(config["heat"]["seed"])}
        if config["heat"].get("tilt") is not None:
            hc["tilt"] = [float(v) for v in config["heat"]["tilt"]]
        out["heat"] = hc
    for name, bc in (config.get("extra_batches") or {}).items():
        _reject_unknown(bc, _HEAT_KEYS - {"tilt"}, f"extra_batches.{name}")
        out["extra_batches"][name] = {
            "s": float(bc["s"]), "n": int(bc["n"]),
            "steps": int(bc.get("steps", 512)), "seed": int(bc["seed"]),
        }

    needs_batch = {"lsi", "slsi", "shc", "time-space", "chain", "alpha-sweep",
                   "contractivity", "inverse-symmetry", "scaling", "tail"}
    for i, chk in enumerate(config["checks"]):
        if "check" not in chk:
            raise ConfigError(f"checks[{i}] needs a 'check' kind")
        kind = chk["check"]
        if kind not in _CHECK_KEYS:
            raise ConfigError(f"checks[{i}]: unknown check kind {kind!r}")
        _reject_unknown({k: v for k, v in chk.items() if k != "check"},
                        _CHECK_KEYS[kind], f"checks[{i}] ({kind})")
        if kind in needs_batch and out["heat"] is None:
            raise ConfigError(f"checks[{i}] ({kind}) needs a 'heat' section")
        if kind == "shc":
            p, q = float(chk["p"]), float(chk["q"])
            if not (0 < p <= q):
                raise ConfigError(f"checks[{i}]: need 0 < p <= q, got p={p}, q={q}")
        if kind == "scaling":
            if chk.get("batch") not in out["extra_batches"]:
                raise ConfigError(
                    f"checks[{i}]: scaling needs 'batch' naming an extra batch"
                )
        field_kinds = {"lsi", "slsi", "shc", "time-space", "chain",
                       "alpha-sweep", "contractivity", "lsh"}
        if kind in field_kinds and chk.get("field") not in out["fields"]:
            raise ConfigError(f"checks[{i}] ({kind}) needs 'field' naming a config field")
        out["checks"].append(dict(chk))
    return out


def _resolve_field(alg, spec: dict):
    """Returns (ScalarField, lsh_status or None)."""
    if "library" in spec:
        entry = lsh.library_field(alg, spec["library"])
        return entry.field, entry.status
    f = calculus.parse_field(spec["expr"], spec.get("params"))
    return f, None


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- runner ----------------------------------------------------------------------


def _run_one_check(chk, alg, fields, batch, extra, thresholds, force_exploratory):
    kind = chk["check"]
    z = thresholds["z"]
    floor = thresholds["abs_floor"]

    def field_of(entry):
        return fields[entry["field"]]

    if kind == "algebra-validate":
        rep = algebra_mod.validate(alg).as_dict()
        rep["name"] = "algebra-validate"
        rep["verdict"] = VERDICT_HOLDS if rep["ok"] else VERDICT_VIOLATED
    elif kind == "h-type":
        v = algebra_mod.classify_h_type(alg)
        rep = {"name": "h-type", "is_h_type": v.is_h_type,
               "max_residual": v.max_residual, "n_tested": v.n_tested,
               "verdict": VERDICT_HOLDS}
    elif kind == "lsh":
        f, _status = field_of(chk)
        pts = lsh.grid_points(alg, int(chk.get("grid_n", 1000)),
                              float(chk.get("radius", 3.0)),
                              seed=batch.seed if batch else 0)
        verdict = lsh.check_lsh(f, pts, tol=float(chk.get("tol", 1e-9)), algebra=alg)
        rep = verdict.as_dict()
        rep["name"] = "lsh"
        rep["verdict"] = (
            VERDICT_HOLDS if verdict.verdict == lsh.LSH_CONSISTENT else VERDICT_VIOLATED
        )
        rep["lsh_verdict"] = verdict.verdict
    elif kind == "inverse-symmetry":
        rep = heat.empirical_check_inverse_symmetry(batch, z_threshold=z).as_dict()
    elif kind == "scaling":
        rep = heat.empirical_check_scaling(
            batch, float(chk["lambda"]), extra[chk["batch"]], z_threshold=z
        ).as_dict()
    elif kind == "tail":
        tail = heat.empirical_tail_profile(batch)
        rep = tail.as_dict()
        rep["verdict"] = VERDICT_HOLDS if tail.passed else VERDICT_VIOLATED
    elif kind == "lsi":
        f, _status = field_of(chk)
        rep = inequalities.check_lsi(
            f, batch, float(chk["c"]), float(chk.get("beta", 0.0)),
            form=chk.get("form", "L1"), z_threshold=z, abs_floor=floor,
        ).as_dict()
    elif kind == "slsi":
        f, status = field_of(chk)
        rep = inequalities.check_slsi(
            f, batch, float(chk["c"]), float(chk.get("beta", 0.0)),
            lsh_status=status, z_threshold=z, abs_floor=floor,
        ).as_dict()
    elif kind == "time-space":
        f, _status = field_of(chk)
        rep = inequalities.check_time_space(
            f, batch, z_threshold=z, abs_floor=floor
        ).as_dict()
    elif kind == "chain":
        f, status = field_of(chk)
        rep = inequalities.check_lsi_implies_slsi_chain(
            f, batch, lsh_status=status, z_threshold=z, abs_floor=floor
        ).as_dict()
    elif kind == "shc":
        f, status = field_of(chk)
        p, q, c = float(chk["p"]), float(chk["q"]), float(chk["c"])
        t = chk.get("t", "tJ")
        t = inequalities.janson_time(p, q, c) if t == "tJ" else float(t)
        rep = inequalities.check_shc(
            f, batch, p, q, t, c, float(chk.get("beta", 0.0)),
            exploratory=bool(chk.get("exploratory", False)),
            lsh_status=status, z_threshold=z, abs_floor=floor,
        ).as_dict()
    elif kind == "alpha-sweep":
        f, status = field_of(chk)
        rep = inequalities.sweep_alpha(
            f, batch, float(chk["c"]), float(chk.get("beta", 0.0)),
            float(chk["q"]), ts=chk.get("grid"), lsh_status=status,
            z_threshold=z, abs_floor=floor,
        ).as_dict()
    elif kind == "contractivity":
        f, status = field_of(chk)
        rep = inequalities.check_l1_contractivity(
            f, batch, ts=chk.get("grid"), lsh_status=status,
            z_threshold=z, abs_floor=floor,
        ).as_dict()
    else:  # pragma: no cover - kinds validated upfront
        raise ConfigError(f"unhandled check kind {kind!r}")

    if force_exploratory:
        rep["mode"] = MODE_EXPLORATORY
    rep["check"] = kind
    return rep


def run(config: dict) -> dict:
    """Execute a validated config; returns the manifest dict."""
    config = validate_config(config)
    t_start = time.time()
    alg = algebra_mod.resolve(config["algebra"])
    fields = {
        name: _resolve_field(alg, spec) for name, spec in config["fields"].items()
    }
    timings = {}
    batch = None
    if config["heat"] is not None:
        t0 = time.time()
        hc = config["heat"]
        batch = heat.sample(alg, hc["s"], hc["n"], hc["steps"], hc["seed"],
                            tilt=hc.get("tilt"))
        timings["sampling"] = time.time() - t0
    extra = {}
    for name, bc in config["extra_batches"].items():
        extra[name] = heat.sample(alg, bc["s"], bc["n"], bc["steps"], bc["seed"])

    n_workers = max(1, int(os.environ.get("CARNOT_THREADS", "1")))
    tasks = list(enumerate(config["checks"]))

    def job(item):
        idx, chk = item
        t0 = time.time()
        try:
            rep = _run_one_check(chk, alg, fields, batch, extra,
                                 config["thresholds"], config["exploratory"])
        except CarnotError as exc:
            # a failing check must not take down the rest of the run
            rep = {"check": chk["check"], "name": chk["check"],
                   "verdict": VERDICT_ERROR, "error": str(exc)}
        return idx, rep, time.time() - t0

    results = [None] * len(tasks)
    if n_workers == 1 or len(tasks) <= 1:
        done = map(job, tasks)
    else:
        pool = ThreadPoolExecutor(max_workers=n_workers)
        done = pool.map(job, tasks)
    for idx, rep, dt in done:
        results[idx] = rep
        timings[f"check_{idx}"] = dt
    if n_workers > 1 and len(tasks) > 1:
        pool.shutdown()

    counts = {VERDICT_HOLDS: 0, VERDICT_VIOLATED: 0, VERDICT_INCONCLUSIVE: 0,
              VERDICT_ERROR: 0}
    for rep in results:
        counts[rep.get("verdict", VERDICT_INCONCLUSIVE)] += 1
    if counts[VERDICT_ERROR]:
        exit_code = EXIT_STRUCTURAL
    elif counts[VERDICT_VIOLATED]:
        exit_code = EXIT_VIOLATED
    elif counts[VERDICT_INCONCLUSIVE]:
        exit_code = EXIT_INCONCLUSIVE
    else:
        exit_code = EXIT_OK
    timings["total"] = time.time() - t_start

    manifest = {
        "version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
        "reports": results,
        "verdict_counts": counts,
        "exit_code": exit_code,
        "timings": timings,
    }
    _write_outputs(manifest, config)
    return manifest


def manifest_canonical_bytes(manifest: dict) -> bytes:
    """Manifest serialization with the timing block stripped (wall-clock
    noise is the one legitimately irreproducible part)."""
    stripped = {k: v for k, v in manifest.items() if k != "timings"}
    return json.dumps(stripped, sort_keys=True, indent=2).encode()


def _write_outputs(manifest: dict, config: dict):
    outdir = (config.get("output") or {}).get("dir")
    if not outdir:
        return
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2))
    for i, rep in enumerate(manifest["reports"]):
        if rep.get("check") in ("alpha-sweep", "contractivity"):
            path = os.path.join(outdir, f"{rep['check']}-{i}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "value", "stderr"])
                writer.writerows(zip(rep["ts"], rep["values"], rep["stderrs"]))


# -- presets ---------------------------------------------------------------------


def preset(name: str) -> dict:
    """Shipped experiment configurations."""
    e = math.e
    presets = {
        "gaussian-sharpness": {
            "name": "gaussian-sharpness",
            "algebra": "euclidean(1)",
            "fields": {"f": {"expr": "(exp (* 2 x_1_1))"}},
            "heat": {"s": 2.0, "n": 200_000, "steps": 8, "seed": 2024,
                     "tilt": [3.0]},
            "checks": [
                {"check": "shc", "field": "f", "p": 1, "q": 4, "t": "tJ",
                 "c": 0.5, "beta": 0.0},
            ],
        },
        "heisenberg-time-space": {
            "name": "heisenberg-time-space",
            "algebra": "heisenberg(1)",
            "fields": {
                "fsq": {"expr": "(pow x_1_1 2)"},
                "fexp": {"expr": "(exp x_1_1)"},
                "fmix": {"expr": "(+ (* x_1_1 x_1_2) x_2_1 8)"},
            },
            "heat": {"s": 1.0, "n": 100_000, "steps": 256, "seed": 11},
            "checks": [
                {"check": "time-space", "field": "fsq"},
                {"check": "time-space", "field": "fexp"},
                {"check": "time-space", "field": "fmix"},
            ],
        },
        "heisenberg-slsi-sweep": {
            "name": "heisenberg-slsi-sweep",
            "algebra": "heisenberg(1)",
            "fields": {"f": {"library": "expx1"}},
            "heat": {"s": 1.0, "n": 100_000, "steps": 256, "seed": 23},
            "checks": [
                {"check": "slsi", "field": "f", "c": 0.5, "beta": 0.0},
                {"check": "slsi", "field": "f", "c": 1.0, "beta": 0.0},
                {"check": "slsi", "field": "f", "c": 2.0, "beta": 0.0},
                {"check": "alpha-sweep", "field": "f", "q": e, "c": 1.0,
                 "beta": 0.0},
                {"check": "contractivity", "field": "f"},
            ],
        },
        "htype-classify": {
            "name": "htype-classify",
            "algebra": "heisenberg(2)",
            "checks": [
                {"check": "algebra-validate"},
                {"check": "h-type"},
            ],
        },
        "engel-exploratory": {
            "name": "engel-exploratory",
            "algebra": "engel",
            "exploratory": True,
            "fields": {"f": {"library": "expx1"}},
            "heat": {"s": 1.0, "n": 50_000, "steps": 256, "seed": 37},
            "checks": [
                {"check": "algebra-validate"},
                {"check": "slsi", "field": "f", "c": 1.0, "beta": 0.0},
                {"check": "alpha-sweep", "field": "f", "q": e, "c": 1.0,
                 "beta": 0.0},
                {"check": "contractivity", "field": "f"},
            ],
        },
        "heat-kernel-identities": {
            "name": "heat-kernel-identities",
            "algebra": "heisenberg(1)",
            "heat": {"s": 4.0, "n": 50_000, "steps": 256, "seed": 41},
            "extra_batches": {
                "quarter-time": {"s": 1.0, "n": 50_000, "steps": 256, "seed": 42},
            },
            "checks": [
                {"check": "inverse-symmetry"},
                {"check": "scaling", "lambda": 2.0, "batch": "quarter-time"},
                {"check": "tail"},
            ],
        },
    }
    if name not in presets:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(presets))}"
        )
    return presets[name]


# -- argparse front end ------------------------------------------------------------


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--param expects name=value, got {pair!r}")
        k, v = pair.split("=", 1)
        params[k] = float(v)
    return params


def _field_from_args(args):
    spec = args.field
    if spec.startswith("@"):
        return {"library": spec[1:]}
    return {"expr": spec, "params": _parse_params(getattr(args, "param", None))}


def _emit(obj, args) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _heat_config_from_args(args):
    hc = {"s": args.s, "n": args.n, "steps": args.steps, "seed": args.seed}
    if getattr(args, "tilt", None):
        hc["tilt"] = [float(v) for v in args.tilt.split(",")]
    return hc


def _exit_code_of(manifest: dict) -> int:
    return manifest["exit_code"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carnot",
        description="Stratified Lie group heat kernel toolkit and inequality checker",
    )
    ap.add_argument("--version", action="version", version=f"carnot {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="algebra validation and classification")
    alg_sub = p_alg.add_subparsers(dest="algebra_command", required=True)
    p_val = alg_sub.add_parser("validate", help="check the stratified axioms")
    p_val.add_argument("spec", help="builtin name or JSON definition file")
    p_val.add_argument("--out")
    p_ht = alg_sub.add_parser("htype", help="H-type classification (step 2)")
    p_ht.add_argument("spec")
    p_ht.add_argument("--out")

    p_sample = sub.add_parser("sample", help="draw a heat kernel sample batch")
    p_sample.add_argument("--algebra", required=True)
    p_sample.add_argument("--s", type=float, required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--steps", type=int, default=512)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--tilt", help="comma separated first-layer tilt vector")
    p_sample.add_argument("--out", required=True, help="CSV output path")

    p_check = sub.add_parser("check", help="run one check")
    p_check.add_argument(
        "kind",
        choices=["lsi", "slsi", "shc", "time-space", "chain", "contractivity", "lsh"],
    )
    p_check.add_argument("--algebra", required=True)
    p_check.add_argument("--field", required=True,
                         help="prefix expression or @library-name")
    p_check.add_argument("--param", action="append",
                         help="name=value for expression parameters")
    p_check.add_argument("--s", type=float, default=1.0)
    p_check.add_argument("--n", type=int, default=100_000)
    p_check.add_argument("--steps", type=int, default=512)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tilt")
    p_check.add_argument("--c", type=float, default=0.5)
    p_check.add_argument("--beta", type=float, default=0.0)
    p_check.add_argument("--form", choices=["L1", "L2"], default="L1")
    p_check.add_argument("--p", type=float, default=1.0)
    p_check.add_argument("--q", type=float, default=4.0)
    p_check.add_argument("--t", default="tJ")
    p_check.add_argument("--exploratory", action="store_true")
    p_check.add_argument("--grid", help="comma separated t grid")
    p_check.add_argument("--points", default="grid", help="grid (default)")
    p_check.add_argument("--grid-n", type=int, default=1000)
    p_check.add_argument("--radius", type=float, default=3.0)
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    p_alpha = sweep_sub.add_parser("alpha", help="alpha(t) monotonicity sweep")
    for flag, kw in [
        ("--algebra", {"required": True}), ("--field", {"required": True}),
        ("--param", {"action": "append"}),
        ("--s", {"type": float, "default": 1.0}),
        ("--n", {"type": int, "default": 100_000}),
        ("--steps", {"type": int, "default": 512}),
        ("--seed", {"type": int, "default": 0}),
        ("--c", {"type": float, "default": 1.0}),
        ("--beta", {"type": float, "default": 0.0}),
        ("--q", {"type": float, "default": math.e}),
        ("--grid", {}), ("--out", {}),
    ]:
        p_alpha.add_argument(flag, **kw)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to JSON config")
    p_run.add_argument("--out-dir", help="override output directory")

    p_preset = sub.add_parser("preset", help="show or run a shipped preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--write", help="write the config JSON to a file")
    p_preset.add_argument("--run", action="store_true", help="run it immediately")
    p_preset.add_argument("--out-dir")
    return ap


def _cmd_algebra(args) -> int:
    alg = algebra_mod.resolve(args.spec)
    if args.algebra_command == "validate":
        rep = algebra_mod.validate(alg)
        _emit(rep.as_dict(), args)
        return EXIT_OK if rep.ok else EXIT_VIOLATED
    v = algebra_mod.classify_h_type(alg)
    _emit({"is_h_type": v.is_h_type, "max_residual": v.max_residual,
           "n_tested": v.n_tested}, args)
    return EXIT_OK


def _cmd_sample(args) -> int:
    alg = algebra_mod.resolve(args.algebra)
    tilt = [float(v) for v in args.tilt.split(",")] if args.tilt else None
    batch = heat.sample(alg, args.s, args.n, args.steps, args.seed, tilt=tilt)
    batch.save_csv(args.out)
    print(f"wrote {args.n} samples to {args.out}")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.kind == "lsh" and args.points != "grid":
        # points from a saved batch file instead of the default grid
        alg = algebra_mod.resolve(args.algebra)
        f, _status = _resolve_field(alg, _field_from_args(args))
        pts = heat.load_csv(args.points)
        verdict = lsh.check_lsh(f, pts, tol=args.tol, algebra=alg)
        _emit(verdict.as_dict(), args)
        return EXIT_OK if verdict.verdict == lsh.LSH_CONSISTENT else EXIT_VIOLATED
    config = {
        "algebra": args.algebra,
        "fields": {"f": _field_from_args(args)},
        "heat": _heat_config_from_args(args),
        "checks": [],
    }
    chk = {"check": args.kind, "field": "f"}
    if args.kind == "lsi":
        chk.update(c=args.c, beta=args.beta, form=args.form)
    elif args.kind == "slsi":
        chk.update(c=args.c, beta=args.beta)
    elif args.kind == "shc":
        t = args.t if args.t == "tJ" else float(args.t)
        chk.update(p=args.p, q=args.q, t=t, c=args.c, beta=args.beta,
                   exploratory=args.exploratory)
    elif args.kind == "contractivity" and args.grid:
        chk["grid"] = [float(v) for v in args.grid.split(",")]
    elif args.kind == "lsh":
        chk.update(points=args.points, grid_n=args.grid_n, radius=args.radius,
                   tol=args.tol)
    manifest = run({**config, "checks": [chk]})
    _emit(manifest["reports"][0], args)
    return _exit_code_of(manifest)


def _cmd_sweep_alpha(args) -> int:
    config = {
        "algebra": args.algebra,
        "fields": {"f": _field_from_args(args)},
        "heat": _heat_config_from_args(args),
        "checks": [{
            "check": "alpha-sweep", "field": "f", "q": args.q, "c": args.c,
            "beta": args.beta,
            **({"grid": [float(v) for v in args.grid.split(",")]} if args.grid else {}),
        }],
    }
    manifest = run(config)
    _emit(manifest["reports"][0], args)
    return _exit_code_of(manifest)


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    if args.out_dir:
        config["output"] = {"dir": args.out_dir}
    manifest = run(config)
    print(json.dumps(manifest, sort_keys=True, indent=2))
    return _exit_code_of(manifest)


def _cmd_preset(args) -> int:
    config = preset(args.name)
    if args.write:
        with open(args.write, "w") as fh:
            fh.write(json.dumps(config, sort_keys=True, indent=2))
        print(f"wrote preset {args.name} to {args.write}")
        return EXIT_OK
    if args.run:
        if args.out_dir:
            config["output"] = {"dir": args.out_dir}
        manifest = run(config)
        print(json.dumps(manifest, sort_keys=True, indent=2))
        return _exit_code_of(manifest)
    print(json.dumps(config, sort_keys=True, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "algebra":
            return _cmd_algebra(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "sweep":
            return _cmd_sweep_alpha(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (CarnotError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
