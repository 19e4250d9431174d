"""Command line entry point and experiment orchestration.

Subcommands: ``algebra validate``, ``algebra htype``, ``sample``,
``check <kind>``, ``sweep alpha``, ``run <config>``, ``preset <name>``.

A run executes the checks of a JSON experiment config in declaration order
and emits a manifest embedding the fully resolved config, a config hash,
and one report per check (every estimate carries its standard error).
Re-running the same config and seed reproduces the manifest bit for bit,
modulo the separate "timings", "batches" and "environment" blocks; the
CARNOT_THREADS environment variable only changes how checks are scheduled,
never their values.

Exit codes: 0 all checks hold, 1 any violated, 2 any inconclusive,
3 structural/config error, a command-line usage error included.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import sys
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import __version__, algebra as algebra_mod, calculus, heat, inequalities, lsh
from .errors import CarnotError, ConfigError
from .reports import (MODE_EXPLORATORY, VERDICT_ERROR, VERDICT_HOLDS, VERDICT_INCONCLUSIVE,
                      VERDICT_VIOLATED, worst_verdict)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_STRUCTURAL = 3
# a run's exit code is that of its worst verdict
_EXIT_CODES = {VERDICT_HOLDS: EXIT_OK, VERDICT_VIOLATED: EXIT_VIOLATED,
               VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE, VERDICT_ERROR: EXIT_STRUCTURAL}


# -- check registry -------------------------------------------------------------


@dataclass
class _Context:
    """What every check of one run shares."""

    alg: object
    fields: dict
    batch: object
    extra: dict
    seed: int  # the config's heat seed, or 0; seeds the lsh grids
    points: dict  # file -> its points, for every lsh check that names one
    lsh_layers: set  # the layers that the fields of the lsh checks read
    lsh_grids: dict = dataclass_field(default_factory=dict)
    lock: threading.Lock = dataclass_field(default_factory=threading.Lock)

    def lsh_grid(self, n: int, radius: float):
        """The run's lsh grid of n points and its frame through ``lsh_layers``.

        Built on first use and then shared by every lsh check of the run
        with the same (n, radius), from any worker thread.
        """
        with self.lock:
            if (n, radius) not in self.lsh_grids:
                pts = lsh.grid_points(self.alg, n, radius, seed=self.seed)
                frame = calculus.frame_jets(self.alg, pts, self.lsh_layers)
                self.lsh_grids[n, radius] = pts, frame
            return self.lsh_grids[n, radius]


@dataclass
class _Kind:
    """One check kind.

    ``required`` and ``optional`` (key -> default) are the keys a check may
    give besides "check", and "field" when ``needs_field``. ``types`` maps a
    numeric key to the conversion its runner applies; validation only tries
    it, so the config keeps the value as given. Defaults are applied when the
    check runs, never written into the config. ``run(args, ctx)`` builds the
    report dict. It looks carnot functions up on their module at call time,
    so that tracing, which replaces module attributes, sees every call.
    ``validate(args, config)`` raises for converted keys that their types
    allow and the check does not, by the check's own rule where it has one;
    an integer key (lsh's ``grid_n``) has no type, and its rule is the check's.
    ``csv`` checks write their ``t,value,stderr`` curve to the output directory.
    """

    run: Callable
    required: tuple = ()
    optional: dict = dataclass_field(default_factory=dict)
    types: dict = dataclass_field(default_factory=dict)
    needs_batch: bool = True
    needs_field: bool = True
    csv: bool = False
    validate: Callable | None = None


def _floats(values) -> list:
    if isinstance(values, str):
        raise TypeError("a list of numbers, not a string")
    return [float(v) for v in values]


def _boolean(value) -> bool:
    """value itself when it is JSON true or false; any other value raises."""
    if not isinstance(value, bool):
        raise TypeError("not a boolean")
    return value


def _tj_or_float(t):
    return t if t == "tJ" else float(t)


def _run_shc(a, cx):
    t = inequalities.janson_time(a["p"], a["q"], a["c"]) if a["t"] == "tJ" else a["t"]
    return inequalities.check_shc(
        a["f"], cx.batch, a["p"], a["q"], t, a["c"], a["beta"],
        exploratory=a["exploratory"], lsh_status=a["lsh_status"]).as_dict()


def _run_lsh(a, cx):
    if a["points"] == "grid":
        pts, frame = cx.lsh_grid(a["grid_n"], a["radius"])
    else:
        pts, frame = cx.points[a["points"]], None
    verdict = lsh.check_lsh(a["f"], pts, tol=a["tol"], algebra=cx.alg, frame=frame)
    return {**verdict.as_dict(), "name": "lsh", "lsh_verdict": verdict.verdict,
            "verdict": VERDICT_HOLDS if verdict.is_lsh_consistent else VERDICT_VIOLATED}


def _run_tail(a, cx):
    tail = heat.empirical_tail_profile(cx.batch)
    return {**tail.as_dict(),
            "verdict": VERDICT_HOLDS if tail.passed else VERDICT_VIOLATED}


def _run_algebra_validate(a, cx):
    rep = algebra_mod.validate(cx.alg)
    return {**rep.as_dict(), "name": "algebra-validate",
            "verdict": VERDICT_HOLDS if rep.ok else VERDICT_VIOLATED}


def _names_extra_batch(a, config):
    if a["batch"] not in config["extra_batches"]:
        raise ConfigError("needs 'batch' naming an extra batch")


_C_BETA = {"c": float, "beta": float}

_CHECKS = {
    "lsi": _Kind(
        lambda a, cx: inequalities.check_lsi(
            a["f"], cx.batch, a["c"], a["beta"], form=a["form"]).as_dict(),
        required=("c",), optional={"beta": 0.0, "form": "L1"}, types=_C_BETA,
        validate=lambda a, _: inequalities.lsi_rules(a["c"], a["beta"], a["form"])),
    "slsi": _Kind(
        lambda a, cx: inequalities.check_slsi(
            a["f"], cx.batch, a["c"], a["beta"], lsh_status=a["lsh_status"]).as_dict(),
        required=("c",), optional={"beta": 0.0}, types=_C_BETA,
        validate=lambda a, _: inequalities.lsi_rules(a["c"], a["beta"])),
    "shc": _Kind(
        _run_shc, required=("p", "q", "c"),
        optional={"t": "tJ", "beta": 0.0, "exploratory": False},
        types={**_C_BETA, "p": float, "q": float, "t": _tj_or_float, "exploratory": _boolean},
        validate=lambda a, _: inequalities.shc_rules(
            a["p"], a["q"], None if a["t"] == "tJ" else a["t"], a["c"], a["beta"],
            a["exploratory"])),
    "time-space": _Kind(
        lambda a, cx: inequalities.check_time_space(a["f"], cx.batch).as_dict()),
    "chain": _Kind(
        lambda a, cx: inequalities.check_lsi_implies_slsi_chain(
            a["f"], cx.batch, lsh_status=a["lsh_status"]).as_dict()),
    "alpha-sweep": _Kind(
        lambda a, cx: inequalities.sweep_alpha(
            a["f"], cx.batch, a["c"], a["beta"], a["q"], ts=a["grid"],
            lsh_status=a["lsh_status"]).as_dict(),
        required=("q", "c"), optional={"beta": 0.0, "grid": None},
        types={**_C_BETA, "q": float, "grid": _floats}, csv=True,
        validate=lambda a, _: inequalities.sweep_rules(a["grid"], a["c"], a["beta"], a["q"])),
    "contractivity": _Kind(
        lambda a, cx: inequalities.check_l1_contractivity(
            a["f"], cx.batch, ts=a["grid"], lsh_status=a["lsh_status"]).as_dict(),
        optional={"grid": None}, types={"grid": _floats}, csv=True,
        validate=lambda a, _: inequalities.sweep_rules(a["grid"])),
    "inverse-symmetry": _Kind(
        lambda a, cx: heat.empirical_check_inverse_symmetry(cx.batch).as_dict(),
        needs_field=False),
    "scaling": _Kind(
        lambda a, cx: heat.empirical_check_scaling(
            cx.batch, a["lambda"], cx.extra[a["batch"]]).as_dict(),
        required=("lambda", "batch"), types={"lambda": float}, needs_field=False,
        validate=lambda a, config: (heat.scaling_rules(a["lambda"]),
                                    _names_extra_batch(a, config))),
    "tail": _Kind(_run_tail, needs_field=False),
    "algebra-validate": _Kind(_run_algebra_validate, needs_batch=False,
                              needs_field=False),
    "h-type": _Kind(
        lambda a, cx: {**algebra_mod.classify_h_type(cx.alg).as_dict(),
                       "name": "h-type", "verdict": VERDICT_HOLDS},
        needs_batch=False, needs_field=False),
    "lsh": _Kind(
        _run_lsh, optional={"points": "grid", "grid_n": 1000, "radius": 3.0, "tol": 1e-9},
        types={"radius": float, "tol": float}, needs_batch=False,
        validate=lambda a, _: lsh.lsh_rules(a["grid_n"], a["tol"], a["radius"])),
}


# -- config validation ----------------------------------------------------------

_TOP_KEYS = {"name", "algebra", "fields", "heat", "extra_batches", "checks",
             "exploratory", "output"}
_HEAT_KEYS = {"s", "n", "steps", "seed", "tilt"}
_FIELD_KEYS = {"expr", "params", "library"}
# check keys whose value names a kind, a field, an extra batch or a points file
_NAME_KEYS = ("check", "field", "batch", "points")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _reject_unknown(mapping: dict, allowed: set, where: str):
    unknown = set(_object(mapping, where)) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _converted(conv, value, where: str, key: str):
    try:
        out = conv(value)
    except (TypeError, ValueError, OverflowError):
        what = "true or false" if conv is _boolean else "numeric"
        raise ConfigError(f"{where}: {key!r} must be {what}, got {value!r}") from None
    numbers = out if isinstance(out, list) else [out]
    if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
        raise ConfigError(f"{where}: {key!r} must be finite, got {value!r}")
    return out


def _require_string(mapping: dict, key: str, where: str):
    if key in mapping and not isinstance(mapping[key], str):
        raise ConfigError(f"{where}: {key!r} must be a string, got {mapping[key]!r}")


def _by_rule(where: str, rule, *args):
    """rule(*args), a carnot rule; the error it raises is the config error of ``where``."""
    try:
        rule(*args)
    except CarnotError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _batch_config(bc: dict, where: str, keys: set) -> dict:
    """A batch's keys: s converted to a float, then all four by heat's own rule."""
    _reject_unknown(bc, keys, where)
    for key in ("s", "n", "seed"):
        if key not in bc:
            raise ConfigError(f"{where} needs {key!r}")
    s, steps = _converted(float, bc["s"], where, "s"), bc.get("steps", 512)
    _by_rule(where, heat.batch_rules, s, bc["n"], steps, bc["seed"])
    return {"s": s, "n": int(bc["n"]), "steps": int(steps), "seed": int(bc["seed"])}


def validate_config(config: dict) -> dict:
    """Strict validation; returns the config with defaults resolved."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(config, _TOP_KEYS, "config")
    if "algebra" not in config:
        raise ConfigError("config needs an 'algebra'")
    if "checks" not in config or not isinstance(config["checks"], list):
        raise ConfigError("config needs a 'checks' list")
    _require_string(config, "algebra", "config")

    out = {
        "name": config.get("name", "run"),
        "algebra": config["algebra"],
        "fields": {},
        "heat": None,
        "extra_batches": {},
        "checks": [],
        "exploratory": _converted(_boolean, config.get("exploratory", False), "config",
                                  "exploratory"),
        "output": config.get("output", {}),
    }
    _reject_unknown(out["output"] or {}, {"dir"}, "output")
    _require_string(out["output"] or {}, "dir", "output")
    for name, fd in _object(config.get("fields") or {}, "fields").items():
        _reject_unknown(fd, _FIELD_KEYS, f"fields.{name}")
        if ("expr" in fd) == ("library" in fd):
            raise ConfigError(f"fields.{name} needs exactly one of 'expr' or 'library'")
        for key in ("expr", "library"):
            _require_string(fd, key, f"fields.{name}")
        where = f"fields.{name}.params"
        for key, value in _object(fd.get("params") or {}, where).items():
            _converted(float, value, where, key)
        out["fields"][name] = dict(fd)
    if "heat" in config and config["heat"] is not None:
        out["heat"] = hc = _batch_config(config["heat"], "heat", _HEAT_KEYS)
        if config["heat"].get("tilt") is not None:
            hc["tilt"] = _converted(_floats, config["heat"]["tilt"], "heat", "tilt")
    for name, bc in _object(config.get("extra_batches") or {}, "extra_batches").items():
        out["extra_batches"][name] = _batch_config(bc, f"extra_batches.{name}",
                                                   _HEAT_KEYS - {"tilt"})

    for i, chk in enumerate(config["checks"]):
        if "check" not in _object(chk, f"checks[{i}]"):
            raise ConfigError(f"checks[{i}] needs a 'check' kind")
        for key in _NAME_KEYS:
            _require_string(chk, key, f"checks[{i}]")
        kind = _CHECKS.get(chk["check"])
        if kind is None:
            raise ConfigError(f"checks[{i}]: unknown check kind {chk['check']!r}")
        where = f"checks[{i}] ({chk['check']})"
        allowed = {*kind.required, *kind.optional} | ({"field"} if kind.needs_field else set())
        _reject_unknown({k: v for k, v in chk.items() if k != "check"}, allowed, where)
        for key in kind.required:
            if key not in chk:
                raise ConfigError(f"{where} needs {key!r}")
        for key, conv in kind.types.items():
            if key in chk:
                _converted(conv, chk[key], where, key)
        if kind.needs_batch and out["heat"] is None:
            raise ConfigError(f"{where} needs a 'heat' section")
        if kind.needs_field and chk.get("field") not in out["fields"]:
            raise ConfigError(f"{where} needs 'field' naming a config field")
        if kind.validate:
            _by_rule(where, kind.validate, _args(kind, chk), out)
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


def _args(kind: _Kind, chk: dict) -> dict:
    """A check's keys as its rules and runner read them: converted, defaults filled in."""
    return {**kind.optional,
            **{k: kind.types[k](v) if k in kind.types else v for k, v in chk.items()}}


def _run_one_check(chk, cx: _Context, force_exploratory):
    kind = _CHECKS[chk["check"]]
    args = _args(kind, chk)
    if kind.needs_field:
        args["f"], args["lsh_status"] = cx.fields[chk["field"]]
    # an overflow or NaN that decides a check raises a ParameterError naming
    # it, so numpy's own warnings on the way there are only noise
    with np.errstate(over="ignore", invalid="ignore"):
        rep = kind.run(args, cx)
    if force_exploratory:
        rep["mode"] = MODE_EXPLORATORY
    rep["check"] = chk["check"]
    return rep


def run(config: dict) -> dict:
    """Execute a validated config; returns the manifest dict."""
    config = validate_config(config)
    threads = os.environ.get("CARNOT_THREADS", "1")
    try:
        n_workers = max(1, int(threads))
    except ValueError:
        raise ConfigError(f"CARNOT_THREADS must be an integer, got {threads!r}") from None
    t_start = time.perf_counter()
    alg = algebra_mod.resolve(config["algebra"])
    hc = config["heat"]
    if hc is not None and hc.get("tilt") is not None:
        _by_rule("heat", heat.tilt_rules, hc["tilt"], alg.dim_v1)
    fields = {
        name: _resolve_field(alg, spec) for name, spec in config["fields"].items()
    }
    lsh_checks = [c for c in config["checks"] if c["check"] == "lsh"]
    # lsh points files are read before any sampling, so a bad one ends the run
    paths = dict.fromkeys(c.get("points", "grid") for c in lsh_checks)
    points = {path: heat.load_csv(path, alg) for path in paths if path != "grid"}
    timings, batches = {}, {}
    batch = None
    on_batch = [c for c in config["checks"] if _CHECKS[c["check"]].needs_batch]
    every_layer = range(1, alg.step + 1)
    if hc is not None and on_batch:
        # the layers the checks read: a field's own, every layer for a heat check
        layers = set().union(*(fields[c["field"]][0].layers if _CHECKS[c["check"]].needs_field
                               else every_layer for c in on_batch))
        t0 = time.perf_counter()
        batch = heat.sample(alg, hc["s"], hc["n"], hc["steps"], hc["seed"], tilt=hc.get("tilt"),
                            layers=layers)
        timings["sampling"] = time.perf_counter() - t0
        batches["heat"] = batch.summary
    extra = {}
    for name in dict.fromkeys(c["batch"] for c in config["checks"] if "batch" in c):
        bc = config["extra_batches"][name]
        t0 = time.perf_counter()
        # an extra batch serves the scaling check, which reads every layer
        extra[name] = heat.sample(alg, bc["s"], bc["n"], bc["steps"], bc["seed"],
                                  layers=every_layer)
        timings[f"sampling.{name}"] = time.perf_counter() - t0
        batches[f"extra_batches.{name}"] = extra[name].summary

    lsh_layers = set().union(*(fields[c["field"]][0].layers for c in lsh_checks))
    cx = _Context(alg, fields, batch, extra, hc["seed"] if hc else 0, points, lsh_layers)
    tasks = list(enumerate(config["checks"]))

    def job(item):
        idx, chk = item
        t0 = time.perf_counter()
        try:
            rep = _run_one_check(chk, cx, config["exploratory"])
        except CarnotError as exc:
            # a failing check must not take down the rest of the run
            rep = {"check": chk["check"], "name": chk["check"],
                   "verdict": VERDICT_ERROR, "error": str(exc)}
        return idx, rep, time.perf_counter() - t0

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

    verdicts = [rep.get("verdict", VERDICT_INCONCLUSIVE) for rep in results]
    counts = {v: verdicts.count(v) for v in _EXIT_CODES}
    timings["total"] = time.perf_counter() - t_start

    manifest = {
        "version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
        "reports": results,
        "verdict_counts": counts,
        "exit_code": _EXIT_CODES[worst_verdict(verdicts)],
        "timings": timings,
        "batches": batches,
        "environment": {**_ENVIRONMENT, "carnot_threads": n_workers},
    }
    _write_outputs(manifest, config)
    return manifest


# what made a run, built once per process: every batch draws normals alone,
# but numpy may change its normal streams between releases too (NEP 19), so a
# manifest names its numpy
_ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__,
                "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
                "cpu_count": os.cpu_count()}


def _json_text(obj) -> str:
    """Strict JSON (no NaN or Infinity tokens), keys sorted, indented."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


# the manifest's telemetry: how the run went, not what it found
_TELEMETRY = ("timings", "batches", "environment")


def manifest_canonical_bytes(manifest: dict) -> bytes:
    """Manifest serialization with the telemetry blocks stripped (wall-clock
    noise is the one legitimately irreproducible part)."""
    stripped = {k: v for k, v in manifest.items() if k not in _TELEMETRY}
    return _json_text(stripped).encode()


def _write_outputs(manifest: dict, config: dict):
    outdir = (config.get("output") or {}).get("dir")
    if not outdir:
        return
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        fh.write(_json_text(manifest))
    for i, rep in enumerate(manifest["reports"]):
        if _CHECKS[rep["check"]].csv and rep["verdict"] != VERDICT_ERROR:
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
    text = _json_text(obj)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _csv_floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


def _heat_config_from_args(args):
    hc = {"s": args.s, "n": args.n, "steps": args.steps, "seed": args.seed}
    if getattr(args, "tilt", None):
        hc["tilt"] = _csv_floats(args.tilt)
    return hc


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a config error (exit 3), not argparse's exit 2,
    which reads as "inconclusive"; subparsers inherit this class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
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

    # flags of the one-check commands, ``check`` and ``sweep alpha``
    one_check = argparse.ArgumentParser(add_help=False)
    one_check.add_argument("--algebra", required=True)
    one_check.add_argument("--field", required=True,
                           help="prefix expression or @library-name")
    one_check.add_argument("--param", action="append",
                           help="name=value for expression parameters")
    one_check.add_argument("--s", type=float, default=1.0)
    one_check.add_argument("--n", type=int, default=100_000)
    one_check.add_argument("--steps", type=int, default=512)
    one_check.add_argument("--seed", type=int, default=0)
    one_check.add_argument("--beta", type=float, default=0.0)
    one_check.add_argument("--grid", help="comma separated t grid")
    one_check.add_argument("--out")

    p_check = sub.add_parser("check", help="run one check", parents=[one_check])
    # alpha-sweep has its own subcommand, ``sweep alpha``
    p_check.add_argument("kind", choices=[k for k, kind in _CHECKS.items()
                                          if kind.needs_field and k != "alpha-sweep"])
    p_check.add_argument("--tilt")
    p_check.add_argument("--c", type=float, default=0.5)
    p_check.add_argument("--form", choices=["L1", "L2"], default="L1")
    p_check.add_argument("--p", type=float, default=1.0)
    p_check.add_argument("--q", type=float, default=4.0)
    p_check.add_argument("--t", default="tJ")
    p_check.add_argument("--exploratory", action="store_true")
    p_check.add_argument("--points", default="grid",
                         help="grid (default), or a CSV as carnot sample writes it")
    p_check.add_argument("--grid-n", type=int, default=1000)
    p_check.add_argument("--radius", type=float, default=3.0)
    p_check.add_argument("--tol", type=float, default=1e-9)

    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    p_alpha = sweep_sub.add_parser("alpha", help="alpha(t) monotonicity sweep",
                                   parents=[one_check])
    p_alpha.add_argument("--c", type=float, default=1.0)
    p_alpha.add_argument("--q", type=float, default=math.e)
    p_alpha.set_defaults(kind="alpha-sweep")

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
    _emit(v.as_dict(), args)
    return EXIT_OK


def _cmd_sample(args) -> int:
    alg = algebra_mod.resolve(args.algebra)
    tilt = _csv_floats(args.tilt) if args.tilt else None
    batch = heat.sample(alg, args.s, args.n, args.steps, args.seed, tilt=tilt)
    batch.save_csv(args.out)
    print(f"wrote {args.n} samples to {args.out}")
    return EXIT_OK


def _cmd_check(args) -> int:
    config = {
        "algebra": args.algebra,
        "fields": {"f": _field_from_args(args)},
        "heat": _heat_config_from_args(args),
        "checks": [],
    }
    chk = {"check": args.kind, "field": "f"}
    kind = _CHECKS[args.kind]
    for key in (*kind.required, *kind.optional):
        value = getattr(args, key)
        if key == "grid":
            if not value:
                continue
            value = _csv_floats(value)
        chk[key] = value
    manifest = run({**config, "checks": [chk]})
    _emit(manifest["reports"][0], args)
    return manifest["exit_code"]


def _run_and_print(config: dict, out_dir) -> int:
    if out_dir:
        config["output"] = {"dir": out_dir}
    manifest = run(config)
    print(_json_text(manifest))
    return manifest["exit_code"]


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    return _run_and_print(config, args.out_dir)


def _cmd_preset(args) -> int:
    config = preset(args.name)
    if args.write:
        with open(args.write, "w") as fh:
            fh.write(_json_text(config))
        print(f"wrote preset {args.name} to {args.write}")
        return EXIT_OK
    if args.run:
        return _run_and_print(config, args.out_dir)
    print(_json_text(config))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return {"algebra": _cmd_algebra, "sample": _cmd_sample, "check": _cmd_check,
                "sweep": _cmd_check, "run": _cmd_run, "preset": _cmd_preset}[args.command](args)
    except (CarnotError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except Exception as exc:  # a crash must not exit 1, which reads as "violated"
        msg = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
