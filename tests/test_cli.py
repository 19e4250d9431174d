import copy
import gc
import json
import math
import os
import platform
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from carnot import algebra, calculus, cli, group, heat, inequalities, lsh
from carnot.errors import CarnotError, ConfigError, ParameterError


def small_time_space_config(**overrides):
    config = {
        "algebra": "heisenberg(1)",
        "fields": {"f": {"expr": "(pow x_1_1 2)"}},
        "heat": {"s": 1.0, "n": 20_000, "steps": 64, "seed": 5},
        "checks": [{"check": "time-space", "field": "f"}],
    }
    config.update(overrides)
    return config


def drawn_batch(manifest):
    """The main batch of a run, drawn again for readers of the layers its
    manifest's kind holds: the first alone, or all."""
    hc, kind = manifest["config"]["heat"], manifest["batches"]["heat"]["kind"]
    alg = algebra.resolve(manifest["config"]["algebra"])
    layers = {1} if kind == "exact-first-layer" else range(1, alg.step + 1)
    batch = heat.sample(alg, hc["s"], hc["n"], hc["steps"], hc["seed"], tilt=hc.get("tilt"),
                        layers=layers)
    assert batch.kind == kind
    return batch


# -- config validation -------------------------------------------------------------


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        cli.validate_config(small_time_space_config(extra=1))
    bad = small_time_space_config()
    bad["heat"]["temperature"] = 300
    with pytest.raises(ConfigError, match="unknown key"):
        cli.validate_config(bad)
    bad = small_time_space_config()
    bad["checks"][0]["q"] = 2
    with pytest.raises(ConfigError, match="unknown key"):
        cli.validate_config(bad)


def test_p_greater_than_q_rejected_before_sampling():
    config = small_time_space_config(
        checks=[{"check": "shc", "field": "f", "p": 4, "q": 1, "t": "tJ",
                 "c": 0.5}],
    )
    with pytest.raises(ConfigError, match="p <= q"):
        cli.validate_config(config)


def test_missing_references_rejected():
    with pytest.raises(ConfigError, match="field"):
        cli.validate_config(small_time_space_config(
            checks=[{"check": "time-space", "field": "ghost"}]))
    with pytest.raises(ConfigError, match="heat"):
        cli.validate_config({
            "algebra": "euclidean(1)",
            "checks": [{"check": "tail"}],
        })
    with pytest.raises(ConfigError, match="batch"):
        cli.validate_config(small_time_space_config(
            checks=[{"check": "scaling", "lambda": 2.0, "batch": "nope"}]))
    with pytest.raises(ConfigError, match="unknown check"):
        cli.validate_config(small_time_space_config(
            checks=[{"check": "teleport"}]))


BAD_CONFIGS = {
    "slsi-without-c": ({"checks": [{"check": "slsi", "field": "f"}]},
                       ["checks[0]", "slsi", "'c'"]),
    "shc-without-p": ({"checks": [{"check": "shc", "field": "f", "q": 4, "c": 0.5}]},
                      ["checks[0]", "shc", "'p'"]),
    "scaling-without-lambda": ({"extra_batches": {"b": {"s": 0.25, "n": 100, "seed": 1}},
                                "checks": [{"check": "scaling", "batch": "b"}]},
                               ["checks[0]", "scaling", "'lambda'"]),
    "heat-without-s": ({"heat": {"n": 100, "seed": 1}}, ["heat", "'s'"]),
    "non-numeric-c": ({"checks": [{"check": "time-space", "field": "f"},
                                  {"check": "slsi", "field": "f", "c": "abc"}]},
                      ["checks[1]", "slsi", "'c'", "abc"]),
    "string-grid": ({"checks": [{"check": "contractivity", "field": "f", "grid": "19"}]},
                    ["checks[0]", "contractivity", "'grid'"]),
    "thresholds": ({"thresholds": {"z": 4.0, "abs_floor": 1e-9}},
                   ["unknown key(s) ['thresholds']"]),
    "nan-c": ({"checks": [{"check": "slsi", "field": "f", "c": "nan"}]},
              ["checks[0]", "slsi", "'c'", "finite"]),
    "inf-q": ({"checks": [{"check": "alpha-sweep", "field": "f", "q": "inf", "c": 1.0}]},
              ["checks[0]", "alpha-sweep", "'q'", "finite"]),
    "nan-grid-entry": ({"checks": [{"check": "contractivity", "field": "f",
                                    "grid": [0.5, math.nan]}]},
                       ["checks[0]", "contractivity", "'grid'", "finite"]),
    "inf-heat-s": ({"heat": {"s": math.inf, "n": 100, "seed": 1}},
                   ["heat", "'s'", "finite"]),
    "inf-heat-n": ({"heat": {"s": 1.0, "n": math.inf, "seed": 1}}, ["heat", "'n'"]),
    "fractional-n": ({"heat": {"s": 1.0, "n": 200.7, "seed": 1}},
                     ["heat", "'n'", "integer", "200.7"]),
    "fractional-steps": ({"heat": {"s": 1.0, "n": 100, "steps": 8.9, "seed": 1}},
                         ["heat", "'steps'", "integer", "8.9"]),
    "string-n": ({"extra_batches": {"b": {"s": 0.25, "n": "300", "seed": 1}},
                  "checks": [{"check": "scaling", "lambda": 2.0, "batch": "b"}]},
                 ["extra_batches.b", "'n'", "integer", "'300'"]),
    "bool-steps": ({"extra_batches": {"b": {"s": 0.25, "n": 100, "steps": True, "seed": 1}},
                    "checks": [{"check": "scaling", "lambda": 2.0, "batch": "b"}]},
                   ["extra_batches.b", "'steps'", "integer", "True"]),
    "fractional-grid-n": ({"checks": [{"check": "lsh", "field": "f", "grid_n": 100.7}]},
                          ["checks[0]", "lsh", "'grid_n'", "integer", "100.7"]),
    "negative-seed": ({"heat": {"s": 1.0, "n": 100, "seed": -1}},
                      ["heat", "'seed'", "[0, 2^64)", "-1"]),
    "huge-seed": ({"heat": {"s": 1.0, "n": 100, "seed": 2 ** 64}},
                  ["heat", "'seed'", "[0, 2^64)", str(2 ** 64)]),
    "bool-seed": ({"heat": {"s": 1.0, "n": 100, "seed": True}},
                  ["heat", "'seed'", "[0, 2^64)", "True"]),
    "fractional-extra-seed": ({"extra_batches": {"b": {"s": 0.25, "n": 100, "seed": 1.5}},
                               "checks": [{"check": "scaling", "lambda": 2.0, "batch": "b"}]},
                              ["extra_batches.b", "'seed'", "[0, 2^64)", "1.5"]),
    "nan-extra-s": ({"extra_batches": {"b": {"s": "nan", "n": 100, "seed": 1}},
                     "checks": [{"check": "scaling", "lambda": 2.0, "batch": "b"}]},
                    ["extra_batches.b", "'s'", "finite"]),
    "inf-tilt-entry": ({"heat": {"s": 1.0, "n": 100, "seed": 1, "tilt": [0.0, "-inf"]}},
                       ["heat", "'tilt'", "finite"]),
    "overflow-param": ({"fields": {"f": {"expr": "(* a x_1_1)", "params": {"a": 1e999}}}},
                       ["fields.f.params", "'a'", "finite"]),
    "string-param": ({"fields": {"f": {"expr": "(* a x_1_1)", "params": {"a": "abc"}}}},
                     ["fields.f.params", "'a'", "numeric"]),
    "int-check": ({"checks": [5]}, ["checks[0] must be an object"]),
    "list-heat": ({"heat": [1.0, 100]}, ["heat must be an object"]),
    "string-field": ({"fields": {"f": "(pow x_1_1 2)"}}, ["fields.f must be an object"]),
    "int-extra-batch": ({"extra_batches": {"b": 3}}, ["extra_batches.b must be an object"]),
    "string-output": ({"output": "out"}, ["output must be an object"]),
    "list-check": ({"checks": [{"check": []}]}, ["checks[0]", "'check' must be a string"]),
    "list-field": ({"checks": [{"check": "time-space", "field": []}]},
                   ["checks[0]", "'field' must be a string"]),
    "list-batch": ({"extra_batches": {"b": {"s": 0.25, "n": 100, "seed": 1}},
                    "checks": [{"check": "scaling", "lambda": 2.0, "batch": []}]},
                   ["checks[0]", "'batch' must be a string"]),
    "zero-lambda": ({"extra_batches": {"b": {"s": 0.25, "n": 100, "seed": 1}},
                     "checks": [{"check": "scaling", "lambda": 0, "batch": "b"}]},
                    ["checks[0]", "scaling", "'lambda'", "> 0"]),
    "negative-lambda": ({"extra_batches": {"b": {"s": 0.25, "n": 100, "seed": 1}},
                         "checks": [{"check": "scaling", "lambda": -2.0, "batch": "b"}]},
                        ["checks[0]", "scaling", "'lambda'", "> 0"]),
    "zero-grid-n": ({"checks": [{"check": "lsh", "field": "f", "grid_n": 0}]},
                    ["checks[0] (lsh): the lsh check needs at least one point ('grid_n'), "
                     "got 0"]),
    "negative-radius": ({"checks": [{"check": "time-space", "field": "f"},
                                    {"check": "lsh", "field": "f", "radius": -1}]},
                        ["checks[1] (lsh): 'radius' must be > 0, got -1.0"]),
    "zero-sweep-c": ({"checks": [{"check": "alpha-sweep", "field": "f", "q": 2, "c": 0}]},
                     ["checks[0]", "alpha-sweep", "'c'", "> 0"]),
    "lsh-points-file": ({"checks": [{"check": "lsh", "field": "f", "points": "no-such.csv"}]},
                        ["No such file", "no-such.csv"]),
    "list-points": ({"checks": [{"check": "lsh", "field": "f", "points": ["grid"]}]},
                    ["checks[0]", "'points' must be a string"]),
    "negative-lsh-tol": ({"checks": [{"check": "time-space", "field": "f"},
                                     {"check": "lsh", "field": "f", "tol": -5}]},
                         ["checks[1] (lsh): 'tol' must be >= 0, got -5.0"]),
    # a batch's rules, heat's own, enforced before the main batch is drawn
    "zero-heat-s": ({"heat": {"s": 0, "n": 100, "seed": 1}}, ["heat: 's' must be > 0, got 0.0"]),
    "zero-heat-n": ({"heat": {"s": 1.0, "n": 0, "seed": 1}}, ["heat: 'n' must be >= 1, got 0"]),
    "negative-extra-s": ({"extra_batches": {"b": {"s": -1, "n": 100, "seed": 1}},
                          "checks": [{"check": "scaling", "lambda": 2.0, "batch": "b"}]},
                         ["extra_batches.b: 's' must be > 0, got -1.0"]),
    "zero-extra-steps": ({"extra_batches": {"b": {"s": 0.25, "n": 100, "steps": 0, "seed": 1}},
                          "checks": [{"check": "scaling", "lambda": 2.0, "batch": "b"}]},
                         ["extra_batches.b: 'steps' must be >= 1, got 0"]),
    "short-tilt": ({"heat": {"s": 1.0, "n": 100, "seed": 1, "tilt": [1.0]}},
                   ["heat: tilt must have shape (2,), got (1,)"]),
    "empty-grid": ({"checks": [{"check": "contractivity", "field": "f", "grid": []}]},
                   ["checks[0]", "contractivity", "'grid'", "at least two"]),
    "one-point-grid": ({"checks": [{"check": "alpha-sweep", "field": "f", "q": 2, "c": 1.0,
                                    "grid": [0.3]}]},
                       ["checks[0]", "alpha-sweep", "'grid'", "at least two"]),
    # rules on a check's values, enforced before sampling as well as by its runner
    "negative-lsi-c": ({"checks": [{"check": "lsi", "field": "f", "c": -0.5}]},
                       ["checks[0]", "lsi", "'c'", ">= 0", "-0.5"]),
    "negative-lsi-beta": ({"checks": [{"check": "lsi", "field": "f", "c": 0.5, "beta": -1}]},
                          ["checks[0]", "lsi", "'beta'", ">= 0", "-1"]),
    "negative-slsi-c": ({"checks": [{"check": "slsi", "field": "f", "c": -1.0}]},
                        ["checks[0]", "slsi", "'c'", ">= 0"]),
    "negative-slsi-beta": ({"checks": [{"check": "slsi", "field": "f", "c": 0.5,
                                        "beta": -0.1}]},
                           ["checks[0]", "slsi", "'beta'", ">= 0", "-0.1"]),
    "negative-shc-c": ({"checks": [{"check": "shc", "field": "f", "p": 1, "q": 2, "c": -0.5}]},
                       ["checks[0]", "shc", "'c'", ">= 0"]),
    "negative-shc-beta": ({"checks": [{"check": "shc", "field": "f", "p": 1, "q": 2,
                                       "c": 0.5, "beta": -2}]},
                          ["checks[0]", "shc", "'beta'", ">= 0"]),
    "shc-p-above-q": ({"checks": [{"check": "shc", "field": "f", "p": 4, "q": 1, "c": 0.5}]},
                      ["checks[0]", "shc", "0 < p <= q", "p=4.0"]),
    "shc-below-janson-time": ({"checks": [{"check": "shc", "field": "f", "p": 1, "q": 4,
                                           "c": 0.5, "t": 0.1}]},
                              ["checks[0]", "shc", "Janson", "t_J"]),
    "lsi-form-l3": ({"checks": [{"check": "lsi", "field": "f", "c": 0.5, "form": "L3"}]},
                    ["checks[0]", "lsi", "'form'", "'L1' or 'L2'", "'L3'"]),
    "int-lsi-form": ({"checks": [{"check": "lsi", "field": "f", "c": 0.5, "form": 5}]},
                     ["checks[0]", "lsi", "'form'", "'L1' or 'L2'", "5"]),
    "sweep-q-below-1": ({"checks": [{"check": "alpha-sweep", "field": "f", "q": 0.5,
                                     "c": 1.0}]},
                        ["checks[0]", "alpha-sweep", "'q'", ">= 1", "0.5"]),
    "negative-sweep-beta": ({"checks": [{"check": "alpha-sweep", "field": "f", "q": 2,
                                         "c": 1.0, "beta": -1}]},
                            ["checks[0]", "alpha-sweep", "'beta'", ">= 0"]),
    # JSON type swaps: a boolean key is true or false, never numeric
    "string-exploratory": ({"exploratory": "false"},
                           ["config", "'exploratory'", "true or false", "'false'"]),
    "string-shc-exploratory": ({"checks": [{"check": "shc", "field": "f", "p": 1, "q": 2,
                                            "c": 0.5, "t": 0.01, "exploratory": "false"}]},
                               ["checks[0]", "shc", "'exploratory'", "true or false"]),
    "int-algebra": ({"algebra": 5}, ["config", "'algebra'", "must be a string", "5"]),
    "int-expr": ({"fields": {"f": {"expr": 5}}}, ["fields.f", "'expr'", "must be a string"]),
    "int-library": ({"fields": {"f": {"library": 5}}},
                    ["fields.f", "'library'", "must be a string"]),
    "int-output-dir": ({"output": {"dir": 5}}, ["output", "'dir'", "must be a string"]),
    "unknown-output-key": ({"output": {"dri": "out"}}, ["unknown key", "'dri'", "output"]),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_check_keys_exit_3_before_sampling(case, tmp_path, monkeypatch, capsys):
    overrides, words = BAD_CONFIGS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(small_time_space_config(**overrides)))

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli.heat, "sample", no_sampling)
    assert cli.main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for word in words:
        assert word in err


# each rule case of BAD_CONFIGS as a direct call of its check, sampler or
# grid, (f, batch) -> call
DIRECT_CALLS = {
    "negative-lsi-c": lambda f, b: inequalities.check_lsi(f, b, -0.5, 0.0),
    "negative-lsi-beta": lambda f, b: inequalities.check_lsi(f, b, 0.5, -1.0),
    "negative-slsi-c": lambda f, b: inequalities.check_slsi(f, b, -1.0, 0.0),
    "negative-slsi-beta": lambda f, b: inequalities.check_slsi(f, b, 0.5, -0.1),
    "negative-shc-c": lambda f, b: inequalities.check_shc(f, b, 1.0, 2.0, 1.0, -0.5, 0.0),
    "negative-shc-beta": lambda f, b: inequalities.check_shc(f, b, 1.0, 2.0, 1.0, 0.5, -2.0),
    "lsi-form-l3": lambda f, b: inequalities.check_lsi(f, b, 0.5, 0.0, form="L3"),
    "int-lsi-form": lambda f, b: inequalities.check_lsi(f, b, 0.5, 0.0, form=5),
    "shc-p-above-q": lambda f, b: inequalities.check_shc(f, b, 4.0, 1.0, 1.0, 0.5, 0.0),
    "sweep-q-below-1": lambda f, b: inequalities.sweep_alpha(f, b, 1.0, 0.0, 0.5),
    "negative-sweep-beta": lambda f, b: inequalities.sweep_alpha(f, b, 1.0, -1.0, 2.0),
    "zero-sweep-c": lambda f, b: inequalities.sweep_alpha(f, b, 0.0, 0.0, 2.0),
    "empty-grid": lambda f, b: inequalities.check_l1_contractivity(f, b, ts=[]),
    "one-point-grid": lambda f, b: inequalities.sweep_alpha(f, b, 1.0, 0.0, 2.0, ts=[0.3]),
    "shc-below-janson-time": lambda f, b: inequalities.check_shc(f, b, 1.0, 4.0, 0.1, 0.5, 0.0),
    "zero-lambda": lambda f, b: heat.empirical_check_scaling(b, 0.0, b),
    "negative-lambda": lambda f, b: heat.empirical_check_scaling(b, -2.0, b),
    "zero-grid-n": lambda f, b: lsh.grid_points(b.algebra, 0),
    "fractional-grid-n": lambda f, b: lsh.grid_points(b.algebra, 100.7),
    "negative-radius": lambda f, b: lsh.grid_points(b.algebra, 1000, -1.0),
    "negative-lsh-tol": lambda f, b: lsh.check_lsh(f, b.samples, -5.0, algebra=b.algebra),
    "zero-heat-s": lambda f, b: heat.sample(b.algebra, 0.0, 100, 512, seed=1),
    "zero-heat-n": lambda f, b: heat.sample(b.algebra, 1.0, 0, 512, seed=1),
    "negative-extra-s": lambda f, b: heat.sample(b.algebra, -1.0, 100, 512, seed=1),
    "zero-extra-steps": lambda f, b: heat.sample(b.algebra, 0.25, 100, 0, seed=1),
    "short-tilt": lambda f, b: heat.sample(b.algebra, 1.0, 100, 512, seed=1, tilt=[1.0]),
}
# the CLI's error-line prefix of each case whose rule is not that of checks[0]
PREFIXES = {"negative-radius": "checks[1] (lsh)", "negative-lsh-tol": "checks[1] (lsh)",
            "zero-heat-s": "heat", "zero-heat-n": "heat", "short-tilt": "heat",
            "negative-extra-s": "extra_batches.b", "zero-extra-steps": "extra_batches.b"}


@pytest.mark.parametrize("case", sorted(DIRECT_CALLS))
def test_the_cli_applies_each_checks_own_rule(case, tmp_path, monkeypatch, capsys):
    # one home per rule: the CLI's error line, after its prefix ("checks[i]
    # (kind): ", "heat: " or "extra_batches.<name>: "), is the text the check,
    # the sampler or the grid itself raises on the same values
    overrides, _ = BAD_CONFIGS[case]
    config = small_time_space_config(**overrides)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    f = calculus.parse_field(config["fields"]["f"]["expr"])
    batch = heat.sample(algebra.builtin("heisenberg(1)"), 1.0, 100, 8, seed=1)
    with pytest.raises(ParameterError) as direct:
        DIRECT_CALLS[case](f, batch)

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli.heat, "sample", no_sampling)
    assert cli.main(["run", str(path)]) == 3
    where = PREFIXES.get(case, f"checks[0] ({config['checks'][0]['check']})")
    assert capsys.readouterr().err == f"error: {where}: {direct.value}\n"


def test_shc_below_janson_time_runs_when_exploratory(tmp_path, capsys):
    # the config that BAD_CONFIGS refuses below t_J, marked exploratory
    overrides, _ = BAD_CONFIGS["shc-below-janson-time"]
    config = small_time_space_config(**copy.deepcopy(overrides))
    config["checks"][0]["exploratory"] = True
    config["heat"]["n"] = 2000
    cli.validate_config(config)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # x^2 is not log-subharmonic
        rc = cli.main(["run", str(path)])
    (rep,) = json.loads(capsys.readouterr().out)["reports"]
    assert rc != 3 and rep["verdict"] != cli.VERDICT_ERROR
    assert rep["params"]["t"] == 0.1 and rep["params"]["exploratory"] is True


@pytest.mark.parametrize("argv", [["check", "contractivity"], ["sweep", "alpha"]],
                         ids=["contractivity", "alpha-sweep"])
def test_one_point_grid_flag_exits_3_before_sampling(argv, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli.heat, "sample", no_sampling)
    rc = cli.main([*argv, "--algebra", "heisenberg(1)", "--field", "@expx1", "--n", "500",
                   "--grid", "0.5"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'grid' needs at least two t values" in err


@pytest.mark.parametrize("argv, key", [
    (["sweep", "alpha", "--beta", "-1"], "'beta'"),
    (["sweep", "alpha", "--q", "0.5"], "'q'"),
    (["check", "slsi", "--c", "-1"], "'c'"),
], ids=["sweep-beta", "sweep-q", "slsi-c"])
def test_negative_constant_flags_exit_3_before_sampling(argv, key, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli.heat, "sample", no_sampling)
    rc = cli.main([*argv, "--algebra", "heisenberg(1)", "--field", "@expx1", "--n", "500"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


def test_overflowing_param_literal_exits_3_before_sampling(tmp_path, monkeypatch, capsys):
    # json reads the literal 1e999 as inf; no manifest may be started
    path = tmp_path / "bad.json"
    path.write_text('{"algebra": "heisenberg(1)", "fields": {"f": {"expr": "(* a x_1_1)", '
                    '"params": {"a": 1e999}}}, "heat": {"s": 1.0, "n": 100, "seed": 1}, '
                    '"checks": [{"check": "time-space", "field": "f"}]}')

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli.heat, "sample", no_sampling)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out-dir", str(out)]) == 3
    assert "fields.f.params" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_zero_log_sobolev_constant_still_validates():
    # c = 0 is in the domain of check_lsi and check_slsi
    cli.validate_config(small_time_space_config(
        checks=[{"check": "slsi", "field": "f", "c": 0}]))


def test_zero_lsh_tolerance_and_grid_points_still_validate():
    cli.validate_config(small_time_space_config(
        checks=[{"check": "lsh", "field": "f", "tol": 0, "points": "grid"}]))


def test_unexpected_exception_exits_3_with_one_line(monkeypatch, capsys):
    def crash(config):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "run", crash)
    assert cli.main(["preset", "htype-classify", "--run"]) == 3
    assert capsys.readouterr().err == "error: RuntimeError: boom second line\n"


def test_failed_sweep_check_writes_no_csv(tmp_path):
    config = small_time_space_config(
        fields={"f": {"library": "expx1"}},
        # r(t) = e^(t/c) overflows at t = 1000, after sampling
        checks=[{"check": "alpha-sweep", "field": "f", "q": 2.0, "c": 1.0,
                 "grid": [0.0, 1000.0]}],
        output={"dir": str(tmp_path)},
    )
    manifest = cli.run(config)
    assert manifest["reports"][0]["verdict"] == "error"
    assert "t = 1000" in manifest["reports"][0]["error"]
    assert manifest["exit_code"] == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_field_spec_needs_exactly_one_source():
    with pytest.raises(ConfigError):
        cli.validate_config(small_time_space_config(
            fields={"f": {"expr": "(pow x_1_1 2)", "library": "expx1"}}))


# -- run ----------------------------------------------------------------------------


def test_minimal_validate_run():
    manifest = cli.run({
        "algebra": "heisenberg(1)",
        "checks": [{"check": "algebra-validate"}],
    })
    assert manifest["exit_code"] == 0
    assert len(manifest["reports"]) == 1
    assert manifest["reports"][0]["verdict"] == "holds"
    assert manifest["reports"][0]["ok"] is True
    assert manifest["config"]["algebra"] == "heisenberg(1)"
    assert len(manifest["config_hash"]) == 64


def test_run_executes_checks_in_declaration_order():
    config = small_time_space_config()
    config["checks"] = [
        {"check": "algebra-validate"},
        {"check": "time-space", "field": "f"},
        {"check": "h-type"},
    ]
    manifest = cli.run(config)
    kinds = [r["check"] for r in manifest["reports"]]
    assert kinds == ["algebra-validate", "time-space", "h-type"]
    assert manifest["reports"][2]["is_h_type"] is True


def test_run_reproducible_and_thread_invariant(monkeypatch):
    config = small_time_space_config()
    config["checks"].append({"check": "inverse-symmetry"})
    blobs = []
    for threads in ("1", "4", "8"):
        monkeypatch.setenv("CARNOT_THREADS", threads)
        manifest = cli.run(copy.deepcopy(config))
        blobs.append(cli.manifest_canonical_bytes(manifest))
    assert blobs[0] == blobs[1] == blobs[2]


def test_runs_leave_the_per_algebra_caches_flat():
    # every run resolves a fresh algebra: no cache may keep one per run
    config = small_time_space_config(heat={"s": 1.0, "n": 200, "steps": 8, "seed": 5},
                                     fields={"f": {"expr": "(exp x_1_1)"}})
    config["checks"] = [{"check": "slsi", "field": "f", "c": 0.5, "beta": 0.0}]

    def sizes():
        gc.collect()
        live = sum(isinstance(o, algebra.StratifiedAlgebra) for o in gc.get_objects())
        return live, group._dynkin_terms.cache_info().currsize

    cli.run(copy.deepcopy(config))
    before = sizes()
    for _ in range(20):
        cli.run(copy.deepcopy(config))
    assert sizes() == before


# the main batch's kind by what its checks read: (fields, checks, kind)
BATCH_KINDS = {
    "first-layer fields": ("heisenberg(1)",
                           {"f": {"expr": "(pow x_1_1 2)"}, "g": {"library": "expx1"}},
                           [{"check": "time-space", "field": "f"},
                            {"check": "slsi", "field": "g", "c": 1.0},
                            {"check": "lsh", "field": "g", "grid_n": 50}],
                           "exact-first-layer"),
    "a field reads layer 2": ("heisenberg(1)", {"f": {"expr": "(pow x_1_1 2)"},
                                                "g": {"expr": "(+ x_1_1 x_2_1 8)"}},
                              [{"check": "time-space", "field": "f"},
                               {"check": "time-space", "field": "g"}], "exact-h-type"),
    "a heat check": ("heisenberg(1)", {"f": {"expr": "(pow x_1_1 2)"}},
                     [{"check": "time-space", "field": "f"},
                      {"check": "inverse-symmetry"}], "exact-h-type"),
    "a field reads layer 2 on engel": ("engel", {"f": {"expr": "(pow x_1_1 2)"},
                                                 "g": {"expr": "(+ x_1_1 x_2_1 8)"}},
                                       [{"check": "time-space", "field": "f"},
                                        {"check": "time-space", "field": "g"}], "walk"),
    "a heat check on engel": ("engel", {"f": {"expr": "(pow x_1_1 2)"}},
                              [{"check": "time-space", "field": "f"},
                               {"check": "inverse-symmetry"}], "walk"),
}
# what a batch of 600 paths draws, by kind: three whole blocks of 256, each
# of 2 first-layer normals per step; exact-h-type draws the 1 centre normal
# and 2 normals per Gamma-Poisson mode too
BATCH_DRAWS = {
    "exact-first-layer": {"steps": 1, "normals": 768 * 2},
    "exact-h-type": {"steps": 1, "normals": 768 * (2 * (heat._H_TYPE_MODES + 1) + 1)},
    "walk": {"steps": 8, "normals": 768 * 2 * 8},
}


@pytest.mark.parametrize("case", sorted(BATCH_KINDS))
def test_main_batch_is_exact_when_its_checks_read_only_the_first_layer(case):
    # the kind is chosen from the config alone: no key names it, so the
    # config and its hash are those of the walk
    name, fields, checks, kind = BATCH_KINDS[case]
    config = small_time_space_config(algebra=name, fields=fields, checks=checks,
                                     heat={"s": 1.0, "n": 600, "steps": 8, "seed": 5})
    manifest = cli.run(copy.deepcopy(config))
    draws = BATCH_DRAWS[kind]
    assert manifest["batches"] == {"heat": {"kind": kind, **draws}}
    assert manifest["config"]["heat"]["steps"] == 8
    assert manifest["config_hash"] == cli._config_hash(cli.validate_config(config))
    assert {r["params"]["steps"] for r in manifest["reports"] if "params" in r} <= {draws["steps"]}
    assert manifest["exit_code"] == 0
    # the same kind drawn directly: a walk by its steps alone, an exact kind
    # for readers of the layers it holds
    layers = {"exact-first-layer": {1}, "exact-h-type": {1, 2}, "walk": None}[kind]
    want = heat.sample(algebra.builtin(name), 1.0, 600, 8, 5, layers=layers)
    batch = drawn_batch(manifest)
    assert batch.samples.tobytes() == want.samples.tobytes() and batch.kind == kind


def extra_batch_run(name):
    """A run whose one check, scaling, reads an extra batch; both batches read every layer."""
    return cli.run(small_time_space_config(
        algebra=name, heat={"s": 1.0, "n": 300, "steps": 8, "seed": 5},
        extra_batches={"b": {"s": 0.25, "n": 200, "steps": 4, "seed": 1}},
        checks=[{"check": "scaling", "lambda": 2.0, "batch": "b"}]))


def test_extra_batches_walk_and_the_batch_block_is_telemetry():
    # an extra batch serves only scaling, which reads every layer, so on
    # heisenberg(1) both batches are exact; the batches block, like timings
    # and environment, is out of the canonical bytes
    manifest = extra_batch_run("heisenberg(1)")
    per_path = 2 * (heat._H_TYPE_MODES + 1) + 1
    assert manifest["batches"] == {
        "heat": {"kind": "exact-h-type", "steps": 1, "normals": 512 * per_path},
        "extra_batches.b": {"kind": "exact-h-type", "steps": 1, "normals": 256 * per_path}}
    canonical = cli.manifest_canonical_bytes(manifest)
    for block in ("batches", "timings", "environment"):
        assert block not in json.loads(canonical)
    assert canonical == cli.manifest_canonical_bytes(
        {k: v for k, v in manifest.items() if k not in ("batches", "environment")})


def test_extra_batches_walk_on_engel():
    # Levy's law is not engel's: both batches walk their configured steps
    assert extra_batch_run("engel")["batches"] == {
        "heat": {"kind": "walk", "steps": 8, "normals": 512 * 2 * 8},
        "extra_batches.b": {"kind": "walk", "steps": 4, "normals": 256 * 2 * 4}}


def test_environment_block_names_the_software_and_threads(monkeypatch):
    # the software is read once per process, the threads per run
    monkeypatch.setenv("CARNOT_THREADS", "2")
    env = cli.run(small_time_space_config(heat={"s": 1.0, "n": 300, "steps": 8, "seed": 5}))[
        "environment"]
    assert env == {"python": platform.python_version(), "numpy": np.__version__,
                   "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
                   "cpu_count": os.cpu_count(), "carnot_threads": 2}


def test_one_step_field_of_an_upper_layer_exits_3_naming_the_layer(capsys):
    # --steps 1 is an exact first-layer batch: (exp x_2_1) reads a layer it
    # does not hold, and its report's one error names that layer
    argv = ["check", "time-space", "--algebra", "heisenberg(1)", "--n", "500",
            "--steps", "1", "--seed", "2"]
    assert cli.main([*argv, "--field", "(exp x_2_1)"]) == 3
    out, err = capsys.readouterr()
    assert out.count('"error": ') == 1 and err == ""
    rep = json.loads(out)
    assert rep["verdict"] == cli.VERDICT_ERROR
    assert rep["error"].startswith("the field reads layer 2, which a one-step batch does not hold")
    assert cli.main([*argv, "--field", "(exp x_1_1)"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["steps"] == 1


def test_one_step_sample_of_a_step_2_group_writes_no_rows(tmp_path, capsys):
    # its upper layers are absent, not zeros: no CSV could hold them
    path = tmp_path / "batch.csv"
    argv = ["sample", "--s", "1.0", "--n", "50", "--steps", "1", "--seed", "3",
            "--out", str(path)]
    assert cli.main([*argv, "--algebra", "heisenberg(1)"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: a batch CSV writes layer 2, which a one-step batch")
    assert not path.exists()
    assert cli.main([*argv, "--algebra", "euclidean(2)"]) == 0
    assert open(path).readline().strip() == "x_1_1,x_1_2"


def test_a_non_identity_metric_exits_3_before_sampling(tmp_path, capsys):
    # the walk draws in the V_1 basis, the fields' frame is the metric's: on
    # such an algebra time-space read violated (z = -74) on an identity that holds
    spec = tmp_path / "stretched.json"
    spec.write_text(json.dumps({"layer_dims": [2, 1], "brackets": [[[1, 1], [1, 2], [[2, 1], 1.0]]],
                                "metric_v1": [[4, 0], [0, 1]]}))
    out_csv = tmp_path / "batch.csv"
    for argv in (["check", "time-space", "--algebra", str(spec), "--field", "(pow x_1_1 2)",
                  "--n", "20000", "--steps", "8", "--seed", "1"],
                 ["sample", "--algebra", str(spec), "--s", "1.0", "--n", "50", "--steps", "8",
                  "--seed", "3", "--out", str(out_csv)]):
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: heat sampling draws in the V_1 basis, so metric_v1 must be")
        assert "[[4.0, 0.0], [0.0, 1.0]]" in err
    assert not out_csv.exists()


def test_timings_cover_extra_batches():
    config = small_time_space_config(
        extra_batches={"b": {"s": 0.25, "n": 200, "steps": 8, "seed": 1}})
    # an extra batch is drawn, and timed, only when a check names it
    config["checks"].append({"check": "scaling", "lambda": 2.0, "batch": "b"})
    timings = cli.run(config)["timings"]
    assert {"sampling", "sampling.b", "check_0", "total"} <= set(timings)
    assert timings["total"] >= timings["sampling"] + timings["sampling.b"]


def test_exit_codes(tmp_path):
    holds = cli.run(small_time_space_config())
    assert holds["exit_code"] == 0

    violated = cli.run({
        "algebra": "euclidean(1)",
        "fields": {"f": {"expr": "(exp (* 2 x_1_1))"}},
        "heat": {"s": 2.0, "n": 20_000, "steps": 8, "seed": 1, "tilt": [2.0]},
        "checks": [{"check": "lsi", "field": "f", "c": 0.1, "beta": 0.0}],
    })
    assert violated["exit_code"] == 1

    # untilted e^{4x}-scale sHC integrand: flagged inconclusive (heavy tail)
    inconclusive = cli.run({
        "algebra": "euclidean(1)",
        "fields": {"f": {"expr": "(exp (* 2 x_1_1))"}},
        "heat": {"s": 2.0, "n": 20_000, "steps": 8, "seed": 1},
        "checks": [
            {"check": "shc", "field": "f", "p": 1.0, "q": 4.0, "t": "tJ",
             "c": 0.5, "beta": 0.0},
        ],
    })
    assert inconclusive["exit_code"] == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": "euclidean(1)"}))
    assert cli.main(["run", str(bad)]) == 3


def test_check_errors_are_captured_per_check():
    # h-type on a step-3 algebra fails, but the other checks still run
    manifest = cli.run({
        "algebra": "engel",
        "checks": [
            {"check": "algebra-validate"},
            {"check": "h-type"},
            {"check": "algebra-validate"},
        ],
    })
    verdicts = [r["verdict"] for r in manifest["reports"]]
    assert verdicts == ["holds", "error", "holds"]
    assert "step" in manifest["reports"][1]["error"]
    assert manifest["exit_code"] == 3


def test_run_covers_every_check_kind():
    manifest = cli.run({
        "algebra": "heisenberg(1)",
        "fields": {"f": {"library": "expx1"}},
        "heat": {"s": 1.0, "n": 10_000, "steps": 8, "seed": 12},
        "extra_batches": {"quarter": {"s": 0.25, "n": 10_000, "steps": 8, "seed": 13}},
        "checks": [
            {"check": "lsi", "field": "f", "c": 1.0},
            {"check": "slsi", "field": "f", "c": 1.0},
            {"check": "shc", "field": "f", "p": 1, "q": 2, "c": 1.0},
            {"check": "time-space", "field": "f"},
            {"check": "chain", "field": "f"},
            {"check": "alpha-sweep", "field": "f", "q": 2, "c": 1.0},
            {"check": "contractivity", "field": "f"},
            {"check": "inverse-symmetry"},
            {"check": "scaling", "lambda": 2.0, "batch": "quarter"},
            {"check": "tail"},
            {"check": "algebra-validate"},
            {"check": "h-type"},
            {"check": "lsh", "field": "f", "grid_n": 200},
        ],
    })
    reports = manifest["reports"]
    assert sorted(r["check"] for r in reports) == sorted(cli._CHECKS)
    for rep in reports:
        assert {"check", "name", "verdict"} <= set(rep)
        assert rep["verdict"] != "error", rep


def lsh_grid_config(checks):
    return {
        "algebra": "heisenberg(1)",
        "fields": {name: {"library": name} for name in ("expx1", "coshx1", "gauss-neg")},
        "heat": {"s": 1.0, "n": 200, "steps": 8, "seed": 5},
        "checks": checks,
    }


# three checks on one grid (radius 3 and 3.0 are the same grid), one on another
SHARED_GRID_CHECKS = [
    {"check": "lsh", "field": "expx1", "grid_n": 3000},
    {"check": "lsh", "field": "gauss-neg", "grid_n": 3000, "radius": 3},
    {"check": "time-space", "field": "expx1"},
    {"check": "lsh", "field": "coshx1", "grid_n": 3000, "tol": 1e-7},
    {"check": "lsh", "field": "expx1", "grid_n": 500},
]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_lsh_checks_sharing_a_grid_match_lone_runs(threads, monkeypatch):
    monkeypatch.setenv("CARNOT_THREADS", threads)
    shared = cli.run(lsh_grid_config(SHARED_GRID_CHECKS))["reports"]
    for chk, rep in zip(SHARED_GRID_CHECKS, shared):
        if chk["check"] == "lsh":
            alone = cli.run(lsh_grid_config([chk]))["reports"][0]
            assert json.dumps(rep, sort_keys=True) == json.dumps(alone, sort_keys=True)
    assert [r["verdict"] for r in shared] == ["holds", "violated", "holds", "holds", "holds"]


def test_run_builds_each_lsh_grid_and_frame_once(monkeypatch):
    calls = {"grid_points": [], "frame_jets": [], "multiply_jets": []}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(args)  # one atomic append per call, from any thread
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(cli.lsh, "grid_points")
    counting(cli.calculus, "frame_jets")
    counting(cli.calculus, "multiply_jets")
    config = lsh_grid_config([c for c in SHARED_GRID_CHECKS if c["check"] == "lsh"])
    del config["heat"]
    # more workers than cores, switching threads as often as possible
    monkeypatch.setenv("CARNOT_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        manifests = []
        runner = threading.Thread(target=lambda: manifests.append(cli.run(config)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert [r["verdict"] for r in manifests[0]["reports"]] == \
        ["holds", "violated", "holds", "holds"]
    # two frames of dim_v1 = 2 directions each, and no other group product
    assert {name: len(c) for name, c in calls.items()} == \
        {"grid_points": 2, "frame_jets": 2, "multiply_jets": 4}
    # every field reads layer 1 alone, so each frame stops there: a product
    # of the two first-layer coordinates
    assert [max(layers) for _, _, layers in calls["frame_jets"]] == [1, 1]
    assert [(len(xs), len(ys)) for _, xs, ys in calls["multiply_jets"]] == [(2, 2)] * 4


def test_run_builds_its_lsh_frame_through_the_top_layer_its_checks_read(monkeypatch):
    # one frame through layer 2 serves a field of layer 1 and one of layer 2,
    # each with the report of a run that builds its frame for that field alone
    frames = []
    frame_jets = cli.calculus.frame_jets

    def counted(alg, pts, layers):
        frames.append(max(layers))
        return frame_jets(alg, pts, layers)

    monkeypatch.setattr(cli.calculus, "frame_jets", counted)
    checks = [{"check": "lsh", "field": "expx1", "grid_n": 3000},
              {"check": "lsh", "field": "upper", "grid_n": 3000}]
    config = lsh_grid_config(checks)
    config["fields"]["upper"] = {"expr": "(exp (+ x_1_2 (* 0.5 x_2_1)))"}
    shared = cli.run(config)["reports"]
    assert frames == [2]
    for chk, rep, top in zip(checks, shared, (1, 2)):
        frames.clear()
        alone = cli.run({**config, "checks": [chk]})["reports"][0]
        assert frames == [top]
        assert json.dumps(rep, sort_keys=True) == json.dumps(alone, sort_keys=True)


def test_run_writes_manifest_and_csv(tmp_path):
    config = {
        "algebra": "heisenberg(1)",
        "fields": {"f": {"library": "expx1"}},
        "heat": {"s": 1.0, "n": 10_000, "steps": 32, "seed": 9},
        "checks": [{"check": "contractivity", "field": "f",
                    "grid": [0.0, 0.5, 1.0]}],
        "output": {"dir": str(tmp_path / "out")},
    }
    manifest = cli.run(config)
    assert manifest["exit_code"] == 0
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert saved["config_hash"] == manifest["config_hash"]
    csv_path = tmp_path / "out" / "contractivity-0.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,value,stderr"
    assert len(lines) == 4
    for line in lines[1:]:
        t, value, stderr = map(float, line.split(","))
        assert stderr > 0  # no bare point estimates


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_domain_error_manifest_is_strict_json(tmp_path, capsys):
    # f = x_1_1 + 1 is <= 0 on part of the grid, so min Delta log f and the
    # lemma margin do not exist
    config = {"algebra": "heisenberg(1)", "fields": {"f": {"expr": "(+ x_1_1 1)"}},
              "checks": [{"check": "lsh", "field": "f", "grid_n": 50}]}
    manifest = cli.run(config)
    rep = _strict_json(cli.manifest_canonical_bytes(manifest))["reports"][0]
    assert rep["lsh_verdict"] == "domain-error"
    assert rep["min_delta_log"] is None and rep["min_lemma_margin"] is None
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    printed = _strict_json(capsys.readouterr().out)
    saved = _strict_json((tmp_path / "out" / "manifest.json").read_text())
    assert printed["reports"] == saved["reports"] == [rep]


def test_slsi_spot_check_domain_error_is_a_per_check_error():
    # f = x_1_1 + 1 is <= 0 on part of the batch: the LSH spot check finds no
    # min Delta log f to print, and the f > 0 check then fails the one check
    config = small_time_space_config(
        fields={"f": {"expr": "(+ x_1_1 1)"}},
        heat={"s": 1.0, "n": 2000, "steps": 16, "seed": 5},
        checks=[{"check": "slsi", "field": "f", "c": 1.0},
                {"check": "time-space", "field": "f"}])
    with pytest.warns(UserWarning, match="f <= 0 at point index"):
        manifest = cli.run(config)
    slsi, time_space = manifest["reports"]
    assert slsi["verdict"] == cli.VERDICT_ERROR and "f > 0" in slsi["error"]
    assert time_space["verdict"] != cli.VERDICT_ERROR
    _strict_json(cli.manifest_canonical_bytes(manifest))


NON_POSITIVE_CHECKS = {
    "shc-zero": ("(* x_1_1 0)", {"check": "shc", "p": 1.0, "q": 2.0, "c": 1.0}),
    "shc-signed": ("x_1_1", {"check": "shc", "p": 1.5, "q": 4.0, "c": 1.0}),
    "alpha-sweep-zero": ("(* x_1_1 0)", {"check": "alpha-sweep", "q": math.e, "c": 1.0}),
    "contractivity-signed": ("x_1_1", {"check": "contractivity"}),
}


@pytest.mark.parametrize("case", sorted(NON_POSITIVE_CHECKS))
def test_shc_and_sweeps_need_positive_f(case):
    # f = 0 would divide by zero in the influence and a sign-changing f has
    # no real norm: each must fail its own check only, not the whole run
    expr, chk = NON_POSITIVE_CHECKS[case]
    config = small_time_space_config(
        fields={"bad": {"expr": expr}, "good": {"library": "expx1"}},
        heat={"s": 1.0, "n": 2000, "steps": 8, "seed": 1},
        checks=[{**chk, "field": "bad"}, {**chk, "field": "good"}])
    with pytest.warns(UserWarning, match="f <= 0 at point index"):
        manifest = cli.run(config)
    bad, good = manifest["reports"]
    assert bad["verdict"] == cli.VERDICT_ERROR and "f > 0" in bad["error"]
    assert good["verdict"] == "holds"
    assert manifest["exit_code"] == 3


UNDERFLOWING_CHECKS = {
    "shc": {"check": "shc", "p": 1.0, "q": 4.0, "c": 1.0},
    "alpha-sweep": {"check": "alpha-sweep", "q": 4.0, "c": 1.0},
}


@pytest.mark.parametrize("case", sorted(UNDERFLOWING_CHECKS))
def test_shc_and_sweep_power_underflow_is_a_per_check_error(case, tmp_path, capsys, lse_norm):
    # (e^(-tE) f)^4 ~ 1e-360 underflows to 0 on every sample, but the norms
    # ~ 1e-90 do not: the check reports the values of a logsumexp reference,
    # and the verdict of 1e90 f = expx1
    heat_kw = {"s": 1.0, "n": 2000, "steps": 8, "seed": 1}
    config = small_time_space_config(
        fields={"tiny": {"expr": "(* 1e-90 (exp x_1_1))"}, "good": {"library": "expx1"}},
        heat=heat_kw, checks=[{**UNDERFLOWING_CHECKS[case], "field": "tiny"},
                              {**UNDERFLOWING_CHECKS[case], "field": "good"}])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == 0
    out, err = capsys.readouterr()
    manifest = json.loads(out)
    tiny, good = manifest["reports"]
    assert tiny["verdict"] == good["verdict"] == "holds"
    batch = drawn_batch(manifest)
    f = calculus.parse_field("(* 1e-90 (exp x_1_1))")

    def norm(t, r):  # |e^(-tE) f|_r; M(t) = 1 at beta = 0
        g = calculus.dilation_pullback(f, t)
        return lse_norm(calculus.evaluate_batch(g, batch.algebra, batch.samples), batch, r)

    if case == "shc":  # p = 1, q = 4 and t = t_J = log 4
        got, want = [tiny["lhs"], tiny["rhs"]], [norm(math.log(4.0), 4.0), norm(0.0, 1.0)]
    else:
        got, want = tiny["values"], [norm(t, math.exp(t)) for t in tiny["ts"]]
    assert 1e-91 < min(want) and max(want) < 1e-89
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert "Traceback" not in err


def _per_t_sweep_error(f, batch, name, ts):
    """The error of a sweep run one t of its sorted grid at a time: at the
    first t that fails, f's own error, e^(-tE) f <= 0 or a non-finite
    e^(-tE) f, in that order."""
    for t in sorted(ts):
        try:
            v = calculus.evaluate_batch(calculus.dilation_pullback(f, t), batch.algebra,
                                        batch.samples)
        except CarnotError as exc:
            return str(exc)
        if (v <= 0).any():
            return (f"{name} needs e^(-tE) f > 0 on samples at t = {t:g}; "
                    f"violated at sample {int(np.argmax(v <= 0))}")
        if not np.isfinite(v).all():
            return f"non-finite value (overflow) at sample {np.flatnonzero(~np.isfinite(v))[0]}"
    return None


# a 33-point grid whose first 20 t pass and whose 21st fails: the failing t is
# row 20 of one block of the whole grid, and row 2 of a block of 3
UNDERFLOW_GRID = [*np.linspace(0.0, 1.0, 20).tolist(), *range(368, 381)]
FAILING_SWEEPS = {
    # (e^(-tE) f)(x) = (e^-t x_1_1)^2 underflows to 0 on some samples from t = 368
    "non-positive": ("(pow x_1_1 2)", {"check": "contractivity", "grid": UNDERFLOW_GRID}),
    # log and a fractional power of that 0 are domain errors of f
    "log-domain": ("(exp (log (pow x_1_1 2)))",
                   {"check": "contractivity", "grid": UNDERFLOW_GRID}),
    "pow-domain": ("(pow (pow x_1_1 2) 0.5)",
                   {"check": "contractivity", "grid": UNDERFLOW_GRID}),
    # the two sweeps below fail at no t, though their powers leave double range:
    # f^r(t) = exp(e^(9t) x_1_1) overflows on the largest samples from t near 0.6
    "overflow": ("(exp x_1_1)", {"check": "alpha-sweep", "q": 2.0, "c": 0.1,
                                 "grid": np.linspace(0.0, 1.0, 33).tolist()}),
    # f^r(t) ~ 1e-200 r(t) underflows on every sample from t near 0.5
    "underflow": ("(* 1e-200 (exp x_1_1))", {"check": "alpha-sweep", "q": 2.0, "c": 1.0,
                                             "grid": np.linspace(0.0, 1.0, 33).tolist()}),
}


@pytest.mark.parametrize("rows", [None, 3], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize("case", sorted(FAILING_SWEEPS))
def test_sweep_errors_name_the_first_failing_t_and_sample(case, rows, tmp_path, monkeypatch,
                                                          capsys, lse_norm):
    # a sweep that fails at an interior t reports what a sweep run one t at a
    # time raises there, whatever block holds that t and wherever it sits in
    # it; a sweep that fails at no t reports the values of a logsumexp reference
    expr, chk = FAILING_SWEEPS[case]
    heat_kw = {"s": 1.0, "n": 500, "steps": 8, "seed": 1}
    if rows:
        monkeypatch.setattr(cli.inequalities, "_SWEEP_BLOCK_FLOATS", rows * heat_kw["n"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_time_space_config(
        fields={"f": {"expr": expr}}, heat=heat_kw, checks=[{**chk, "field": "f"}])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the LSH spot check's
        code = cli.main(["run", str(path)])
    out, err = capsys.readouterr()
    manifest = json.loads(out)
    rep = manifest["reports"][0]
    batch = drawn_batch(manifest)
    alg = batch.algebra
    c, f = chk.get("c"), calculus.parse_field(expr)
    name = "l1-contractivity" if c is None else "alpha-sweep"
    with np.errstate(all="ignore"):
        want = _per_t_sweep_error(f, batch, name, chk["grid"])
    # at c = 0.1, below the Gaussian sLSI constant 1/2, alpha(t) increases
    assert (want is None) == (case in ("overflow", "underflow"))
    if want is None:  # alpha(t) = |e^(-tE) f|_r(t), r(t) = e^(t/c), M(t) = 1 at beta = 0
        assert (code, rep["verdict"]) == ((1, "violated") if c == 0.1 else (0, "holds"))
        np.testing.assert_allclose(rep["values"], [lse_norm(calculus.evaluate_batch(
            calculus.dilation_pullback(f, t), alg, batch.samples), batch, math.exp(t / c))
            for t in rep["ts"]], rtol=1e-12, atol=0.0)
    else:
        assert code == 3 and rep["verdict"] == cli.VERDICT_ERROR
        assert rep["error"] == want
    assert "Traceback" not in err


@pytest.mark.parametrize("rows", [None, 3], ids=["one-block", "blocks-of-3"])
def test_sweep_power_overflow_names_the_first_failing_t(rows, tmp_path, monkeypatch, capsys):
    # r(t) = e^(t/c) = e^(2t) overflows a float from t = 368 on, row 20 of
    # UNDERFLOW_GRID: the run reports it as the sweep's error at that t
    heat_kw = {"s": 1.0, "n": 500, "steps": 8, "seed": 1}
    if rows:
        monkeypatch.setattr(cli.inequalities, "_SWEEP_BLOCK_FLOATS", rows * heat_kw["n"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_time_space_config(
        fields={"f": {"library": "expx1"}}, heat=heat_kw,
        checks=[{"check": "alpha-sweep", "field": "f", "q": 2.0, "c": 0.5,
                 "grid": UNDERFLOW_GRID}])))
    assert cli.main(["run", str(path)]) == 3
    out, err = capsys.readouterr()
    rep = json.loads(out)["reports"][0]
    assert rep["verdict"] == cli.VERDICT_ERROR
    assert rep["error"] == "alpha-sweep at t = 368: math range error"
    assert err == ""


def test_dilation_overflow_in_a_sweep_fails_only_its_check(tmp_path):
    # exp(300) ** 3 overflows a float: engel's third-layer weight at t = -300
    config = small_time_space_config(
        algebra="engel", fields={"f": {"library": "expx1"}},
        heat={"s": 1.0, "n": 200, "steps": 8, "seed": 1},
        checks=[{"check": "time-space", "field": "f"},
                {"check": "contractivity", "field": "f", "grid": [-300, 0]}],
        output={"dir": str(tmp_path / "out")})
    manifest = cli.run(config)
    assert manifest["exit_code"] == 3
    time_space, sweep = _strict_json((tmp_path / "out" / "manifest.json").read_text())["reports"]
    assert time_space["verdict"] == "holds"
    assert sweep["verdict"] == cli.VERDICT_ERROR
    assert sweep["error"] == "dilation weight exp(-t) ** j overflows at t = -300"


def test_shc_constant_overflow_fails_only_its_check(tmp_path):
    # M(p, q) = exp(beta (1/p - 1/q)) = exp(999) overflows a float
    config = small_time_space_config(
        fields={"f": {"library": "expx1"}},
        heat={"s": 1.0, "n": 200, "steps": 8, "seed": 1},
        checks=[{"check": "shc", "field": "f", "p": 0.001, "q": 1, "c": 0.5, "beta": 1},
                {"check": "time-space", "field": "f"}],
        output={"dir": str(tmp_path / "out")})
    manifest = cli.run(config)
    assert manifest["exit_code"] == 3
    shc, time_space = _strict_json((tmp_path / "out" / "manifest.json").read_text())["reports"]
    assert shc["verdict"] == cli.VERDICT_ERROR
    assert shc["error"] == "sHC check: M(p, q) at p = 0.001, q = 1: math range error"
    assert time_space["verdict"] == "holds"


@pytest.mark.parametrize("argv, error", [
    (["check", "shc", "--algebra", "engel", "--field", "@expx1", "--t", "-400",
      "--exploratory"], "dilation weight exp(-t) ** j overflows at t = -400"),
    (["sweep", "alpha", "--algebra", "heisenberg(1)", "--field", "@expx1", "--c", "0.5",
      "--grid", "0,400"], "alpha-sweep at t = 400: math range error"),
], ids=["shc-weight", "alpha-sweep-r"])
def test_overflow_at_t_is_a_check_error(argv, error, capsys):
    rc = cli.main([*argv, "--n", "200", "--steps", "8"])
    out, err = capsys.readouterr()
    assert rc == 3 and err == ""
    rep = json.loads(out)
    assert rep["verdict"] == cli.VERDICT_ERROR and rep["error"] == error


def test_an_entropy_mass_outside_double_range_is_a_check_error(tmp_path, capsys):
    # f^2 ~ 1e-400 is 0.0 on every sample, so the L2 form's mass |f|_2^2 has
    # no log: by check or by run, that check's report is the error, and the
    # run keeps the other checks' reports
    tiny = "(* 1e-200 (exp x_1_1))"
    error = "lsi-l2 check: mass |f|_2^2 = 0 is outside double range"
    rc = cli.main(["check", "lsi", "--form", "L2", "--algebra", "heisenberg(1)", "--field",
                   tiny, "--c", "0.5", "--n", "2000", "--steps", "8"])
    out, err = capsys.readouterr()
    assert rc == 3 and err == ""
    rep = json.loads(out)
    assert rep["verdict"] == cli.VERDICT_ERROR and rep["error"] == error
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_time_space_config(
        fields={"tiny": {"expr": tiny}, "good": {"library": "expx1"}},
        heat={"s": 1.0, "n": 2000, "steps": 8, "seed": 1},
        checks=[{"check": "lsi", "field": "tiny", "form": "L2", "c": 0.5},
                {"check": "slsi", "field": "good", "c": 1.0}])))
    assert cli.main(["run", str(path)]) == 3
    lsi, slsi = json.loads(capsys.readouterr().out)["reports"]
    assert lsi["verdict"] == cli.VERDICT_ERROR and lsi["error"] == error
    assert slsi["verdict"] == "holds"


@pytest.mark.parametrize("argv", [
    ["check", "slsi", "--algebra", "heisenberg(1)", "--field", "@expx1", "--c", "abc"],
    ["bogus"],
    ["check", "slsi", "--field", "@expx1"],
    ["check", "contractivity", "--algebra", "heisenberg(1)", "--field", "@expx1",
     "--grid", "-1,0"],
], ids=["non-numeric-c", "unknown-command", "missing-algebra", "negative-grid"])
def test_usage_errors_exit_3(argv, monkeypatch, capsys):
    # argparse's own exit code 2 would read as "inconclusive"
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli.heat, "sample", no_sampling)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


OVERFLOWING_CHECKS = {
    # Ef overflows to inf: no margin can be formed from its mean
    "time-space": ("(+ 1 (exp (* 800 x_1_1)))", "non-finite value (overflow) at sample"),
    # the LSH spot check takes log f = log inf
    "shc": ("(+ 1 (exp (* 800 x_1_1)))", "log of non-finite value (overflow) at sample"),
    "lsh": ("(log (exp (* 1000 x_1_1)))", "log of non-finite value (overflow) at sample"),
}


@pytest.mark.parametrize("kind", sorted(OVERFLOWING_CHECKS))
def test_overflow_of_f_is_reported_as_overflow(kind, capsys):
    expr, message = OVERFLOWING_CHECKS[kind]
    rc = cli.main(["check", kind, "--algebra", "heisenberg(1)", "--field", expr,
                   "--n", "2000", "--steps", "8"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rc == 3
    assert rep["verdict"] == cli.VERDICT_ERROR and message in rep["error"]
    assert "Traceback" not in err


def test_overflow_prints_no_numpy_warning():
    # the overflow error is the run's only diagnostic: numpy's warnings on the
    # way to it are silenced, and stderr stays empty
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "carnot", "check", "time-space", "--algebra", "heisenberg(1)",
         "--field", "(+ 1 (exp (* 800 x_1_1)))", "--n", "2000", "--steps", "8"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == "", proc.stderr
    assert "non-finite value (overflow) at sample" in json.loads(proc.stdout)["error"]


# -- presets -------------------------------------------------------------------------


def test_all_presets_validate():
    for name in ["gaussian-sharpness", "heisenberg-time-space",
                  "heisenberg-slsi-sweep", "htype-classify",
                  "engel-exploratory", "heat-kernel-identities"]:
        cli.validate_config(cli.preset(name))
    with pytest.raises(ConfigError, match="unknown preset"):
        cli.preset("atlantis")


def test_gaussian_sharpness_preset_reproduces_equality():
    manifest = cli.run(cli.preset("gaussian-sharpness"))
    assert manifest["exit_code"] == 0
    rep = manifest["reports"][0]
    assert rep["verdict"] == "holds"
    assert abs(rep["lhs"] / rep["rhs"] - 1.0) < 3 * rep["stderr"] / rep["rhs"]
    assert np.isclose(rep["params"]["t_J"], 0.5 * math.log(4.0))


def test_engel_preset_is_exploratory():
    config = cli.preset("engel-exploratory")
    config["heat"]["n"] = 5000
    manifest = cli.run(config)
    for rep in manifest["reports"]:
        if rep["check"] in ("slsi", "alpha-sweep", "contractivity"):
            assert rep["mode"] == "exploratory"


def test_htype_preset():
    manifest = cli.run(cli.preset("htype-classify"))
    assert manifest["exit_code"] == 0
    assert manifest["reports"][1]["is_h_type"] is True


# -- argparse front end ----------------------------------------------------------------


def test_cli_algebra_validate_and_htype(capsys):
    assert cli.main(["algebra", "validate", "heisenberg(1)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert cli.main(["algebra", "htype", "heisenberg(2)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_h_type"] is True
    assert cli.main(["algebra", "validate", "nonsense(9)"]) == 3


def test_cli_algebra_validate_rejects_fractional_layer_dims(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(
        {"layer_dims": [2.5, 1], "brackets": [[[1, 1], [1, 2], [[2, 1], 1.0]]]}))
    assert cli.main(["algebra", "validate", str(path)]) == 3
    assert "layer_dims must be positive integers, got 2.5" in capsys.readouterr().err


def test_cli_sample_and_lsh_points_file(tmp_path, capsys):
    csv_path = str(tmp_path / "batch.csv")
    assert cli.main(["sample", "--algebra", "heisenberg(1)", "--s", "1.0",
                     "--n", "500", "--steps", "16", "--seed", "3",
                     "--out", csv_path]) == 0
    capsys.readouterr()
    header = open(csv_path).readline().strip()
    assert header == "x_1_1,x_1_2,x_2_1"
    assert cli.main(["check", "lsh", "--algebra", "heisenberg(1)",
                     "--field", "@expx1", "--points", csv_path]) == 0
    out = json.loads(capsys.readouterr().out)
    # the report of the grid path: a run verdict and the LSH verdict
    assert out["verdict"] == "holds" and out["lsh_verdict"] == "LSH-consistent"
    assert out["check"] == out["name"] == "lsh"
    assert out["n_points"] == 500


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_lsh_points_file_tolerance_rules(tol, tmp_path, capsys):
    # a file's points go through the same lsh key rules as the grid's
    csv_path = str(tmp_path / "batch.csv")
    assert cli.main(["sample", "--algebra", "heisenberg(1)", "--s", "1.0",
                     "--n", "50", "--steps", "4", "--seed", "3", "--out", csv_path]) == 0
    capsys.readouterr()
    base = ["check", "lsh", "--algebra", "heisenberg(1)", "--field", "@gauss-neg",
            "--tol", tol]
    assert cli.main(base) == 3
    grid_out, grid_err = capsys.readouterr()
    assert cli.main([*base, "--points", csv_path]) == 3
    out, err = capsys.readouterr()
    assert out == grid_out == "" and err.count("\n") == 1
    assert err == grid_err and "'tol'" in err


def test_cli_lsh_underflow_is_an_error_not_a_violation(capsys):
    # expx1 is positive and LSH, but exp(x_1_1) underflows to 0 on part of a
    # radius-1000 grid; a field that is negative there stays a domain error
    assert cli.main(["check", "lsh", "--algebra", "heisenberg(1)", "--field", "@expx1",
                     "--radius", "1000"]) == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "error"
    assert rep["error"] == "f is 0 at point index 80 (underflow, or a zero of f)"
    assert cli.main(["check", "lsh", "--algebra", "heisenberg(1)", "--field",
                     "(+ x_1_1 1)", "--radius", "1000"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["lsh_verdict"] == "domain-error" and rep["detail"].startswith("f <= 0")


BAD_POINTS_FILES = {
    "engel-batch": (None, "header must be x_1_1,x_1_2,x_2_1"),
    "two-columns": ("x_1_1,x_1_2\n0.1,0.2\n", "header must be"),
    "header-only": ("x_1_1,x_1_2,x_2_1\n", "one or more rows"),
    "nan-entry": ("x_1_1,x_1_2,x_2_1\n0.1,0.2,0.3\nnan,0.1,0.2\n", "3 finite numbers"),
    "missing-entry": ("x_1_1,x_1_2,x_2_1\n0.1,,0.3\n", "3 finite numbers"),
}


@pytest.mark.parametrize("case", sorted(BAD_POINTS_FILES))
def test_cli_lsh_points_file_is_validated(case, tmp_path, capsys):
    text, message = BAD_POINTS_FILES[case]
    path = str(tmp_path / f"{case}.csv")
    if text is None:
        assert cli.main(["sample", "--algebra", "engel", "--s", "1.0", "--n", "20",
                         "--steps", "4", "--seed", "1", "--out", path]) == 0
        capsys.readouterr()
    else:
        with open(path, "w") as fh:
            fh.write(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["check", "lsh", "--algebra", "heisenberg(1)",
                       "--field", "@expx1", "--points", path])
    out, err = capsys.readouterr()
    assert rc == 3 and out == "" and caught == []
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")
    assert message in err


def test_non_integer_carnot_threads_is_a_config_error(monkeypatch):
    monkeypatch.setenv("CARNOT_THREADS", "abc")
    with pytest.raises(ConfigError, match="CARNOT_THREADS must be an integer, got 'abc'"):
        cli.run(cli.preset("htype-classify"))
    # values below 1 still mean one worker
    monkeypatch.setenv("CARNOT_THREADS", "0")
    assert cli.run(cli.preset("htype-classify"))["exit_code"] == 0


def test_cli_check_time_space(capsys):
    rc = cli.main(["check", "time-space", "--algebra", "heisenberg(1)",
                   "--field", "(pow x_1_1 2)", "--s", "1.0", "--n", "20000",
                   "--steps", "64", "--seed", "3"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "holds"
    assert abs(rep["lhs"] - 1.0) < 0.05
    assert rep["stderr"] > 0


def test_cli_check_with_params(capsys):
    rc = cli.main(["check", "lsi", "--algebra", "euclidean(1)",
                   "--field", "(exp (* a x_1_1))", "--param", "a=1.0",
                   "--s", "2.0", "--n", "20000", "--steps", "8", "--seed", "4",
                   "--tilt", "1.0", "--c", "0.5", "--beta", "0.0"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "holds"


def test_a_tilt_whose_weights_all_underflow_exits_3(tmp_path, capsys):
    # every weight exp(-60 x + 900) is 0.0: the batch, by check or by run,
    # is one error line, not a math domain error or lhs = rhs = 0.0
    want = "error: every weight of tilt [60.0] underflows to 0: the largest log weight is "
    argv = ["--algebra", "euclidean(1)", "--field", "@expx1", "--tilt", "60", "--n", "200",
            "--steps", "8"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_time_space_config(
        algebra="euclidean(1)", fields={"f": {"library": "expx1"}},
        heat={"s": 1.0, "n": 200, "steps": 8, "seed": 0, "tilt": [60.0]},
        checks=[{"check": "time-space", "field": "f"},
                {"check": "slsi", "field": "f", "c": 1.0}])))
    for args in (["check", "slsi", *argv], ["check", "lsi", *argv], ["run", str(path)]):
        assert cli.main(args) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(want) and err.count("\n") == 1, (args, err)


def test_cli_sweep_alpha(capsys):
    rc = cli.main(["sweep", "alpha", "--algebra", "heisenberg(1)",
                   "--field", "@expx1", "--s", "1.0", "--n", "10000",
                   "--steps", "32", "--seed", "6", "--c", "1.0",
                   "--q", str(math.e)])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["monotone_nonincreasing"] is True
    assert len(rep["ts"]) == len(rep["values"]) == len(rep["stderrs"])


def test_cli_sweep_alpha_prints_the_run_report(capsys):
    argv = ["--algebra", "heisenberg(1)", "--field", "(exp x_1_1)", "--n", "2000",
            "--steps", "16", "--seed", "6", "--grid", "0,0.5,1"]
    rc = cli.main(["sweep", "alpha", *argv])
    report = cli.run({
        "algebra": "heisenberg(1)",
        "fields": {"f": {"expr": "(exp x_1_1)", "params": {}}},
        "heat": {"s": 1.0, "n": 2000, "steps": 16, "seed": 6},
        "checks": [{"check": "alpha-sweep", "field": "f", "q": math.e, "c": 1.0,
                    "beta": 0.0, "grid": [0.0, 0.5, 1.0]}],
    })["reports"][0]
    assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert rc == 0


def test_one_check_commands_keep_their_flags_and_defaults():
    parser = cli.build_parser()
    required = ["--algebra", "a", "--field", "f"]
    shared = {"algebra": "a", "field": "f", "param": None, "s": 1.0, "n": 100_000,
              "steps": 512, "seed": 0, "beta": 0.0, "grid": None, "out": None}
    check = vars(parser.parse_args(["check", "lsi", *required]))
    assert check == {**shared, "command": "check", "kind": "lsi", "tilt": None,
                     "c": 0.5, "form": "L1", "p": 1.0, "q": 4.0, "t": "tJ",
                     "exploratory": False, "points": "grid", "grid_n": 1000,
                     "radius": 3.0, "tol": 1e-9}
    sweep = vars(parser.parse_args(["sweep", "alpha", *required]))
    assert sweep == {**shared, "command": "sweep", "sweep_command": "alpha",
                     "kind": "alpha-sweep", "c": 1.0, "q": math.e}


def test_cli_check_lsh_draws_no_heat_batch(monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli.heat, "sample", no_sampling)
    assert cli.main(["check", "lsh", "--algebra", "heisenberg(1)",
                     "--field", "@expx1", "--seed", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    alg = cli.algebra_mod.builtin("heisenberg(1)")
    want = cli.lsh.check_lsh(cli.lsh.library_field(alg, "expx1").field,
                             cli.lsh.grid_points(alg, 1000, 3.0, seed=5), algebra=alg)
    assert rep["worst_point"] == want.as_dict()["worst_point"]
    assert rep["n_points"] == 1000


def test_unused_extra_batch_is_not_drawn(monkeypatch):
    calls = []
    real_sample = cli.heat.sample

    def counting_sample(*args, **kwargs):
        calls.append(args)
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(cli.heat, "sample", counting_sample)
    config = {
        "algebra": "heisenberg(1)",
        "fields": {"f": {"expr": "(pow x_1_1 2)"}},
        "heat": {"s": 1.0, "n": 500, "steps": 8, "seed": 1},
        "extra_batches": {"unused": {"s": 1.0, "n": 300, "steps": 8, "seed": 2}},
        "checks": [{"check": "time-space", "field": "f"}],
    }
    manifest = cli.run(config)
    assert len(calls) == 1
    assert "sampling.unused" not in manifest["timings"]
    # the config still embeds the batch, and the reports do not depend on it
    assert manifest["config"]["extra_batches"]["unused"]["n"] == 300
    without = cli.run({k: v for k, v in config.items() if k != "extra_batches"})
    assert manifest["reports"] == without["reports"]


def test_cli_preset_show_write_run(tmp_path, capsys):
    assert cli.main(["preset", "htype-classify"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["algebra"] == "heisenberg(2)"
    target = str(tmp_path / "p.json")
    assert cli.main(["preset", "htype-classify", "--write", target]) == 0
    capsys.readouterr()
    assert cli.main(["run", target]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["exit_code"] == 0
    assert cli.main(["preset", "unknown-name"]) == 3
