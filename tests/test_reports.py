import json
import math
import warnings

import numpy as np

from carnot import algebra, calculus as calc, cli, heat, inequalities as ineq
from carnot.reports import (
    CheckReport,
    FunctionalEstimate,
    SweepReport,
    TwoSampleReport,
    decide_verdict,
    heavy_tail_fraction,
    worst_verdict,
)


def test_one_sided_verdict_rule():
    # holds iff margin >= -4 stderr
    assert decide_verdict(0.5, 0.1) == "holds"
    assert decide_verdict(-0.39, 0.1) == "holds"
    assert decide_verdict(-0.41, 0.1) == "violated"
    # below the threshold but inside the absolute floor: inconclusive
    assert decide_verdict(-5e-10, 1e-12) == "inconclusive"
    assert decide_verdict(-5e-9, 1e-12) == "violated"


def test_two_sided_verdict_rule():
    assert decide_verdict(0.39, 0.1, two_sided=True) == "holds"
    assert decide_verdict(-0.39, 0.1, two_sided=True) == "holds"
    assert decide_verdict(0.41, 0.1, two_sided=True) == "violated"
    assert decide_verdict(-0.41, 0.1, two_sided=True) == "violated"


def test_zero_stderr_exact_checks():
    assert decide_verdict(0.0, 0.0) == "holds"
    assert decide_verdict(1.0, 0.0) == "holds"
    assert decide_verdict(-1.0, 0.0) == "violated"


def _curve(step, diff_stderr):
    return SweepReport.from_curve("demo", [0.0, 1.0], [0.0, step], [0.1, 0.1], [diff_stderr],
                                  mode="verified", params={}, notes=[])


def test_sweep_step_rule_adds_the_floor_to_the_tolerance():
    # tolerance 4 * 1e-10 + 1e-9 = 1.4e-9 on each step
    rise = _curve(1.2e-9, 1e-10)
    assert rise.verdict == "holds"
    assert rise.monotone_nonincreasing and rise.monotone_nondecreasing
    rise = _curve(1.5e-9, 1e-10)
    assert rise.verdict == "violated"
    assert not rise.monotone_nonincreasing and rise.monotone_nondecreasing
    fall = _curve(-1.5e-9, 1e-10)
    assert fall.verdict == "holds"
    assert fall.monotone_nonincreasing and not fall.monotone_nondecreasing
    nan = _curve(-1.0, math.nan)
    assert nan.verdict == "inconclusive"
    assert not nan.monotone_nonincreasing and not nan.monotone_nondecreasing


def test_two_sample_rule_is_strict_without_floor():
    small = {"x_1_1": 0.5, "x_1_2": -1.0}
    for moment_z, energy_z, verdict in [
            ({**small, "x_2_1": 4.0}, 0.0, "violated"),
            ({**small, "x_2_1": -4.0}, 0.0, "violated"),
            ({**small, "x_2_1": 3.999}, 0.0, "holds"),
            (small, 3.999, "holds"),
            (small, 4.0, "violated"),   # the energy z alone decides
            (small, -4.5, "violated")]:
        rep = TwoSampleReport.from_z("demo", moment_z, energy_z, n=10, params={})
        assert rep.verdict == verdict
        assert rep.max_abs_z == max(abs(z) for z in [*moment_z.values(), energy_z])
        assert rep.z_threshold == 4.0


def test_worst_verdict_order():
    order = ["error", "violated", "inconclusive", "holds"]
    for i, worse in enumerate(order):
        assert worst_verdict([worse]) == worse
        for better in order[i:]:
            assert worst_verdict([worse, better]) == worse
            assert worst_verdict([better, worse]) == worse
    assert worst_verdict([]) == "holds"


def test_from_margin_records_z_and_notes():
    rep = CheckReport.from_margin("demo", lhs=1.0, rhs=2.0, stderr=0.5)
    assert rep.margin == 1.0 and rep.z == 2.0 and rep.verdict == "holds"
    rep = CheckReport.from_margin("demo", lhs=2.0, rhs=1.0, stderr=0.1,
                                  heavy_tail=True)
    assert rep.verdict == "inconclusive"
    assert any("heavy tail" in note for note in rep.notes)
    d = rep.as_dict()
    assert {"lhs", "rhs", "margin", "stderr", "z", "verdict"} <= set(d)


def test_non_finite_values_are_encoded_for_strict_json():
    # a nonzero margin with zero stderr has an infinite z
    for rhs, want in ((2.0, "inf"), (0.0, "-inf")):
        rep = CheckReport.from_margin("demo", lhs=1.0, rhs=rhs, stderr=0.0)
        assert rep.z == float(want)
        d = rep.as_dict()
        assert d["z"] == want
        json.dumps(d, allow_nan=False)
    est = FunctionalEstimate("lp", 0.0, math.nan, 10,
                             params={"curve": np.array([1.0, np.nan, -np.inf])})
    assert est.as_dict()["stderr"] is None
    assert est.as_dict()["params"]["curve"] == [1.0, None, "-inf"]


def test_heavy_tail_fraction():
    flat = np.ones(10_000)
    assert heavy_tail_fraction(flat) < 0.005
    spiked = flat.copy()
    spiked[0] = 1e7
    assert heavy_tail_fraction(spiked) > 0.9
    assert heavy_tail_fraction(np.zeros(100)) == 0.0


def test_nan_stderr_is_inconclusive_with_nan_z():
    assert decide_verdict(-1.0, math.nan) == "inconclusive"
    assert decide_verdict(1.0, math.nan, two_sided=True) == "inconclusive"
    rep = CheckReport.from_margin("demo", lhs=2.0, rhs=1.0, stderr=math.nan)
    assert math.isnan(rep.z) and rep.verdict == "inconclusive"
    assert rep.as_dict()["z"] is None


def test_one_sample_stderr_is_nan_without_warnings(capsys):
    # one sample has no stderr: NaN everywhere, inconclusive, and no numpy
    # RuntimeWarning from a ddof=1 spread of one value
    argv = ["--algebra", "heisenberg(1)", "--field", "@expx1", "--n", "1",
            "--steps", "8", "--seed", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["check", "slsi", *argv]) == 2
        rep = json.loads(capsys.readouterr().out)
        batch = heat.sample(algebra.builtin("heisenberg(1)"), 1.0, 1, 8, seed=1)
        f = calc.parse_field("(exp x_1_1)")
        estimates = [ineq.estimate("l1", f, batch), ineq.estimate("lp", f, batch, p=2.0)]
        sweep = ineq.check_l1_contractivity(f, batch, lsh_status="lsh")
    assert rep["stderr"] is None and rep["z"] is None
    assert rep["verdict"] == "inconclusive"
    assert all(math.isnan(est.stderr) for est in estimates)
    assert all(math.isnan(se) for se in sweep.stderrs + sweep.diff_stderrs)
    assert sweep.verdict == "inconclusive"
