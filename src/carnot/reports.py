"""Report types, and the one policy that turns an estimate into a verdict.

Monte Carlo checks can only falsify or be consistent. A check hands its
numbers to a report constructor here, which decides the verdict with two
fixed constants, Z_THRESHOLD (4) and ABS_FLOOR (1e-9):

- margin (``CheckReport.from_margin``), an inequality lhs <= rhs with
  margin = rhs - lhs: holds iff margin >= -Z_THRESHOLD * stderr; violated
  iff it is below that and |margin| > ABS_FLOOR; otherwise inconclusive.
  Two-sided (an equality): the same with |margin| <= Z_THRESHOLD * stderr.
  A NaN stderr, as from fewer than two samples, is inconclusive, with z NaN.
- heavy tail: a margin report whose check flags a column where the top 0.1%
  of samples carries more than 20% of sum |column| (``heavy_tail_fraction``)
  is inconclusive, noted "inconclusive — heavy tail", whatever its margin.
- sweep step (``SweepReport.from_curve``): each step of the curve is within
  the tolerance Z_THRESHOLD * its diff stderr + ABS_FLOOR, the floor added
  to the tolerance. The curve is non-increasing iff every step <= tol, and
  non-decreasing iff every step >= -tol; the verdict holds iff it is
  non-increasing, else violated, and inconclusive if a diff stderr is NaN.
- two-sample (``TwoSampleReport.from_z``): holds iff the largest |z| of the
  moment z-scores and the energy z is < Z_THRESHOLD (strict), else violated;
  no floor, never inconclusive.
- combined (``worst_verdict``): the worst in the order error, violated,
  inconclusive, holds; holds for none. A run exits with the code of its
  worst verdict: 3, 1, 2 and 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

VERDICT_HOLDS = "holds"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_ERROR = "error"
# the order in which verdicts combine, worst first
_VERDICT_ORDER = (VERDICT_ERROR, VERDICT_VIOLATED, VERDICT_INCONCLUSIVE, VERDICT_HOLDS)

Z_THRESHOLD = 4.0
ABS_FLOOR = 1e-9

HEAVY_TAIL_TOP = 1e-3
HEAVY_TAIL_FRACTION = 0.2

MODE_VERIFIED = "verified"
MODE_EXPLORATORY = "exploratory"


def decide_verdict(margin: float, stderr: float, two_sided: bool = False) -> str:
    if math.isnan(stderr):
        return VERDICT_INCONCLUSIVE
    gap = abs(margin) if two_sided else -margin
    if gap <= Z_THRESHOLD * stderr:
        return VERDICT_HOLDS
    if abs(margin) > ABS_FLOOR:
        return VERDICT_VIOLATED
    return VERDICT_INCONCLUSIVE


def worst_verdict(verdicts) -> str:
    return min(verdicts, key=_VERDICT_ORDER.index, default=VERDICT_HOLDS)


def heavy_tail_fraction(contributions) -> float:
    """Share of sum |contributions| carried by the top 0.1% of samples."""
    arr = np.abs(np.asarray(contributions, dtype=float))
    total = float(arr.sum())
    if total == 0.0:
        return 0.0
    k = max(1, int(arr.size * HEAVY_TAIL_TOP))
    top = np.partition(arr, arr.size - k)[arr.size - k:]
    return float(top.sum()) / total


class Report:
    """Base of the result dataclasses; ``as_dict`` is derived from the fields."""

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    """JSON-ready copy: ndarrays become float lists, nested reports dicts.

    JSON has no NaN or infinity. A NaN becomes None (null); an infinity,
    such as the z of a nonzero margin with zero stderr, becomes the string
    "inf" or "-inf", which float() reads back.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, np.ndarray):
        return _plain(np.asarray(value, dtype=float).tolist())
    if isinstance(value, Report):
        return value.as_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@dataclass
class FunctionalEstimate(Report):
    """A Monte Carlo estimate of one integral functional against rho_s dm."""

    functional: str
    value: float
    stderr: float
    n: int
    params: dict = field(default_factory=dict)


@dataclass
class CheckReport(Report):
    """Outcome of one inequality / equality check on a common sample batch."""

    name: str
    lhs: float
    rhs: float
    margin: float
    stderr: float
    z: float
    verdict: str
    two_sided: bool = False
    mode: str = MODE_VERIFIED
    params: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @staticmethod
    def from_margin(name, lhs, rhs, stderr, *, two_sided=False,
                    mode=MODE_VERIFIED, params=None, notes=None, details=None,
                    heavy_tail=False):
        margin = rhs - lhs
        z = margin / stderr if stderr != 0 else (0.0 if margin == 0 else np.sign(margin) * np.inf)
        verdict = decide_verdict(margin, stderr, two_sided)
        notes = list(notes or [])
        if heavy_tail:
            verdict = VERDICT_INCONCLUSIVE
            notes.append("inconclusive — heavy tail")
        return CheckReport(
            name=name, lhs=lhs, rhs=rhs, margin=margin, stderr=stderr,
            z=float(z), verdict=verdict, two_sided=two_sided, mode=mode,
            params=dict(params or {}), notes=notes, details=dict(details or {}),
        )


@dataclass
class TwoSampleReport(Report):
    """Distributional comparison: per-moment z-scores + an energy statistic."""

    name: str
    moment_z: dict
    energy_z: float
    max_abs_z: float
    z_threshold: float
    verdict: str
    n: int
    params: dict = field(default_factory=dict)

    @staticmethod
    def from_z(name, moment_z, energy_z, *, n, params):
        worst = max(abs(v) for v in [*moment_z.values(), energy_z])
        return TwoSampleReport(
            name=name, moment_z=moment_z, energy_z=energy_z, max_abs_z=worst,
            z_threshold=Z_THRESHOLD,
            verdict=VERDICT_HOLDS if worst < Z_THRESHOLD else VERDICT_VIOLATED,
            n=n, params=params)


@dataclass
class TailReport(Report):
    """Quasi-norm tail shape: quadratic vs linear log-survival fit."""

    name: str
    grid_r: list
    log_survival: list
    slope_quadratic: float
    slope_linear: float
    aic_quadratic: float
    aic_linear: float
    quadratic_dominates: bool
    slope_negative: bool
    passed: bool
    n: int
    params: dict = field(default_factory=dict)


@dataclass
class SweepReport(Report):
    """A curve of estimates over a t-grid with a monotonicity verdict."""

    name: str
    ts: list
    values: list
    stderrs: list
    diff_stderrs: list
    monotone_nonincreasing: bool
    monotone_nondecreasing: bool
    verdict: str
    mode: str = MODE_VERIFIED
    params: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @staticmethod
    def from_curve(name, ts, values, stderrs, diff_stderrs, *, mode, params, notes):
        tol = Z_THRESHOLD * np.asarray(diff_stderrs) + ABS_FLOOR
        diffs = np.diff(np.asarray(values))
        noninc = bool(np.all(diffs <= tol))
        verdict = (VERDICT_INCONCLUSIVE if np.isnan(tol).any()
                   else VERDICT_HOLDS if noninc else VERDICT_VIOLATED)
        return SweepReport(
            name=name, ts=ts, values=values, stderrs=stderrs, diff_stderrs=diff_stderrs,
            monotone_nonincreasing=noninc, monotone_nondecreasing=bool(np.all(diffs >= -tol)),
            verdict=verdict, mode=mode, params=params, notes=notes)
