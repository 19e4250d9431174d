"""Report types shared by the empirical checks and inequality estimators.

Monte Carlo checks can only falsify or be consistent; every verdict is
decided by one fixed z-score rule with an absolute floor, the constants
Z_THRESHOLD (4) and ABS_FLOOR (1e-9):

- one-sided (inequality lhs <= rhs, margin = rhs - lhs):
  holds iff margin >= -Z_THRESHOLD * stderr; violated iff margin is below
  that and |margin| exceeds ABS_FLOOR; otherwise inconclusive.
- two-sided (equality): same with |margin| <= Z_THRESHOLD * stderr.
- a NaN stderr, as from fewer than two samples, is inconclusive, with z NaN.

A heavy-tail diagnostic can force a report to "inconclusive": if the top
0.1% of samples contributes more than 20% of a mean, the estimate is not
trustworthy at the given sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

VERDICT_HOLDS = "holds"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

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
