"""Report types shared by the empirical checks and inequality estimators.

Monte Carlo checks can only falsify or be consistent; verdicts are decided
by a z-score rule with an absolute floor:

- one-sided (inequality lhs <= rhs, margin = rhs - lhs):
  holds iff margin >= -z_threshold * stderr; violated iff margin is below
  that and |margin| exceeds the absolute floor; otherwise inconclusive.
- two-sided (equality): same with |margin| <= z_threshold * stderr.

A heavy-tail diagnostic can force a report to "inconclusive": if the top
0.1% of samples contributes more than 20% of a mean, the estimate is not
trustworthy at the given sample size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def decide_verdict(margin: float, stderr: float, two_sided: bool = False,
                   z_threshold: float = Z_THRESHOLD,
                   abs_floor: float = ABS_FLOOR) -> str:
    gap = abs(margin) if two_sided else -margin
    if gap <= z_threshold * stderr:
        return VERDICT_HOLDS
    if abs(margin) > abs_floor:
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


@dataclass
class FunctionalEstimate:
    """A Monte Carlo estimate of one integral functional against rho_s dm."""

    functional: str
    value: float
    stderr: float
    n: int
    params: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "functional": self.functional,
            "value": self.value,
            "stderr": self.stderr,
            "n": self.n,
            "params": dict(self.params),
        }


@dataclass
class CheckReport:
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
                    heavy_tail=False,
                    z_threshold=Z_THRESHOLD, abs_floor=ABS_FLOOR):
        margin = rhs - lhs
        z = margin / stderr if stderr > 0 else (0.0 if margin == 0 else np.sign(margin) * np.inf)
        verdict = decide_verdict(margin, stderr, two_sided, z_threshold, abs_floor)
        notes = list(notes or [])
        if heavy_tail:
            verdict = VERDICT_INCONCLUSIVE
            notes.append("inconclusive — heavy tail")
        return CheckReport(
            name=name, lhs=lhs, rhs=rhs, margin=margin, stderr=stderr,
            z=float(z), verdict=verdict, two_sided=two_sided, mode=mode,
            params=dict(params or {}), notes=notes, details=dict(details or {}),
        )

    def as_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "stderr": self.stderr,
            "z": self.z,
            "verdict": self.verdict,
            "two_sided": self.two_sided,
            "mode": self.mode,
            "params": dict(self.params),
            "notes": list(self.notes),
            "details": dict(self.details),
        }


@dataclass
class TwoSampleReport:
    """Distributional comparison: per-moment z-scores + an energy statistic."""

    name: str
    moment_z: dict
    energy_z: float
    max_abs_z: float
    z_threshold: float
    verdict: str
    n: int
    params: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "name": self.name,
            "moment_z": {k: v for k, v in self.moment_z.items()},
            "energy_z": self.energy_z,
            "max_abs_z": self.max_abs_z,
            "z_threshold": self.z_threshold,
            "verdict": self.verdict,
            "n": self.n,
            "params": dict(self.params),
        }


@dataclass
class TailReport:
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

    def as_dict(self):
        return {
            "name": self.name,
            "grid_r": list(map(float, self.grid_r)),
            "log_survival": list(map(float, self.log_survival)),
            "slope_quadratic": self.slope_quadratic,
            "slope_linear": self.slope_linear,
            "aic_quadratic": self.aic_quadratic,
            "aic_linear": self.aic_linear,
            "quadratic_dominates": self.quadratic_dominates,
            "slope_negative": self.slope_negative,
            "passed": self.passed,
            "n": self.n,
            "params": dict(self.params),
        }


@dataclass
class SweepReport:
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

    def as_dict(self):
        return {
            "name": self.name,
            "ts": list(map(float, self.ts)),
            "values": list(map(float, self.values)),
            "stderrs": list(map(float, self.stderrs)),
            "diff_stderrs": list(map(float, self.diff_stderrs)),
            "monotone_nonincreasing": self.monotone_nonincreasing,
            "monotone_nondecreasing": self.monotone_nondecreasing,
            "verdict": self.verdict,
            "mode": self.mode,
            "params": dict(self.params),
            "notes": list(self.notes),
        }
