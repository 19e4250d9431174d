"""Hypoelliptic heat kernel sampling via horizontal random walks.

Convention: the semigroup is e^{s Delta/4}, so over a step of length h the
horizontal Gaussian increment has variance h/2 per orthonormal first-layer
coordinate (a generator-(1/2)Delta walk would use h).  This is the most
error-prone constant in the toolkit; it is pinned by the Euclidean oracle
Var(x_{1,k}(X_s)) = s/2 and, at s = 2, by the standard Gaussian.

The scheme is a McKean-Gangolli injection: X_0 = e and X_{k+1} =
X_k exp(sigma Z_k . xi) with sigma = sqrt(h/2).  Because first-layer BCH
terms are additive, first-layer marginals are exact in law for any number
of steps; the full law converges at weak order 1.

Reproducibility: each path has its own counter-based Philox stream keyed by
(seed, path index), so batches are bit-identical regardless of how paths
are chunked or distributed over workers.

Optionally, sampling applies an exponential tilt in the first layer
(importance sampling): with tilt vector b the first-layer mean shifts to
b s/2, and each sample carries weight exp(-b.x_1 + s|b|^2/4), which has
expectation 1.  Tilting makes heavy integrands of the form e^{b.x_1}
estimable at small variance; plain estimators stay unbiased because means
are taken against the weights.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .algebra import StratifiedAlgebra
from .errors import ParameterError, StructureError
from .group import dilate_batch, homogeneous_norm_batch, multiply_batch
from .reports import TailReport, TwoSampleReport, VERDICT_HOLDS, VERDICT_VIOLATED

# upper bound on floats generated per chunk; keeps memory ~modest
_CHUNK_BUDGET = 2 ** 25


@dataclass
class HeatSampleBatch:
    """A seeded Monte Carlo sample of the heat kernel measure rho_s dm."""

    algebra: StratifiedAlgebra
    s: float
    n_samples: int
    n_steps: int
    seed: int
    samples: np.ndarray           # (n_samples, dim)
    tilt: np.ndarray | None = None
    log_weights: np.ndarray | None = None

    @property
    def weights(self) -> np.ndarray:
        if self.log_weights is None:
            return np.ones(self.n_samples)
        return np.exp(self.log_weights)

    @property
    def is_tilted(self) -> bool:
        return self.tilt is not None

    def first_layer(self) -> np.ndarray:
        return self.samples[:, : self.algebra.dim_v1]

    def save_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.algebra.coordinate_labels())
            writer.writerows(self.samples.tolist())

    def __repr__(self):
        return (
            f"<HeatSampleBatch s={self.s} n={self.n_samples} steps={self.n_steps} "
            f"seed={self.seed} tilted={self.is_tilted}>"
        )


def load_csv(path: str) -> np.ndarray:
    """Coordinate rows from a batch CSV written by HeatSampleBatch.save_csv."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    return np.atleast_2d(data)


def _path_normals(bitgen, seed: int, path: int, shape) -> np.ndarray:
    """Standard normals from the Philox stream keyed by (seed, path)."""
    state = bitgen.state
    state["state"]["key"][:] = [seed, path]
    state["state"]["counter"][:] = 0
    state["buffer_pos"] = 4
    state["has_uint32"] = 0
    state["uinteger"] = 0
    bitgen.state = state
    return np.random.Generator(bitgen).standard_normal(shape)


def _validate_params(s, n_samples, n_steps):
    if not (s > 0):
        raise ParameterError(f"time s must be > 0, got {s}")
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")


def sample(algebra: StratifiedAlgebra, s: float, n_samples: int,
           n_steps: int = 512, seed: int = 0, tilt=None) -> HeatSampleBatch:
    """Draw n_samples from rho_s dm with a n_steps-step horizontal walk."""
    _validate_params(s, n_samples, n_steps)
    d1 = algebra.dim_v1
    if tilt is not None:
        tilt = np.asarray(tilt, dtype=float)
        if tilt.shape != (d1,):
            raise ParameterError(f"tilt must have shape ({d1},), got {tilt.shape}")

    h = s / n_steps
    sigma = math.sqrt(h / 2.0)
    shift = None if tilt is None else tilt * (h / 2.0)

    out = np.empty((n_samples, algebra.dim))
    chunk = max(256, _CHUNK_BUDGET // max(1, n_steps * d1))
    bitgen = np.random.Philox(key=[seed, 0])
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        m = hi - lo
        Z = np.empty((m, n_steps, d1))
        for i in range(m):
            Z[i] = _path_normals(bitgen, seed, lo + i, (n_steps, d1))
        inc = sigma * Z
        if shift is not None:
            inc += shift
        if not algebra.sparse:
            # abelian: the walk is a plain sum of increments
            X = np.zeros((m, algebra.dim))
            X[:, :d1] = inc.sum(axis=1)
        else:
            X = np.zeros((m, algebra.dim))
            step = np.zeros((m, algebra.dim))
            for k in range(n_steps):
                step[:, :d1] = inc[:, k, :]
                X = multiply_batch(algebra, X, step)
        out[lo:hi] = X

    log_w = None
    if tilt is not None:
        log_w = -(out[:, :d1] @ tilt) + s * float(tilt @ tilt) / 4.0
    return HeatSampleBatch(
        algebra=algebra, s=float(s), n_samples=n_samples, n_steps=n_steps,
        seed=int(seed), samples=out, tilt=tilt, log_weights=log_w,
    )


def coupled_refinement(algebra: StratifiedAlgebra, s: float, n_samples: int,
                       steps_list, seed: int) -> dict:
    """Batches at several step counts driven by one underlying path per sample.

    All step counts must divide the largest one.  The coarse walks aggregate
    the fine increments in blocks, which reproduces the coarse walk's law
    exactly while coupling the discretization errors across resolutions, so
    refinement trends are not drowned in independent sampling noise.
    """
    steps_list = sorted(set(int(k) for k in steps_list))
    finest = steps_list[-1]
    for k in steps_list:
        _validate_params(s, n_samples, k)
        if finest % k:
            raise ParameterError(f"{k} does not divide finest step count {finest}")
    d1 = algebra.dim_v1
    h_f = s / finest
    sigma_f = math.sqrt(h_f / 2.0)

    batches = {
        k: np.empty((n_samples, algebra.dim)) for k in steps_list
    }
    chunk = max(256, _CHUNK_BUDGET // max(1, finest * d1))
    bitgen = np.random.Philox(key=[seed, 0])
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        m = hi - lo
        Z = np.empty((m, finest, d1))
        for i in range(m):
            Z[i] = _path_normals(bitgen, seed, lo + i, (finest, d1))
        fine_inc = sigma_f * Z
        for k in steps_list:
            group = finest // k
            inc = fine_inc.reshape(m, k, group, d1).sum(axis=2)
            X = np.zeros((m, algebra.dim))
            step = np.zeros((m, algebra.dim))
            for j in range(k):
                step[:, :d1] = inc[:, j, :]
                X = multiply_batch(algebra, X, step)
            batches[k][lo:hi] = X

    return {
        k: HeatSampleBatch(algebra=algebra, s=float(s), n_samples=n_samples,
                           n_steps=k, seed=int(seed), samples=batches[k])
        for k in steps_list
    }


# -- empirical distribution checks ---------------------------------------------


def _moment_z_paired(A: np.ndarray, B: np.ndarray, labels, orders=(1, 2, 3)):
    """z-scores of mean(A^r - B^r) for samples paired row by row."""
    zs = {}
    n = A.shape[0]
    for c, label in enumerate(labels):
        for r in orders:
            d = A[:, c] ** r - B[:, c] ** r
            sd = float(d.std(ddof=1))
            zs[f"{label}^{r}"] = float(d.mean() / (sd / math.sqrt(n))) if sd > 0 else 0.0
    return zs


def _moment_z_unpaired(A: np.ndarray, B: np.ndarray, labels, orders=(1, 2, 3)):
    zs = {}
    na, nb = A.shape[0], B.shape[0]
    for c, label in enumerate(labels):
        for r in orders:
            a = A[:, c] ** r
            b = B[:, c] ** r
            se = math.sqrt(a.var(ddof=1) / na + b.var(ddof=1) / nb)
            zs[f"{label}^{r}"] = float((a.mean() - b.mean()) / se) if se > 0 else 0.0
    return zs


def _energy_from_dist(D: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> float:
    return float(
        2.0 * D[np.ix_(ia, ib)].mean()
        - D[np.ix_(ia, ia)].mean()
        - D[np.ix_(ib, ib)].mean()
    )


def _energy_z(A: np.ndarray, B: np.ndarray, seed: int, n_perm: int = 100,
              cap: int = 512) -> float:
    """Permutation z-score of the energy distance between two samples.

    Distances over the pooled (subsampled) points are computed once; each
    permutation only reindexes the matrix.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 2 ** 32]))
    if A.shape[0] > cap:
        A = A[rng.choice(A.shape[0], cap, replace=False)]
    if B.shape[0] > cap:
        B = B[rng.choice(B.shape[0], cap, replace=False)]
    pooled = np.vstack([A, B])
    diff = pooled[:, None, :] - pooled[None, :, :]
    D = np.sqrt((diff ** 2).sum(axis=2))
    na, ntot = A.shape[0], pooled.shape[0]
    obs = _energy_from_dist(D, np.arange(na), np.arange(na, ntot))
    null = np.empty(n_perm)
    for i in range(n_perm):
        perm = rng.permutation(ntot)
        null[i] = _energy_from_dist(D, perm[:na], perm[na:])
    sd = float(null.std(ddof=1))
    return float((obs - null.mean()) / sd) if sd > 0 else 0.0


def _require_untilted(batch: HeatSampleBatch, what: str):
    if batch.is_tilted:
        raise ParameterError(f"{what} requires an untilted batch")


def empirical_check_inverse_symmetry(batch: HeatSampleBatch,
                                     z_threshold: float = 4.0) -> TwoSampleReport:
    """Compare the batch against its group inverses (coordinate negation).

    The heat kernel measure is invariant under the inverse, so all paired
    moment z-scores and the energy statistic stay within threshold.
    """
    _require_untilted(batch, "inverse-symmetry check")
    A = batch.samples
    B = -batch.samples
    labels = batch.algebra.coordinate_labels()
    zs = _moment_z_paired(A, B, labels)
    ez = _energy_z(A, B, batch.seed)
    zs_all = list(zs.values()) + [ez]
    worst = max(abs(v) for v in zs_all)
    return TwoSampleReport(
        name="heat-inverse-symmetry",
        moment_z=zs,
        energy_z=ez,
        max_abs_z=worst,
        z_threshold=z_threshold,
        verdict=VERDICT_HOLDS if worst < z_threshold else VERDICT_VIOLATED,
        n=batch.n_samples,
        params={"s": batch.s, "steps": batch.n_steps, "seed": batch.seed},
    )


def empirical_check_scaling(batch_s: HeatSampleBatch, lam: float,
                            batch_sp: HeatSampleBatch,
                            z_threshold: float = 4.0) -> TwoSampleReport:
    """delta_{1/lambda}(X_s) should match X_{s lambda^{-2}} in law."""
    _require_untilted(batch_s, "scaling check")
    _require_untilted(batch_sp, "scaling check")
    if batch_s.algebra is not batch_sp.algebra:
        raise StructureError("scaling check needs batches over one algebra")
    target = batch_s.s / lam ** 2
    if abs(batch_sp.s - target) > 1e-12:
        raise ParameterError(
            f"time mismatch: second batch at s={batch_sp.s}, expected {target}"
        )
    A = dilate_batch(batch_s.algebra, 1.0 / lam, batch_s.samples)
    B = batch_sp.samples
    labels = batch_s.algebra.coordinate_labels()
    zs = _moment_z_unpaired(A, B, labels)
    ez = _energy_z(A, B, batch_s.seed ^ batch_sp.seed)
    zs_all = list(zs.values()) + [ez]
    worst = max(abs(v) for v in zs_all)
    return TwoSampleReport(
        name="heat-scaling",
        moment_z=zs,
        energy_z=ez,
        max_abs_z=worst,
        z_threshold=z_threshold,
        verdict=VERDICT_HOLDS if worst < z_threshold else VERDICT_VIOLATED,
        n=min(batch_s.n_samples, batch_sp.n_samples),
        params={"s": batch_s.s, "lambda": lam, "s_prime": batch_sp.s},
    )


def _fit_line(xs: np.ndarray, ys: np.ndarray):
    """Least squares a + b x; returns (a, b, rss)."""
    A = np.column_stack([np.ones_like(xs), xs])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def empirical_tail_profile(batch: HeatSampleBatch, n_grid: int = 14) -> TailReport:
    """Fit log P(N(X_s) > r) by a + b r^2 vs a + b r over a quantile grid.

    Gaussian-type decay means the quadratic model wins (lower AIC) with a
    strictly negative slope.  The sharp constants in the two-sided kernel
    bounds are NOT reproduced; this is a shape check only.
    """
    _require_untilted(batch, "tail profile")
    if batch.n_samples < 10_000:
        raise ParameterError("tail profile needs at least 1e4 samples")
    norms = homogeneous_norm_batch(batch.algebra, batch.samples)
    lo = float(np.quantile(norms, 0.5))
    hi = float(np.quantile(norms, 1.0 - 30.0 / batch.n_samples))
    grid = np.linspace(lo, hi, n_grid)
    surv = np.array([(norms > r).mean() for r in grid])
    keep = surv > 0
    grid, surv = grid[keep], surv[keep]
    logs = np.log(surv)

    _, b_quad, rss_quad = _fit_line(grid ** 2, logs)
    _, b_lin, rss_lin = _fit_line(grid, logs)
    n = len(grid)
    aic_quad = 2 * 2 + n * math.log(rss_quad / n) if rss_quad > 0 else -np.inf
    aic_lin = 2 * 2 + n * math.log(rss_lin / n) if rss_lin > 0 else -np.inf
    quad_wins = aic_quad < aic_lin
    negative = b_quad < 0
    return TailReport(
        name="heat-tail-profile",
        grid_r=grid.tolist(),
        log_survival=logs.tolist(),
        slope_quadratic=b_quad,
        slope_linear=b_lin,
        aic_quadratic=float(aic_quad),
        aic_linear=float(aic_lin),
        quadratic_dominates=bool(quad_wins),
        slope_negative=bool(negative),
        passed=bool(quad_wins and negative),
        n=batch.n_samples,
        params={"s": batch.s, "steps": batch.n_steps, "seed": batch.seed},
    )
