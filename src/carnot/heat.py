"""Hypoelliptic heat kernel sampling: horizontal random walks, and exact draws
where the law is known.

Convention: the semigroup is e^{s Delta/4}, so over a step of length h the
horizontal Gaussian increment has variance h/2 per orthonormal first-layer
coordinate (a generator-(1/2)Delta walk would use h).  This is the most
error-prone constant in the toolkit; it is pinned by the Euclidean oracle
Var(x_{1,k}(X_s)) = s/2 and, at s = 2, by the standard Gaussian.

The scheme is a McKean-Gangolli injection: X_0 = e and X_{k+1} =
X_k exp(sigma Z_k . xi) with sigma = sqrt(h/2).  Because first-layer BCH
terms are additive, first-layer marginals are exact in law for any number
of steps, N(b s/2, (s/2) I) with tilt b; the full law converges at weak
order 1.  So a one-step batch is an exact first-layer batch: its first
layer is that law, drawn from one step's normals, and its upper layers are
absent, NaN, never the zeros of a one-step walk.  A check of a field that
reads an upper layer refuses it, and so does every heat check
(HeatSampleBatch.require_layers).
On euclidean(n) the first layer is every layer, so a one-step batch there
is the whole law.

On an H-type algebra an exact-h-type batch draws the whole law: given the
first layer, Levy's area formula (Gaveau, Acta Math. 1977) makes the centre a
Gaussian scale mixture whose variance is a Gamma-Poisson series (Pitman & Yor,
Canad. J. Math. 2003).  Each mode of the series is a noncentral chi^2, the
squared norm of shifted normals, so that batch too draws normals alone.
batch_kind chooses each batch's kind.

Reproducibility: block b of _BLOCK_PATHS paths draws its normals from its
own SFC64 stream keyed by (seed, b), step by step: all the block's paths'
first-layer coordinates of step 1, then of step 2, and so on.  A partial last
block draws its full width and keeps its first paths.  So a batch is
bit-identical however its paths are chunked and its steps tiled, and its
paths are the first n of any larger batch at the same seed.

Cost: paths are sampled in chunks of whole blocks, and a chunk's steps in
tiles of about _TILE_STEPS steps, each of at most _CHUNK_BUDGET increments
(2^18 floats, 2 MB) where one block fits: about 8k paths per chunk on a group
with a 2-dim first layer.  Every tile is drawn into one buffer, so a call
holds one tile at any n_samples and n_steps (a coupled refinement adds one
buffer for its coarser walks' step sums).  The walk runs column-wise: each
coordinate is one array over the chunk's paths, and each step is one
group.multiply_jets call over all of them, with the step's structurally zero
upper layers as 0.0.

Optionally, sampling applies an exponential tilt in the first layer
(importance sampling): with tilt vector b the first-layer mean shifts to
b s/2, and each sample carries weight exp(-b.x_1 + s|b|^2/4), which has
expectation 1.  Tilting makes heavy integrands of the form e^{b.x_1}
estimable at small variance; plain estimators stay unbiased because means
are taken against the weights.  A tilt whose weights all underflow is an error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .algebra import PARTIAL_ISOMETRY_TOL, StratifiedAlgebra, j_matrix
from .errors import ParameterError, StructureError, is_integer
from .group import dilate_batch, homogeneous_norm_batch, multiply_jets
from .reports import TailReport, TwoSampleReport

# upper bound on the increments (floats) of one tile of a chunk of paths
_CHUNK_BUDGET = 2 ** 18
# paths per block of the normal stream: block b is keyed (seed, b)
_BLOCK_PATHS = 256
# steps per tile: the walk takes a chunk's increments one tile at a time
_TILE_STEPS = 16
# Gamma-Poisson modes an exact-h-type batch draws, d1 normals each; the rest
# enter by their mean
_H_TYPE_MODES = 8
# pooled points per row block of the energy test's distance matrix
_DIST_ROWS = 64
# the energy test's permutations, and the points it keeps of each sample
_ENERGY_PERMUTATIONS = 100
_ENERGY_CAP = 512
# survival levels the tail profile fits
_TAIL_GRID = 14


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
    kind: str = "walk"            # batch_kind's choice

    def __post_init__(self):
        if self.kind == "exact-first-layer":  # its upper layers are absent
            self.samples[:, self.algebra.dim_v1:] = np.nan

    @property
    def weights(self) -> np.ndarray:
        if self.log_weights is None:
            return np.ones(self.n_samples)
        return np.exp(self.log_weights)

    @property
    def is_tilted(self) -> bool:
        return self.tilt is not None

    @property
    def layers(self) -> int:
        """The layers the batch holds, 1 to this count: 1 if exact first-layer, else all."""
        return 1 if self.kind == "exact-first-layer" else self.algebra.step

    @property
    def summary(self) -> dict:
        """Its kind, steps and normals drawn, by law: every block draws its full width."""
        paths = -(-self.n_samples // _BLOCK_PATHS) * _BLOCK_PATHS
        d1, m = self.algebra.dim_v1, self.algebra.dim - self.algebra.dim_v1
        h_type = self.kind == "exact-h-type"
        per_path = d1 * (_H_TYPE_MODES + 1) + m if h_type else self.n_steps * d1
        return {"kind": self.kind, "steps": self.n_steps, "normals": paths * per_path}

    def require_layers(self, layers, what: str):
        """Each of ``layers`` must be one the batch holds; ``what`` is who reads
        them, as in "the field reads"."""
        absent = sorted(j for j in layers if j > self.layers)
        if absent:
            raise ParameterError(
                f"{what} layer {absent[0]}, which a one-step batch does not hold: "
                f"it is an exact first-layer batch, its upper layers absent; "
                f"draw more steps")

    def save_csv(self, path: str):
        self.require_layers(range(1, self.algebra.step + 1), "a batch CSV writes")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.algebra.coordinate_labels())
            writer.writerows(self.samples.tolist())

    def __repr__(self):
        return (
            f"<HeatSampleBatch {self.kind} s={self.s} n={self.n_samples} "
            f"steps={self.n_steps} seed={self.seed} tilted={self.is_tilted}>"
        )


def load_csv(path: str, algebra: StratifiedAlgebra) -> np.ndarray:
    """Coordinate rows from a batch CSV that HeatSampleBatch.save_csv wrote for ``algebra``."""
    labels = algebra.coordinate_labels()
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    if header != labels:
        raise StructureError(
            f"{path}: header must be {','.join(labels)}, got {','.join(header) or 'none'}")
    try:
        data = np.array(rows, dtype=float)
    except ValueError:  # a ragged row or an entry that is not a number
        data = None
    if not rows or data is None or data.shape[1] != len(labels) or not np.isfinite(data).all():
        raise StructureError(f"{path}: needs one or more rows of {len(labels)} finite numbers")
    return data


def _seed_ok(seed) -> bool:
    return is_integer(seed) and 0 <= seed < 2 ** 64


def _validate_params(algebra, s, n_samples, n_steps, seed):
    if not np.array_equal(algebra.metric_v1, np.eye(algebra.dim_v1)):
        raise ParameterError(f"heat sampling draws in the V_1 basis, so metric_v1 must be the "
                             f"identity, got {algebra.metric_v1.tolist()}")
    if not _seed_ok(seed):
        raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not (s > 0):
        raise ParameterError(f"time s must be > 0, got {s}")
    for name, value in (("n_steps", n_steps), ("n_samples", n_samples)):
        if not is_integer(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ParameterError(f"{name} must be >= 1, got {value}")


def _tile_steps(steps_list) -> int:
    """Steps per tile for the sorted step counts steps_list: about _TILE_STEPS,
    at most the finest count, and a multiple of every block finest // k of fine
    steps that a coarser walk sums."""
    finest = steps_list[-1]
    r = finest // math.gcd(*steps_list)
    return min(finest, r * max(1, _TILE_STEPS // r))


def _increments(algebra: StratifiedAlgebra, s: float, n_samples: int,
                n_steps: int, seed: int, tile_steps: int, shift=None):
    """First-layer walk increments chunk by chunk: yields (lo, hi, tiles).

    A chunk is whole blocks of _BLOCK_PATHS paths from path lo on, as many as
    keep a tile of tile_steps steps (at least _TILE_STEPS) within
    _CHUNK_BUDGET floats; its paths in the batch end at hi.  tiles yields the
    chunk's increments tile_steps steps at a time, as a (blocks, steps, d1,
    _BLOCK_PATHS) array: sigma times the normals, plus ``shift`` when given.
    Block b draws its normals in (step, coordinate, path) order from one SFC64
    stream keyed by the fixed-width uint32 words (seed mod 2^32, b, seed div
    2^32), so no two (seed, b) share a stream, and writes each tile's share in
    place; a partial last block draws its full width too.  Every tile reuses
    one buffer: consume it first.
    """
    d1 = algebra.dim_v1
    sigma = math.sqrt(s / n_steps / 2.0)
    n_blocks = -(-n_samples // _BLOCK_PATHS)
    width = max(1, _CHUNK_BUDGET // (max(tile_steps, _TILE_STEPS) * d1 * _BLOCK_PATHS))
    buf = np.empty((min(width, n_blocks), tile_steps, d1, _BLOCK_PATHS))
    if shift is not None:
        shift = shift[:, None]

    def tiles(streams):
        for k0 in range(0, n_steps, tile_steps):
            tile = buf[:len(streams), :min(tile_steps, n_steps - k0)]
            for stream, part in zip(streams, tile):
                stream.standard_normal(out=part)
            tile *= sigma
            if shift is not None:
                tile += shift
            yield tile

    for b0 in range(0, n_blocks, width):
        b1 = min(b0 + width, n_blocks)
        streams = [_block_stream(seed, b) for b in range(b0, b1)]
        yield b0 * _BLOCK_PATHS, min(b1 * _BLOCK_PATHS, n_samples), tiles(streams)


def _block_stream(seed: int, b: int) -> np.random.Generator:
    # first use of np.random, never at import; seed < 2^32 keys SeedSequence([seed, b])
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        np.array([seed % 2 ** 32, b, seed >> 32], dtype=np.uint32))))


def _walk(algebra: StratifiedAlgebra, X, tile: np.ndarray) -> list:
    """Walks X advanced by a tile's steps, X_k = X_{k-1} exp(inc_k . xi).

    X is dim arrays of shape (blocks, paths), or None for walks from e, whose
    first step is a copy of its increments, with zero upper layers; tile is
    (blocks, steps, d1, paths).  Every other step is one multiply_jets call
    over the whole chunk: its d1 increment columns, and 0.0 for the upper
    layers, which multiply_jets skips.  On a step-1 algebra that is the sum.
    """
    steps = tile.transpose(1, 2, 0, 3)
    if X is None:
        X = [*np.array(steps[0]), *np.zeros((algebra.dim - algebra.dim_v1, *steps.shape[2:]))]
        steps = steps[1:]
    upper = [0.0] * (algebra.dim - algebra.dim_v1)
    for step in steps:
        X = multiply_jets(algebra, X, [*step, *upper])
    return X


def _endpoints(algebra: StratifiedAlgebra, s: float, n_samples: int, steps_list,
               seed: int, shift=None) -> dict:
    """Walk endpoints {k: (n_samples, dim)} for the sorted step counts steps_list,
    all driven by the finest walk's increments (plus ``shift``): step j of a
    k-step walk is the sum, in step order, of fine steps j r .. j r + r - 1,
    r = finest // k.

    Each tile of fine steps advances every walk: the finest takes the tile as
    it is, without a copy, and the coarser counts sum it, one after the other,
    into one buffer sized at the first tile for the largest of them.
    """
    finest = steps_list[-1]
    tile_steps = _tile_steps(steps_list)
    out = {k: np.empty((n_samples, algebra.dim)) for k in steps_list}
    sums = None
    for lo, hi, tiles in _increments(algebra, s, n_samples, finest, seed, tile_steps, shift):
        X = dict.fromkeys(steps_list)
        for tile in tiles:
            for k in steps_list:
                tile_k, r = tile, finest // k
                if r > 1:
                    if sums is None:
                        sums = np.empty_like(tile[:, ::finest // steps_list[-2]])
                    tile_k = sums[:len(tile), :tile.shape[1] // r]
                    np.copyto(tile_k, tile[:, ::r])
                    for i in range(1, r):
                        tile_k += tile[:, i::r]
                X[k] = _walk(algebra, X[k], tile_k)
        for k in steps_list:
            for c, x in enumerate(X[k]):
                out[k][lo:hi, c] = x.reshape(-1)[:hi - lo]
    return out


def batch_kind(algebra: StratifiedAlgebra, n_steps: int, layers=None) -> str:
    """The law of a batch whose readers read ``layers``, the first that applies of
    "exact-first-layer" (one step, or no read above the first layer),
    "exact-h-type" (Levy's law holds: step 2, the identity V_1 metric and, on
    the V_2 basis, J_a^T J_b + J_b^T J_a = 2 delta_ab I, by polarisation
    |J_u x| = |u||x|) and "walk", n_steps steps, always when ``layers`` is None."""
    if n_steps == 1 or (layers is not None and max(layers, default=1) == 1):
        return "exact-first-layer"
    eye = np.eye(algebra.dim_v1)
    if layers is None or algebra.step != 2 or not np.array_equal(algebra.metric_v1, eye):
        return "walk"
    J = [j_matrix(algebra, e) for e in np.eye(algebra.layer_dims[1])]
    levy = all(np.abs(Ja.T @ Jb + Jb.T @ Ja - 2.0 * (a == b) * eye).max() < PARTIAL_ISOMETRY_TOL
               for a, Ja in enumerate(J) for b, Jb in enumerate(J))
    return "exact-h-type" if levy else "walk"


def _h_type_endpoints(algebra: StratifiedAlgebra, s: float, n_samples: int, seed: int,
                      shift=None) -> np.ndarray:
    """Endpoints (n_samples, dim) of an exact-h-type batch.  With T = s/2, block
    b draws from its stream, in order: the first layer x as a one-step walk does
    (plus ``shift``: a Brownian bridge's law has no drift), (_H_TYPE_MODES, d1,
    paths) normals Y and the centre's normals Z; the centre is sqrt(V) Z, V =
    sum_k b_k^2 |Y_k + sqrt(2/T) x|^2 with b_k = T/(2 k pi).  Each |Y_k + ...|^2
    is a noncentral chi^2 of d1 degrees and noncentrality 2|x|^2/T: the law of
    2 Gamma(d1/2 + Poisson(|x|^2/T)), the Gamma-Poisson series' mode k."""
    d1, m, T = algebra.dim_v1, algebra.layer_dims[1], s / 2.0
    scale = (T / (2.0 * math.pi * np.arange(1, _H_TYPE_MODES + 1)[:, None])) ** 2
    tail = 2.0 * (T / (2.0 * math.pi)) ** 2 * (  # the modes past the last, by their mean
        math.pi ** 2 / 6.0 - sum(k ** -2.0 for k in range(1, _H_TYPE_MODES + 1)))
    out = np.empty((n_samples, algebra.dim))
    for b in range(-(-n_samples // _BLOCK_PATHS)):
        rng, lo = _block_stream(seed, b), b * _BLOCK_PATHS
        x = rng.standard_normal((d1, _BLOCK_PATHS)) * math.sqrt(T)
        if shift is not None:
            x += shift[:, None]
        y = rng.standard_normal((_H_TYPE_MODES, d1, _BLOCK_PATHS)) + math.sqrt(2.0 / T) * x
        v = (scale * (y * y).sum(axis=1)).sum(axis=0) + tail * (d1 / 2.0 + (x * x).sum(axis=0) / T)
        z = rng.standard_normal((m, _BLOCK_PATHS)) * np.sqrt(v)
        out[lo:lo + _BLOCK_PATHS] = np.vstack([x, z]).T[:n_samples - lo]
    return out


def sample(algebra: StratifiedAlgebra, s: float, n_samples: int, n_steps: int = 512,
           seed: int = 0, tilt=None, layers=None) -> HeatSampleBatch:
    """Draw n_samples from rho_s dm, a batch of the kind batch_kind chooses for
    readers of ``layers``: without them a n_steps-step walk.  An exact batch
    takes one step."""
    _validate_params(algebra, s, n_samples, n_steps, seed)
    d1 = algebra.dim_v1
    if tilt is not None:
        tilt = np.asarray(tilt, dtype=float)
        if tilt.shape != (d1,):
            raise ParameterError(f"tilt must have shape ({d1},), got {tilt.shape}")
    kind = batch_kind(algebra, n_steps, layers)
    n_steps = n_steps if kind == "walk" else 1
    shift = None if tilt is None else tilt * (s / n_steps / 2.0)
    out = (_h_type_endpoints(algebra, s, n_samples, seed, shift) if kind == "exact-h-type"
           else _endpoints(algebra, s, n_samples, [n_steps], seed, shift)[n_steps])

    log_w = None if tilt is None else -(out[:, :d1] @ tilt) + s * float(tilt @ tilt) / 4.0
    if log_w is not None and np.exp(log_w.max()) == 0.0:
        raise ParameterError(f"every weight of tilt {tilt.tolist()} underflows to 0: "
                             f"the largest log weight is {log_w.max():.6g}")
    return HeatSampleBatch(
        algebra=algebra, s=float(s), n_samples=n_samples, n_steps=n_steps,
        seed=int(seed), samples=out, tilt=tilt, log_weights=log_w, kind=kind,
    )


def coupled_refinement(algebra: StratifiedAlgebra, s: float, n_samples: int,
                       steps_list, seed: int) -> dict:
    """Batches at several step counts driven by one underlying path per sample.

    All step counts must divide the largest one.  The coarse walks aggregate
    the fine increments in blocks, which reproduces the coarse walk's law
    exactly while coupling the discretization errors across resolutions, so
    refinement trends are not drowned in independent sampling noise.
    """
    for k in steps_list:
        _validate_params(algebra, s, n_samples, k, seed)
    steps_list = sorted(set(int(k) for k in steps_list))
    finest = steps_list[-1]
    for k in steps_list:
        if finest % k:
            raise ParameterError(f"{k} does not divide finest step count {finest}")
    return {
        k: HeatSampleBatch(algebra=algebra, s=float(s), n_samples=n_samples,
                           n_steps=k, seed=int(seed), samples=X,
                           kind=batch_kind(algebra, k))
        for k, X in _endpoints(algebra, s, n_samples, steps_list, seed).items()
    }


# -- empirical distribution checks ---------------------------------------------


def _moment_z(A: np.ndarray, B: np.ndarray, labels, z_of) -> dict:
    """z_of(a, b) for the powers 1-3 of each coordinate column of A and B."""
    return {f"{label}^{r}": z_of(A[:, c] ** r, B[:, c] ** r)
            for c, label in enumerate(labels) for r in (1, 2, 3)}


def _paired_z(a: np.ndarray, b: np.ndarray) -> float:
    """z-score of mean(a - b) for samples paired row by row."""
    d = a - b
    sd = float(d.std(ddof=1))
    return float(d.mean() / (sd / math.sqrt(d.size))) if sd > 0 else 0.0


def _unpaired_z(a: np.ndarray, b: np.ndarray) -> float:
    """z-score of mean(a) - mean(b) for independent samples."""
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return float((a.mean() - b.mean()) / se) if se > 0 else 0.0


def _distance_matrix(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of points, exactly symmetric.

    Built in row blocks, one coordinate at a time and in place, so no
    (rows, n, dim) difference array is made; below dim 8 the squares are
    summed in the same order as by a sum over the last axis.  The block
    buffer is freed on return, before the caller's BLAS product.
    """
    n = points.shape[0]
    D = np.empty((n, n))
    sq = np.empty((_DIST_ROWS, n))
    for r0 in range(0, n, _DIST_ROWS):
        rows = points[r0:r0 + _DIST_ROWS]
        block, term = D[r0:r0 + len(rows)], sq[:len(rows)]
        np.subtract(rows[:, 0, None], points[None, :, 0], out=block)
        np.square(block, out=block)
        for k in range(1, points.shape[1]):
            np.subtract(rows[:, k, None], points[None, :, k], out=term)
            np.square(term, out=term)
            block += term
        np.sqrt(block, out=block)
    return D


def _energy_z(A: np.ndarray, B: np.ndarray, seed: int) -> float:
    """Permutation z-score of the energy distance between two samples.

    Distances over the pooled (subsampled) points are computed once.  A split
    of the pooled points into a first group of na and the rest is a 0/1
    column u; with D the distance matrix, t = D 1 its row sums and T = 1'D1,
    the within- and between-group distance sums are

        S_aa = u'Du,   S_ab = t'u - S_aa,   S_bb = T - 2 t'u + S_aa,

    so one product R = D U over the columns of all splits (column 0 the
    observed one) gives every statistic at once, with t'U = 1'R since D is
    symmetric.  The product is one BLAS matrix product: each entry of R is
    reduced within one thread, so R does not depend on the BLAS thread count,
    and it is an order of magnitude faster than einsum's loop, the more so as
    the number of permutations grows.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 2 ** 32]))
    if A.shape[0] > _ENERGY_CAP:
        A = A[rng.choice(A.shape[0], _ENERGY_CAP, replace=False)]
    if B.shape[0] > _ENERGY_CAP:
        B = B[rng.choice(B.shape[0], _ENERGY_CAP, replace=False)]
    pooled = np.vstack([A, B])
    na, ntot = A.shape[0], pooled.shape[0]
    nb = ntot - na
    D = _distance_matrix(pooled)
    U = np.zeros((ntot, 1 + _ENERGY_PERMUTATIONS))
    U[:na, 0] = 1.0
    for i in range(_ENERGY_PERMUTATIONS):
        U[rng.permutation(ntot)[:na], 1 + i] = 1.0
    R = D @ U
    tu = R.sum(axis=0)
    s_aa = np.einsum("ij,ij->j", U, R)
    s_ab = tu - s_aa
    s_bb = D.sum() - 2.0 * tu + s_aa
    energy = 2.0 * s_ab / (na * nb) - s_aa / na ** 2 - s_bb / nb ** 2
    obs, null = energy[0], energy[1:]
    sd = float(null.std(ddof=1))
    return float((obs - null.mean()) / sd) if sd > 0 else 0.0


def _require_whole(batch: HeatSampleBatch, what: str):
    """A heat check reads every layer of the batch, and needs it untilted."""
    if batch.is_tilted:
        raise ParameterError(f"{what} requires an untilted batch")
    batch.require_layers(range(1, batch.algebra.step + 1), f"{what} reads")


def empirical_check_inverse_symmetry(batch: HeatSampleBatch) -> TwoSampleReport:
    """Compare the batch against its group inverses (coordinate negation).

    The heat kernel measure is invariant under the inverse, so all paired
    moment z-scores and the energy statistic stay within threshold.
    """
    _require_whole(batch, "inverse-symmetry check")
    A, B = batch.samples, -batch.samples
    return TwoSampleReport.from_z(
        "heat-inverse-symmetry", _moment_z(A, B, batch.algebra.coordinate_labels(), _paired_z),
        _energy_z(A, B, batch.seed), n=batch.n_samples,
        params={"s": batch.s, "steps": batch.n_steps, "seed": batch.seed})


def scaling_rules(lam: float) -> None:
    """The scaling check's rule: the dilation factor lambda is > 0."""
    if lam <= 0:
        raise ParameterError(f"'lambda' must be > 0, got {lam!r}")


def empirical_check_scaling(batch_s: HeatSampleBatch, lam: float,
                            batch_sp: HeatSampleBatch) -> TwoSampleReport:
    """delta_{1/lambda}(X_s) should match X_{s lambda^{-2}} in law."""
    _require_whole(batch_s, "scaling check")
    _require_whole(batch_sp, "scaling check")
    scaling_rules(lam)
    if batch_s.algebra is not batch_sp.algebra:
        raise StructureError("scaling check needs batches over one algebra")
    target = batch_s.s / lam ** 2
    if abs(batch_sp.s - target) > 1e-12:
        raise ParameterError(
            f"time mismatch: second batch at s={batch_sp.s}, expected {target}"
        )
    A, B = dilate_batch(batch_s.algebra, 1.0 / lam, batch_s.samples), batch_sp.samples
    return TwoSampleReport.from_z(
        "heat-scaling", _moment_z(A, B, batch_s.algebra.coordinate_labels(), _unpaired_z),
        _energy_z(A, B, batch_s.seed ^ batch_sp.seed),
        n=min(batch_s.n_samples, batch_sp.n_samples),
        params={"s": batch_s.s, "lambda": lam, "s_prime": batch_sp.s})


def _fit_line(xs: np.ndarray, ys: np.ndarray):
    """Least squares a + b x; returns (a, b, rss)."""
    A = np.column_stack([np.ones_like(xs), xs])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def empirical_tail_profile(batch: HeatSampleBatch) -> TailReport:
    """Fit log P(N(X_s) > r) by a + b r^2 vs a + b r over a quantile grid.

    Gaussian-type decay means the quadratic model wins (lower AIC) with a
    strictly negative slope.  The sharp constants in the two-sided kernel
    bounds are NOT reproduced; this is a shape check only.
    """
    _require_whole(batch, "tail profile")
    if batch.n_samples < 10_000:
        raise ParameterError("tail profile needs at least 1e4 samples")
    norms = homogeneous_norm_batch(batch.algebra, batch.samples)
    lo = float(np.quantile(norms, 0.5))
    hi = float(np.quantile(norms, 1.0 - 30.0 / batch.n_samples))
    grid = np.linspace(lo, hi, _TAIL_GRID)
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
