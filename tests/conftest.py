import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from carnot import algebra, calculus, heat


@pytest.fixture(scope="session")
def r1():
    return algebra.builtin("euclidean(1)")


@pytest.fixture(scope="session")
def h3():
    return algebra.builtin("heisenberg(1)")


@pytest.fixture(scope="session")
def h5():
    return algebra.builtin("heisenberg(2)")


@pytest.fixture(scope="session")
def engel():
    return algebra.builtin("engel")


@pytest.fixture(scope="session")
def horizontal():
    """horizontal(f, alg, pts): (|grad f|^2, Delta f) at the points, the frame
    sums of d1^2 and of d2 over one ``horizontal_jets`` pass of f."""
    def sums(f, alg, pts):
        jets, n = calculus.horizontal_jets(f, alg, pts), len(pts)
        return (calculus.frame_sum((j.d1 * j.d1 for j in jets), n),
                calculus.frame_sum((j.d2 for j in jets), n))
    return sums


@pytest.fixture(scope="session")
def r1_batch_s2(r1):
    # R^1 at s=2: first-layer law is exact for any step count
    return heat.sample(r1, 2.0, 200_000, 8, seed=101)


@pytest.fixture(scope="session")
def r1_batch_s2_tilt2(r1):
    return heat.sample(r1, 2.0, 200_000, 8, seed=103, tilt=np.array([2.0]))


@pytest.fixture(scope="session")
def h3_batch_s1(h3):
    return heat.sample(h3, 1.0, 50_000, 128, seed=7)


@pytest.fixture(scope="session")
def lse_norm():
    """norm(v, batch, r): the L^r norm of the positive samples v against the
    batch's weights, exp((logsumexp(r log v + log w) - log n) / r), which no
    power of v or weight can take out of double range."""
    def norm(v, batch, r) -> float:
        log_w = 0.0 if batch.log_weights is None else batch.log_weights
        return math.exp((logsumexp(r * np.log(v) + log_w) - math.log(v.size)) / r)
    return norm


@pytest.fixture
def area_variance_z():
    """z(batches): z-scores of a coupled refinement on heisenberg(1) against the
    K-step walk's exact Var x_2_1 = (s^2/16)(1 - 1/K).

    Returns the z of Var x_2_1 at the finest K, and per coarser K the z of the
    paired difference Var_K - Var_finest, whose stderr comes from the per-path
    differences of the squared deviations.
    """
    def z(batches) -> tuple:
        finest = max(batches)
        exact, sq = {}, {}
        for k, batch in batches.items():
            x = batch.samples[:, 2]
            exact[k] = batch.s ** 2 / 16.0 * (1.0 - 1.0 / k)
            sq[k] = (x - x.mean()) ** 2 * (x.size / (x.size - 1))

        def z_of(d, want):
            return float((d.mean() - want) / (d.std(ddof=1) / math.sqrt(d.size)))

        return z_of(sq[finest], exact[finest]), {
            k: z_of(sq[k] - sq[finest], exact[k] - exact[finest])
            for k in batches if k < finest}
    return z


@pytest.fixture
def traced_peak():
    """peak(call): the peak bytes that tracemalloc sees while call() runs."""
    def peak(call) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
