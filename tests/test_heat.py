import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import carnot.heat
from carnot import algebra, cli, group, heat
from carnot.errors import ParameterError


def test_r1_standard_gaussian_at_s_two(r1_batch_s2):
    # s = 2 gives the standard Gaussian; sample variance within 3 stderr
    x = r1_batch_s2.samples[:, 0]
    n = r1_batch_s2.n_samples
    se_var = 1.0 * math.sqrt(2.0 / (n - 1))
    assert abs(x.var(ddof=1) - 1.0) < 3 * se_var
    assert abs(x.mean()) < 3 / math.sqrt(n)


def test_first_layer_exact_in_law_any_steps(h3):
    # first layer BCH terms are additive, so x_{1,k}(X_s) ~ N(0, s/2) exactly
    for steps in (1, 7, 64):
        b = heat.sample(h3, 1.5, 20_000, steps, seed=404)
        for k in range(2):
            p = stats.kstest(b.samples[:, k], "norm", args=(0.0, math.sqrt(0.75))).pvalue
            assert p > 0.01, (steps, k, p)


def test_first_layer_ks_all_builtins():
    for name in ["euclidean(3)", "heisenberg(1)", "heisenberg(2)", "engel"]:
        alg = algebra.builtin(name)
        b = heat.sample(alg, 2.0, 20_000, 16, seed=505)
        for k in range(alg.dim_v1):
            p = stats.kstest(b.samples[:, k], "norm", args=(0.0, 1.0)).pvalue
            assert p > 0.01, (name, k, p)


def test_h3_levy_area_variance_discrete_law(h3):
    # Var x3 for the K-step walk is (s^2/16)(1 - 1/K)
    b = heat.sample(h3, 1.0, 100_000, 64, seed=21)
    v = b.samples[:, 2].var(ddof=1)
    want = (1.0 / 16.0) * (1 - 1.0 / 64)
    assert abs(v - want) / want < 0.05


def test_levy_area_refinement_monotone(h3, area_variance_z):
    # Var x3 at 1024 steps, and the coupled fall of its bias from 64 and 256
    # steps, within 3 stderr of (1/16)(1 - 1/K): a 2% error in the area moves
    # the first z by about 4.4 at this n
    batches = heat.coupled_refinement(h3, 1.0, 50_000, [64, 256, 1024], seed=9)
    z_var, z_diff = area_variance_z(batches)
    assert abs(z_var) < 3, z_var
    assert all(abs(z) < 3 for z in z_diff.values()), z_diff


def test_coupled_refinement_validates_divisibility(h3):
    with pytest.raises(ParameterError):
        heat.coupled_refinement(h3, 1.0, 100, [48, 1024], seed=0)


def test_determinism_and_chunk_independence(h3, monkeypatch):
    b1 = heat.sample(h3, 1.0, 5000, 32, seed=3)
    b2 = heat.sample(h3, 1.0, 5000, 32, seed=3)
    assert np.array_equal(b1.samples, b2.samples)
    monkeypatch.setattr(carnot.heat, "_CHUNK_BUDGET", 2048)
    b3 = heat.sample(h3, 1.0, 5000, 32, seed=3)
    assert np.array_equal(b1.samples, b3.samples)
    b4 = heat.sample(h3, 1.0, 5000, 32, seed=4)
    assert not np.array_equal(b1.samples, b4.samples)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True])
def test_seed_outside_uint64_is_a_parameter_error(seed, h3):
    text = "^" + re.escape(f"'seed' must be an integer in [0, 2^64), got {seed!r}") + "$"
    with pytest.raises(ParameterError, match=text):
        heat.sample(h3, 1.0, 10, 4, seed=seed)
    with pytest.raises(ParameterError, match=text):
        heat.coupled_refinement(h3, 1.0, 10, [2, 4], seed=seed)


def test_block_streams_differ_across_seed_words(h3):
    # seed 2^32, block 0 and seed 0, block 1 both join to the words [0, 1] if
    # the key is [seed, block]: the block index must not run into the seed's words
    later = heat.sample(h3, 1.0, 512, 4, seed=0).samples[256:]
    assert not np.array_equal(later, heat.sample(h3, 1.0, 256, 4, seed=2 ** 32).samples)
    assert np.isfinite(heat.sample(h3, 1.0, 300, 4, seed=2 ** 64 - 1).samples).all()


def _reference_increments(alg, s, n, n_steps, seed, tilt=None):
    """sigma times the paths' normals, as (n, n_steps, d1): block b of 256 paths
    is one draw, in (step, coordinate, path) order, from a fresh SFC64 seeded
    by the uint32 words (seed mod 2^32, b, seed div 2^32), and a partial last
    block draws all 256 paths and keeps its first ones."""
    inc = np.concatenate([
        np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            np.array([seed % 2 ** 32, b, seed >> 32], dtype=np.uint32))))
        .standard_normal((n_steps, alg.dim_v1, 256)).transpose(2, 0, 1)
        for b in range(-(-n // 256))
    ])[:n]
    inc *= math.sqrt(s / n_steps / 2.0)
    if tilt is not None:
        inc += np.asarray(tilt) * (s / n_steps / 2.0)
    return inc


def _reference_walk(alg, inc):
    """Row-major walk, one multiply_batch per step; on an abelian algebra, the
    sum of the increments in step order."""
    n, n_steps, d1 = inc.shape
    X = np.zeros((n, alg.dim))
    step = np.zeros((n, alg.dim))
    for k in range(n_steps):
        step[:, :d1] = inc[:, k]
        X = group.multiply_batch(alg, X, step)
    return X


ORACLE_CASES = {
    "heisenberg(1)": dict(s=1.0, n_steps=40),
    "heisenberg(2)": dict(s=0.7, n_steps=33),
    "engel": dict(s=1.3, n_steps=40),
    "heisenberg(1)-tilted": dict(s=1.0, n_steps=40, tilt=[0.5, -1.0]),
    "euclidean(3)": dict(s=2.0, n_steps=16),
}


def test_import_does_not_load_numpy_random():
    # numpy.random is first loaded by the first draw: loading it on import
    # would add to the set-up time and memory of every CLI call
    src = os.path.dirname(os.path.dirname(os.path.abspath(heat.__file__)))
    code = "import sys, carnot.cli, carnot.heat, carnot.lsh; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_sample_bytes_match_per_path_reference(case, budget, monkeypatch):
    # 600 paths span three 256-path blocks, the last one partial; budget 1
    # gives one-block chunks
    if budget is not None:
        monkeypatch.setattr(carnot.heat, "_CHUNK_BUDGET", budget)
    kw = ORACLE_CASES[case]
    alg = algebra.builtin(case.removesuffix("-tilted"))
    n, seed = 600, 17
    want = _reference_walk(
        alg, _reference_increments(alg, kw["s"], n, kw["n_steps"], seed, kw.get("tilt")))
    got = heat.sample(alg, kw["s"], n, kw["n_steps"], seed=seed, tilt=kw.get("tilt"))
    assert got.samples.tobytes() == want.tobytes()


def test_coupled_refinement_bytes_match_per_path_reference(h3, monkeypatch):
    monkeypatch.setattr(carnot.heat, "_CHUNK_BUDGET", 1)
    n, finest, seed = 600, 32, 19
    fine = _reference_increments(h3, 1.0, n, finest, seed)
    got = heat.coupled_refinement(h3, 1.0, n, [4, 8, finest], seed=seed)
    for k in (4, 8, finest):
        # step j of the k-step walk sums fine steps j r .. j r + r - 1 in order
        r = finest // k
        inc = fine[:, ::r].copy()
        for i in range(1, r):
            inc += fine[:, i::r]
        assert got[k].samples.tobytes() == _reference_walk(h3, inc).tobytes(), k


def test_bytes_do_not_depend_on_tiles_or_chunks(monkeypatch):
    # tiles split a block's stream only at step boundaries, and a coupled
    # walk's tile holds whole blocks of fine steps, so neither the tile length
    # nor the chunk width moves a bit; 600 paths end in a partial block
    alg = algebra.builtin("heisenberg(1)")
    runs = []
    for tile_steps in (1, 7, 16, 32):
        for budget in (1, heat._CHUNK_BUDGET):
            monkeypatch.setattr(carnot.heat, "_TILE_STEPS", tile_steps)
            monkeypatch.setattr(carnot.heat, "_CHUNK_BUDGET", budget)
            coupled = heat.coupled_refinement(alg, 1.0, 600, [4, 8, 40], seed=29)
            runs.append([
                heat.sample(alg, 1.0, 600, 40, seed=29).samples.tobytes(),
                heat.sample(alg, 1.0, 600, 40, seed=29, tilt=[0.5, -1.0]).samples.tobytes(),
                *(coupled[k].samples.tobytes() for k in (4, 8, 40)),
            ])
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("k", [8, 33])
@pytest.mark.parametrize("name", ["euclidean(1)", "euclidean(3)", "heisenberg(1)",
                                  "heisenberg(2)", "engel"])
def test_coupled_refinement_of_one_count_is_sample(name, k, monkeypatch):
    # one sampler kernel: a one-count refinement is the plain batch, byte for byte
    monkeypatch.setattr(carnot.heat, "_CHUNK_BUDGET", 1)
    alg = algebra.builtin(name)
    got = heat.coupled_refinement(alg, 1.3, 600, [k], seed=23)[k].samples
    assert got.tobytes() == heat.sample(alg, 1.3, 600, k, seed=23).samples.tobytes()


def test_sample_peak_memory_is_bounded(h3, traced_peak):
    # chunks of at most _CHUNK_BUDGET increments bound the sampler's working set
    peak = traced_peak(lambda: heat.sample(h3, 1.0, 10_000, 256, seed=11))
    assert peak < 24 * 2 ** 20, peak


def test_sample_holds_one_chunk(h3, traced_peak):
    # a chunk's 16-step tiles are 2 MiB each, all drawn into one buffer: 3.0 MiB;
    # holding a 2048-path chunk's 256 steps at once peaked at 9.4 MiB
    peak = traced_peak(lambda: heat.sample(h3, 1.0, 10_000, 256, seed=11))
    assert peak < 12 * 2 ** 20, peak
    # the coarse walks sum each tile into one buffer too: 4.8 MiB, down from 13.8
    peak = traced_peak(
        lambda: heat.coupled_refinement(h3, 1.0, 10_000, [64, 128, 256], seed=11))
    assert peak < 16 * 2 ** 20, peak


def test_prefix_property_of_streams(h3):
    # enlarging the batch must not change earlier paths, though the last
    # block of the smaller one is partial
    small = heat.sample(h3, 1.0, 100, 16, seed=8)
    mid = heat.sample(h3, 1.0, 300, 16, seed=8)
    large = heat.sample(h3, 1.0, 600, 16, seed=8)
    assert np.array_equal(small.samples, large.samples[:100])
    assert np.array_equal(mid.samples, large.samples[:300])


EXACT_CASES = {
    "heisenberg(1)": None,
    "heisenberg(1)-tilted": [0.5, -1.0],
    "engel": None,
    "euclidean(2)-tilted": [1.0, 0.0],
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_first_layer_batch_law(case):
    # one step draws each path's first layer once from its block's stream:
    # exactly N(b s/2, (s/2) I), with today's log weights and no upper layers
    tilt = EXACT_CASES[case]
    alg, s, n = algebra.builtin(case.removesuffix("-tilted")), 1.3, 100_000
    batch = heat.sample(alg, s, n, 1, seed=31, tilt=tilt)
    d1 = alg.dim_v1
    x = batch.samples[:, :d1]
    assert x.tobytes() == _reference_increments(alg, s, n, 1, 31, tilt)[:, 0].tobytes()
    assert batch.layers == 1 and np.isnan(batch.samples[:, d1:]).all()
    mean = np.zeros(d1) if tilt is None else np.asarray(tilt) * s / 2
    assert np.all(np.abs(x.mean(axis=0) - mean) < 4 * math.sqrt(s / 2 / n))
    assert np.all(np.abs(x.var(axis=0, ddof=1) - s / 2) < 4 * (s / 2) * math.sqrt(2 / (n - 1)))
    if tilt is None:
        assert batch.log_weights is None
    else:
        want = -(x @ np.asarray(tilt)) + s * float(np.dot(tilt, tilt)) / 4.0
        assert batch.log_weights.tobytes() == want.tobytes()


def test_prefix_property_of_exact_batches(engel):
    # a one-step batch's first n paths are those of any larger one-step batch
    small = heat.sample(engel, 1.0, 100, 1, seed=8)
    large = heat.sample(engel, 1.0, 600, 1, seed=8)
    assert small.samples.tobytes() == large.samples[:100].tobytes()
    assert small.summary["normals"] == 256 * 2 and large.summary["normals"] == 768 * 2


def test_exact_batches_refuse_upper_layer_reads(h3, r1, tmp_path):
    # the heat checks read every layer, and a batch CSV writes every layer
    batch = heat.sample(h3, 1.0, 10_000, 1, seed=2)
    for run in (lambda: heat.empirical_check_inverse_symmetry(batch),
                lambda: heat.empirical_tail_profile(batch),
                lambda: heat.empirical_check_scaling(batch, 2.0,
                                                     heat.sample(h3, 0.25, 100, 8, seed=3))):
        with pytest.raises(ParameterError, match=r"reads layer 2, which a one-step batch"):
            run()
    path = tmp_path / "batch.csv"
    with pytest.raises(ParameterError, match=r"^a batch CSV writes layer 2, "):
        batch.save_csv(str(path))
    assert not path.exists()
    # on a step-1 algebra the first layer is every layer
    heat.sample(r1, 1.0, 10, 1, seed=2).save_csv(str(path))
    assert heat.load_csv(str(path), r1).shape == (10, 1)


# -- the exact H-type kind -------------------------------------------------------

# H3 x R: J_z is a partial isometry with a kernel, so classify_h_type accepts
# it, yet Levy's law with d1 = 3 is not its heat kernel's
H3_X_R = {"layer_dims": [3, 1], "brackets": [[[1, 1], [1, 2], [[2, 1], 1.0]]]}
SCALED_H3 = {"layer_dims": [2, 1], "brackets": [[[1, 1], [1, 2], [[2, 1], 2.0]]]}
# the scaled algebra under a V_1 metric that makes its J_z an isometry in the
# metric's orthonormal frame; every kind draws in the adapted coordinates, where
# the area is doubled, so sampling refuses it
STRETCHED_H3 = {**SCALED_H3, "metric_v1": [[4.0, 0.0], [0.0, 1.0]]}
# L_a e_p = sign e_q for left multiplication by i, j, k on H = R^4: (q, sign) by p
QUATERNION_UNITS = [[(1, 1), (0, -1), (3, 1), (2, -1)],
                    [(2, 1), (3, -1), (0, -1), (1, 1)],
                    [(3, 1), (2, 1), (1, -1), (0, -1)]]
# right multiplication by i: an isometry like L_i, but it commutes with L_i
RIGHT_I = [(1, 1), (0, -1), (3, -1), (2, 1)]


def _clifford(units, name="quaternionic"):
    """V_1 = H and a centre of one direction per unit L_a, with
    <xi_{2,a}, [e_p, e_q]> = <L_a e_p, e_q>; for QUATERNION_UNITS this is the
    quaternionic H-type algebra."""
    L = np.zeros((len(units), 4, 4))
    for a, images in enumerate(units):
        for p, (q, sign) in enumerate(images):
            L[a, q, p] = sign
    brackets = [[[1, p + 1], [1, q + 1], *[[[2, a + 1], L[a, q, p]] for a in range(len(units))]]
                for p in range(4) for q in range(p + 1, 4)]
    return algebra.from_dict({"layer_dims": [4, len(units)], "brackets": brackets}, name=name)


def _quaternionic():
    return _clifford(QUATERNION_UNITS)


def test_batch_kind_selects_levys_law_only_where_it_holds(engel):
    h3xr, scaled = algebra.from_dict(H3_X_R), algebra.from_dict(SCALED_H3)
    verdict = algebra.classify_h_type(h3xr)
    assert verdict.is_h_type and verdict.max_residual == 0.0
    assert not algebra.classify_h_type(scaled).is_h_type
    # each of L_i and R_i is an isometry, but they commute, not anticommute
    commuting = _clifford([QUATERNION_UNITS[0], RIGHT_I], name="commuting")
    assert algebra.validate(commuting).ok
    for alg in (h3xr, scaled, commuting, engel):
        assert heat.batch_kind(alg, 64, range(1, alg.step + 1)) == "walk", alg
    for alg in (algebra.builtin("heisenberg(1)"), algebra.builtin("heisenberg(2)"),
                _quaternionic()):
        assert heat.batch_kind(alg, 64, {1, 2}) == "exact-h-type", alg
        # one step, or no read above the first layer, is exact-first-layer, and
        # a walk asked for by its steps alone walks
        assert heat.batch_kind(alg, 1, {1, 2}) == "exact-first-layer"
        for layers in (set(), {1}):
            assert heat.batch_kind(alg, 64, layers) == "exact-first-layer"
        assert heat.batch_kind(alg, 64) == "walk"


def test_sampling_refuses_a_non_identity_metric():
    # every kind draws in the V_1 basis, which is orthonormal only under the
    # identity metric: a walk of STRETCHED_H3 would have the wrong law
    stretched = algebra.from_dict(STRETCHED_H3)
    for layers in (None, {1}, {1, 2}):
        with pytest.raises(ParameterError, match=r"metric_v1 must be the identity, got "
                                                 r"\[\[4\.0, 0\.0\], \[0\.0, 1\.0\]\]"):
            heat.sample(stretched, 1.0, 10, 8, seed=0, layers=layers)
    with pytest.raises(ParameterError, match="metric_v1 must be the identity"):
        heat.coupled_refinement(stretched, 1.0, 10, [4, 8], seed=0)


def _h_type(alg, s, n, seed, tilt=None):
    return heat.sample(alg, s, n, 64, seed=seed, tilt=tilt, layers={1, 2})


def _z_of(values, want):
    return float((values.mean() - want) / (values.std(ddof=1) / math.sqrt(values.size)))


@pytest.mark.parametrize("name", ["heisenberg(1)", "heisenberg(2)", "quaternionic"])
def test_h_type_batch_matches_levys_oracles(name):
    # each centre coordinate is a sum of d1/2 Levy areas: Var z = n s^2/16,
    # E z^4 = n s^4/128 + 3 n^2 s^4/256, E cos(lam z) = sech^n(lam s/4) and
    # E e^(lam z) = sec^n(lam s/4), with n = d1/2
    alg = _quaternionic() if name == "quaternionic" else algebra.builtin(name)
    s, n = 1.3, alg.dim_v1 // 2
    batch = _h_type(alg, s, 200_000, seed=61)
    assert batch.kind == "exact-h-type" and batch.layers == 2 and batch.n_steps == 1
    u = s / 4
    for z in batch.samples[:, alg.dim_v1:].T:
        zs = {"z^2": _z_of(z ** 2, n * s ** 2 / 16),
              "z^4": _z_of(z ** 4, n * s ** 4 / 128 + 3 * n ** 2 * s ** 4 / 256),
              "cos 2z": _z_of(np.cos(2 * z), math.cosh(2 * u) ** -n),
              "cos 5z": _z_of(np.cos(5 * z), math.cosh(5 * u) ** -n),
              "e^z": _z_of(np.exp(z), math.cos(u) ** -n),
              "e^-2z": _z_of(np.exp(-2 * z), math.cos(2 * u) ** -n)}
        assert all(abs(v) < 4 for v in zs.values()), zs


def test_h_type_centre_given_the_first_layer(h3):
    # E[z^2 |x|^2] = 10 T^3/12 with T = s/2: the conditional variance of z is
    # (T^2/12)(1 + |x|^2/T), which the omitted modes' mean keeps at any truncation
    s = 1.3
    batch, T = _h_type(h3, s, 200_000, seed=67), s / 2
    x, z = batch.samples[:, :2], batch.samples[:, 2]
    z_score = _z_of(z ** 2 * (x * x).sum(axis=1), 10 * T ** 3 / 12)
    assert abs(z_score) < 4, z_score


@pytest.mark.parametrize("name", ["heisenberg(1)", "heisenberg(2)"])
def test_h_type_conditional_variance_of_the_scale(name):
    # E[z^4 | x] = 3 E[V^2 | x] = 3((d1/2 + r)^2 T^4/144 + 2(d1 + 4r) sum_k b_k^4)
    # with r = |x|^2/T ~ chi^2_d1: the square of V's mean, and the variance of
    # the drawn modes' noncentral chi^2 (the later modes enter by their mean)
    alg, s = algebra.builtin(name), 1.3
    d, T = alg.dim_v1, s / 2
    batch = _h_type(alg, s, 200_000, seed=79)
    x, z = batch.samples[:, :d], batch.samples[:, d]
    b4 = sum((T / (2 * math.pi * k)) ** 4 for k in range(1, heat._H_TYPE_MODES + 1))
    r1, r2, r3 = d, d * (d + 2), d * (d + 2) * (d + 4)  # E r, E r^2, E r^3
    want = 3 * T * ((r3 + d * r2 + d * d / 4 * r1) * T ** 4 / 144 + 2 * (d * r1 + 4 * r2) * b4)
    z_score = _z_of(z ** 4 * (x * x).sum(axis=1), want)
    assert abs(z_score) < 4, z_score
    # sharper, path by path: E[cos(lam z) | x] = E[exp(-lam^2 V/2) | x], with
    # E exp(-t Q) = (1 + 2t)^(-d1/2) exp(-2 r t/(1 + 2t)) for each drawn mode's
    # noncentral chi^2 Q and exp(-lam^2/2 times their mean) for the later
    # modes; a V fixed at its conditional mean falls short by about
    # lam^4 Var(V | x)/8 of it (-28 and -16 stderr at lam = 5)
    lam, r = 5.0, (x * x).sum(axis=1) / T
    t = np.array([(lam * T / (2 * math.pi * k)) ** 2 / 2
                  for k in range(1, heat._H_TYPE_MODES + 1)])[:, None]
    later = (T / (2 * math.pi)) ** 2 * (math.pi ** 2 / 6 - sum(
        k ** -2.0 for k in range(1, heat._H_TYPE_MODES + 1)))
    laplace = np.exp((-d / 2 * np.log1p(2 * t) - 2 * r * t / (1 + 2 * t)).sum(axis=0)
                     - lam * lam * later * (d / 2 + r))
    z_score = _z_of(np.cos(lam * z) - laplace, 0.0)
    assert abs(z_score) < 4, z_score


def test_h_type_truncation_is_pinned(h3, monkeypatch):
    # one mode with the rest's mean biases E cos(12 z) at s = 1 by -0.0065, about
    # -7 stderr at this n; at the shipped modes the bias is below 1e-4 stderr
    n, want = 600_000, 1 / math.cosh(3.0)
    shipped = _z_of(np.cos(12 * _h_type(h3, 1.0, n, seed=71).samples[:, 2]), want)
    monkeypatch.setattr(carnot.heat, "_H_TYPE_MODES", 1)
    one = _z_of(np.cos(12 * _h_type(h3, 1.0, n, seed=71).samples[:, 2]), want)
    assert abs(shipped) < 4 and one < -4, (shipped, one)


def _reference_h_type(alg, s, n, seed, tilt=None):
    """Path by path from each block's draws: 256 first-layer normals per
    coordinate as a one-step walk draws them, then (modes, d1, 256) normals Y
    and the centre's normals, from the stream of _reference_increments; the
    centre is sqrt(V) Z, V = sum_k b_k^2 |Y_k + sqrt(2/T) x|^2 plus the later
    modes' mean."""
    d1, m, T, modes = alg.dim_v1, alg.layer_dims[1], s / 2, heat._H_TYPE_MODES
    scale = [(T / (2.0 * math.pi * k)) * (T / (2.0 * math.pi * k)) for k in range(1, modes + 1)]
    tail = 2.0 * (T / (2.0 * math.pi)) ** 2 * (math.pi ** 2 / 6.0
                                               - sum(k ** -2.0 for k in range(1, modes + 1)))
    mu = math.sqrt(2.0 / T)
    rows = []
    for b in range(-(-n // 256)):
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            np.array([seed % 2 ** 32, b, seed >> 32], dtype=np.uint32))))
        x = rng.standard_normal((d1, 256)) * math.sqrt(T)
        if tilt is not None:
            x += np.asarray(tilt)[:, None] * T
        Y = rng.standard_normal((modes, d1, 256))
        Z = rng.standard_normal((m, 256))
        for j in range(256):
            r = sum(x[i, j] * x[i, j] for i in range(d1)) / T
            v = sum(scale[k] * sum((Y[k, i, j] + mu * x[i, j]) ** 2 for i in range(d1))
                    for k in range(modes)) + tail * (d1 / 2.0 + r)
            rows.append([*x[:, j], *(Z[:, j] * math.sqrt(v))])
    return np.array(rows[:n])


@pytest.mark.parametrize("case", ["heisenberg(1)", "heisenberg(2)", "heisenberg(1)-tilted"])
def test_h_type_bytes_match_per_block_reference(case, monkeypatch):
    # 600 paths span three blocks, the last one partial; the chunk budget,
    # which sizes a walk's chunks, moves no bit
    alg, tilt = algebra.builtin(case.removesuffix("-tilted")), ORACLE_CASES[case].get("tilt")
    want = _reference_h_type(alg, 0.9, 600, 17, tilt)
    assert _h_type(alg, 0.9, 600, seed=17, tilt=tilt).samples.tobytes() == want.tobytes()
    monkeypatch.setattr(carnot.heat, "_CHUNK_BUDGET", 1)
    assert _h_type(alg, 0.9, 600, seed=17, tilt=tilt).samples.tobytes() == want.tobytes()


def test_h_type_first_layer_and_prefix(h3):
    # the first layer is the exact-first-layer batch's at the seed, and a
    # batch's first n paths are those of any larger one
    tilt = [0.5, -1.0]
    large = _h_type(h3, 1.0, 600, seed=8, tilt=tilt)
    exact = heat.sample(h3, 1.0, 600, 1, seed=8, tilt=tilt)
    assert large.samples[:, :2].tobytes() == exact.samples[:, :2].tobytes()
    assert large.log_weights.tobytes() == exact.log_weights.tobytes()
    for n in (100, 300):
        small = _h_type(h3, 1.0, n, seed=8, tilt=tilt)
        assert small.samples.tobytes() == large.samples[:n].tobytes()
        # per path d1 first-layer normals, d1 for each mode and one for the centre
        assert small.summary == {"kind": "exact-h-type", "steps": 1,
                                 "normals": 256 * (2 * (heat._H_TYPE_MODES + 1) + 1)
                                 * -(-n // 256)}


def test_tilted_h_type_batch_keeps_the_sech_law(h3):
    # a tilt shifts x alone: the bridge's law, so z given x, has no drift, and
    # the weighted mean of cos(lam z) is sech(lam s/4)
    s, tilt = 1.3, [0.8, -1.2]
    batch = _h_type(h3, s, 200_000, seed=73, tilt=tilt)
    x, z, w = batch.samples[:, :2], batch.samples[:, 2], batch.weights
    se = math.sqrt(s / 2 / x.shape[0])
    assert np.all(np.abs(x.mean(axis=0) - np.asarray(tilt) * s / 2) < 4 * se)
    for lam in (2.0, 5.0):
        z_score = _z_of(w * np.cos(lam * z), 1 / math.cosh(lam * s / 4))
        assert abs(z_score) < 4, (lam, z_score)


@pytest.mark.parametrize("n_samples, n_steps, text", [
    (2.5, 8, "'n' must be an integer, got 2.5"),
    (10, 8.9, "'steps' must be an integer, got 8.9"),
    ("10", 8, "'n' must be an integer, got '10'"),
    (10, True, "'steps' must be an integer, got True")],
    ids=["2.5-8", "10-8.9", "10-8", "10-True"])
def test_counts_must_be_integers(h3, n_samples, n_steps, text):
    with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
        heat.sample(h3, 1.0, n_samples, n_steps, seed=1)
    with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
        heat.coupled_refinement(h3, 1.0, n_samples, [n_steps], seed=1)
    assert heat.sample(h3, 1.0, np.int64(10), np.int32(8), seed=1).samples.shape == (10, 3)


def test_parameter_validation(r1):
    with pytest.raises(ParameterError, match=r"^'s' must be > 0, got 0\.0$"):
        heat.sample(r1, 0.0, 10, 4, seed=0)
    with pytest.raises(ParameterError, match="^'steps' must be >= 1, got 0$"):
        heat.sample(r1, 1.0, 10, 0, seed=0)
    with pytest.raises(ParameterError, match="^'n' must be >= 1, got 0$"):
        heat.sample(r1, 1.0, 0, 4, seed=0)
    with pytest.raises(ParameterError):
        heat.sample(r1, 1.0, 10, 4, seed=0, tilt=np.array([1.0, 2.0]))


@pytest.mark.parametrize("s, text", [(math.inf, "'s' must be finite, got inf"),
                                     (math.nan, "'s' must be > 0, got nan")],
                         ids=["inf", "nan"])
def test_a_non_finite_s_is_refused_on_a_direct_call(h3, s, text):
    # s = inf drew NaN samples; the config refuses both before the rule runs
    with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
        heat.batch_rules(s, 10, 4, 0)
    with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
        heat.sample(h3, s, 10, 4, seed=0)
    with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
        heat.coupled_refinement(h3, s, 10, [4], seed=0)


@pytest.mark.parametrize("tilt, text", [
    ([math.nan, 0.0], "tilt entries must be finite, got [nan, 0.0]"),
    ([1.0, -math.inf], "tilt entries must be finite, got [1.0, -inf]"),
    ([1.0], "tilt must have shape (2,), got (1,)"),
    ([[1.0, 2.0]], "tilt must have shape (2,), got (1, 2)")],
    ids=["nan", "inf", "short", "2d"])
def test_the_tilt_rule(h3, tilt, text):
    # a NaN entry gave all-NaN log weights with no error
    with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
        heat.tilt_rules(tilt, h3.dim_v1)
    with pytest.raises(ParameterError, match=f"^{re.escape(text)}$"):
        heat.sample(h3, 1.0, 10, 4, seed=0, tilt=tilt)


def test_a_tilt_whose_weights_all_underflow_is_an_error(r1):
    # x ~ N(30, 1/2) under tilt 60, so every weight exp(-60 x + 900) is about
    # e^-900, 0.0 as a double; at tilt 45 they are about e^-506, and the batch stands
    with pytest.raises(ParameterError, match=r"^every weight of tilt \[60.0\] underflows to 0: "
                                             r"the largest log weight is -7\d\d\.\d+$"):
        heat.sample(r1, 1.0, 200, 8, seed=1, tilt=[60.0])
    assert heat.sample(r1, 1.0, 200, 8, seed=1, tilt=[45.0]).weights.max() > 0.0


def test_tilted_sampling_weights(r1):
    # optimal tilt for e^{bx}: weighted estimator is exact by construction
    b = 4.0
    batch = heat.sample(r1, 2.0, 50_000, 8, seed=11, tilt=np.array([b]))
    est = np.mean(batch.weights * np.exp(b * batch.samples[:, 0]))
    assert np.isclose(est, math.exp(2.0 * b * b / 4.0), rtol=1e-12)
    # first-layer mean shifts to b s/2
    assert abs(batch.samples[:, 0].mean() - b * 1.0) < 0.02
    # small tilt: weights integrate to 1 within MC error
    small = heat.sample(r1, 2.0, 50_000, 8, seed=12, tilt=np.array([0.5]))
    w = small.weights
    assert abs(w.mean() - 1.0) < 4 * w.std(ddof=1) / math.sqrt(w.size)


def test_inverse_symmetry_holds(h3_batch_s1):
    rep = heat.empirical_check_inverse_symmetry(h3_batch_s1)
    assert rep.verdict == "holds"
    assert rep.max_abs_z < 4


def test_inverse_symmetry_shifted_control_fails(h3, h3_batch_s1):
    shifted = group.multiply_batch(
        h3, np.tile([1.0, 0.0, 0.0], (h3_batch_s1.n_samples, 1)), h3_batch_s1.samples
    )
    bad = heat.HeatSampleBatch(h3, 1.0, h3_batch_s1.n_samples, 128, 7, shifted)
    rep = heat.empirical_check_inverse_symmetry(bad)
    assert rep.verdict == "violated"
    assert rep.max_abs_z > 100


def test_scaling_identity(h3):
    b4 = heat.sample(h3, 4.0, 50_000, 128, seed=31)
    b1 = heat.sample(h3, 1.0, 50_000, 128, seed=32)
    rep = heat.empirical_check_scaling(b4, 2.0, b1)
    assert rep.verdict == "holds"
    assert rep.params["lambda"] == 2.0


def test_scaling_lambda_one_same_law(h3):
    ba = heat.sample(h3, 1.0, 30_000, 64, seed=33)
    bb = heat.sample(h3, 1.0, 30_000, 64, seed=34)
    assert heat.empirical_check_scaling(ba, 1.0, bb).verdict == "holds"


def test_scaling_time_mismatch_rejected(h3):
    b4 = heat.sample(h3, 4.0, 1000, 16, seed=35)
    b2 = heat.sample(h3, 2.0, 1000, 16, seed=36)
    with pytest.raises(ParameterError, match="time mismatch"):
        heat.empirical_check_scaling(b4, 2.0, b2)


@pytest.mark.parametrize("lam", [0.0, -2.0])
def test_scaling_needs_a_positive_lambda(h3, lam):
    # the second batch is at s / lambda^2, so the time rule passes at -2, and
    # the rule names lambda itself, not the dilation factor 1/lambda
    b4 = heat.sample(h3, 4.0, 100, 8, seed=35)
    b1 = heat.sample(h3, 1.0, 100, 8, seed=36)
    with pytest.raises(ParameterError, match=rf"^'lambda' must be > 0, got {lam}$"):
        heat.empirical_check_scaling(b4, lam, b1)


def test_r1_gaussian_scaling_variance(r1):
    # delta_{1/lam} scales the R^1 variance s/2 -> s/(2 lam^2)
    b = heat.sample(r1, 2.0, 50_000, 8, seed=37)
    scaled = group.dilate_batch(r1, 0.5, b.samples)
    assert abs(scaled[:, 0].var(ddof=1) - 0.25) < 0.01


def _energy_z_reference(A, B, seed, n_perm=100, cap=512):
    """The energy permutation test as one loop over the permutations."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 2 ** 32]))
    if A.shape[0] > cap:
        A = A[rng.choice(A.shape[0], cap, replace=False)]
    if B.shape[0] > cap:
        B = B[rng.choice(B.shape[0], cap, replace=False)]
    pooled = np.vstack([A, B])
    na, ntot = A.shape[0], pooled.shape[0]
    D = np.sqrt(((pooled[:, None, :] - pooled[None, :, :]) ** 2).sum(axis=2))

    def energy(ia, ib):
        return (2.0 * D[np.ix_(ia, ib)].mean() - D[np.ix_(ia, ia)].mean()
                - D[np.ix_(ib, ib)].mean())

    obs = energy(np.arange(na), np.arange(na, ntot))
    null = np.empty(n_perm)
    for i in range(n_perm):
        perm = rng.permutation(ntot)
        null[i] = energy(perm[:na], perm[na:])
    sd = float(null.std(ddof=1))
    return float((obs - null.mean()) / sd) if sd > 0 else 0.0


def _gaussian(n, seed, scale=1.0, dim=3):
    return scale * np.random.default_rng(seed).standard_normal((n, dim))


_SAME = _gaussian(200, seed=3)


@pytest.mark.parametrize("A, B", [
    (_gaussian(600, seed=1), _gaussian(600, seed=2, scale=1.1)),  # both above cap
    (_gaussian(300, seed=1), _gaussian(170, seed=2, scale=1.3)),  # no subsample
    (_SAME, _SAME),
    (_gaussian(700, seed=4, dim=1), _gaussian(400, seed=5, scale=1.2, dim=1)),
    (_gaussian(250, seed=6, dim=4), _gaussian(300, seed=7, scale=1.2, dim=4)),
    (_gaussian(300, seed=8, dim=5), _gaussian(220, seed=9, scale=1.15, dim=5)),
    # from dim 8 on, the in-place coordinate sum differs from a sum over the
    # last axis in the last bits
    (_gaussian(260, seed=10, dim=9), _gaussian(240, seed=11, scale=1.1, dim=9)),
], ids=["equal-above-cap", "unequal-below-cap", "identical", "dim1", "dim4", "dim5",
        "dim9"])
def test_energy_z_matches_permutation_loop(A, B):
    want = _energy_z_reference(A, B, seed=17)
    assert abs(heat._energy_z(A, B, seed=17) - want) <= 1e-9
    assert want != 0.0


def test_energy_z_of_coincident_points_is_zero():
    # every split has energy 0, so the null spread is 0
    A = np.ones((40, 3))
    assert heat._energy_z(A, A[:30], seed=1) == _energy_z_reference(A, A[:30], 1) == 0.0


def test_energy_z_thread_invariant(monkeypatch):
    config = {
        "algebra": "heisenberg(1)",
        "heat": {"s": 4.0, "n": 700, "steps": 16, "seed": 3},
        "extra_batches": {"quarter": {"s": 1.0, "n": 400, "steps": 16, "seed": 4}},
        "checks": [{"check": "inverse-symmetry"},
                   {"check": "scaling", "lambda": 2.0, "batch": "quarter"}],
    }
    zs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CARNOT_THREADS", threads)
        zs.append([rep["energy_z"] for rep in cli.run(config)["reports"]])
    assert zs[0] == zs[1]


_ENERGY_BYTES = """
import sys
import numpy as np
from carnot import heat
rng = np.random.default_rng(12)
A = rng.standard_normal((600, 3))
B = 1.1 * rng.standard_normal((550, 3))
sys.stdout.write(np.float64(heat._energy_z(A, B, seed=5)).tobytes().hex())
"""


def test_energy_z_blas_thread_invariant():
    # the split statistics are one BLAS product; its bytes must not depend on
    # how many threads BLAS runs
    src = os.path.dirname(os.path.dirname(os.path.abspath(heat.__file__)))
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _ENERGY_BYTES], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1] != ""


def test_tail_profile_r1_matches_gaussian_oracle(r1, r1_batch_s2):
    rep = heat.empirical_tail_profile(r1_batch_s2)
    assert rep.passed
    # oracle: exact Gaussian tail P(|x| > r) = 2 Phi^c(r), same grid, same model
    grid = np.asarray(rep.grid_r)
    oracle_logs = np.log(2.0 * stats.norm.sf(grid, scale=1.0))
    A = np.column_stack([np.ones_like(grid), grid ** 2])
    oracle_slope = np.linalg.lstsq(A, oracle_logs, rcond=None)[0][1]
    assert abs(rep.slope_quadratic - oracle_slope) / abs(oracle_slope) < 0.2


def test_tail_profile_h3_negative_quadratic(h3_batch_s1):
    rep = heat.empirical_tail_profile(h3_batch_s1)
    assert rep.passed
    assert rep.slope_quadratic < 0


def test_tail_profile_cauchy_control_fails(h3, h3_batch_s1):
    rng = np.random.default_rng(1)
    pert = h3_batch_s1.samples + rng.standard_cauchy((h3_batch_s1.n_samples, 3))
    bad = heat.HeatSampleBatch(h3, 1.0, h3_batch_s1.n_samples, 128, 7, pert)
    assert not heat.empirical_tail_profile(bad).passed


def test_tail_profile_needs_enough_samples(r1):
    small = heat.sample(r1, 1.0, 1000, 4, seed=2)
    with pytest.raises(ParameterError):
        heat.empirical_tail_profile(small)


def test_polynomial_moments_stabilize(h3):
    # fourth moments of all coordinates: finite, with shrinking stderr in n
    ses = []
    for n in (2000, 8000, 32_000):
        b = heat.sample(h3, 1.0, n, 64, seed=55)
        p4 = b.samples ** 4
        assert np.all(np.isfinite(p4))
        ses.append(float(np.max(p4.std(axis=0, ddof=1) / math.sqrt(n))))
    assert ses[0] > ses[1] > ses[2]


def test_empirical_checks_require_untilted(r1):
    tilted = heat.sample(r1, 2.0, 20_000, 4, seed=13, tilt=np.array([1.0]))
    with pytest.raises(ParameterError):
        heat.empirical_check_inverse_symmetry(tilted)
    with pytest.raises(ParameterError):
        heat.empirical_tail_profile(tilted)


def test_csv_roundtrip(tmp_path, h3):
    b = heat.sample(h3, 1.0, 50, 8, seed=77)
    path = tmp_path / "batch.csv"
    b.save_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == "x_1_1,x_1_2,x_2_1"
    back = heat.load_csv(str(path), h3)
    assert np.allclose(back, b.samples, atol=1e-12)
