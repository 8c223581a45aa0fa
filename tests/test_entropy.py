"""Entropy model tests: pmf normalization, erf oracle, CDF quantization,
quantizers, determinization lattices."""

import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from nlic import entropy as E
from nlic.errors import ContractViolation, PrecisionError


def phi_oracle(x):
    """High-precision standard normal CDF via mpmath erf."""
    return float(mpmath.mpf(0.5) * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2))))


def random_gmm_params(rng, shape, k, grid):
    w = rng.dirichlet(np.ones(k), size=shape)
    mu = rng.uniform(grid.value(grid.lo), grid.value(grid.hi), size=shape + (k,))
    sd = np.exp(rng.uniform(np.log(E.SCALE_FLOOR), np.log(grid.span), size=shape + (k,)))
    return w, mu, sd


class TestGmmPmf:
    def test_unit_gaussian_center_bin_oracle(self):
        # K=1, mu=0, sigma=1, unit step, symbol at value 0
        p = E.gmm_pmf_table([1.0], [0.0], [1.0], E.LATENT_GRID)[0 - E.LATENT_GRID.lo]
        expected = phi_oracle(0.5) - phi_oracle(-0.5)
        assert abs(p - expected) < 1e-12
        assert abs(p - 0.3829249) < 1e-6

    def test_mixture_collapse(self, rng):
        w = rng.dirichlet(np.ones(3))
        p3 = E.gmm_pmf_table(w, [2.0] * 3, [4.0] * 3, E.LATENT_GRID)
        p1 = E.gmm_pmf_table([1.0], [2.0], [4.0], E.LATENT_GRID)
        assert abs(p3[5 - E.LATENT_GRID.lo] - p1[5 - E.LATENT_GRID.lo]) < 1e-12

    def test_sums_to_one_randomized(self, rng):
        for grid in (E.PIXEL_GRID, E.LATENT_GRID):
            w, mu, sd = random_gmm_params(rng, (50,), 3, grid)
            pmf = E.gmm_pmf_table(w, mu, sd, grid)
            assert pmf.shape == (50, grid.n_symbols)
            np.testing.assert_allclose(pmf.sum(axis=-1), 1.0, atol=1e-12)

    def test_cumulative_monotone(self, rng):
        grid = E.LATENT_GRID
        w, mu, sd = random_gmm_params(rng, (200,), 3, grid)
        pmf = E.gmm_pmf_table(w, mu, sd, grid)
        assert (pmf >= 0).all()


def _gmm_pmf_table_full(weights, means, scales, grid):
    """Reference gmm_pmf_table: ndtr on every edge of every component."""
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(means, dtype=np.float64)
    sd = np.asarray(scales, dtype=np.float64)
    edges = grid.edges()
    z = (edges - mu[..., None]) / sd[..., None]  # [..., K, n+1]
    cdf = ndtr(z)
    cdf[..., 0] = 0.0
    cdf[..., -1] = 1.0
    pmf_k = np.diff(cdf, axis=-1)
    return np.einsum("...k,...ks->...s", w, pmf_k)


GRIDS = pytest.mark.parametrize("grid", [E.PIXEL_GRID, E.LATENT_GRID], ids=["pixel", "latent"])

# where scipy's ndtr saturates: exactly 0.0 at and below the first, exactly
# 1.0 at and above the second
NDTR_SATURATION_Z = (-37.67712072049519, 8.292361075813597)


def ulp_neighbours(x, steps=2):
    """x and the `steps` floats on either side of it."""
    out = [float(x)]
    for direction in (-np.inf, np.inf):
        y = float(x)
        for _ in range(steps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


@pytest.fixture
def ndtr_shapes(monkeypatch):
    """The shape of z in each ndtr call gmm_pmf_table makes, which tells
    which branch ran."""
    shapes = []

    def recording_ndtr(z, *args, **kwargs):
        shapes.append(np.shape(z))
        return ndtr(z, *args, **kwargs)

    monkeypatch.setattr(E, "ndtr", recording_ndtr)
    return shapes


@st.composite
def mixture_batches(draw):
    """(w, mu, sd, grid) with [L, K] parameters. Each component's scale is
    drawn from the determinize range or from anywhere in (0, 1e6], subnormal
    included; its mean is drawn freely (beyond the grid too) or placed so
    that mu + Z*sd falls on a bin edge, for Z a window constant or an ndtr
    saturation point, up to 2 ulps either side."""
    grid = draw(st.sampled_from([E.PIXEL_GRID, E.LATENT_GRID]))
    edges = grid.edges()
    k = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 5))
    mu = np.empty((n_rows, k))
    sd = np.empty((n_rows, k))
    for i in np.ndindex(mu.shape):
        sd[i] = draw(st.one_of(st.floats(E.SCALE_FLOOR, grid.span),
                               st.floats(5e-324, 1e6, exclude_min=False)))
        if draw(st.booleans()):
            mu[i] = draw(st.floats(-3 * grid.span, 3 * grid.span))
        else:
            edge = edges[draw(st.integers(0, edges.size - 1))]
            z = draw(st.sampled_from([E.NDTR_ZERO_Z, E.NDTR_ONE_Z, *NDTR_SATURATION_Z]))
            mu[i] = draw(st.sampled_from(ulp_neighbours(edge - z * sd[i])))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=mu.size, max_size=mu.size)))
    return w.reshape(mu.shape), mu, sd, grid


class TestGmmPmfTableOracle:
    """The windowed gmm_pmf_table against ndtr on every edge, bit for bit."""

    @staticmethod
    def assert_same(w, mu, sd, grid):
        with np.errstate(over="ignore"):
            expected = _gmm_pmf_table_full(w, mu, sd, grid)
            got = E.gmm_pmf_table(w, mu, sd, grid)
        np.testing.assert_array_equal(got, expected)

    @GRIDS
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(), (7,), (5, 3)], ids=["scalar", "L", "LC"])
    def test_components_and_shapes(self, grid, k, shape, rng):
        for _ in range(8):
            w, mu, sd = random_gmm_params(rng, shape, k, grid)
            self.assert_same(w, mu, sd, grid)
            self.assert_same(*E.determinize(w, mu, sd, grid), grid)

    @GRIDS
    @pytest.mark.parametrize("at", ["floor", "span"])
    def test_scale_ends(self, grid, at, rng):
        w, mu, sd = random_gmm_params(rng, (64,), 3, grid)
        sd[:] = E.SCALE_FLOOR if at == "floor" else grid.span
        self.assert_same(w, mu, sd, grid)
        self.assert_same(*E.determinize(w, mu, sd, grid), grid)

    @GRIDS
    def test_means_beyond_grid(self, grid, rng):
        w, _, sd = random_gmm_params(rng, (64,), 2, grid)
        beyond = rng.uniform(0.0, 3 * grid.span, size=sd.shape)
        lo, hi = grid.value(grid.lo), grid.value(grid.hi)
        mu = np.where(rng.random(sd.shape) < 0.5, lo - beyond, hi + beyond)
        mu[0] = [lo - 1e6, hi + 1e6]
        for scales in (sd, np.full_like(sd, E.SCALE_FLOOR), np.full_like(sd, grid.span)):
            self.assert_same(w, mu, scales, grid)

    @GRIDS
    @pytest.mark.parametrize("z", [E.NDTR_ZERO_Z, E.NDTR_ONE_Z, *NDTR_SATURATION_Z],
                             ids=["zero-bound", "one-bound", "zero-saturation", "one-saturation"])
    def test_window_bound_on_edge(self, grid, z):
        # mu + z*sd on a bin edge, and 1 and 2 ulps of mu either side of it;
        # each scale is its own call, so the narrow ones take the gather
        edges = grid.edges()
        on_edge = 0
        for scale in (E.SCALE_FLOOR, 2.0 ** -10, 0.37, grid.span / 7):
            mu = np.array([ulp_neighbours(e - z * scale) for e in edges])
            on_edge += np.count_nonzero(mu + z * scale == edges[:, None])
            self.assert_same(np.ones(mu.shape), mu, np.full(mu.shape, scale), grid)
        assert on_edge >= edges.size

    @GRIDS
    @pytest.mark.parametrize("scale", [1e-17, 1e-300, 5e-324])
    def test_tiny_scales(self, grid, scale):
        # mu + Z*sd rounds to mu: edges on mu and 1-2 ulps from it
        edges = grid.edges()
        mu = np.array([ulp_neighbours(e) for e in edges[::17]])
        self.assert_same(np.ones(mu.shape), mu, np.full(mu.shape, scale), grid)

    def test_subnormal_scale_bounds(self):
        # 8.5 * 2^-1074 rounds to 8 * 2^-1074, so for mu = -8 * 2^-1074 the
        # computed upper bound lands on the edge at 0, where z = 8 and ndtr
        # is not yet 1: the slack must cover the rounding of a subnormal
        grid = E.SymbolGrid(lo=0, hi=7, step_norm=1.0, lo_value=-3.5)  # edges -4..4
        tiny = 5e-324
        mu = np.arange(-40, 41)[:, None] * tiny
        self.assert_same(np.ones(mu.shape), mu, np.full(mu.shape, tiny), grid)

    @GRIDS
    def test_each_branch(self, grid, ndtr_shapes, rng):
        w, mu, sd = random_gmm_params(rng, (16, 3), 3, grid)
        n_edges = grid.n_symbols + 1
        few_wide = np.where(rng.random(sd.shape) < 0.2, grid.span, E.SCALE_FLOOR)
        many_wide = np.where(rng.random(sd.shape) < 0.8, grid.span, E.SCALE_FLOOR)
        for scales, gathered in ((np.full_like(sd, E.SCALE_FLOOR), True), (few_wide, True),
                                 (many_wide, False), (np.full_like(sd, grid.span), False)):
            ndtr_shapes.clear()
            self.assert_same(w, mu, scales, grid)
            (shape,) = ndtr_shapes
            if gathered:
                assert len(shape) == 1 and 2 * shape[0] < mu.size * n_edges
            else:
                assert shape == mu.shape + (n_edges,)

    @GRIDS
    @pytest.mark.parametrize("scale", ["floor", "mixed", "span"])
    @pytest.mark.parametrize("layout", ["moveaxis", "fortran"])
    def test_non_contiguous_params(self, grid, scale, layout, rng):
        # strided parameters are still a contract: the tables must not
        # depend on the memory layout, so store K on axis 1 and move it last
        w, mu, sd = (np.ascontiguousarray(np.moveaxis(a, -1, 1))
                     for a in random_gmm_params(rng, (2, 3, 4, 5), 3, grid))
        if scale != "mixed":
            sd[:] = E.SCALE_FLOOR if scale == "floor" else grid.span
        expected = E.gmm_pmf_table(*(np.moveaxis(a, 1, -1).copy() for a in (w, mu, sd)), grid)
        if layout == "moveaxis":
            params = [np.moveaxis(a, 1, -1) for a in (w, mu, sd)]
        else:
            params = [np.asfortranarray(np.moveaxis(a, 1, -1)) for a in (w, mu, sd)]
        assert not any(a.flags.c_contiguous for a in params)
        np.testing.assert_array_equal(E.gmm_pmf_table(*params, grid), expected)

    @settings(max_examples=300, deadline=None, database=None)
    @given(mixture_batches())
    def test_random_batches(self, batch):
        self.assert_same(*batch)


class TestTableBuffers:
    """gmm_pmf_table holds one table-sized buffer per call, and _bin_masses
    takes the differences in that buffer."""

    @pytest.mark.parametrize("gathered", [False, True], ids=["dense", "gathered"])
    def test_one_table_buffer_per_call(self, gathered, ndtr_shapes, rng):
        grid = E.LATENT_GRID
        w, mu, sd = random_gmm_params(rng, (6, 32), 3, grid)  # a latent wavefront batch
        sd[:] = E.SCALE_FLOOR if gathered else grid.span
        E.gmm_pmf_table(w, mu, sd, grid)  # fills the edge-table cache
        ndtr_shapes.clear()
        tracemalloc.start()
        try:
            pmf = E.gmm_pmf_table(w, mu, sd, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (shape,) = ndtr_shapes
        assert (len(shape) == 1) == gathered
        table = mu.size * (grid.n_symbols + 1) * 8  # one [6, 32, 3, 256] float64 table
        assert peak <= pmf.nbytes + 1.25 * table

    @pytest.mark.parametrize("shape", [(9,), (4, 9), (2, 3, 256)])
    def test_bin_masses_match_diff(self, shape, rng):
        cdf = rng.random(shape)
        ends = cdf.copy()
        ends[..., 0] = 0.0
        ends[..., -1] = 1.0
        masses = E._bin_masses(cdf)
        np.testing.assert_array_equal(masses, np.diff(ends, axis=-1))
        assert np.shares_memory(masses, cdf)

    @pytest.mark.parametrize("layout", ["fortran", "transposed"])
    def test_bin_masses_rejects_strided_cdf(self, layout, rng):
        if layout == "fortran":
            cdf = np.asfortranarray(rng.random((3, 4, 9)))
        else:
            cdf = rng.random((3, 9, 4)).transpose(0, 2, 1)
        before = cdf.copy()
        with pytest.raises(ContractViolation, match="C-contiguous"):
            E._bin_masses(cdf)
        np.testing.assert_array_equal(cdf, before)


class TestNdtrSaturation:
    """gmm_pmf_table fills the edges outside its windows with 0.0 and 1.0
    instead of calling ndtr there: a scipy whose ndtr tail differs must fail
    here, not change the coded bytes."""

    def test_zero_at_and_below_low_bound(self):
        z = np.concatenate([
            np.linspace(E.NDTR_ZERO_Z - 100.0, E.NDTR_ZERO_Z, 10 ** 6),
            -np.logspace(np.log10(-E.NDTR_ZERO_Z), 308, 10 ** 4),
            [np.nextafter(E.NDTR_ZERO_Z, -np.inf), -np.finfo(np.float64).max, -np.inf]])
        assert (ndtr(z) == 0.0).all()
        assert ndtr(NDTR_SATURATION_Z[0]) == 0.0 < ndtr(np.nextafter(NDTR_SATURATION_Z[0], 0))

    def test_one_at_and_above_high_bound(self):
        z = np.concatenate([
            np.linspace(E.NDTR_ONE_Z, E.NDTR_ONE_Z + 100.0, 10 ** 6),
            np.logspace(np.log10(E.NDTR_ONE_Z), 308, 10 ** 4),
            [np.nextafter(E.NDTR_ONE_Z, np.inf), np.finfo(np.float64).max, np.inf]])
        assert (ndtr(z) == 1.0).all()
        assert ndtr(NDTR_SATURATION_Z[1]) == 1.0 > ndtr(np.nextafter(NDTR_SATURATION_Z[1], 0))


class TestMixtureContract:
    @pytest.mark.parametrize("field, value", [
        ("means", np.nan), ("means", np.inf), ("means", -np.inf),
        ("scales", 0.0), ("scales", -1.0), ("scales", np.nan), ("scales", np.inf),
        ("weights", -0.25), ("weights", np.nan), ("weights", np.inf),
    ])
    def test_bad_value_rejected(self, field, value, rng):
        grid = E.PIXEL_GRID
        params = dict(zip(("weights", "means", "scales"), random_gmm_params(rng, (4, 3), 3, grid)))
        params[field][2, 1, 0] = value
        with pytest.raises(ContractViolation, match=field):
            E.gmm_pmf_table(params["weights"], params["means"], params["scales"], grid)
        with pytest.raises(ContractViolation, match=field):
            E.gmm_pmf_table(params["weights"][2, 1], params["means"][2, 1],
                            params["scales"][2, 1], grid)

    @pytest.mark.parametrize("w_shape, mu_shape, sd_shape", [
        ((4, 2), (4, 3), (4, 3)), ((4, 3), (4, 2), (4, 3)), ((4, 3), (4, 3), (4, 2)),
        ((1,), (4, 1), (1,)),  # means and scales must share one shape
    ])
    def test_mismatched_shapes_rejected(self, w_shape, mu_shape, sd_shape):
        with pytest.raises(ContractViolation, match="shapes"):
            E.gmm_pmf_table(np.ones(w_shape), np.zeros(mu_shape), np.ones(sd_shape),
                            E.LATENT_GRID)


def _prior_ref(prior, v):
    """Reference FactorizedPrior.cdf: the plain-numpy body it had before
    the prior was built from Tensor ops."""
    u = np.asarray(v, dtype=np.float64)
    for h, b, a in zip(prior.h_layers, prior.b_layers, prior.a_layers):
        t = np.logaddexp(0.0, h) * u + b
        u = t + np.tanh(a) * np.tanh(t)
    out = np.empty_like(u)
    np.exp(-np.abs(u), out=out)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + out[pos])
    out[~pos] = out[~pos] / (1.0 + out[~pos])
    return out


class TestFactorizedPrior:
    def test_cdf_matches_reference(self, rng):
        for trial in range(20):
            c = int(rng.integers(1, 9))
            prior = E.FactorizedPrior(
                *([rng.normal(scale=2, size=c) for _ in range(3)] for _ in "hba"))
            v = rng.normal(scale=10.0 ** rng.uniform(-1, 3), size=(int(rng.integers(1, 300)), c))
            np.testing.assert_array_equal(prior.cdf(v).data, _prior_ref(prior, v))
            edges = np.broadcast_to(E.LATENT_GRID.edges()[:, None], (256, c))
            np.testing.assert_array_equal(prior.cdf(edges).data, _prior_ref(prior, edges))

    def test_fresh_prior_is_broad(self):
        prior = E.FactorizedPrior.init(4)
        p0 = prior.pmf_table(E.LATENT_GRID)[0, 0 - E.LATENT_GRID.lo]
        assert p0 < 0.5

    def test_sums_to_one(self, rng):
        prior = E.FactorizedPrior.init(8)
        # randomize parameters to exercise the gating terms
        for layer in range(prior.N_LAYERS):
            prior.b_layers[layer] = rng.normal(size=8)
            prior.a_layers[layer] = rng.normal(size=8)
            prior.h_layers[layer] = rng.normal(size=8)
        pmf = prior.pmf_table(E.LATENT_GRID)
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, atol=1e-12)

    def test_cdf_monotone_randomized(self, rng):
        for trial in range(20):
            prior = E.FactorizedPrior(
                h_layers=[rng.normal(scale=2, size=3) for _ in range(3)],
                b_layers=[rng.normal(scale=2, size=3) for _ in range(3)],
                a_layers=[rng.normal(scale=2, size=3) for _ in range(3)],
            )
            v = np.linspace(-200, 200, 2001)[:, None]
            cdf = prior.cdf(np.broadcast_to(v, (2001, 3))).data
            assert (np.diff(cdf, axis=0) >= 0).all()
            # float saturation to exactly 0/1 far in the tails is fine
            assert (cdf >= 0).all() and (cdf <= 1).all()


class TestQuantizers:
    def test_noisy_bounds_and_mean(self):
        rng = np.random.default_rng(7)
        y = np.zeros(10 ** 6)
        out = E.noisy_quantize(y, rng)
        d = out - y
        assert (d > -0.5).all() and (d < 0.5).all()
        # mean within 3 sigma of zero; sd of the mean is 1/sqrt(12 n)
        assert abs(d.mean()) < 3.0 / math.sqrt(12 * d.size)

    def test_noisy_deterministic_under_seed(self):
        y = np.arange(100, dtype=np.float64)
        a = E.noisy_quantize(y, np.random.default_rng(3))
        b = E.noisy_quantize(y, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_round_half_away_from_zero(self):
        res = E.round_quantize(np.array([0.5, -0.5, 0.49, -0.49, 1.5, -2.5]), E.LATENT_GRID)
        np.testing.assert_array_equal(res.symbols, [1, -1, 0, 0, 2, -3])
        assert res.clamp_count == 0

    def test_idempotent_on_integers(self, rng):
        vals = rng.integers(-127, 128, size=1000).astype(np.float64)
        res = E.round_quantize(vals, E.LATENT_GRID)
        np.testing.assert_array_equal(res.symbols, vals.astype(np.int32))

    def test_clamp_counter_matches_bruteforce(self, rng):
        vals = rng.normal(scale=100, size=5000)
        res = E.round_quantize(vals, E.LATENT_GRID)
        rounded = np.copysign(np.floor(np.abs(vals) + 0.5), vals)
        expected = int(((rounded < -127) | (rounded > 127)).sum())
        assert res.clamp_count == expected
        assert res.symbols.min() >= -127 and res.symbols.max() <= 127

    def test_nan_rejected(self):
        with pytest.raises(ContractViolation, match="2 NaN"):
            E.round_quantize(np.array([np.nan, 3.2, np.nan]), E.PIXEL_GRID)

    def test_infinities_clamp_to_grid_ends(self):
        res = E.round_quantize(np.array([-np.inf, 3.2, np.inf]), E.PIXEL_GRID)
        np.testing.assert_array_equal(res.symbols, [0, 3, 255])
        assert res.clamp_count == 2


class TestDeterminize:
    def test_idempotent(self, rng):
        grid = E.PIXEL_GRID
        w, mu, sd = random_gmm_params(rng, (40,), 3, grid)
        d1 = E.determinize(w, mu, sd, grid)
        d2 = E.determinize(*d1, grid)
        for a, b in zip(d1, d2):
            np.testing.assert_array_equal(a, b)

    def test_weights_sum_exactly_one_on_lattice(self, rng):
        w, mu, sd = random_gmm_params(rng, (500,), 3, E.LATENT_GRID)
        dw, _, _ = E.determinize(w, mu, sd, E.LATENT_GRID)
        counts = dw * E.WEIGHT_LATTICE
        np.testing.assert_array_equal(counts, np.round(counts))
        np.testing.assert_array_equal(counts.sum(axis=-1), E.WEIGHT_LATTICE)

    def test_scales_on_geometric_ladder(self, rng):
        w, mu, sd = random_gmm_params(rng, (100,), 2, E.PIXEL_GRID)
        _, _, ds = E.determinize(w, mu, sd, E.PIXEL_GRID)
        lo, hi = E.SCALE_FLOOR, E.PIXEL_GRID.span
        idx = np.log(ds / lo) / np.log(hi / lo) * (E.SCALE_LEVELS - 1)
        np.testing.assert_allclose(idx, np.round(idx), atol=1e-9)

    def test_rate_shift_small(self, rng):
        # expected excess codelength from coding with determinized+quantized
        # params instead of the raw float pmf stays under 0.02 bits/symbol
        grid = E.PIXEL_GRID
        w, mu, sd = random_gmm_params(rng, (64,), 3, grid)
        # keep scales in a sane trained-model band for this comparison
        sd = np.clip(sd, 0.01, 1.0)
        dw, dm, ds = E.determinize(w, mu, sd, grid)
        pmf_raw = E.gmm_pmf_table(w, mu, sd, grid)
        pmf_det = E.gmm_pmf_table(dw, dm, ds, grid)
        excesses = []
        for loc in range(64):
            coded = np.diff(E.build_cdf(pmf_det[loc]).astype(np.int64)) / E.CDF_TOTAL
            p = pmf_raw[loc]
            mask = p > 0
            excesses.append(np.sum(p[mask] * (np.log2(p[mask]) - np.log2(coded[mask]))))
        assert np.mean(excesses) < 0.02


def _determinize_ref(weights, means, scales, grid):
    """Reference determinize: the largest-remainder weights ranked by
    lexsort on (-remainder, k) and an argsort of that order, clip and round
    for the means and scales."""
    w = np.asarray(weights, dtype=np.float64)
    shape = w.shape
    scaled = w.reshape(-1, shape[-1]) * E.WEIGHT_LATTICE
    base = np.floor(scaled)
    deficit = (E.WEIGHT_LATTICE - base.sum(axis=1)).astype(np.int64)
    rem = scaled - base
    order = np.lexsort((np.broadcast_to(np.arange(shape[-1]), rem.shape), -rem), axis=1)
    ranks = np.argsort(order, axis=1)
    counts = base + (ranks < deficit[:, None])
    w = (counts / E.WEIGHT_LATTICE).reshape(shape)
    mean_step = grid.step_norm / E.MEAN_LATTICE
    m = np.round(np.asarray(means, dtype=np.float64) / mean_step) * mean_step
    lo, hi = E.SCALE_FLOOR, grid.span
    ratio = np.log(np.clip(np.asarray(scales, dtype=np.float64), lo, hi) / lo) / np.log(hi / lo)
    idx = np.round(ratio * (E.SCALE_LEVELS - 1))
    return w, m, lo * (hi / lo) ** (idx / (E.SCALE_LEVELS - 1))


def tied_weights(rng, shape, k):
    """[*shape, k] weights whose remainders on the 1/4096 lattice tie often:
    floored dirichlet counts plus a remainder from {0, 1/4, 1/2, 3/4}, over
    4096. The floors leave a deficit of 0..k-1 units to hand out."""
    counts = np.floor(rng.dirichlet(np.ones(k), size=shape) * E.WEIGHT_LATTICE)
    return (counts + rng.integers(0, 4, size=counts.shape) / 4) / E.WEIGHT_LATTICE


@st.composite
def determinize_batches(draw):
    """(w, mu, sd, grid) with [L, C, K] parameters. Weights are dirichlet
    rows, unnormalized draws, or rows with tied remainders; means and
    scales span and exceed the grid."""
    grid = draw(st.sampled_from([E.PIXEL_GRID, E.LATENT_GRID]))
    k = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 3)), k)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dirichlet", "free", "tied"]))
    if kind == "dirichlet":
        w = rng.dirichlet(np.ones(k), size=shape[:-1])
    elif kind == "free":
        w = rng.uniform(0.0, 1.0, size=shape)
    else:
        w = tied_weights(rng, shape[:-1], k)
    mu = rng.uniform(-2 * grid.span, 2 * grid.span, size=shape)
    sd = np.exp(rng.uniform(np.log(E.SCALE_FLOOR / 10), np.log(10 * grid.span), size=shape))
    return w, mu, sd, grid


class TestDeterminizeReference:
    """determinize against _determinize_ref, bit for bit."""

    @staticmethod
    def assert_same(w, mu, sd, grid):
        got = E.determinize(w, mu, sd, grid)
        for a, b in zip(got, _determinize_ref(w, mu, sd, grid), strict=True):
            np.testing.assert_array_equal(a, b)

    @GRIDS
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("stored_axis", [0, 1, -1])
    @pytest.mark.parametrize("weights", ["dirichlet", "tied"])
    def test_components_and_axes(self, grid, k, stored_axis, weights, rng):
        # K is stored on stored_axis and handed over last, so for axes 0
        # and 1 determinize sees strided views
        for _ in range(4):
            w, mu, sd = random_gmm_params(rng, (5, 4), k, grid)
            if weights == "tied":
                w = tied_weights(rng, (5, 4), k)
            w, mu, sd = (np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, stored_axis)),
                                     stored_axis, -1) for a in (w, mu, sd))
            self.assert_same(w, mu, sd, grid)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_all_remainders_tied(self, k):
        # every remainder is 1/2, so a deficit of d units goes to the d
        # lowest indices; one row for each d in 0..k
        rows = []
        for d in range(k + 1):
            counts = np.full(k, (E.WEIGHT_LATTICE - d) // k)
            counts[0] += E.WEIGHT_LATTICE - d - counts.sum()
            rows.append((counts + 0.5) / E.WEIGHT_LATTICE)
        w = np.array(rows)
        mu, sd = np.zeros_like(w), np.ones_like(w)
        self.assert_same(w, mu, sd, E.LATENT_GRID)
        dw, _, _ = E.determinize(w, mu, sd, E.LATENT_GRID)
        bumps = dw * E.WEIGHT_LATTICE - np.floor(w * E.WEIGHT_LATTICE)
        np.testing.assert_array_equal(bumps, np.arange(k) < np.arange(k + 1)[:, None])

    @settings(max_examples=300, deadline=None, database=None)
    @given(determinize_batches())
    def test_random_batches(self, batch):
        self.assert_same(*batch)


class TestBuildCdf:
    def test_uniform_splits_exactly(self):
        cdf = E.build_cdf(np.full(256, 1.0 / 256.0))
        np.testing.assert_array_equal(np.diff(cdf), 256)
        assert cdf[0] == 0 and cdf[-1] == E.CDF_TOTAL

    def test_strictly_increasing_randomized(self, rng):
        for _ in range(200):
            k = rng.integers(2, 5)
            grid = E.PIXEL_GRID if rng.random() < 0.5 else E.LATENT_GRID
            w, mu, sd = random_gmm_params(rng, (), k, grid)
            pmf = E.gmm_pmf_table(w, mu, sd, grid)
            cdf = E.build_cdf(pmf)
            assert (np.diff(cdf.astype(np.int64)) >= 1).all()
            assert cdf[0] == 0 and cdf[-1] == E.CDF_TOTAL

    def test_near_delta_pmf_repaired(self):
        pmf = np.full(256, 1e-300)
        pmf[17] = 1.0
        cdf = E.build_cdf(pmf / pmf.sum())
        diffs = np.diff(cdf.astype(np.int64))
        assert (diffs >= 1).all()
        assert diffs[17] == E.CDF_TOTAL - 255

    def test_support_too_large(self):
        with pytest.raises(PrecisionError):
            E.build_cdf(np.full(40000, 1.0 / 40000.0))

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_pmf_rejected(self, shape):
        # a caller fault: no table may come back, or the decoder would read
        # the stream under it and blame the data
        with pytest.raises(ContractViolation, match="no symbols"):
            E.build_cdf(np.zeros(shape))

    @pytest.mark.parametrize("pmf", [[0.5, np.nan, 0.5], [0.6] * 3, [-0.5, 0.25]],
                             ids=["nan", "above-one", "negative"])
    def test_invalid_total_rejected(self, pmf):
        with pytest.raises(ContractViolation, match="cumulative"):
            E.build_cdf(np.array(pmf))

    @pytest.mark.parametrize("pmf", [[0.6, 0.6, -0.2], [0.6, 0.6, 0.0, -0.2], [-1e-10, 1.0]],
                             ids=["no-empty-bin", "empty-bin", "tiny-first"])
    def test_negative_entry_rejected(self, pmf):
        # the total stays in [0, 1], so only the counts show the negative entry
        with pytest.raises(ContractViolation, match="negative"):
            E.build_cdf(np.array(pmf))

    def test_total_rounding_above_one_accepted(self):
        cdf = E.build_cdf(np.array([0.5, 0.5 + 1e-9]))
        np.testing.assert_array_equal(cdf, [0, 32768, 65536])

    def test_deterministic(self, rng):
        w, mu, sd = random_gmm_params(rng, (), 3, E.LATENT_GRID)
        pmf = E.gmm_pmf_table(w, mu, sd, E.LATENT_GRID)
        np.testing.assert_array_equal(E.build_cdf(pmf), E.build_cdf(pmf.copy()))

    def test_cdf_bits_at_support_ends(self):
        cdf = E.build_cdf(np.full(4, 0.25))
        assert E.cdf_bits(cdf, 0) == E.cdf_bits(cdf, 3) == 2.0

    @pytest.mark.parametrize("symbol", [-1, 4], ids=["below", "above"])
    def test_cdf_bits_symbol_outside_support(self, symbol):
        with pytest.raises(ContractViolation, match="outside"):
            E.cdf_bits(E.build_cdf(np.full(4, 0.25)), symbol)


def _build_cdf_loop(pmf):
    """Reference build_cdf: repairs empty bins one at a time, each taking 1
    from the currently largest bin (np.argmax: ties to the lowest index)."""
    p = np.asarray(pmf, dtype=np.float64)
    n = p.size
    if n > E.CDF_TOTAL // 2:
        raise PrecisionError(
            f"support size {n} exceeds {E.CDF_TOTAL // 2}; cannot give every symbol mass")
    cum = np.floor(np.concatenate(([0.0], np.cumsum(p))) * E.CDF_TOTAL).astype(np.int64)
    cum[0] = 0
    cum[-1] = E.CDF_TOTAL
    counts = np.diff(cum)
    for i in np.flatnonzero(counts == 0):
        j = int(np.argmax(counts))
        if counts[j] < 2:
            raise PrecisionError("cannot repair CDF: no bin has spare mass")
        counts[j] -= 1
        counts[i] += 1
    out = np.zeros(n + 1, dtype=np.uint32)
    np.cumsum(counts, out=out[1:])
    return out


# mean offsets from the grid centre, in symbol steps: on a symbol, off it, on
# a bin edge, and on the lowest symbol (tail-absorbing first bin)
LADDER_MEAN_OFFSETS = (0.0, 0.37, 0.5, -127.0)


def ladder_pmf_rows(grid):
    """Determinized K=1 pmf rows at every scale of the ladder, SCALE_FLOOR to
    the grid span, for each of LADDER_MEAN_OFFSETS."""
    levels = np.arange(E.SCALE_LEVELS) / (E.SCALE_LEVELS - 1)
    scales = E.SCALE_FLOOR * (grid.span / E.SCALE_FLOOR) ** levels
    centre = grid.value((grid.lo + grid.hi) // 2)
    mu, sd = np.broadcast_arrays(
        centre + np.asarray(LADDER_MEAN_OFFSETS)[:, None] * grid.step_norm, scales)
    w, m, s = E.determinize(np.ones(mu.shape + (1,)), mu[..., None], sd[..., None], grid)
    return E.gmm_pmf_table(w, m, s, grid).reshape(-1, grid.n_symbols)


def pinned_pmf_rows():
    """Fixed-seed rows from both grids: 64 determinized 3-component mixtures
    each, then the ladder rows."""
    rng = np.random.default_rng(20220829)
    rows = []
    for grid in (E.PIXEL_GRID, E.LATENT_GRID):
        w, mu, sd = random_gmm_params(rng, (64,), 3, grid)
        rows += list(E.gmm_pmf_table(*E.determinize(w, mu, sd, grid), grid))
        rows += list(ladder_pmf_rows(grid))
    return rows


@st.composite
def dyadic_pmfs(draw):
    """pmfs c / 2^16 whose floor-quantized counts are exactly c.

    c has n >= 2 bins, a drawn share of them empty, and 1 <= t <= 8
    largest bins at random positions that tie at B (the CDF_TOTAL % t units
    left over go, one each, to the first of them, which tie one above B).
    """
    n = draw(st.integers(2, 300))
    n_top = draw(st.integers(1, min(n, 8)))
    empty_share = draw(st.floats(0.0, 1.0))
    small_max = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.integers(1, small_max, size=n, endpoint=True)
    counts[rng.random(n) < empty_share] = 0
    top = np.sort(rng.permutation(n)[:n_top])
    counts[top] = 0
    rest = E.CDF_TOTAL - int(counts.sum())
    counts[top] = rest // n_top
    counts[top[:rest % n_top]] += 1
    return counts / E.CDF_TOTAL


class TestBuildCdfOracle:
    """The closed-form build_cdf against the steal loop, bit for bit."""

    @staticmethod
    def assert_same(pmf):
        got = E.build_cdf(pmf)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, _build_cdf_loop(pmf))

    @pytest.mark.parametrize("grid", [E.PIXEL_GRID, E.LATENT_GRID], ids=["pixel", "latent"])
    def test_scale_ladder_rows(self, grid, rng):
        rows = ladder_pmf_rows(grid)
        w, mu, sd = random_gmm_params(rng, (128,), 3, grid)
        sd[:32] = E.SCALE_FLOOR
        rows = np.concatenate([rows, E.gmm_pmf_table(*E.determinize(w, mu, sd, grid), grid)])
        for pmf in rows:
            self.assert_same(pmf)

    @settings(max_examples=300, deadline=None, database=None)
    @given(dyadic_pmfs())
    def test_random_counts(self, pmf):
        self.assert_same(pmf)

    @pytest.mark.parametrize("counts, repaired", [
        # n = 2, either side empty
        ([0, 65536], [1, 65535]),
        ([65536, 0], [65535, 1]),
        # two tied largest bins, one empty bin: r = 1, the lower index gives
        ([0, 30000, 30000, 5536], [1, 29999, 30000, 5536]),
        # three empty bins cut bins 1 and 3 to T = 30767, and then r = 1
        ([0, 30768, 0, 30768, 4000, 0], [1, 30766, 1, 30767, 4000, 1]),
    ])
    def test_ties_and_remainder(self, counts, repaired):
        pmf = np.array(counts) / E.CDF_TOTAL
        np.testing.assert_array_equal(np.diff(E.build_cdf(pmf).astype(np.int64)), repaired)
        self.assert_same(pmf)

    @staticmethod
    def one_donor(counts):
        """Whether the largest count alone gives all E units: top - E >= second."""
        c = sorted(counts, reverse=True)
        return c[0] - sum(x <= 0 for x in counts) >= c[1]

    @pytest.mark.parametrize("counts, one_donor", [
        ([0, 30003, 0, 30000, 5533, 0], True),
        ([0, 30002, 0, 30000, 5534, 0], False),
        ([30000, 0, 30000, 5536], False),
        ([0, 40000, 0, 20000, 0, 5536], True),
        ([0, 65536, 0, 0], True),
        ([0] * 100 + [65536] + [0] * 155, True),
        ([0] * 100 + [65000] + [0] * 154 + [536], True),
        ([0] * 100 + [32895] + [0] * 154 + [32641], True),
        ([0] * 100 + [32800] + [0] * 154 + [32736], False),
        # the top's neighbours, wrapping at the ends, are read before the max
        ([32000, 0, 1536, 32000], False),
        ([0, 1535, 32000, 32001], True),
        ([0, 32718, 99, 32719, 0], False),
        ([0, 32717, 100, 32719, 0], True),
    ], ids=["top-E=second", "top-E=second-1", "tied-top", "two-donors-one-cut",
            "single-donor", "E=n-1", "E=n-2-small-second", "E=n-2-on-edge", "E=n-2-level",
            "tied-top-at-ends", "top-last", "second-apart-top-E=second-1",
            "second-apart-top-E=second"])
    def test_largest_bin_alone(self, counts, one_donor):
        assert sum(counts) == E.CDF_TOTAL
        assert self.one_donor(counts) is one_donor
        self.assert_same(np.array(counts) / E.CDF_TOTAL)

    @pytest.mark.parametrize("counts", [[0, 39321, 32768, -6553], [-3, 65539],
                                        [0, 65538, -1, -1]],
                             ids=["one-negative", "all-others-negative", "two-negative"])
    def test_negative_entry_in_one_donor_rows(self, counts):
        assert self.one_donor(counts)
        with pytest.raises(ContractViolation, match="negative"):
            E.build_cdf(np.array(counts) / E.CDF_TOTAL)

    def test_support_limit(self):
        half = E.CDF_TOTAL // 2
        delta = np.zeros(half)
        delta[half // 3] = 1.0
        self.assert_same(delta)
        for build in (E.build_cdf, _build_cdf_loop):
            with pytest.raises(PrecisionError, match="exceeds"):
                build(np.full(half + 1, 1.0 / (half + 1)))

    def test_bytes_pinned(self):
        # sha256 of the uint32 little-endian tables of pinned_pmf_rows(),
        # concatenated. The digest was computed with the steal-loop
        # build_cdf (_build_cdf_loop above), before the closed form
        # replaced it; any change to the tables changes the coded bytes.
        digest = hashlib.sha256()
        for pmf in pinned_pmf_rows():
            digest.update(E.build_cdf(pmf).astype("<u4").tobytes())
        assert digest.hexdigest() == (
            "4463c2d229d6b59ef3e643211719614244aaa570f6de8ff5cafe29c6ddbff370")


class TestSymbolGrid:
    def test_pixel_grid_values(self):
        assert E.PIXEL_GRID.value(0) == -1.0
        assert E.PIXEL_GRID.value(255) == 1.0
        assert E.PIXEL_GRID.n_symbols == 256

    def test_latent_grid_values(self):
        assert E.LATENT_GRID.value(0) == 0.0
        assert E.LATENT_GRID.value(-127) == -127.0
        assert E.LATENT_GRID.n_symbols == 255

    def test_edges(self):
        edges = E.LATENT_GRID.edges()
        assert edges[0] == -127.5 and edges[-1] == 127.5
        assert edges.size == 256

    def test_invalid_grid(self):
        with pytest.raises(ContractViolation):
            E.SymbolGrid(lo=5, hi=5, step_norm=1.0, lo_value=0.0)

    @pytest.mark.parametrize("step_norm, lo_value", [
        (float("nan"), 0.0), (float("inf"), 0.0), (0.0, 0.0), (1.0, float("nan")),
        (1.0, float("-inf"))], ids=["nan-step", "inf-step", "zero-step", "nan-lo", "inf-lo"])
    def test_non_finite_grid_rejected(self, step_norm, lo_value):
        with pytest.raises(ContractViolation, match="finite"):
            E.SymbolGrid(lo=0, hi=255, step_norm=step_norm, lo_value=lo_value)
