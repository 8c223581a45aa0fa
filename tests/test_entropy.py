"""Entropy model tests: pmf normalization, erf oracle, CDF quantization,
quantizers, determinization lattices."""

import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from nlic import entropy as E
from nlic.errors import ContractViolation


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
    """Reference gmm_pmf_table: ndtr on every edge of every component, 0
    below mu - TAIL_Z*sd and 1 from mu + TAIL_Z*sd on, where each
    component's tails fold into its window."""
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(means, dtype=np.float64)
    sd = np.asarray(scales, dtype=np.float64)
    edges = grid.edges()
    z = (edges - mu[..., None]) / sd[..., None]  # [..., K, n+1]
    cdf = np.where(edges < (mu - E.TAIL_Z * sd)[..., None], 0.0, ndtr(z))
    cdf[edges >= (mu + E.TAIL_Z * sd)[..., None]] = 1.0
    cdf[..., 0] = 0.0
    cdf[..., -1] = 1.0
    pmf_k = np.diff(cdf, axis=-1)
    return np.einsum("...k,...ks->...s", w, pmf_k)


GRIDS = pytest.mark.parametrize("grid", [E.PIXEL_GRID, E.LATENT_GRID], ids=["pixel", "latent"])

# where scipy's ndtr saturates: exactly 0.0 at and below the first and
# exactly 1.0 at and above the second, both in the folded tails; no table
# may depend on them, so the window-bound probes place edges there too
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
    drawn from the determinize range or from any positive float, subnormal
    and overflowing TAIL_Z*sd included; its mean is drawn freely (beyond
    the grid too) or, where that is finite, placed so that mu + Z*sd falls
    on a bin edge, for Z = -TAIL_Z or TAIL_Z (a window bound) or an ndtr
    saturation point, up to 2 ulps either side."""
    grid = draw(st.sampled_from([E.PIXEL_GRID, E.LATENT_GRID]))
    edges = grid.edges()
    k = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 5))
    mu = np.empty((n_rows, k))
    sd = np.empty((n_rows, k))
    for i in np.ndindex(mu.shape):
        sd[i] = draw(st.one_of(st.floats(E.SCALE_FLOOR, grid.span),
                               st.floats(5e-324, np.finfo(np.float64).max)))
        edge = edges[draw(st.integers(0, edges.size - 1))]
        z = draw(st.sampled_from([-E.TAIL_Z, E.TAIL_Z, *NDTR_SATURATION_Z]))
        with np.errstate(over="ignore"):
            placed = [m for m in ulp_neighbours(edge - z * sd[i]) if np.isfinite(m)]
        if draw(st.booleans()) or not placed:
            mu[i] = draw(st.floats(-3 * grid.span, 3 * grid.span))
        else:
            mu[i] = draw(st.sampled_from(placed))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=mu.size, max_size=mu.size)))
    return w.reshape(mu.shape), mu, sd, grid


class TestGmmPmfTableOracle:
    """The windowed gmm_pmf_table against ndtr on every edge with both
    tails folded, bit for bit; gmm_pmf_table itself must not warn."""

    @staticmethod
    def assert_same(w, mu, sd, grid):
        with np.errstate(over="ignore"):
            expected = _gmm_pmf_table_full(w, mu, sd, grid)
        np.testing.assert_array_equal(E.gmm_pmf_table(w, mu, sd, grid), expected)

    @GRIDS
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(), (7,), (5, 3)], ids=["scalar", "L", "LC"])
    def test_components_and_shapes(self, grid, k, shape, rng):
        for _ in range(8):
            w, mu, sd = random_gmm_params(rng, shape, k, grid)
            self.assert_same(w, mu, sd, grid)
            self.assert_same(*E.determinize(w, mu, sd, grid), grid)

    @GRIDS
    @pytest.mark.parametrize("at", ["floor", "span", "max"])
    def test_scale_ends(self, grid, at, rng):
        # at the largest float TAIL_Z*sd overflows, and the window is every
        # edge without a warning
        w, mu, sd = random_gmm_params(rng, (64,), 3, grid)
        sd[:] = {"floor": E.SCALE_FLOOR, "span": grid.span, "max": np.finfo(np.float64).max}[at]
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
    @pytest.mark.parametrize("z", [-E.TAIL_Z, E.TAIL_Z, *NDTR_SATURATION_Z],
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

    def test_subnormal_scale_bounds(self, ndtr_shapes):
        # 8.5 * 2^-1074 rounds to 8 * 2^-1074, so for mu = -8 * 2^-1074 the
        # upper bound lands on the edge at 0, where z = 8 and ndtr is not yet
        # 1: that edge is at the bound, so its cumulative is 1. Alone, the
        # rows take the gather; next to a component as wide as the grid,
        # whose window is every edge, they take the dense branch, where z
        # overflows to +-inf beyond the window
        grid = E.SymbolGrid(lo=0, hi=7, step_norm=1.0, lo_value=-3.5)  # edges -4..4
        tiny = 5e-324
        mu = np.arange(-40, 41)[:, None] * tiny
        self.assert_same(np.ones(mu.shape), mu, np.full(mu.shape, tiny), grid)
        mu = np.repeat(mu, 2, axis=1)
        sd = np.where([True, False], tiny, grid.span)
        self.assert_same(np.ones(mu.shape), mu, np.broadcast_to(sd, mu.shape), grid)
        assert [len(shape) for shape in ndtr_shapes] == [1, 3]

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
            else:  # the flattened [R, K] rows, in one block
                assert shape == (mu.size // 3, 3, n_edges)

    @GRIDS
    @pytest.mark.parametrize("wide_rows", [6, 26], ids=["gathered", "dense"])
    def test_row_independent_of_batch(self, grid, wide_rows, ndtr_shapes, rng):
        # each row of a determinized batch equals that row alone: a batch of
        # mostly narrow rows takes the gather, one of mostly grid-span rows
        # takes ndtr on every edge, and each row alone takes its own branch
        w, mu, _ = random_gmm_params(rng, (32,), 3, grid)
        narrow = np.where(rng.random(mu.shape) < 0.5, E.SCALE_FLOOR,
                          E.SCALE_FLOOR * (grid.step_norm / E.SCALE_FLOOR) ** rng.random(mu.shape))
        wide = (rng.permutation(32) < wide_rows)[:, None]
        batch = E.determinize(w, mu, np.where(wide, grid.span, narrow), grid)
        ndtr_shapes.clear()
        tables = E.gmm_pmf_table(*batch, grid)
        (shape,) = ndtr_shapes
        assert (len(shape) == 1) == (wide_rows < 16)
        for row in range(32):
            np.testing.assert_array_equal(E.gmm_pmf_table(*(a[row] for a in batch), grid),
                                          tables[row])
        assert {len(shape) == 1 for shape in ndtr_shapes[1:]} == {True, False}

    @GRIDS
    def test_block_boundaries(self, grid, ndtr_shapes, rng):
        # 4 full blocks of 85 rows and a partial one of 37, which take the
        # gather (floor scales) and ndtr on every edge (grid-span scales) in
        # turn: every row equals that row alone, bit for bit, so no block
        # is dropped, shifted or built with another block's branch
        block = E._BLOCK_ENTRIES // (3 * (grid.n_symbols + 1))
        assert block == 85
        n_rows = 4 * block + 37
        w, mu, _ = random_gmm_params(rng, (n_rows,), 3, grid)
        wide = np.broadcast_to((np.arange(n_rows) // block % 2 == 1)[:, None], mu.shape)
        batch = E.determinize(w, mu, np.where(wide, grid.span, E.SCALE_FLOOR), grid)
        ndtr_shapes.clear()
        tables = E.gmm_pmf_table(*batch, grid)
        assert [len(shape) == 1 for shape in ndtr_shapes] == [True, False, True, False, True]
        assert tables.shape == (n_rows, grid.n_symbols)
        for row in range(n_rows):
            np.testing.assert_array_equal(E.gmm_pmf_table(*(a[row] for a in batch), grid),
                                          tables[row])
        self.assert_same(*batch, grid)

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
    """gmm_pmf_table holds its result and one block-sized table buffer per
    call, whatever the batch size, and no grid-sized state; _bin_masses
    takes the differences in that buffer."""

    @pytest.mark.parametrize(
        ("gathered", "cold"), [(False, False), (True, False), (False, True), (True, True)],
        ids=["dense", "gathered", "dense-cold", "gathered-cold"])
    def test_one_table_buffer_per_call(self, gathered, cold, ndtr_shapes, rng):
        grid = E.LATENT_GRID
        n_edges = grid.n_symbols + 1
        block = E._BLOCK_ENTRIES // (3 * n_edges)  # 85 rows
        table = block * 3 * n_edges * 8  # one block's [85, 3, 256] float64 table
        # a latent wavefront batch of 3 blocks, and one of 25 blocks whose
        # unblocked table would take 12.6 MB
        for locations in (6, 64):
            w, mu, sd = random_gmm_params(rng, (locations, 32), 3, grid)
            sd[:] = E.SCALE_FLOOR if gathered else grid.span
            E.gmm_pmf_table(w, mu, sd, grid)  # fills the edge-table cache
            if cold:  # the measured call builds the edge tables too
                E._edge_tables.cache_clear()
            ndtr_shapes.clear()
            tracemalloc.start()
            try:
                pmf = E.gmm_pmf_table(w, mu, sd, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(ndtr_shapes) == -(-locations * 32 // block)
            assert all((len(shape) == 1) == gathered for shape in ndtr_shapes)
            assert peak <= pmf.nbytes + 1.25 * table

    @GRIDS
    def test_step_rows_share_one_ramp(self, grid):
        # the step rows are the upper-triangular ones matrix, read-only and
        # laid over at most 2n floats: O(n) memory per grid, not O(n^2)
        edges, steps = E._edge_tables(grid)
        n = edges.size
        np.testing.assert_array_equal(steps, np.triu(np.ones((n + 1, n))))
        assert steps.dtype == np.float64
        assert not steps.flags.writeable
        # byte extent from the first to the last element, over all strides
        # (np.lib.array_utils.byte_bounds needs numpy 2)
        start = steps.__array_interface__["data"][0]
        reach = [(size - 1) * stride for size, stride in zip(steps.shape, steps.strides)]
        low = start + sum(r for r in reach if r < 0)
        high = start + sum(r for r in reach if r > 0) + steps.itemsize
        assert high - low <= 2 * n * steps.itemsize

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
    instead of calling ndtr there, so no table depends on where, or
    whether, scipy's ndtr saturates."""

    @GRIDS
    def test_tails_never_evaluated(self, grid, monkeypatch, rng):
        # an ndtr that is NaN wherever |z| > TAIL_Z leaves every table as it
        # is, through both branches: the coded bytes do not depend on
        # scipy's tails. The margin of a few ulps keeps the NaN off the
        # edges inside a window whose z rounds past a bound
        branches = set()
        limit = E.TAIL_Z + 4 * np.spacing(E.TAIL_Z)

        def tails_nan(z, out=None):
            branches.add(np.ndim(z) == 1)
            return ndtr(np.where(np.abs(z) > limit, np.nan, z), out=out)

        w, mu, sd = random_gmm_params(rng, (64, 3), 3, grid)
        mostly_wide = np.where(rng.random(sd.shape) < 0.8, grid.span, sd)  # dense
        batches = []
        for scales in (sd, np.full_like(sd, E.SCALE_FLOOR), mostly_wide):
            batches += [(w, mu, scales), E.determinize(w, mu, scales, grid)]
        expected = [E.gmm_pmf_table(*batch, grid) for batch in batches]
        monkeypatch.setattr(E, "ndtr", tails_nan)
        for batch, want in zip(batches, expected, strict=True):
            np.testing.assert_array_equal(E.gmm_pmf_table(*batch, grid), want)
        assert branches == {True, False}


class TestNdtrDips:
    """scipy's ndtr is not monotone at ulp scale, but adjacent edges of a
    table lie at least one step over the grid span apart in z, far above
    its dips, so no determinized one-component row has a negative mass. A
    scipy whose ndtr dips across adjacent edges fails here, not in
    build_cdf in the middle of an encode."""

    @GRIDS
    def test_no_negative_mass(self, grid):
        # every scale level, every 8th mean phase, and means at the lowest,
        # the middle and the second-highest symbol: 98,304 rows a grid,
        # built in batches of 32 scale levels
        levels = np.arange(E.SCALE_LEVELS) / (E.SCALE_LEVELS - 1)
        scales = E.SCALE_FLOOR * (grid.span / E.SCALE_FLOOR) ** levels
        phases = np.arange(0, E.MEAN_LATTICE, 8) / E.MEAN_LATTICE * grid.step_norm
        for symbol in (grid.lo, (grid.lo + grid.hi) // 2, grid.hi - 1):
            for batch in np.split(scales, 8):
                mu, sd = np.broadcast_arrays(grid.value(symbol) + phases[:, None], batch)
                w, m, s = E.determinize(np.ones(mu.shape + (1,)), mu[..., None],
                                        sd[..., None], grid)
                assert E.gmm_pmf_table(w, m, s, grid).min() >= 0.0


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

    @GRIDS
    @pytest.mark.parametrize("field", ["weights", "means"])
    def test_overflow_through_determinize_rejected(self, grid, field, rng):
        # a value too large for its lattice comes back from determinize
        # non-finite, without a warning, and gmm_pmf_table names the field
        params = dict(zip(("weights", "means", "scales"), random_gmm_params(rng, (4, 3), 3, grid)))
        params[field][2, 1] = 1e306
        batch = E.determinize(params["weights"], params["means"], params["scales"], grid)
        with pytest.raises(ContractViolation, match=field):
            E.gmm_pmf_table(*batch, grid)

    @pytest.mark.parametrize("w_shape, mu_shape, sd_shape", [
        ((4, 2), (4, 3), (4, 3)), ((4, 3), (4, 2), (4, 3)), ((4, 3), (4, 3), (4, 2)),
        ((1,), (4, 1), (1,)),  # means and scales must share one shape
        ((2, 3), (5, 3), (5, 3)),  # weights too, not only their K
    ])
    def test_mismatched_shapes_rejected(self, w_shape, mu_shape, sd_shape):
        with pytest.raises(ContractViolation, match="shapes"):
            E.gmm_pmf_table(np.ones(w_shape), np.zeros(mu_shape), np.ones(sd_shape),
                            E.LATENT_GRID)

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 0)])
    def test_empty_mixture_rejected(self, shape):
        # K = 0 components would give rows of zeros, which are not a pmf
        with pytest.raises(ContractViolation, match="no components"):
            E.gmm_pmf_table(np.zeros(shape), np.zeros(shape), np.ones(shape), E.LATENT_GRID)

    @GRIDS
    @pytest.mark.parametrize("shape", [(0, 3), (4, 0, 3)], ids=["no-locations", "no-channels"])
    def test_empty_batch(self, grid, shape):
        # a batch with nothing to code is not a fault: empty arrays of the
        # batch's shape come back, with no warning, where a check written as
        # a bare min() or max() reduction would raise ValueError
        w, mu, sd = np.full(shape, 1 / 3), np.zeros(shape), np.ones(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = E.determinize(w, mu, sd, grid)
            tables = [E.gmm_pmf_table(w, mu, sd, grid), E.gmm_pmf_table(*batch, grid)]
        assert [a.shape for a in batch] == [shape] * 3
        for table in tables:
            assert table.shape == shape[:-1] + (grid.n_symbols,) and table.dtype == np.float64


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


# One channel whose (h, b, a) layers make the composed cumulative nearly
# flat: adjacent latent edges reach the sigmoid one ulp apart, where its
# rounded value steps down, so plain differences of it give bin 240 a mass
# of -2.8e-17.
FLAT_LAYER_PRIOR = (
    [[-0.8281946386133249], [-28.678147027202098], [-5.831884962013057]],
    [[25.502549749893152], [-36.11239662613756], [-2.579901542693529]],
    [[-16.50869328839256], [-3.0696405565418576], [-13.187022576525779]],
)


@st.composite
def prior_layers(draw):
    """(h, b, a) layer lists of 1-4 channels, every value in [-50, 50]."""
    c = draw(st.integers(1, 4))
    layer = st.lists(st.floats(-50, 50), min_size=c, max_size=c)
    return tuple(draw(st.lists(layer, min_size=3, max_size=3)) for _ in "hba")


def _assert_valid_prior_tables(layers):
    """Every pmf_table row is nonnegative, sums to one and passes build_cdf."""
    prior = E.FactorizedPrior(*([np.array(v) for v in kind] for kind in layers))
    pmf = prior.pmf_table(E.LATENT_GRID)
    assert (pmf >= 0).all()
    np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for row in pmf:
        E.build_cdf(row)


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

    def test_flat_layer_masses_nonnegative(self):
        _assert_valid_prior_tables(FLAT_LAYER_PRIOR)

    @settings(max_examples=200, deadline=None, database=None)
    @given(prior_layers())
    @example(FLAT_LAYER_PRIOR)
    def test_tables_valid_for_any_parameters(self, layers):
        _assert_valid_prior_tables(layers)


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
        # 0.49999999999999994 is the largest double below 0.5: adding 0.5 to
        # it rounds the sum up to 1.0
        below_half = np.nextafter(0.5, 0.0)
        symbols, clamp_count = E.round_quantize(np.array([0.5, -0.5, 0.49, -0.49, 1.5, -2.5,
                                                          below_half, -below_half]), E.LATENT_GRID)
        np.testing.assert_array_equal(symbols, [1, -1, 0, 0, 2, -3, 0, 0])
        assert clamp_count == 0

    def test_idempotent_on_integers(self, rng):
        vals = rng.integers(-127, 128, size=1000).astype(np.float64)
        symbols, _ = E.round_quantize(vals, E.LATENT_GRID)
        assert symbols.dtype == np.int32
        np.testing.assert_array_equal(symbols, vals.astype(np.int32))

    def test_clamp_counter_matches_bruteforce(self, rng):
        vals = rng.normal(scale=100, size=5000)
        symbols, clamp_count = E.round_quantize(vals, E.LATENT_GRID)
        rounded = np.copysign(np.floor(np.abs(vals) + 0.5), vals)
        expected = int(((rounded < -127) | (rounded > 127)).sum())
        assert clamp_count == expected
        assert symbols.min() >= -127 and symbols.max() <= 127

    def test_nan_rejected(self):
        with pytest.raises(ContractViolation, match="2 NaN"):
            E.round_quantize(np.array([np.nan, 3.2, np.nan]), E.PIXEL_GRID)

    def test_infinities_clamp_to_grid_ends(self):
        symbols, clamp_count = E.round_quantize(np.array([-np.inf, 3.2, np.inf]), E.PIXEL_GRID)
        np.testing.assert_array_equal(symbols, [0, 3, 255])
        assert clamp_count == 2


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
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @GRIDS
    def test_non_finite_and_non_positive_scales(self, grid):
        # scales a diverged head could emit: NaN stays NaN, so gmm_pmf_table
        # refuses the batch and names the scales instead of coding it; +inf
        # and 1e308 go to the ladder's top rung, the grid span, and the rest
        # to its bottom rung, SCALE_FLOOR
        sd = np.array([[math.nan], [math.inf], [-math.inf], [0.0], [-1.0], [5e-324], [1e308]])
        w, mu = np.ones_like(sd), np.zeros_like(sd)
        self.assert_same(w, mu, sd, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = E.determinize(w, mu, sd, grid)
        top, bottom = grid.span, E.SCALE_FLOOR
        np.testing.assert_array_equal(batch[2][:, 0], [math.nan, top, bottom, bottom, bottom,
                                                       bottom, top])
        with pytest.raises(ContractViolation, match="scales"):
            E.gmm_pmf_table(*batch, grid)
        assert E.gmm_pmf_table(*(a[1:] for a in batch), grid).shape == (6, grid.n_symbols)

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


# rows of counts that return a table, each named for the exit the former
# floor-and-repair build_cdf took for it: the add-one rule takes one path for
# all of them, and they stay as rows of distinct shapes (no empty bin, one
# bin, runs of empty bins, tied bins), with the all-zero row added
TABLE_ROWS = [
    ([16384] * 4, "no-empty"),
    ([0, 65536, 0, 0], "constant-time"),
    ([0, 20000, 30000, 15536, 0, 0], "neighbour-bound"),
    ([0, 30000, 0, 0, 20000, 15536], "full-maximum"),
    ([30000, 0, 30000, 5536], "sort"),
    ([0] * 4, "all-zero"),
]

# rows that raise, with the check that catches them
RAISING_ROWS = [
    ([0, 39321, 32768, -6553], "negative-constant-time"),
    ([30000, 30000, 5537, -1], "negative-sort"),
    ([0, math.nan, 65536], "nan"),
    ([0, math.inf, 0], "entry-above-one"),
    ([39322] * 3, "total-above-one"),
]


def pmf_in_layout(pmf, layout):
    """pmf passed in the given layout, and the buffer that holds it."""
    if layout == "float64":
        return pmf, pmf
    if layout == "read-only":
        view = pmf.view()
        view.setflags(write=False)
        return view, pmf
    if layout == "strided":
        base = np.repeat(pmf, 2)
        return base[::2], base
    x = pmf.astype(np.float32) if layout == "float32" else pmf.tolist()
    return x, x


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

    def test_near_delta_pmf_keeps_one_unit_per_bin(self):
        pmf = np.full(256, 1e-300)
        pmf[17] = 1.0
        cdf = E.build_cdf(pmf / pmf.sum())
        diffs = np.diff(cdf.astype(np.int64))
        assert (diffs >= 1).all()
        assert diffs[17] == E.CDF_TOTAL - 255

    def test_support_too_large(self):
        with pytest.raises(ContractViolation, match="exceeds"):
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

    @pytest.mark.parametrize("pmf", [[0.6, 0.6, -0.2], [0.6, 0.6, 0.0, -0.2], [-1e-10, 1.0],
                                     [1e20, -1e20, 0.5, 0.5], [-1e20, 1e20, 0.5, 0.5]],
                             ids=["no-empty-bin", "empty-bin", "tiny-first", "huge-cancelling",
                                  "huge-cancelling-negative-first"])
    def test_negative_entry_rejected(self, pmf):
        # the total stays in [0, 1], so only the entry check shows the
        # negative entry, before any scaling or cast to an integer type
        with pytest.raises(ContractViolation, match="negative"):
            E.build_cdf(np.array(pmf))

    @pytest.mark.parametrize("pmf", [[1e308, 1e308], [1e305, -1e305, 1.0], [math.inf, 0.0],
                                     [0.5, math.nan]],
                             ids=["overflowing-total", "huge-negative", "inf", "nan"])
    def test_invalid_entry_raises_without_warning(self, pmf):
        # every entry is checked before the cumulative is summed or scaled,
        # so no numpy warning comes before the ContractViolation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation):
                E.build_cdf(np.array(pmf))

    def test_total_rounding_above_one_accepted(self):
        cdf = E.build_cdf(np.array([0.5, 0.5 + 1e-9]))
        np.testing.assert_array_equal(cdf, [0, 32768, 65536])

    def test_deterministic(self, rng):
        w, mu, sd = random_gmm_params(rng, (), 3, E.LATENT_GRID)
        pmf = E.gmm_pmf_table(w, mu, sd, E.LATENT_GRID)
        np.testing.assert_array_equal(E.build_cdf(pmf), E.build_cdf(pmf.copy()))

    @staticmethod
    def outcome(pmf):
        """build_cdf's table as bytes, or the type and message it raised."""
        try:
            return E.build_cdf(pmf).tobytes()
        except ContractViolation as e:
            return type(e), str(e)

    @pytest.mark.parametrize("layout", ["float64", "read-only", "strided", "float32", "list"])
    @pytest.mark.parametrize("counts", [counts for counts, _ in TABLE_ROWS + RAISING_ROWS],
                             ids=[name for _, name in TABLE_ROWS + RAISING_ROWS])
    def test_input_only_read(self, counts, layout):
        # tables and every raise after the size checks: the outcome of a
        # C-contiguous float64 copy, and the caller's bytes unchanged (the
        # counts are dyadic, so float32 holds them exactly)
        x, buffer = pmf_in_layout(np.array(counts) / E.CDF_TOTAL, layout)
        before = np.array(buffer, copy=True)
        expected = self.outcome(np.ascontiguousarray(x, dtype=np.float64))
        assert self.outcome(x) == expected
        np.testing.assert_array_equal(np.asarray(buffer), before)

    @pytest.mark.parametrize("pmf", [[0, 0, 1, 0], [1], [0, 0, 0], [0, 1, 0, -1, 1], [0, 2, 0],
                                     [1, 1]],
                             ids=["one-hot", "one-symbol", "all-zero", "negative",
                                  "entry-above-one", "total-above-one"])
    def test_integer_input(self, pmf):
        x = np.array(pmf, dtype=np.int64)
        before = x.copy()
        assert self.outcome(x) == self.outcome(x.astype(np.float64))
        np.testing.assert_array_equal(x, before)

    def test_cdf_bits_at_support_ends(self):
        cdf = E.build_cdf(np.full(4, 0.25))
        assert E.cdf_bits(cdf, 0) == E.cdf_bits(cdf, 3) == 2.0

    @pytest.mark.parametrize("symbol", [-1, 4], ids=["below", "above"])
    def test_cdf_bits_symbol_outside_support(self, symbol):
        with pytest.raises(ContractViolation, match="outside"):
            E.cdf_bits(E.build_cdf(np.full(4, 0.25)), symbol)

    @pytest.mark.parametrize("cdf", [[0, 5, 5, 65536], [0, 5, 4, 65536]],
                             ids=["zero-width", "decreasing"])
    def test_cdf_bits_bin_not_increasing(self, cdf):
        # a caller fault, as in RangeEncoder.encode_symbol: no inf or NaN
        # codelength and no numpy warning
        with pytest.raises(ContractViolation, match="not strictly increasing at symbol 1"):
            E.cdf_bits(np.array(cdf, dtype=np.uint32), 1)


def exact_cdf(pmf):
    """Reference build_cdf in exact arithmetic: the float64 cumulative C_i,
    summed left to right as build_cdf sums it, times 2^16 - n as a Fraction,
    rounded once to float64 as build_cdf's product is, floored and offset by
    i; the last entry is 2^16."""
    p = [float(x) for x in np.asarray(pmf, dtype=np.float64).ravel()]
    n = len(p)
    scale = E.CDF_TOTAL - n
    cum = [0.0, *accumulate(p)][:n]
    out = [math.floor(float(Fraction(c) * scale)) + i for i, c in enumerate(cum)]
    return np.array(out + [E.CDF_TOTAL], dtype=np.uint32)


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
    """pmfs c / 2^16 with integer counts c >= 0 summing to 2^16, over n >= 2
    bins, a drawn share of them empty, and one bin at a random position
    holding the rest. Their cumulatives and the products with 2^16 - n are
    exact in float64."""
    n = draw(st.integers(2, 300))
    empty_share = draw(st.floats(0.0, 1.0))
    small_max = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.integers(1, small_max, size=n, endpoint=True)
    counts[rng.random(n) < empty_share] = 0
    top = rng.integers(n)
    counts[top] = 0
    counts[top] = E.CDF_TOTAL - counts.sum()
    return counts / E.CDF_TOTAL


@st.composite
def zero_run_pmfs(draw):
    """Float pmfs over n = 2..300 bins, from flat to sharply peaked, with up
    to four runs of exact zeros, summing to one up to float rounding or
    scaled to a drawn total below one."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.exponential(size=n) ** draw(st.floats(0.0, 30.0))
    for _ in range(draw(st.integers(0, 4))):
        start = rng.integers(n)
        p[start:start + rng.integers(1, n, endpoint=True)] = 0.0
    p[rng.integers(n)] += 1.0
    return p / p.sum() * draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))


class TestBuildCdfOracle:
    """build_cdf against the exact reference, bit for bit, and the bounds of
    its docstring."""

    @staticmethod
    def assert_same(pmf):
        got = E.build_cdf(pmf)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, exact_cdf(pmf))

    @pytest.mark.parametrize("grid", [E.PIXEL_GRID, E.LATENT_GRID], ids=["pixel", "latent"])
    def test_scale_ladder_rows(self, grid, rng):
        rows = ladder_pmf_rows(grid)
        w, mu, sd = random_gmm_params(rng, (128,), 3, grid)
        sd[:32] = E.SCALE_FLOOR
        rows = np.concatenate([rows, E.gmm_pmf_table(*E.determinize(w, mu, sd, grid), grid)])
        for pmf in rows:
            self.assert_same(pmf)

    def test_pinned_rows(self):
        for pmf in pinned_pmf_rows():
            self.assert_same(pmf)

    @settings(max_examples=300, deadline=None, database=None)
    @given(dyadic_pmfs())
    def test_random_counts(self, pmf):
        self.assert_same(pmf)

    @settings(max_examples=300, deadline=None, database=None)
    @given(zero_run_pmfs())
    def test_random_pmfs(self, pmf):
        self.assert_same(pmf)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.one_of(zero_run_pmfs(), dyadic_pmfs()))
    def test_count_bounds(self, pmf):
        # every count is one unit plus the pmf's share of the other
        # 2^16 - n, within one unit; the last bin also takes the mass a
        # total below one leaves
        cdf = E.build_cdf(pmf).astype(np.int64)
        assert cdf[0] == 0 and cdf[-1] == E.CDF_TOTAL
        counts = np.diff(cdf)
        assert counts.min() >= 1
        scale = E.CDF_TOTAL - pmf.size
        share = scale * pmf + 1.0
        share[-1] += scale * (1.0 - pmf.sum())
        assert np.abs(counts - share).max() < 1.0 + 1e-6

    def test_all_zero_pmf(self):
        # every bin keeps its unit and the last bin takes the missing mass,
        # as the last bin of gmm_pmf_table takes the upper tail
        for n in (1, 2, 255):
            expected = np.append(np.arange(n), E.CDF_TOTAL)
            np.testing.assert_array_equal(E.build_cdf(np.zeros(n)), expected)
            self.assert_same(np.zeros(n))

    def test_product_rounds_once(self):
        # C_1 * (2^16 - 2) is just below 1 in exact arithmetic and rounds
        # to 1.0 in float64: the table follows the float product
        pmf = np.array([1.0 / 65534.0, 1.0 - 1.0 / 65534.0])
        assert Fraction(pmf[0]) * 65534 < 1 and pmf[0] * 65534 == 1.0
        np.testing.assert_array_equal(E.build_cdf(pmf), [0, 2, 65536])
        self.assert_same(pmf)

    def test_offsets_added_after_the_floor(self):
        # C_130 * (2^16 - 255) is 894.9999999999999 in float64; adding the
        # offset 130 in float64 would round the sum up to 1025.0
        pmf = np.zeros(255)
        pmf[0] = 0.013709961550834085
        pmf[130] = 1.0 - pmf[0]
        product = pmf[0] * (E.CDF_TOTAL - 255)
        assert math.floor(product) + 130 == 1024 and product + 130 == 1025.0
        assert E.build_cdf(pmf)[130] == 1024
        self.assert_same(pmf)

    @classmethod
    def assert_count_row(cls, counts):
        """A row of integer counts summing to 2^16, none negative: the exact
        reference, one unit for each empty bin, and every count within one
        unit of its share (2^16 - n) * p_i + 1 (the products are exact)."""
        assert sum(counts) == E.CDF_TOTAL
        pmf = np.array(counts) / E.CDF_TOTAL
        cls.assert_same(pmf)
        coded = np.diff(E.build_cdf(pmf).astype(np.int64))
        np.testing.assert_array_equal(coded[pmf == 0], 1)
        share = (E.CDF_TOTAL - pmf.size) * pmf + 1.0
        assert np.abs(coded - share).max() < 1.0
        return coded

    @pytest.mark.parametrize("counts, repaired", [
        # n = 2, either side empty
        ([0, 65536], [1, 65535]),
        ([65536, 0], [65535, 1]),
        # two tied largest bins and one empty bin: the ties stay tied, and
        # the floors' remainder goes to the last bin
        ([0, 30000, 30000, 5536], [1, 29999, 29999, 5537]),
        # three empty bins between and after two tied bins
        ([0, 30768, 0, 30768, 4000, 0], [1, 30766, 1, 30766, 4001, 1]),
    ])
    def test_ties_and_remainder(self, counts, repaired):
        # repaired: the coded counts, every empty bin holding its one unit
        np.testing.assert_array_equal(self.assert_count_row(counts), repaired)

    @pytest.mark.parametrize("counts", [
        [0, 30003, 0, 30000, 5533, 0],
        [0, 30002, 0, 30000, 5534, 0],
        [30000, 0, 30000, 5536],
        [0, 40000, 0, 20000, 0, 5536],
        [0, 65536, 0, 0],
        [0] * 100 + [65536] + [0] * 155,
        [0] * 100 + [65000] + [0] * 154 + [536],
        [0] * 100 + [32895] + [0] * 154 + [32641],
        [0] * 100 + [32800] + [0] * 154 + [32736],
        [32000, 0, 1536, 32000],
        [0, 1535, 32000, 32001],
        [0, 32718, 99, 32719, 0],
        [0, 32717, 100, 32719, 0],
    ], ids=["top-E=second", "top-E=second-1", "tied-top", "two-donors-one-cut",
            "single-donor", "E=n-1", "E=n-2-small-second", "E=n-2-on-edge", "E=n-2-level",
            "tied-top-at-ends", "top-last", "second-apart-top-E=second-1",
            "second-apart-top-E=second"])
    def test_largest_bin_alone(self, counts):
        # rows with E empty bins and one or two bins near the top: the
        # largest bin does not give the E units alone, it gives its share of
        # all n units, as every other bin does
        self.assert_count_row(counts)

    @pytest.mark.parametrize("counts", [
        # n <= 3 and ties
        [0, 65536],
        [65536, 0],
        [32768, 32768, 0],
        [0, 32768, 32768],
        [32768, 0, 32768],
        # the top with small neighbours and runs of empty bins
        [0, 2769, 30000, 2769, 29998, 0],
        [0, 29999, 2768, 30000, 2769, 0],
        [0, 2768, 30000, 2769, 29997, 2, 0],
        # the top at either end
        [30000, 2769, 0, 29998, 0, 2769],
        [2769, 0, 29998, 0, 2769, 30000],
    ], ids=["n=2-first-empty", "n=2-last-empty", "n=3-tied-first", "n=3-tied-last",
            "n=3-tied-ends", "R=top-E", "R=top-E+1-two-donors", "R=top-E+1-one-donor",
            "top-first", "top-last"])
    def test_neighbour_bound(self, counts):
        # the first and the last bin are pinned by cum[0] = 0 and
        # cum[n] = 2^16, not by the floor: they follow the same bounds, and
        # tied bins keep counts within one unit of each other
        coded = self.assert_count_row(counts)
        for value in set(counts):
            tied = coded[np.array(counts) == value]
            assert tied.max() - tied.min() <= 1

    @pytest.mark.parametrize("counts", [[0, 39321, 32768, -6553], [-3, 65539],
                                        [0, 65538, -1, -1]],
                             ids=["one-negative", "all-others-negative", "two-negative"])
    def test_negative_entry_in_one_donor_rows(self, counts):
        # counts summing to 2^16, one bin above it and one or more negative:
        # the total is one, so only the entry check shows them
        assert sum(counts) == E.CDF_TOTAL
        with pytest.raises(ContractViolation, match="negative"):
            E.build_cdf(np.array(counts) / E.CDF_TOTAL)

    @pytest.mark.parametrize("counts", [[0, 32769, 32769, -2], [-1, 32769, 0, 32768]],
                             ids=["tied-top", "second-above-top-E"])
    def test_negative_entry_meeting_constant_time_test(self, counts):
        # two bins at or just above 2^15 and a small negative count: the
        # total is one and no entry is above one
        assert sum(counts) == E.CDF_TOTAL
        with pytest.raises(ContractViolation, match="negative"):
            E.build_cdf(np.array(counts) / E.CDF_TOTAL)

    @pytest.mark.parametrize("counts", [[0, 20000, 30000, 15537, -1, 0],
                                        [0, 2768, 30001, 2768, 30000, -1]],
                             ids=["R-negative", "second-above-top-E"])
    def test_negative_entry_meeting_neighbour_bound(self, counts):
        # a count of -1 beside an empty bin or at the end of the row: the
        # cumulative still ends at one
        assert sum(counts) == E.CDF_TOTAL
        with pytest.raises(ContractViolation, match="negative"):
            E.build_cdf(np.array(counts) / E.CDF_TOTAL)

    @pytest.mark.parametrize("counts, name", TABLE_ROWS, ids=[name for _, name in TABLE_ROWS])
    def test_every_exit_returns_native_uint32(self, counts, name):
        # RangeDecoder.decode_symbol reads the table through one memoryview
        pmf = np.array(counts) / E.CDF_TOTAL
        got = E.build_cdf(pmf)
        assert got.ndim == 1 and got.flags.c_contiguous
        assert got.dtype == np.uint32 and got.dtype.isnative
        assert memoryview(got).format == "I"
        self.assert_same(pmf)

    def test_support_limit(self):
        half = E.CDF_TOTAL // 2
        delta = np.zeros(half)
        delta[half // 3] = 1.0
        self.assert_same(delta)
        with pytest.raises(ContractViolation, match="exceeds"):
            E.build_cdf(np.full(half + 1, 1.0 / (half + 1)))

    def test_size_cache_bounded(self, rng):
        # tables of 20 sizes keep at most 8 scale and offset entries, and
        # sizes built again after their entries were dropped match too
        sizes = [2, 3, 255, 256, *range(300, 316)]
        for n in sizes + sizes[:4]:
            self.assert_same(rng.dirichlet(np.ones(n)))
            assert E._cdf_grid.cache_info().currsize <= 8

    def test_bytes_pinned(self):
        # sha256 of the uint32 little-endian tables of pinned_pmf_rows(),
        # concatenated, under the add-one rule; any change to the tables
        # changes the coded bytes. The digest moved when the left tails
        # below mu - TAIL_Z*sd folded into the windows: of the 128 mixture
        # rows one table changed, where C_225 * 65280 went from
        # 65279.99999999999 to 65280.000000000015
        digest = hashlib.sha256()
        for pmf in pinned_pmf_rows():
            digest.update(E.build_cdf(pmf).astype("<u4").tobytes())
        assert digest.hexdigest() == (
            "03c1b413621e95f647869793954e8192c4e1a315f369ac4da9a10de63948bb5c")


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
