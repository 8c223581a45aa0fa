"""Entropy model tests: pmf normalization, erf oracle, CDF quantization,
quantizers, determinization lattices."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        p = E.gmm_pmf(0, [1.0], [0.0], [1.0], E.LATENT_GRID)
        expected = phi_oracle(0.5) - phi_oracle(-0.5)
        assert abs(p - expected) < 1e-12
        assert abs(p - 0.3829249) < 1e-6

    def test_mixture_collapse(self, rng):
        w = rng.dirichlet(np.ones(3))
        p3 = E.gmm_pmf(5, w, [2.0] * 3, [4.0] * 3, E.LATENT_GRID)
        p1 = E.gmm_pmf(5, [1.0], [2.0], [4.0], E.LATENT_GRID)
        assert abs(p3 - p1) < 1e-12

    def test_sums_to_one_randomized(self, rng):
        for grid in (E.PIXEL_GRID, E.LATENT_GRID):
            w, mu, sd = random_gmm_params(rng, (50,), 3, grid)
            pmf = E.gmm_pmf_table(w, mu, sd, grid)
            assert pmf.shape == (50, grid.n_symbols)
            np.testing.assert_allclose(pmf.sum(axis=-1), 1.0, atol=1e-12)

    def test_table_matches_single_symbol(self, rng):
        grid = E.PIXEL_GRID
        w, mu, sd = random_gmm_params(rng, (), 3, grid)
        table = E.gmm_pmf_table(w, mu, sd, grid)
        for s in (0, 1, 128, 254, 255):
            assert abs(table[s] - E.gmm_pmf(s, w, mu, sd, grid)) < 1e-14

    def test_cumulative_monotone(self, rng):
        grid = E.LATENT_GRID
        w, mu, sd = random_gmm_params(rng, (200,), 3, grid)
        pmf = E.gmm_pmf_table(w, mu, sd, grid)
        assert (pmf >= 0).all()

    def test_symbol_out_of_grid(self):
        with pytest.raises(ContractViolation):
            E.gmm_pmf(300, [1.0], [0.0], [1.0], E.PIXEL_GRID)


class TestFactorizedPrior:
    def test_fresh_prior_is_broad(self):
        prior = E.FactorizedPrior.init(4)
        p0 = E.factorized_pmf(0, 0, prior, E.LATENT_GRID)
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
            cdf = prior.cdf_values(np.broadcast_to(v, (2001, 3)))
            assert (np.diff(cdf, axis=0) >= 0).all()
            # float saturation to exactly 0/1 far in the tails is fine
            assert (cdf >= 0).all() and (cdf <= 1).all()

    def test_single_symbol_matches_table(self, rng):
        prior = E.FactorizedPrior.init(3)
        prior.b_layers[1] = rng.normal(size=3)
        table = prior.pmf_table(E.LATENT_GRID)
        for c in range(3):
            for s in (-127, -1, 0, 64, 127):
                idx = s - E.LATENT_GRID.lo
                assert abs(table[c, idx] - E.factorized_pmf(s, c, prior, E.LATENT_GRID)) < 1e-14


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


class TestRateBits:
    def test_half_probabilities(self):
        assert E.rate_bits(np.full(100, 0.5)) == pytest.approx(100.0)

    def test_certain_symbols_cost_nothing(self):
        assert E.rate_bits(np.ones(10)) == 0.0

    def test_matches_compensated_summation(self, rng):
        p = rng.uniform(1e-6, 1.0, size=10000)
        expected = -math.fsum(math.log2(v) for v in p)
        assert abs(E.rate_bits(p) - expected) / expected < 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractViolation):
            E.rate_bits([0.0, 0.5])


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

    def test_deterministic(self, rng):
        w, mu, sd = random_gmm_params(rng, (), 3, E.LATENT_GRID)
        pmf = E.gmm_pmf_table(w, mu, sd, E.LATENT_GRID)
        np.testing.assert_array_equal(E.build_cdf(pmf), E.build_cdf(pmf.copy()))


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
