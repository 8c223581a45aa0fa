"""Discretized probability models over integer symbol grids.

Everything the coder consumes lives here: bin-integrated Gaussian-mixture
probabilities with tail absorption, the learnable per-channel factorized
prior for the hyper-latent, the train/inference quantizers, parameter
determinization onto fixed lattices, and floor+repair fixed-point CDF
construction. All public functions are pure over immutable inputs and safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from . import tensor as T
from .errors import ContractViolation, PrecisionError

CDF_PRECISION = 16
CDF_TOTAL = 1 << CDF_PRECISION

# Smallest scale the model may emit, in normalized units. Must sit well under
# one symbol step so a confident model can put >1/2 of the mass on one bin.
SCALE_FLOOR = 1e-3

# Determinization lattices: weights live on a 1/2^12 grid, means on a
# 1/2^10-of-one-step grid, scales on a 256-level geometric ladder.
WEIGHT_LATTICE = 1 << 12
MEAN_LATTICE = 1 << 10
SCALE_LEVELS = 256

# Training-time probability floor: keeps -log2(p) finite when a noisy sample
# lands far outside a near-delta component.
PMF_EPS = 1e-12


@dataclass(frozen=True)
class SymbolGrid:
    """Inclusive integer support [lo, hi] mapped onto the model's value axis.

    value(s) = lo_value + (s - lo) * step_norm; step_norm is the size of one
    integer step in normalized units.
    """

    lo: int
    hi: int
    step_norm: float
    lo_value: float

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ContractViolation(f"grid lo {self.lo} must be < hi {self.hi}")
        if not 0 < self.step_norm < np.inf:
            raise ContractViolation(f"grid step_norm {self.step_norm} must be finite and positive")
        if not np.isfinite(self.lo_value):
            raise ContractViolation(f"grid lo_value {self.lo_value} must be finite")

    @property
    def n_symbols(self) -> int:
        return self.hi - self.lo + 1

    @property
    def span(self) -> float:
        return (self.hi - self.lo) * self.step_norm

    def value(self, symbol):
        return self.lo_value + (np.asarray(symbol) - self.lo) * self.step_norm

    def edges(self) -> np.ndarray:
        """Bin edges value(lo)-step/2 ... value(hi)+step/2 (n_symbols+1 of them)."""
        s = np.arange(self.lo, self.hi + 2, dtype=np.float64)
        return self.lo_value + (s - self.lo) * self.step_norm - self.step_norm / 2.0


# Pixels: 0..255 mapped to [-1, 1]. Latents: plain integers -127..127.
PIXEL_GRID = SymbolGrid(lo=0, hi=255, step_norm=2.0 / 255.0, lo_value=-1.0)
LATENT_GRID = SymbolGrid(lo=-127, hi=127, step_norm=1.0, lo_value=-127.0)


# ---------------------------------------------------------------------------
# Gaussian mixture pmf
# ---------------------------------------------------------------------------


# scipy's ndtr is exactly 0.0 for z <= -37.677 and exactly 1.0 for z >= 8.2924.
# The window bounds sit outside both with a margin; tests/test_entropy.py checks
# the saturation against the installed scipy, so a scipy with another tail
# fails the suite instead of changing the coded bytes.
NDTR_ZERO_Z = -38.5
NDTR_ONE_Z = 8.5


def _mixture(weights, means, scales):
    """float64 (w, mu, sd), checked once per call: means and scales share one
    shape [..., K] and weights end in the same K; means are finite, scales
    finite and positive, weights finite and nonnegative."""
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(means, dtype=np.float64)
    sd = np.asarray(scales, dtype=np.float64)
    if mu.ndim < 1 or w.ndim < 1 or mu.shape != sd.shape or w.shape[-1] != mu.shape[-1]:
        raise ContractViolation(
            f"mixture shapes differ: weights {w.shape}, means {mu.shape}, scales {sd.shape}")
    if not np.isfinite(mu).all():
        raise ContractViolation("mixture means must be finite")
    if not ((sd > 0) & (sd < np.inf)).all():
        raise ContractViolation("mixture scales must be finite and positive")
    if not ((w >= 0) & (w < np.inf)).all():
        raise ContractViolation("mixture weights must be finite and nonnegative")
    return w, mu, sd


@lru_cache(maxsize=8)
def _edge_tables(grid: SymbolGrid):
    """Read-only bin edges of grid and the saturated cdf rows that prefill a
    windowed table: row k is 0.0 before edge k and 1.0 from it on."""
    edges = grid.edges()
    steps = np.triu(np.ones((edges.size + 1, edges.size)))
    edges.flags.writeable = steps.flags.writeable = False
    return edges, steps


def _bin_masses(cdf: np.ndarray) -> np.ndarray:
    """Bin masses [..., n] from cumulative rows [..., n+1] at a grid's edges.

    Overwrites cdf, which must be C-contiguous, and returns a view of it.
    The first and last edges are set to 0 and 1, so the end bins absorb the
    tails. The differences of all rows are taken in one 1-D subtraction on
    cdf's own flat view; numpy gives overlapping operands the values of the
    out-of-place result. The difference across each row boundary lands in
    the last column, which the returned view drops. Raises ContractViolation
    for a cdf that is not C-contiguous, whose flat view would be a copy.
    """
    if not cdf.flags.c_contiguous:
        raise ContractViolation("bin masses need a C-contiguous cdf table")
    cdf[..., 0] = 0.0
    cdf[..., -1] = 1.0
    flat = cdf.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=flat[:-1])
    return cdf[..., :-1]


def gmm_pmf_table(weights, means, scales, grid: SymbolGrid) -> np.ndarray:
    """Discrete pmf over the full support for every leading-index location.

    weights/means/scales have shape [..., K]; the result has shape
    [..., n_symbols]. Each component's normal cumulative is evaluated at the
    bin edges, the first and last edges are set to 0 and 1 so the end bins
    absorb the tails, and the weighted bin differences are summed; each row
    sums to one by construction (up to float addition). Raises
    ContractViolation for non-finite means, non-finite or non-positive
    scales, negative or non-finite weights, or mismatched shapes.

    ndtr is needed only inside each component's live window, the edges e
    with mu + NDTR_ZERO_Z*sd <= e < mu + NDTR_ONE_Z*sd, each bound widened
    by a slack. Below the window ndtr((e - mu)/sd) is exactly 0.0 and above
    it exactly 1.0. The slack exceeds the rounding error of computing the
    two bounds (an absolute error of one subnormal step included), so an
    edge outside the window is, in exact arithmetic, beyond them; its
    computed z then differs from a z beyond NDTR_ZERO_Z or NDTR_ONE_Z by
    two roundings, far less than the margin to ndtr's saturation points.
    Inside the window z comes from the same float operations as on every
    edge. The table is therefore bit-identical to evaluating ndtr on all
    edges.

    When the windows cover less than half of the edges, the live edges of
    all components are gathered into one ndtr call and scattered into a
    table prefilled with the saturated values. Otherwise, as for wide
    scales, the gather and scatter would cost more than the calls they
    skip, and ndtr runs on every edge.
    """
    w, mu, sd = _mixture(weights, means, scales)
    edges, steps = _edge_tables(grid)
    mu_f, sd_f = mu.ravel(), sd.ravel()
    slack = 2.0 ** -49 * (np.abs(mu_f) + 40.0 * sd_f) + 2.0 ** -1070
    a = edges.searchsorted(mu_f + NDTR_ZERO_Z * sd_f - slack)
    b = edges.searchsorted(mu_f + NDTR_ONE_Z * sd_f + slack)
    live = b - a
    total = int(live.sum())
    if 2 * total < live.size * edges.size:
        cdf = steps[b]
        # edge column of each live edge, then its flat position in cdf
        col = np.arange(total) + np.repeat(a - (np.cumsum(live) - live), live)
        z = edges[col]
        z -= np.repeat(mu_f, live)
        z /= np.repeat(sd_f, live)
        col += np.repeat(np.arange(0, cdf.size, edges.size), live)
        cdf.reshape(-1)[col] = ndtr(z, out=z)
        cdf = cdf.reshape(mu.shape + edges.shape)
    else:
        # one buffer holds z, then ndtr(z), then the bin masses; C order
        # whatever the parameters' layout, as _bin_masses needs
        cdf = np.empty(mu.shape + edges.shape)
        np.subtract(edges, mu[..., None], out=cdf)
        np.divide(cdf, sd[..., None], out=cdf)
        ndtr(cdf, out=cdf)
    return np.einsum("...k,...ks->...s", w, _bin_masses(cdf))


# ---------------------------------------------------------------------------
# learnable factorized prior (hyper-latent)
# ---------------------------------------------------------------------------


class FactorizedPrior:
    """Per-channel monotone cumulative over the hyper-latent, built from
    three gated affine layers.

    Each layer applies softplus(h)*u + b followed by u + tanh(a)*tanh(u);
    a final sigmoid bounds the result to (0, 1). Positive slopes and
    |tanh(a)| < 1 make the composition monotone nondecreasing with limits 0
    and 1, so differences of adjacent evaluations are valid probabilities.

    The layer parameters, each of shape [C], may be arrays or Tensors;
    `Model.prior` holds the model's own `prior.{h,b,a}{i}` Tensors, so
    gradients of `cdf` reach them. `cdf` is channel-last, so a rate term
    over a hyper-latent laid out [B, C, h, w] transposes it once to
    [B, h, w, C].
    """

    N_LAYERS = 3
    # raw (pre-softplus) slope of every layer at initialization, chosen so
    # the composed cumulative is roughly a sigmoid of width 10
    INIT_RAW_SLOPE = float(np.log(np.expm1(0.1 ** (1 / N_LAYERS))))

    def __init__(self, h_layers, b_layers, a_layers):
        # each a list of N_LAYERS arrays or Tensors of shape [C]
        self.h_layers, self.b_layers, self.a_layers = map(list, (h_layers, b_layers, a_layers))
        self.channels = np.shape(self.h_layers[0])[0]

    @classmethod
    def init(cls, channels: int):
        h = [np.full(channels, cls.INIT_RAW_SLOPE) for _ in range(cls.N_LAYERS)]
        b = [np.zeros(channels) for _ in range(cls.N_LAYERS)]
        a = [np.zeros(channels) for _ in range(cls.N_LAYERS)]
        return cls(h, b, a)

    def cdf(self, v) -> T.Tensor:
        """Cumulative at values v of shape [..., C] (channel-last)."""
        u = v
        for h, b, a in zip(self.h_layers, self.b_layers, self.a_layers):
            t = T.add(T.mul(T.softplus(h), u), b)
            u = T.add(t, T.mul(T.tanh(a), T.tanh(t)))
        return T.sigmoid(u)

    def pmf_table(self, grid: SymbolGrid) -> np.ndarray:
        """Per-channel pmf over the full support, tails absorbed. [C, n]"""
        edges = grid.edges()  # [n+1]
        with T.no_grad():
            cdf = self.cdf(np.broadcast_to(edges[:, None], (edges.size, self.channels))).data
        return _bin_masses(cdf.T.copy())  # [C, n+1] -> [C, n]


# ---------------------------------------------------------------------------
# quantizers
# ---------------------------------------------------------------------------


def noisy_quantize(values, rng: np.random.Generator):
    """Training-time relaxation: add iid uniform noise from the open
    interval (-1/2, 1/2) in integer-step units."""
    arr = np.asarray(values, dtype=np.float64)
    u = rng.uniform(-0.5, 0.5, size=arr.shape)
    u = np.where(u == -0.5, 0.0, u)  # keep the interval strictly open
    return arr + u


@dataclass
class QuantizeResult:
    symbols: np.ndarray  # int32
    clamp_count: int


def round_quantize(values, grid: SymbolGrid) -> QuantizeResult:
    """Round half away from zero, then clamp into the grid (counted).

    Infinities clamp to the grid ends; NaN raises ContractViolation.
    """
    arr = np.asarray(values, dtype=np.float64)
    n_nan = int(np.count_nonzero(np.isnan(arr)))
    if n_nan:
        raise ContractViolation(f"cannot quantize {n_nan} NaN values")
    rounded = np.copysign(np.floor(np.abs(arr) + 0.5), arr)
    clamped = np.clip(rounded, grid.lo, grid.hi)
    clamp_count = int(np.count_nonzero(rounded != clamped))
    return QuantizeResult(symbols=clamped.astype(np.int32), clamp_count=clamp_count)


# ---------------------------------------------------------------------------
# determinization
# ---------------------------------------------------------------------------


def _scale_lattice_round(scales: np.ndarray, grid: SymbolGrid) -> np.ndarray:
    lo = SCALE_FLOOR
    hi = grid.span
    s = np.clip(scales, lo, hi)
    ratio = np.log(s / lo) / np.log(hi / lo)  # in [0, 1]
    idx = np.round(ratio * (SCALE_LEVELS - 1))
    return lo * (hi / lo) ** (idx / (SCALE_LEVELS - 1))


def _weights_largest_remainder(weights: np.ndarray) -> np.ndarray:
    """Round mixture weights [..., K] to counts summing exactly to
    WEIGHT_LATTICE (under determinize's precondition).

    The deficit D = WEIGHT_LATTICE - sum(floor(w * WEIGHT_LATTICE)) goes, one
    unit each, to the D components with the largest remainders, ties to the
    lowest mixture index.
    """
    scaled = weights * WEIGHT_LATTICE
    base = np.floor(scaled)
    rem = scaled - base
    # a stable sort keeps tied remainders in index order
    ranks = np.argsort(np.argsort(-rem, axis=-1, kind="stable"), axis=-1)
    base += ranks < WEIGHT_LATTICE - base.sum(axis=-1, keepdims=True)
    base /= WEIGHT_LATTICE
    return base


def determinize(weights, means, scales, grid: SymbolGrid):
    """Round GMM parameters [..., K] onto fixed lattices so encoder and
    decoder build identical CDF tables from independently computed float
    params.

    weights are renormalized by largest remainder on a 1/4096 grid, means
    snap to 1/1024 of a symbol step, scales to a 256-level geometric ladder
    between the scale floor and the grid span. Idempotent. The weight units
    left after flooring go to the components with the largest remainders,
    ties to the lowest mixture index.

    The weights come back summing exactly to one only when each input row
    already sums to one within K/4096 (precisely: when its floored counts
    total between 4096 - K and 4096), as softmax rows do. Other rows are
    not renormalized: an all-zero K=3 row comes back summing to 3/4096, and
    a row of 0.9s to 2.6997.
    """
    w = _weights_largest_remainder(np.asarray(weights, dtype=np.float64))
    mean_step = grid.step_norm / MEAN_LATTICE
    m = np.round(np.asarray(means, dtype=np.float64) / mean_step) * mean_step
    s = _scale_lattice_round(np.asarray(scales, dtype=np.float64), grid)
    return w, m, s


# ---------------------------------------------------------------------------
# fixed-point CDF
# ---------------------------------------------------------------------------


def build_cdf(pmf: np.ndarray) -> np.ndarray:
    """Quantize a discrete pmf to a strictly increasing integer CDF.

    Floor-quantizes the cumulative onto 2^16 and then repairs the E empty
    bins: each gets 1, taken one unit at a time from the currently largest
    bin, ties to the lowest symbol index. Returns cum[0..n] as uint32 with
    cum[0] = 0, cum[n] = 2^16; every symbol keeps probability >= 1/2^16.
    An empty pmf, a pmf whose floored total is NaN or outside [0, 2^16],
    and one whose floored cumulative decreases anywhere (a negative entry)
    raise ContractViolation.

    The steals are computed in closed form. A donor never falls below 1, so
    a repaired bin (count 1) is never chosen again and only the originally
    non-empty bins give mass. Taking E units from the largest of those, one
    at a time, lowers them to a water level T: T is the smallest integer
    with excess(T) = sum(max(0, c - T)) <= E. Every bin above T is cut to
    T, and the remaining r = E - excess(T) units come from the r
    lowest-index bins with count >= T, which is the order the one-at-a-time
    steals take them in.

    Most repaired rows cut only the largest bin: when top - E >= second,
    for top the largest count and second the largest of the rest, the
    water level is top - E (or, at equality, second itself, which cuts the
    same units), so that bin gives all E units and no sort is needed.

    A negative entry makes its bin count as empty. On the general path the
    sort shows the negative count; on the one-bin path, raising a count
    c < 0 to 1 adds 1 - c instead of the 1 an empty bin takes, so the
    repaired total exceeds 2^16.
    """
    p = np.asarray(pmf, dtype=np.float64).ravel()
    n = p.size
    if n == 0:
        raise ContractViolation("pmf has no symbols")
    if n > CDF_TOTAL // 2:
        raise PrecisionError(
            f"support size {n} exceeds {CDF_TOTAL // 2}; cannot give every symbol mass")
    cum = np.zeros(n + 1)
    np.add.accumulate(p, out=cum[1:])
    cum *= CDF_TOTAL
    np.floor(cum, out=cum)
    # a NaN, negative or above-one total leaves counts that the repair
    # cannot make positive; the last cumulative shows it without a pass
    # over the row
    if not 0.0 <= cum[-1] <= CDF_TOTAL:
        raise ContractViolation(f"pmf cumulative {cum[-1] / CDF_TOTAL} is not in [0, 1]")
    cum = cum.astype(np.int64)
    cum[-1] = CDF_TOTAL
    # a bin is non-empty where the cumulative rises; where a negative pmf
    # entry makes it fall, the bin counts as empty and is repaired below,
    # which shows the negative count
    n_empty = n - int(np.count_nonzero(cum[1:] > cum[:-1]))
    if n_empty == 0:
        return cum.astype(np.uint32)
    counts = cum[1:] - cum[:-1]  # sums to exactly CDF_TOTAL
    # The largest bin alone gives all E units when top - E >= second. Any
    # other bin above top - E rules that out; on unimodal rows the top's
    # neighbours hold the second count, so they are read before the full
    # max. The top's slot reads 0 during the max: that raises the rest's
    # maximum only where every other count is negative, and then top - E
    # still exceeds it and the total check below raises.
    j = int(counts.argmax())
    top = int(counts[j])
    cut = top - n_empty
    if counts[j - 1] <= cut and counts[(j + 1) % n] <= cut:
        counts[j] = 0
        if cut >= counts.max():
            counts[j] = cut
            np.maximum(counts, 1, out=counts)
            np.add.accumulate(counts, out=cum[1:])
            if cum[-1] != CDF_TOTAL:
                raise ContractViolation("pmf has a negative entry: its cumulative decreases")
            return cum.astype(np.uint32)
        counts[j] = top
    # With s sorted descending, excess(s[k]) = sum(s[:k]) - k * s[k] is
    # nondecreasing in k. The first m bins, those with excess(s[m]) > E,
    # are cut, to T = ceil((sum(s[:m]) - E) / m).
    s = np.sort(counts)[::-1]
    if s[-1] < 0:
        raise ContractViolation("pmf has a negative entry: its cumulative decreases")
    top = np.add.accumulate(s)
    m = int((top - np.arange(1, n + 1) * s).searchsorted(n_empty, side="right"))
    cut = int(top[m - 1]) - n_empty
    level = -(-cut // m)
    spare = m * level - cut  # r: units still to take from bins at level T
    if level - (spare > 0) < 1:
        raise PrecisionError("cannot repair CDF: no bin has spare mass")
    np.minimum(counts, level, out=counts)
    if spare:
        counts[(counts == level).nonzero()[0][:spare]] = level - 1
    np.maximum(counts, 1, out=counts)  # every donor kept >= 1: only empty bins are 0
    np.add.accumulate(counts, out=cum[1:])
    return cum.astype(np.uint32)


def cdf_bits(cdf: np.ndarray, symbol_index: int) -> float:
    """Ideal codelength of one symbol under a quantized CDF table. Raises
    ContractViolation for a symbol outside [0, len(cdf) - 2]."""
    if not 0 <= symbol_index < len(cdf) - 1:
        raise ContractViolation(f"symbol {symbol_index} outside CDF support of {len(cdf) - 1}")
    span = int(cdf[symbol_index + 1]) - int(cdf[symbol_index])
    return float(CDF_PRECISION - np.log2(span))
