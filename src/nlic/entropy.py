"""Discretized probability models over integer symbol grids.

Everything the coder consumes lives here: bin-integrated Gaussian-mixture
probabilities with tail absorption, the learnable per-channel factorized
prior for the hyper-latent, the train/inference quantizers, parameter
determinization onto fixed lattices, and add-one fixed-point CDF
construction. All public functions are pure over immutable inputs and safe
to call concurrently.

Each mixture component lives on the window mu ± TAIL_Z·sd: its cumulative
is 0 below the window, ndtr inside it and 1 from its upper bound on, so
both tails fold into the window. ndtr runs only inside the windows, so no
coded byte depends on it outside [-TAIL_Z, TAIL_Z), up to rounding. Tables
are built in blocks of rows, each choosing its own branch (gathered or
dense edges), so a call holds its result plus one block's 512 KiB table,
whatever its batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import ContractViolation
from .tensor import ndtr

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

    A grid builds its tables once, when it is made, as read-only float64:
    `edges` holds the m = n_symbols + 1 bin edges value(lo) - step/2 ...
    value(hi) + step/2, and `step_rows` the m + 1 rows that fill a windowed
    table outside its windows, row k being 0.0 before edge k and 1.0 from it
    on. The rows are windows of one ramp of m zeros then m ones, row k being
    ramp[m - k : 2m - k], so they cost 2m floats, not (m + 1)·m. Indexing
    them with an integer array copies the rows into a fresh C-contiguous
    array, which callers may write to; the rows themselves overlap in
    memory, so they are read-only. Equality, hashing and repr use the four
    parameters only, and dataclasses.replace builds new tables.
    """

    lo: int
    hi: int
    step_norm: float
    lo_value: float
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    step_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ContractViolation(f"grid lo {self.lo} must be < hi {self.hi}")
        if not 0 < self.step_norm < np.inf:
            raise ContractViolation(f"grid step_norm {self.step_norm} must be finite and positive")
        if not np.isfinite(self.lo_value):
            raise ContractViolation(f"grid lo_value {self.lo_value} must be finite")
        s = np.arange(self.lo, self.hi + 2, dtype=np.float64)
        edges = self.lo_value + (s - self.lo) * self.step_norm - self.step_norm / 2.0
        edges.flags.writeable = False
        ramp = np.repeat([0.0, 1.0], edges.size)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "step_rows",
                           np.lib.stride_tricks.sliding_window_view(ramp, edges.size)[::-1])

    @property
    def n_symbols(self) -> int:
        return self.hi - self.lo + 1

    @property
    def span(self) -> float:
        return (self.hi - self.lo) * self.step_norm

    def value(self, symbol):
        return self.lo_value + (np.asarray(symbol) - self.lo) * self.step_norm


# Pixels: 0..255 mapped to [-1, 1]. Latents: plain integers -127..127.
PIXEL_GRID = SymbolGrid(lo=0, hi=255, step_norm=2.0 / 255.0, lo_value=-1.0)
LATENT_GRID = SymbolGrid(lo=-127, hi=127, step_norm=1.0, lo_value=-127.0)


# ---------------------------------------------------------------------------
# Gaussian mixture pmf
# ---------------------------------------------------------------------------


# Half-width of each mixture component's window, in scales: gmm_pmf_table
# folds both tails beyond it into the window, so ndtr runs only on
# [-TAIL_Z, TAIL_Z) and each fold moves at most ndtr(-TAIL_Z) ~ 9.5e-18.
TAIL_Z = 8.5

# Cumulative entries per gmm_pmf_table block, 512 KiB of float64: 85 rows for
# K = 3 on either grid. On the benchmark's recorded wavefront steps the layer
# time stays within 1-2% of one unblocked table per call, while 2^15 costs
# 6-18% and 2^14 more, for only 1.6 and 1.9 MB less peak RSS. A block fits
# in L2, so whole-image batches build faster too.
_BLOCK_ENTRIES = 1 << 16


def _mixture(weights, means, scales):
    """float64 (w, mu, sd), checked once per call: all three share one shape
    [..., K] with K >= 1; means are finite, scales finite and positive,
    weights finite and nonnegative."""
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(means, dtype=np.float64)
    sd = np.asarray(scales, dtype=np.float64)
    if mu.ndim < 1 or not w.shape == mu.shape == sd.shape:
        raise ContractViolation(
            f"mixture shapes differ: weights {w.shape}, means {mu.shape}, scales {sd.shape}")
    if mu.shape[-1] == 0:
        raise ContractViolation(f"mixture of shape {mu.shape} has no components")
    if not np.isfinite(mu).all():
        raise ContractViolation("mixture means must be finite")
    if not ((sd > 0) & (sd < np.inf)).all():
        raise ContractViolation("mixture scales must be finite and positive")
    if not ((w >= 0) & (w < np.inf)).all():
        raise ContractViolation("mixture weights must be finite and nonnegative")
    return w, mu, sd


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
    [..., n_symbols]. Each component's cumulative is evaluated at the bin
    edges, the first and last edges are set to 0 and 1 so the end bins
    absorb the tails, and the weighted bin differences are summed; each row
    sums to one by construction (up to float addition). Raises
    ContractViolation for an empty mixture (K = 0), non-finite means,
    non-finite or non-positive scales, negative or non-finite weights, or
    mismatched shapes.

    A component's cumulative at edge e is 0 for e < lo, ndtr((e - mu)/sd)
    for lo <= e < hi and 1 for e >= hi, with lo and hi the floats mu -/+
    TAIL_Z*sd (infinite where they overflow). So both tails fold into the
    window's end bins by definition, whatever the rounding of lo and hi,
    and no coded byte depends on ndtr outside [-TAIL_Z, TAIL_Z), up to the
    rounding of z. Inside the window z comes from the same float
    operations in both branches below, so each row's table depends on its
    own parameters only, not on the rows that share its call.

    The parameters are taken as [R, K] rows and built in blocks of as many
    rows as fit _BLOCK_ENTRIES cumulative entries (85 rows for K = 3 on
    either grid), each block into its slice of one [R, n_symbols] result.
    So the working set is the result plus one block's [rows, K, n+1]
    float64 table (at most 512 KiB, unless one row alone is larger) and the
    gather's index arrays, whatever R is. The grid supplies the bin edges
    and the step rows that fill each window's tails (SymbolGrid), so a call
    builds no grid-sized table.

    Each block takes one of two branches. When the windows cover less than
    half of its edges, the live edges of all its components are gathered
    into one ndtr call and scattered into a table prefilled with 0.0 below
    and 1.0 above each window. Otherwise, as for wide scales, the gather
    and scatter would cost more than the calls they skip: ndtr runs on
    every edge, and the few components whose window does not cover every
    edge take the prefill's values outside it.
    """
    w, mu, sd = _mixture(weights, means, scales)
    edges, steps = grid.edges, grid.step_rows
    k = mu.shape[-1]
    shape = mu.shape[:-1] + (grid.n_symbols,)
    w, mu, sd = w.reshape(-1, k), mu.reshape(-1, k), sd.reshape(-1, k)
    block = max(1, _BLOCK_ENTRIES // (k * edges.size))
    pmf = np.empty((len(mu), grid.n_symbols))
    for start in range(0, len(mu), block):
        part = slice(start, start + block)
        _pmf_rows(w[part], mu[part], sd[part], edges, steps, out=pmf[part])
    return pmf.reshape(shape)


def _pmf_rows(w, mu, sd, edges, steps, out) -> np.ndarray:
    """gmm_pmf_table's body on checked [r, K] rows: writes the [r, n] pmf
    into out and returns it."""
    mu_f, sd_f = mu.ravel(), sd.ravel()
    with np.errstate(over="ignore"):
        a = edges.searchsorted(mu_f - TAIL_Z * sd_f)
        b = edges.searchsorted(mu_f + TAIL_Z * sd_f)
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
        # one buffer holds the edges, z, ndtr(z), then the bin masses; C
        # order whatever the parameters' layout, as _bin_masses needs.
        # Copying the edges in first leaves numpy one broadcast operand to
        # buffer, not two, and is faster than broadcasting both
        cdf = np.empty(mu.shape + edges.shape)
        np.copyto(cdf, edges)
        np.subtract(cdf, mu[..., None], out=cdf)
        with np.errstate(over="ignore"):  # z is +-inf for tiny scales
            np.divide(cdf, sd[..., None], out=cdf)
        ndtr(cdf, out=cdf)
        # fold the tails: outside [a, b) each row takes step row b's value
        cut = np.flatnonzero((a > 0) | (b < edges.size))
        rows = cdf.reshape(-1, edges.size)
        fill = steps[b[cut]]
        rows[cut] = np.where(steps[a[cut]] > fill, rows[cut], fill)
    return np.einsum("rk,rks->rs", w, _bin_masses(cdf), out=out)


# ---------------------------------------------------------------------------
# learnable factorized prior (hyper-latent)
# ---------------------------------------------------------------------------


class FactorizedPrior:
    """Per-channel monotone cumulative over the hyper-latent, built from
    three gated affine layers.

    Each layer applies softplus(h)*u + b followed by u + tanh(a)*tanh(u);
    a final sigmoid bounds the result to (0, 1). Positive slopes and
    |tanh(a)| < 1 make the composition nondecreasing with limits 0 and 1,
    but the rounded sigmoid can step down by one ulp where a layer is nearly
    flat, so pmf_table takes differences of its running maximum.

    The layer parameters, each of shape [C], may be arrays or Tensors;
    `Model.prior` holds the model's own `prior.{h,b,a}{i}` Tensors, so
    gradients of `cdf` reach them. `cdf` is channel-last, as the
    network's activations are.
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
        edges = grid.edges  # [n+1]
        with T.no_grad():
            cdf = self.cdf(np.broadcast_to(edges[:, None], (edges.size, self.channels))).data
        np.maximum.accumulate(cdf, axis=0, out=cdf)  # so no mass is negative
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


def round_quantize(values, grid: SymbolGrid) -> tuple[np.ndarray, int]:
    """Round half away from zero, then clamp into the grid. Returns the int32
    symbols and the count of values the clamp moved.

    Infinities clamp to the grid ends; NaN raises ContractViolation.
    """
    arr = np.asarray(values, dtype=np.float64)
    n_nan = int(np.count_nonzero(np.isnan(arr)))
    if n_nan:
        raise ContractViolation(f"cannot quantize {n_nan} NaN values")
    frac, whole = np.modf(arr)  # exact, where |x| + 0.5 rounds 0.5 - 2^-54 up
    rounded = whole + np.sign(frac) * (np.abs(frac) >= 0.5)
    clamped = np.clip(rounded, grid.lo, grid.hi)
    return clamped.astype(np.int32), int(np.count_nonzero(rounded != clamped))


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
    a row of 0.9s to 2.6997. Weights and means too large for their lattices
    come back non-finite, so gmm_pmf_table's ContractViolation names them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = _weights_largest_remainder(np.asarray(weights, dtype=np.float64))
        mean_step = grid.step_norm / MEAN_LATTICE
        m = np.round(np.asarray(means, dtype=np.float64) / mean_step) * mean_step
    s = _scale_lattice_round(np.asarray(scales, dtype=np.float64), grid)
    return w, m, s


# ---------------------------------------------------------------------------
# fixed-point CDF
# ---------------------------------------------------------------------------


# The largest total build_cdf accepts, exclusive: below it the last bin keeps
# at least one unit. Bounding every entry by it first also keeps the float
# cumulative finite.
_TOTAL_BOUND = 1.0 + 2.0 ** -CDF_PRECISION


@lru_cache(maxsize=8)
def _cdf_grid(n: int):
    """The scale 2^16 - n as a read-only 0-d float64 operand, and the offsets
    0..n: numpy converts a Python scalar operand again on every call, which
    costs as much as the multiply itself on a 256-entry row. The cache keeps
    the last 8 sizes, since each entry holds n + 1 offsets."""
    scale = np.array(float(CDF_TOTAL - n))
    offsets = np.arange(n + 1, dtype=np.uint32)
    scale.setflags(write=False)
    offsets.setflags(write=False)
    return scale, offsets


def build_cdf(pmf: np.ndarray) -> np.ndarray:
    """Quantize a discrete pmf to a strictly increasing integer CDF by add-one
    quantization: every bin gets one unit and the other 2^16 - n units
    follow the pmf (the "leaky" quantization of constriction, Bamler 2022,
    arXiv:2201.01741), so no bin needs repair.

    With C_i = p[0] + ... + p[i-1], summed left to right in float64, and
    M = 2^16 - n for n symbols, the table is

        cum[0] = 0,  cum[i] = floor(C_i * M) + i for 0 < i < n,  cum[n] = 2^16,

    where C_i * M is the float64 product. Returns cum as a 1-D, C-contiguous,
    native-order uint32 array. The input is only read, in any layout and any
    real dtype. Bounds on the counts c_i = cum[i+1] - cum[i]:

    - c_i >= 1: C, and so floor(C * M), does not decrease when no entry is
      negative, and the offsets add one per bin.
    - c_{n-1} >= 1 when the total C_n is below 1 + 2^-16: then C_{n-1} * M
      <= C_n * M < M + 1, so cum[n-1] <= M + n - 1 = 2^16 - 1.
    - |c_i - (M * p_i + 1)| < 1 up to the rounding of C and of the product;
      the last bin also takes the mass a total below one leaves, as the
      tail bins of gmm_pmf_table take theirs.

    So the coded pmf is (1 - n/2^16) * p + 1/2^16 up to one unit per bin.
    An empty pmf, more than 2^15 symbols, a negative or NaN entry, and an
    entry or a total of at least 1 + 2^-16 raise ContractViolation, before
    anything is scaled.
    """
    p = np.asarray(pmf, dtype=np.float64).ravel()
    n = p.size
    if n == 0:
        raise ContractViolation("pmf has no symbols")
    if n > CDF_TOTAL // 2:
        raise ContractViolation(
            f"support size {n} exceeds {CDF_TOTAL // 2}; cannot give every symbol mass")
    low = p.item(p.argmin())  # argmin returns the first NaN
    if not low >= 0.0:
        raise ContractViolation(
            f"pmf has a negative or NaN entry {low}: its cumulative must not decrease")
    high = p.item(p.argmax())
    if not high < _TOTAL_BOUND:
        raise ContractViolation(f"pmf entry {high} puts its cumulative at 1 + 2^-16 or above")
    cum = np.empty(n + 1)
    cum[0] = 0.0
    np.add.accumulate(p, out=cum[1:])
    total = cum.item(n)
    if not total < _TOTAL_BOUND:
        raise ContractViolation(f"pmf cumulative {total} is 1 + 2^-16 or above")
    scale, offsets = _cdf_grid(n)
    np.multiply(cum, scale, out=cum)
    # every product is >= 0, so the cast truncates as floor would; the
    # offsets are added after it, as a float sum could round up to the
    # next integer
    table = cum.astype(np.uint32)
    np.add(table, offsets, out=table)
    table[n] = CDF_TOTAL
    return table


def cdf_bits(cdf: np.ndarray, symbol_index: int) -> float:
    """Ideal codelength of one symbol under a quantized CDF table. Raises
    ContractViolation for a symbol outside [0, len(cdf) - 2] and for a bin
    of zero or negative width."""
    if not 0 <= symbol_index < len(cdf) - 1:
        raise ContractViolation(f"symbol {symbol_index} outside CDF support of {len(cdf) - 1}")
    span = int(cdf[symbol_index + 1]) - int(cdf[symbol_index])
    if span <= 0:
        raise ContractViolation(f"CDF not strictly increasing at symbol {symbol_index}")
    return float(CDF_PRECISION - np.log2(span))
