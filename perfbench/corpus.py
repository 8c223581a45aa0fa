"""Seeded workload corpora and the wavefront schedule.

An ``Image`` is one coding job: the symbols of the z, y and x segments plus
Gaussian-mixture parameters for every y and x location. Everything is
generated from the workload seed before timing starts, so the timed code
receives only finished inputs.

The parameters stand in for the network (ROADMAP item 1 blocks building a
``Model``):

- Pixels use a causal predictor a decoder could reproduce: K=3 components at
  the MED (LOCO-I) prediction and at the left and up neighbours, with scales
  that grow with local gradient activity.
- Latent parameters and symbols are drawn per channel from the seed. Dead
  channels carry one constant near-deterministic mixture, as an untrained
  or pruned channel would.
- z symbols are drawn from the factorized prior they are coded under.

Latent arrays are channel-last, ``[h, w, C]``, so that a wavefront step's
locations gather into one ``[L, C, K]`` batch; their contents match the
codec's ``[C, H/4, W/4]`` and ``[C, H/16, W/16]`` shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from nlic.entropy import LATENT_GRID, PIXEL_GRID, FactorizedPrior
from nlic.network import ModelConfig

CONFIG = ModelConfig()
CHANNELS = CONFIG.filters_n
MIXTURES = CONFIG.mixtures_k
KERNEL_X = CONFIG.mask_kernel_x
KERNEL_Y = 5  # network.Model builds ctx_y with a fixed 5x5 mask-A kernel
DOWN_Y = CONFIG.downsample_factor
DOWN_Z = CONFIG.total_downsample

IMAGE_SIZE = 64
THUMB_SIZE = 16
THUMBS = 4  # thumbs per corpus, alternating smooth and noise


class Mixture(NamedTuple):
    """Per-location mixture parameters, each shaped [..., K]."""

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray


@dataclass(frozen=True)
class Image:
    name: str
    x: np.ndarray          # [H, W, 3] uint8; the pixel value is its symbol index
    x_params: Mixture      # [H, W, 3, K] on PIXEL_GRID
    y: np.ndarray          # [H/4, W/4, C] symbol indices on LATENT_GRID
    y_params: Mixture      # [H/4, W/4, C, K]
    z: np.ndarray          # [H/16, W/16, C] symbol indices on LATENT_GRID

    @property
    def height(self) -> int:
        return self.x.shape[0]

    @property
    def width(self) -> int:
        return self.x.shape[1]


def wavefront(height: int, width: int, kernel: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Locations grouped into steps t = j + (kernel//2 + 1)*i, rows ascending.

    Every mask-A neighbour of a location lies in an earlier step, so one step
    is one batch whose parameters depend only on earlier batches.
    """
    i, j = np.divmod(np.arange(height * width), width)
    t = j + (kernel // 2 + 1) * i
    order = np.lexsort((i, t))
    cuts = np.flatnonzero(np.diff(t[order])) + 1
    return [(i[o], j[o]) for o in np.split(order, cuts)]


# ---------------------------------------------------------------------------
# pixels
# ---------------------------------------------------------------------------


def smooth_pixels(rng: np.random.Generator, size: int) -> np.ndarray:
    """An RGB gradient with constant-colour squares on top.

    Slope magnitudes and square sizes are fixed and the squares sit in
    distinct cells of a 4x4 grid, so that the seed moves the picture but
    hardly its coding cost.
    """
    i, j = np.mgrid[0:size, 0:size] - (size - 1) / 2.0
    slope = 64.0 / size / np.sqrt(2.0)  # diagonal: one level per pixel at 64x64
    sign_i, sign_j = rng.choice([-1.0, 1.0], (2, 3))
    img = rng.uniform(64, 192, 3) + slope * (i[..., None] * sign_i + j[..., None] * sign_j)
    cell = size // 4
    side = cell * 3 // 4
    for c in rng.choice(16, 2 + size * size // 1024, replace=False):
        top, left = cell * np.array(divmod(c, 4)) + rng.integers(0, cell - side + 1, 2)
        img[top:top + side, left:left + side] = rng.integers(0, 256, 3)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def noise_pixels(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(0, 256, (size, size, 3), dtype=np.uint8)


def pixel_params(img: np.ndarray) -> Mixture:
    """Causal stand-in predictor: the parameters at (i, j) read only the left,
    up, up-left and up-right pixels, with fall-backs at the borders."""
    x = img.astype(np.int64)
    a = np.empty_like(x)  # left
    a[:, 1:] = x[:, :-1]
    a[1:, 0] = x[:-1, 0]
    a[0, 0] = 128
    b = np.empty_like(x)  # up
    b[1:] = x[:-1]
    b[0] = a[0]
    c = np.empty_like(x)  # up-left
    c[1:, 1:] = x[:-1, :-1]
    c[1:, 0] = b[1:, 0]
    c[0] = a[0]
    d = np.empty_like(x)  # up-right
    d[1:, :-1] = x[:-1, 1:]
    d[1:, -1] = b[1:, -1]
    d[0] = a[0]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    med = np.where(c >= hi, lo, np.where(c <= lo, hi, a + b - c))
    activity = np.abs(d - b) + np.abs(b - c) + np.abs(c - a)
    means = PIXEL_GRID.value(np.stack([med, a, b], axis=-1))
    steps = (0.4 + 0.25 * activity)[..., None] * np.array([1.0, 2.0, 2.0])
    weights = np.broadcast_to(np.array([0.6, 0.2, 0.2]), means.shape).copy()
    return Mixture(weights, means, steps * PIXEL_GRID.step_norm)


# ---------------------------------------------------------------------------
# latents
# ---------------------------------------------------------------------------


def latent_params(rng: np.random.Generator, size: int, active: int, mean_sd: float,
                  scale_lo: float, scale_hi: float) -> Mixture:
    """``active`` channels get per-location mixtures; the rest are dead."""
    shape = (size, size, CHANNELS, MIXTURES)
    weights = rng.dirichlet(np.full(MIXTURES, 2.0), shape[:-1])
    means = rng.normal(0.0, mean_sd, shape)
    scales = rng.uniform(scale_lo, scale_hi, shape)
    dead = rng.permutation(CHANNELS)[active:]
    weights[:, :, dead] = [0.8, 0.1, 0.1]
    means[:, :, dead] = rng.uniform(-0.05, 0.05, (dead.size, MIXTURES))
    scales[:, :, dead] = [0.15, 0.3, 0.3]
    return Mixture(weights, means, scales)


def sample(rng: np.random.Generator, mix: Mixture, grid) -> np.ndarray:
    """Symbol indices drawn from the mixtures, clamped into the grid."""
    u = rng.random(mix.weights.shape[:-1])
    k = np.minimum((u[..., None] > np.cumsum(mix.weights, axis=-1)).sum(-1), MIXTURES - 1)
    pick = k[..., None]
    v = rng.normal(np.take_along_axis(mix.means, pick, -1)[..., 0],
                   np.take_along_axis(mix.scales, pick, -1)[..., 0])
    idx = np.rint((v - grid.lo_value) / grid.step_norm)
    return np.clip(idx, 0, grid.n_symbols - 1).astype(np.int64)


def prior_symbols(rng: np.random.Generator, size: int) -> np.ndarray:
    pmf = FactorizedPrior.init(CHANNELS).pmf_table(LATENT_GRID)
    cols = [rng.choice(LATENT_GRID.n_symbols, size * size, p=p / p.sum()) for p in pmf]
    return np.stack(cols, axis=-1).reshape(size, size, CHANNELS)


# Latent profiles: (active channels, mean sd, scale range).
_LATENTS = {"smooth": (CHANNELS // 4, 2.0, 0.6, 3.0),
            "noise": (CHANNELS, 20.0, 30.0, 60.0)}
_PIXELS = {"smooth": smooth_pixels, "noise": noise_pixels}


def make_image(rng: np.random.Generator, kind: str, size: int, name: str) -> Image:
    x = _PIXELS[kind](rng, size)
    y_params = latent_params(rng, size // DOWN_Y, *_LATENTS[kind])
    return Image(name=name, x=x, x_params=pixel_params(x),
                 y=sample(rng, y_params, LATENT_GRID), y_params=y_params,
                 z=prior_symbols(rng, size // DOWN_Z))


def build(workload: str, seed: int) -> list[Image]:
    """The corpus of one workload; the same seed gives the same arrays."""
    rng = np.random.default_rng(seed)
    if workload in _PIXELS:
        return [make_image(rng, workload, IMAGE_SIZE, workload)]
    if workload == "thumbs":
        kinds = ["smooth", "noise"] * (THUMBS // 2)
        return [make_image(rng, k, THUMB_SIZE, f"thumb{n}-{k}") for n, k in enumerate(kinds)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("smooth", "noise", "thumbs")
