"""The codec network: analysis/synthesis transforms, hyper transforms,
simplified attention, the two causal context models, the parameter heads
that emit Gaussian-mixture parameters for latents and pixels, and the rate
`log_masses` of the coded values under them, which training minimizes.
Activations are channel-last, [B, H, W, C], from the image to the heads'
[B, h, w, C, K] mixture parameters; conv weights are [Cout, Cin, k, k].

Every layer has one forward path, built from Tensor ops. Training runs it
with graph recording on; coding runs it inside `tensor.no_grad()`, which
computes the same values without recording the graph, and reads `.data`.
Weights are immutable during inference and may be shared read-only across
threads; training is single-writer.
"""

from __future__ import annotations

import hashlib
import math
import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import tensor as T
from .coder import check_seal, seal
from .entropy import LATENT_GRID, PIXEL_GRID, SCALE_FLOOR, FactorizedPrior, SymbolGrid
from .errors import ConfigError, ContractViolation, IntegrityError, TruncationError
from .tensor import Tensor

WEIGHTS_MAGIC = b"NLW2"


@dataclass(frozen=True)
class ModelConfig:
    """The settable architecture: the width, and the ablations of the paper's
    additions (attention, the pixel context, the mixture count). Paper-scale
    values sit in comments next to the desk-scale defaults of the tests.

    The rest is fixed. The analysis transform has two stride-2 stages with
    attention between them, so latents sit `downsample_factor` = 4 below the
    pixels; the hyper path has two more, so hyper-latents sit
    `total_downsample` = 16 below them. The mask-A context convs have
    kernels `mask_kernel_y` = 5 on the latents, as in the lossy base model,
    and `mask_kernel_x` = 7 on the pixels."""

    filters_n: int = 32          # paper: 192
    mixtures_k: int = 3          # paper: 3
    use_attention: bool = True
    use_context_x: bool = True

    # class constants, not fields
    mask_kernel_y = 5
    mask_kernel_x = 7
    downsample_factor = 4
    total_downsample = 16

    def __post_init__(self):
        # exact types, so one config has one canonical text and one hash
        for f in fields(self):
            v = getattr(self, f.name)
            if type(v) is not (bool if f.type == "bool" else int):
                raise ConfigError(f"{f.name} must be {f.type}, got {v!r}")
        # the upper bounds sit far above paper scale; they keep every
        # parameter's element count within numpy's index range
        if not 1 <= self.mixtures_k <= 64:
            raise ConfigError(f"mixtures_k must be in [1, 64], got {self.mixtures_k}")
        if not 4 <= self.filters_n <= 1 << 17:
            raise ConfigError(f"filters_n must be in [4, {1 << 17}], got {self.filters_n}")


def canonical_config_text(config: ModelConfig) -> str:
    """Stable key=value block; its sha256 identifies the architecture."""
    lines = []
    for f in sorted(fields(config), key=lambda f: f.name):
        v = getattr(config, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> ModelConfig:
    """Inverse of canonical_config_text that accepts only canonical text:
    any other spelling of a config raises ConfigError, so a weights file
    that loads hashes as the model it loads."""
    types = {f.name: f.type for f in fields(ModelConfig)}
    kwargs = {}
    for line in text.splitlines():
        key, _, raw = line.partition("=")
        if key not in types:
            raise ConfigError(f"unknown model config key {key!r}")
        try:
            kwargs[key] = {"true": True, "false": False}[raw] if types[key] == "bool" else int(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{key}={raw!r} is not a valid {types[key]}") from None
    config = ModelConfig(**kwargs)
    if (want := canonical_config_text(config)) != text:
        raise ConfigError(f"model config text is not canonical; for its values it is {want!r}")
    return config


def config_hash(config: ModelConfig) -> bytes:
    return hashlib.sha256(canonical_config_text(config).encode()).digest()


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def _zeros(rng, shape):
    return np.zeros(shape)


def _fan_in_uniform(rng, shape, gain=1.0):
    """U(±gain·√(3/fan_in)) over a conv weight [Cout, Cin, k, k], whose
    fan_in is Cin·k·k."""
    bound = gain * np.sqrt(3.0 / math.prod(shape[1:]))
    return rng.uniform(-bound, bound, size=shape)


def _prior_slope(rng, shape):
    return np.full(shape, FactorizedPrior.INIT_RAW_SLOPE)


class _ParamStore:
    """Ordered name -> Tensor map; the key set is a pure function of config.

    Next to each parameter the store keeps its initializer
    `init(rng, shape) -> ndarray` under the same name in `inits`;
    `Model.init_random` calls it.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.inits: dict[str, Callable] = {}

    def add(self, name: str, shape, init) -> Tensor:
        if name in self.params:
            raise ContractViolation(f"duplicate parameter {name}")
        # a read-only zero view: init_random or deserialize_weights replaces
        # it, so a config alone allocates nothing
        t = Tensor(np.broadcast_to(0.0, shape), requires_grad=True)
        self.params[name] = t
        self.inits[name] = init
        return t


class Conv2d:
    def __init__(self, store, name, cin, cout, k, stride=1, gain=1.0, bias_init=_zeros):
        self.stride = stride
        self.w = store.add(f"{name}.w", (cout, cin, k, k), partial(_fan_in_uniform, gain=gain))
        self.b = store.add(f"{name}.b", (cout,), bias_init)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, self.b, self.stride)


class Upsample2x:
    """Sub-pixel convolution: a 3x3 conv from C to 4C channels, then
    depth_to_space, doubles height and width. Output pixel (2h + i, 2w + j)
    is channels (2i + j)C to (2i + j + 1)C - 1 of the conv at (h, w).

    It represents every 4x4, stride-2, pad-1 transposed conv exactly: for
    w4 [C, C, 4, 4] and b4, set w[(2i + j)C + co, ci, dr + 1, dc + 1] =
    w4[ci, co, u(i, dr), u(j, dc)], b[(2i + j)C + co] = b4[co] and every
    other tap to zero, where u reads
        phase 0: tap 3 at input offset -1, tap 1 at offset 0
        phase 1: tap 2 at input offset 0,  tap 0 at offset +1."""

    def __init__(self, store, name, channels):
        self.conv = Conv2d(store, name, channels, 4 * channels, 3)

    def __call__(self, x: Tensor) -> Tensor:
        return T.depth_to_space(self.conv(x))


class MaskedConv2d:
    """Strictly causal (mask type A) conv at stride 1: the weight
    [Cout,Cin,k,k] times causal_mask(k), built once. The mask zeroes the
    center tap and every raster-later tap in both the forward and backward
    pass, so masked weights never receive gradient and output (i,j) depends
    only on raster-earlier inputs."""

    def __init__(self, store, name, cin, cout, kernel):
        self.mask = T.causal_mask(kernel)
        self.w = store.add(f"{name}.w", (cout, cin, kernel, kernel), _fan_in_uniform)
        self.b = store.add(f"{name}.b", (cout,), _zeros)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, T.mul(self.w, self.mask), self.b)


class ResBlock:
    """Two 3x3 convs with a leaky_relu between and a skip around."""

    def __init__(self, store, name, channels):
        self.conv1 = Conv2d(store, f"{name}.conv1", channels, channels, 3)
        self.conv2 = Conv2d(store, f"{name}.conv2", channels, channels, 3)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(x, self.conv2(T.leaky_relu(self.conv1(x))))


class AttentionBlock:
    """out = t + trunk(t) * sigmoid(mask(t)).

    Both branches stack three residual blocks; each ends in a 1x1 conv so a
    zero-initialized final layer collapses the branch exactly. Those finals
    start near zero, making the block close to identity at initialization.
    """

    def __init__(self, store, name, channels):
        self.trunk = [ResBlock(store, f"{name}.trunk{i}", channels) for i in range(3)]
        self.trunk_out = Conv2d(store, f"{name}.trunk_out", channels, channels, 1, gain=0.01)
        self.mask = [ResBlock(store, f"{name}.mask{i}", channels) for i in range(3)]
        self.mask_out = Conv2d(store, f"{name}.mask_out", channels, channels, 1, gain=0.01)

    def __call__(self, t: Tensor) -> Tensor:
        u = m = t
        for trunk_block, mask_block in zip(self.trunk, self.mask):
            u, m = trunk_block(u), mask_block(m)
        return T.add(t, T.mul(self.trunk_out(u), T.sigmoid(self.mask_out(m))))


class Model:
    """All learnable state plus the transform/head graph over it.

    Analysis runs two stride-2 stages with attention between them, synthesis
    two 2x upsamples with attention between them; the hyper transforms add
    two stride-2 convs and two upsamples, a 4x hyper path. Every upsample
    is a sub-pixel convolution (Upsample2x)."""

    def __init__(self, config: ModelConfig):
        self.config = config
        store = _ParamStore()
        n = config.filters_n
        k = config.mixtures_k
        attention = config.use_attention

        # analysis: two stride-2 stages with a residual block each, attention
        # between them, and a final stride-1 latent head
        self.ga_stages = [(Conv2d(store, f"ga.down{i}", n if i else 3, n, 3, stride=2),
                           ResBlock(store, f"ga.res{i}", n)) for i in range(2)]
        self.ga_attn = AttentionBlock(store, "ga.attn", n) if attention else None
        self.ga_out = Conv2d(store, "ga.out", n, n, 3)

        # synthesis mirror
        self.gs_in = Conv2d(store, "gs.in", n, n, 3)
        self.gs_res = ResBlock(store, "gs.res", n)
        self.gs_up = [Upsample2x(store, f"gs.up{i}", n) for i in range(2)]
        self.gs_attn = AttentionBlock(store, "gs.attn", n) if attention else None
        self.gs_out = Conv2d(store, "gs.out", n, n, 3)

        # hyper transforms; hyper features twice as wide as the latent
        self.ha_in = Conv2d(store, "ha.in", n, n, 3)
        self.ha_down = [Conv2d(store, f"ha.down{i}", n, n, 3, stride=2) for i in range(2)]
        self.ha_out = Conv2d(store, "ha.out", n, n, 3)
        self.hs_up = [Upsample2x(store, f"hs.up{i}", n) for i in range(2)]
        self.hs_out = Conv2d(store, "hs.out", n, 2 * n, 3)

        # context models + entropy parameter heads
        self.ctx_y = MaskedConv2d(store, "ctx_y", n, n, config.mask_kernel_y)
        self.ctx_x = (MaskedConv2d(store, "ctx_x", 3, n, config.mask_kernel_x)
                      if config.use_context_x else None)
        self.head_y1 = Conv2d(store, "head_y.conv1", 3 * n, 3 * n, 1)
        self.head_y2 = Conv2d(store, "head_y.conv2", 3 * n, 3 * k * n, 1,
                              gain=0.01, bias_init=_head_bias)
        self.head_x1 = Conv2d(store, "head_x.conv1", 2 * n, 2 * n, 1)
        self.head_x2 = Conv2d(store, "head_x.conv2", 2 * n, 9 * k, 1,
                              gain=0.01, bias_init=_head_bias)

        # factorized prior over the hyper-latent; its parameters are stored
        # (and serialized) in the order h0, b0, a0, h1, ...
        layers = [[store.add(f"prior.{kind}{i}", (n,), _prior_slope if kind == "h" else _zeros)
                   for kind in "hba"] for i in range(FactorizedPrior.N_LAYERS)]
        self.prior = FactorizedPrior(*zip(*layers))

        self.params = store.params
        self._inits = store.inits

    # -- initialization ----------------------------------------------------

    def init_random(self, seed: int) -> "Model":
        """Deterministic per-parameter init; independent of sibling params so
        ablation configs share values for the keys of the same shape."""
        for name, t in self.params.items():
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            t.data = self._inits[name](rng, t.data.shape)
        return self

    # -- state -------------------------------------------------------------

    def state(self) -> dict:
        return {name: t.data for name, t in self.params.items()}

    # -- transforms ----------------------------------------------------------

    def analysis(self, x: Tensor) -> Tensor:
        (h, w), d = x.shape[1:3], ModelConfig.total_downsample
        if h % d or w % d:
            raise ContractViolation(
                f"spatial dims {h}x{w} not divisible by {d}; pad beforehand")
        (down0, res0), (down1, res1) = self.ga_stages
        h = res0(T.leaky_relu(down0(x)))
        if self.ga_attn is not None:
            h = self.ga_attn(h)
        return self.ga_out(res1(T.leaky_relu(down1(h))))

    def synthesis(self, y: Tensor) -> Tensor:
        h = self.gs_res(T.leaky_relu(self.gs_in(y)))
        h = T.leaky_relu(self.gs_up[0](h))
        if self.gs_attn is not None:
            h = self.gs_attn(h)
        h = T.leaky_relu(self.gs_up[1](h))
        return self.gs_out(h)

    def hyper_analysis(self, y: Tensor) -> Tensor:
        h = T.leaky_relu(self.ha_in(y))
        h = T.leaky_relu(self.ha_down[0](h))
        h = T.leaky_relu(self.ha_down[1](h))
        return self.ha_out(h)

    def hyper_synthesis(self, z: Tensor) -> Tensor:
        h = T.leaky_relu(self.hs_up[0](z))
        h = T.leaky_relu(self.hs_up[1](h))
        return self.hs_out(h)

    # -- entropy parameter heads ---------------------------------------------

    def entropy_params_y(self, hyper_features: Tensor,
                         y_ctx_input: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        return self._entropy_params(hyper_features, y_ctx_input, self.ctx_y,
                                    self.head_y1, self.head_y2)

    def entropy_params_x(self, pixel_features: Tensor,
                         x_ctx_input: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        return self._entropy_params(pixel_features, x_ctx_input, self.ctx_x,
                                    self.head_x1, self.head_x2)

    def _entropy_params(self, features, ctx_input, ctx_conv, head1,
                        head2) -> tuple[Tensor, Tensor, Tensor]:
        """Context features joined to the transform features, then the two
        1x1 head convs, split into the per-channel mixture parameters. With no
        context model, zeros keep head_x.conv1's shape and init unchanged.
        The head's 3*C*K output channels run (weights, means, scales) x C x K,
        the order `_head_bias` also assumes.

        Returns the Tensors (weights, means, scales), each [B, h, w, C, K]
        and C-contiguous, so the [L, C, K] rows at a batch of locations are
        the arguments `entropy.determinize` and `entropy.gmm_pmf_table` take.
        weights are post-softmax (sum to one over K); scales carry the
        floor. Coding computes them under `no_grad` and reads their `.data`.
        """
        if ctx_conv is None:
            ctx = Tensor(np.zeros(features.shape[:3] + (self.config.filters_n,)))
        elif ctx_input.shape[1:3] != features.shape[1:3]:
            raise ContractViolation(
                f"context/feature spatial mismatch: {ctx_input.shape} vs {features.shape}")
        else:
            ctx = ctx_conv(ctx_input)
        raw = head2(T.leaky_relu(head1(T.concat([features, ctx], axis=-1))))
        p = T.reshape(raw, raw.shape[:-1] + (3, -1, self.config.mixtures_k))
        logits, means, raw_scales = (T.select(p, i, axis=-3) for i in range(3))
        return T.softmax(logits), means, T.add(T.softplus(raw_scales), SCALE_FLOOR)


def _head_bias(rng, shape):
    """A head conv2's bias over (weights, means, scales) x C x K, as
    `Model._entropy_params` splits it: uniform mixture weights, zero means,
    unit scales."""
    data = np.zeros(shape)
    data.reshape(3, -1)[2] = np.log(np.expm1(1.0 - SCALE_FLOOR))
    return data


def log_masses(model: Model, x: Tensor, y: Tensor, z: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """The rate: (z_term, y_term, x_term), each the sum of the natural log
    of the coded values' masses, each value over its grid's bin. z is under
    the prior on z ± 1/2, y under its head on y ± LATENT_GRID.step_norm/2,
    x (the normalized image `analysis` takes) under its head on x ±
    PIXEL_GRID.step_norm/2. A training loss is -(z_term + y_term + x_term).
    Left to the trainer: the ±TAIL_Z windows, the end bins' tails, the
    PMF_EPS floor, and noisy ỹ and z̃. A mass that underflows gives -inf."""
    half = LATENT_GRID.step_norm / 2
    z_term = T.reduce_sum(T.log(T.sub(model.prior.cdf(T.add(z, half)),
                                      model.prior.cdf(T.sub(z, half)))))
    hyper, pixel = model.hyper_synthesis(z), model.synthesis(y)
    y_term = T.reduce_sum(_mixture_log_masses(model.entropy_params_y(hyper, y), y, LATENT_GRID))
    x_term = T.reduce_sum(_mixture_log_masses(model.entropy_params_x(pixel, x), x, PIXEL_GRID))
    return z_term, y_term, x_term


def _mixture_log_masses(params, v: Tensor, grid: SymbolGrid) -> Tensor:
    """Log of the mass of a head's mixture (weights, means, scales), each
    [..., C, K], on v ± grid.step_norm/2 for every value of v [..., C]."""
    weights, means, scales = params
    if v.shape != means.shape[:-1]:
        raise ContractViolation(f"values of shape {v.shape} for mixtures of shape {means.shape}")
    v, half = T.reshape(v, v.shape + (1,)), grid.step_norm / 2
    lo, hi = (T.normal_cdf(T.div(T.sub(T.add(v, d), means), scales)) for d in (-half, half))
    return T.log(T.reduce_sum(T.mul(weights, T.sub(hi, lo)), axis=-1))


# ---------------------------------------------------------------------------
# weight serialization ("NLW2": magic, config text, float64 data, CRC32)
# ---------------------------------------------------------------------------


def serialize_weights(model: Model) -> bytes:
    """Integers little-endian. The config fixes each parameter's name, shape
    and place in the data, so there is no manifest.

        magic "NLW2"                                4 bytes
        u32 length of the canonical config text     4
        canonical config text (UTF-8)
        every parameter as float64, in model.params order, C order
        crc32 of everything above                   u32
    """
    config_text = canonical_config_text(model.config).encode()
    out = bytearray(WEIGHTS_MAGIC + struct.pack("<I", len(config_text)) + config_text)
    for arr in model.state().values():
        out += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return seal(out)


def deserialize_weights(blob: bytes) -> Model:
    """Inverse of serialize_weights. Raises TruncationError for a blob shorter
    than its config declares; IntegrityError for a bad magic, a longer blob or
    a CRC mismatch; ConfigError for config text that is not UTF-8 or not
    canonical. No weight is allocated before the CRC passes."""
    if len(blob) < 8:
        raise TruncationError(f"weights file of {len(blob)} bytes is too short")
    if blob[:4] != WEIGHTS_MAGIC:
        raise IntegrityError(f"bad weights magic {blob[:4]!r}, expected {WEIGHTS_MAGIC!r}")
    (cfg_len,) = struct.unpack_from("<I", blob, 4)
    if 8 + cfg_len > len(blob):
        raise TruncationError(f"weights file of {len(blob)} bytes cut inside the config text")
    try:
        model = Model(parse_config_text(blob[8:8 + cfg_len].decode()))
    except UnicodeDecodeError as e:
        raise ConfigError(f"weights config text is not UTF-8: {e}") from None
    sizes = [t.data.size for t in model.params.values()]
    check_seal(blob, 8 + cfg_len + 8 * sum(sizes) + 4, "weights file")
    values = np.frombuffer(blob, dtype="<f8", count=sum(sizes),
                           offset=8 + cfg_len).astype(np.float64)
    for t, arr in zip(model.params.values(), np.split(values, np.cumsum(sizes)[:-1])):
        t.data = arr.reshape(t.data.shape)
    return model


def weight_hash(model: Model) -> bytes:
    return hashlib.sha256(serialize_weights(model)).digest()
