"""The codec network: analysis/synthesis transforms, hyper transforms,
simplified attention, the two causal context models, and the parameter
heads that emit Gaussian-mixture parameters for latents and pixels.

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
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .entropy import SCALE_FLOOR, FactorizedPrior
from .errors import ConfigError, ContractViolation
from .tensor import Tensor

WEIGHTS_MAGIC = b"NLW1"


@dataclass(frozen=True)
class ModelConfig:
    """Structural knobs. Paper-scale values sit in comments next to the
    desk-scale defaults used throughout the tests."""

    filters_n: int = 32          # paper: 192
    mixtures_k: int = 3          # paper: 3
    mask_kernel_x: int = 7       # pixel context kernel, 5 or 7
    use_attention: bool = True
    use_context_y: bool = True
    use_context_x: bool = True
    downsample_factor: int = 4   # total spatial stride of the analysis transform
    hyper_downsample: int = 4    # additional stride of the hyper analysis

    def __post_init__(self):
        # the upper bounds sit far above paper scale; they keep every
        # parameter's element count within numpy's index range
        if not 1 <= self.mixtures_k <= 64:
            raise ConfigError(f"mixtures_k must be in [1, 64], got {self.mixtures_k}")
        if not 4 <= self.filters_n <= 1 << 17:
            raise ConfigError(f"filters_n must be in [4, {1 << 17}], got {self.filters_n}")
        for name in ("downsample_factor", "hyper_downsample"):
            v = getattr(self, name)
            if not 2 <= v <= 64 or (v & (v - 1)) != 0:
                raise ConfigError(f"{name} must be a power of two in [2, 64], got {v}")
        if self.mask_kernel_x not in (5, 7):
            raise ConfigError(f"mask_kernel_x must be 5 or 7, got {self.mask_kernel_x}")

    @property
    def total_downsample(self) -> int:
        return self.downsample_factor * self.hyper_downsample


def canonical_config_text(config: ModelConfig) -> str:
    """Stable key=value block; its sha256 identifies the architecture."""
    lines = []
    for f in sorted(fields(config), key=lambda f: f.name):
        v = getattr(config, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


_BOOL_LITERALS = {"true": True, "1": True, "yes": True,
                  "false": False, "0": False, "no": False}


def parse_config_text(text: str) -> ModelConfig:
    """Inverse of canonical_config_text. Raises ConfigError for an unknown
    or duplicated key, a non-integer value, or a bool other than
    true/false/1/0/yes/no (any case)."""
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"model config key {key!r} is given twice")
        values[key] = raw.strip()
    kwargs = {}
    for f in fields(ModelConfig):
        raw = values.pop(f.name, None)
        if raw is None:
            continue
        try:
            kwargs[f.name] = _BOOL_LITERALS[raw.lower()] if f.type == "bool" else int(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{f.name}={raw!r} is not a valid {f.type} "
                              "(bools: true/false/1/0/yes/no)") from None
    if values:
        raise ConfigError(f"unknown model config keys: {sorted(values)}")
    return ModelConfig(**kwargs)


def config_hash(config: ModelConfig) -> bytes:
    return hashlib.sha256(canonical_config_text(config).encode()).digest()


@dataclass
class GmmParams:
    """Per-symbol mixture parameters, each shaped [B, h, w, C, K] and
    C-contiguous, so the [L, C, K] rows at a batch of locations are the
    input `entropy.determinize` and `entropy.gmm_pmf_table` take.

    weights are post-softmax (sum to one over K); scales carry the floor.
    Payloads are always Tensors; coding computes them under `no_grad` and
    reads their `.data`.
    """

    weights: Tensor
    means: Tensor
    scales: Tensor


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


class _ParamStore:
    """Ordered name -> Tensor map; the key set is a pure function of config.

    Next to each parameter the store keeps its init spec `(kind, fan_in)`
    under the same name in `specs`; `Model.init_random` reads it from there.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.specs: dict[str, tuple[str, int]] = {}

    def add(self, name: str, shape, init: str, fan_in: int = 0) -> Tensor:
        if name in self.params:
            raise ContractViolation(f"duplicate parameter {name}")
        # a read-only zero view: init_random or load_state replaces it, so a
        # config alone allocates nothing
        t = Tensor(np.broadcast_to(0.0, shape), requires_grad=True)
        self.params[name] = t
        self.specs[name] = (init, fan_in)  # read by Model.init_random
        return t


class Conv2d:
    def __init__(self, store, name, cin, cout, k, stride=1, pad=None,
                 weight_init="fan_in", bias_init="zero"):
        self.stride = stride
        self.pad = k // 2 if pad is None else pad
        self.w = store.add(f"{name}.w", (cout, cin, k, k), weight_init, cin * k * k)
        self.b = store.add(f"{name}.b", (cout,), bias_init)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, self.b, self.stride, self.pad)


class ConvTranspose2d:
    def __init__(self, store, name, cin, cout, k, stride, pad):
        self.stride = stride
        self.pad = pad
        fan_in = max(1, cin * k * k // (stride * stride))
        self.w = store.add(f"{name}.w", (cin, cout, k, k), "fan_in", fan_in)
        self.b = store.add(f"{name}.b", (cout,), "zero")

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d_transposed(x, self.w, self.b, self.stride, self.pad)


class MaskedConv2d:
    def __init__(self, store, name, cin, cout, kernel):
        self.kernel = kernel
        self.w = store.add(f"{name}.w", (cout, cin, kernel, kernel), "fan_in",
                           cin * kernel * kernel)
        self.b = store.add(f"{name}.b", (cout,), "zero")

    def __call__(self, x: Tensor) -> Tensor:
        return T.masked_conv2d(x, self.w, self.b, self.kernel)


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
        self.trunk_out = Conv2d(store, f"{name}.trunk_out", channels, channels, 1,
                                weight_init="small")
        self.mask = [ResBlock(store, f"{name}.mask{i}", channels) for i in range(3)]
        self.mask_out = Conv2d(store, f"{name}.mask_out", channels, channels, 1,
                               weight_init="small")

    def __call__(self, t: Tensor) -> Tensor:
        u = m = t
        for trunk_block, mask_block in zip(self.trunk, self.mask):
            u, m = trunk_block(u), mask_block(m)
        return T.add(t, T.mul(self.trunk_out(u), T.sigmoid(self.mask_out(m))))


class Model:
    """All learnable state plus the transform/head graph over it."""

    def __init__(self, config: ModelConfig):
        self.config = config
        store = _ParamStore()
        n = config.filters_n
        k = config.mixtures_k
        n_down = config.downsample_factor.bit_length() - 1  # powers of two
        n_hyper = config.hyper_downsample.bit_length() - 1
        mid = (n_down + 1) // 2

        # analysis: stride-2 stages with residual blocks between, attention
        # mid-encoder, and a final stride-1 latent head
        self.ga_stages = []
        cin = 3
        for i in range(n_down):
            conv = Conv2d(store, f"ga.down{i}", cin, n, 3, stride=2)
            res = ResBlock(store, f"ga.res{i}", n)
            self.ga_stages.append((conv, res))
            cin = n
        self.ga_attn = AttentionBlock(store, "ga.attn", n) if config.use_attention else None
        self.ga_attn_after = mid  # attention placed after this many stages
        self.ga_out = Conv2d(store, "ga.out", n, n, 3)

        # synthesis mirror
        self.gs_in = Conv2d(store, "gs.in", n, n, 3)
        self.gs_res = ResBlock(store, "gs.res", n)
        self.gs_ups = [ConvTranspose2d(store, f"gs.up{i}", n, n, 4, stride=2, pad=1)
                       for i in range(n_down)]
        self.gs_attn = AttentionBlock(store, "gs.attn", n) if config.use_attention else None
        self.gs_attn_after = n_down - mid  # completed upsamples before attention
        self.gs_out = Conv2d(store, "gs.out", n, n, 3)

        # hyper transforms; hyper features twice as wide as the latent
        self.ha_in = Conv2d(store, "ha.in", n, n, 3)
        self.ha_downs = [Conv2d(store, f"ha.down{i}", n, n, 3, stride=2)
                         for i in range(n_hyper)]
        self.ha_out = Conv2d(store, "ha.out", n, n, 3)
        self.hs_ups = [ConvTranspose2d(store, f"hs.up{i}", n, n, 4, stride=2, pad=1)
                       for i in range(n_hyper)]
        self.hs_out = Conv2d(store, "hs.out", n, 2 * n, 3)

        # context models + entropy parameter heads
        self.ctx_y = MaskedConv2d(store, "ctx_y", n, n, 5) if config.use_context_y else None
        self.ctx_x = (MaskedConv2d(store, "ctx_x", 3, n, config.mask_kernel_x)
                      if config.use_context_x else None)
        self.head_y1 = Conv2d(store, "head_y.conv1", 3 * n, 3 * n, 1)
        self.head_y2 = Conv2d(store, "head_y.conv2", 3 * n, 3 * k * n, 1,
                              weight_init="small", bias_init="head_out")
        self.head_x1 = Conv2d(store, "head_x.conv1", 2 * n, 2 * n, 1)
        self.head_x2 = Conv2d(store, "head_x.conv2", 2 * n, 9 * k, 1,
                              weight_init="small", bias_init="head_out")

        # factorized prior over the hyper-latent; its parameters are stored
        # (and serialized) in the order h0, b0, a0, h1, ...
        layers = [[store.add(f"prior.{kind}{i}", (n,), "prior_slope" if kind == "h" else "zero")
                   for kind in "hba"] for i in range(FactorizedPrior.N_LAYERS)]
        self.prior = FactorizedPrior(*zip(*layers))

        self.params = store.params
        self._init_specs = store.specs

    # -- initialization ----------------------------------------------------

    def init_random(self, seed: int) -> "Model":
        """Deterministic per-parameter init; independent of sibling params so
        ablation configs share values for the keys they have in common."""
        for name, t in self.params.items():
            kind, fan_in = self._init_specs[name]
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            if kind == "zero":
                data = np.zeros(t.data.shape)
            elif kind == "fan_in":
                bound = np.sqrt(3.0 / fan_in)
                data = rng.uniform(-bound, bound, size=t.data.shape)
            elif kind == "small":
                bound = 0.01 * np.sqrt(3.0 / fan_in)
                data = rng.uniform(-bound, bound, size=t.data.shape)
            elif kind == "prior_slope":
                data = np.full(t.data.shape, FactorizedPrior.INIT_RAW_SLOPE)
            elif kind == "head_out":
                # parameter-head bias over (weights, means, scales): uniform
                # mixture weights, zero means, unit scales
                data = np.zeros(t.data.shape)
                data.reshape(3, -1)[2] = np.log(np.expm1(1.0 - SCALE_FLOOR))
            else:
                raise ContractViolation(f"unknown init kind {kind}")
            t.data = data
        return self

    # -- state -------------------------------------------------------------

    def state(self) -> dict:
        return {name: t.data for name, t in self.params.items()}

    def load_state(self, state: dict) -> "Model":
        missing = set(self.params) - set(state)
        extra = set(state) - set(self.params)
        if missing or extra:
            raise ContractViolation(
                f"weight key mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, t in self.params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ContractViolation(
                    f"shape mismatch for {name}: {arr.shape} != {t.data.shape}")
            t.data = arr.copy()
        return self

    # -- transforms ----------------------------------------------------------

    def analysis(self, x: Tensor) -> Tensor:
        (h, w), d = x.shape[2:], self.config.total_downsample
        if h % d or w % d:
            raise ContractViolation(
                f"spatial dims {h}x{w} not divisible by {d}; pad beforehand")
        h = x
        for i, (conv, res) in enumerate(self.ga_stages):
            h = res(T.leaky_relu(conv(h)))
            if self.ga_attn is not None and i + 1 == self.ga_attn_after:
                h = self.ga_attn(h)
        return self.ga_out(h)

    def synthesis(self, y: Tensor) -> Tensor:
        h = self.gs_res(T.leaky_relu(self.gs_in(y)))
        if self.gs_attn is not None and self.gs_attn_after == 0:
            h = self.gs_attn(h)
        for i, up in enumerate(self.gs_ups):
            h = T.leaky_relu(up(h))
            if self.gs_attn is not None and i + 1 == self.gs_attn_after:
                h = self.gs_attn(h)
        return self.gs_out(h)

    def hyper_analysis(self, y: Tensor) -> Tensor:
        h = T.leaky_relu(self.ha_in(y))
        for conv in self.ha_downs:
            h = T.leaky_relu(conv(h))
        return self.ha_out(h)

    def hyper_synthesis(self, z: Tensor) -> Tensor:
        h = z
        for up in self.hs_ups:
            h = T.leaky_relu(up(h))
        return self.hs_out(h)

    # -- entropy parameter heads ---------------------------------------------

    def entropy_params_y(self, hyper_features: Tensor, y_ctx_input: Tensor) -> GmmParams:
        return self._entropy_params(hyper_features, y_ctx_input, self.ctx_y,
                                    self.head_y1, self.head_y2)

    def entropy_params_x(self, pixel_features: Tensor, x_ctx_input: Tensor) -> GmmParams:
        return self._entropy_params(pixel_features, x_ctx_input, self.ctx_x,
                                    self.head_x1, self.head_x2)

    def _entropy_params(self, features, ctx_input, ctx_conv, head1, head2) -> GmmParams:
        """Context features (zeros without a context model) joined to the
        transform features, then the two 1x1 head convs, split into the
        per-channel mixture parameters."""
        if ctx_conv is None:
            ctx = Tensor(np.zeros((features.shape[0], self.config.filters_n)
                                  + tuple(features.shape[2:])))
        elif ctx_input.shape[2:] != features.shape[2:]:
            raise ContractViolation(
                f"context/feature spatial mismatch: {ctx_input.shape} vs {features.shape}")
        else:
            ctx = ctx_conv(ctx_input)
        raw = head2(T.leaky_relu(head1(T.concat([features, ctx], axis=1))))
        b, _, h, w = raw.shape
        # head channels run over (weights, means, scales), then C, then K:
        # one transpose puts the three in front and C, K last
        p = T.transpose(T.reshape(raw, (b, 3, -1, self.config.mixtures_k, h, w)),
                        (1, 0, 4, 5, 2, 3))
        logits, means, raw_scales = (T.reshape(T.narrow(p, 0, i, 1), p.shape[1:])
                                     for i in range(3))
        return GmmParams(T.softmax(logits), means,
                         T.add(T.softplus(raw_scales), SCALE_FLOOR))


def init_weights(config: ModelConfig, seed: int) -> Model:
    return Model(config).init_random(seed)


# ---------------------------------------------------------------------------
# weight serialization ("NLW1")
# ---------------------------------------------------------------------------


def serialize_weights(model: Model) -> bytes:
    """Magic, embedded canonical config text, length-prefixed manifest of
    (key, shape, offset), then raw little-endian float64 data."""
    config_text = canonical_config_text(model.config).encode()
    manifest = bytearray()
    data = bytearray()
    state = model.state()
    manifest += struct.pack("<I", len(state))
    for name, arr in state.items():
        key = name.encode()
        manifest += struct.pack("<H", len(key)) + key
        manifest += struct.pack("<B", arr.ndim)
        manifest += struct.pack(f"<{arr.ndim}I", *arr.shape)
        manifest += struct.pack("<Q", len(data))
        data += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    out = bytearray()
    out += WEIGHTS_MAGIC
    out += struct.pack("<I", len(config_text)) + config_text
    out += manifest
    out += struct.pack("<Q", len(data)) + data
    return bytes(out)


def deserialize_weights(blob: bytes) -> Model:
    """Inverse of serialize_weights. Raises ContractViolation for a bad
    magic, for a blob shorter or longer than the sizes it declares, for an
    entry reaching past the data, for a key given twice, and for keys or
    shapes that do not fit the config (a non-UTF-8 key included);
    ConfigError for config text that is not UTF-8 or does not parse."""
    if blob[:4] != WEIGHTS_MAGIC:
        raise ContractViolation(f"bad weights magic {blob[:4]!r}")
    off = 4

    def take(size: int) -> bytes:
        nonlocal off
        if off + size > len(blob):
            raise ContractViolation("weights file truncated")
        off += size
        return blob[off - size:off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    (cfg_len,) = unpack("<I")
    try:
        config = parse_config_text(take(cfg_len).decode())
    except UnicodeDecodeError as e:
        raise ConfigError(f"weights config text is not UTF-8: {e}") from None
    (n_params,) = unpack("<I")
    entries = {}
    for _ in range(n_params):
        (key_len,) = unpack("<H")
        # a non-UTF-8 key keeps its bad bytes as \xNN escapes, so it matches
        # no parameter name and load_state rejects it
        key = take(key_len).decode(errors="backslashreplace")
        if key in entries:
            raise ContractViolation(f"weights key {key!r} is given twice")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        (data_off,) = unpack("<Q")
        entries[key] = shape, data_off
    (data_len,) = unpack("<Q")
    data = take(data_len)
    if off != len(blob):
        raise ContractViolation(f"{len(blob) - off} bytes follow the weights data")
    state = {}
    for key, (shape, data_off) in entries.items():
        count = math.prod(shape)
        if data_off + 8 * count > data_len:
            raise ContractViolation(
                f"weights entry {key!r} ({count} values at byte {data_off}) reaches "
                f"past the {data_len} data bytes")
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=data_off)
        state[key] = arr.reshape(shape).astype(np.float64)
    return Model(config).load_state(state)


def weight_hash(model: Model) -> bytes:
    return hashlib.sha256(serialize_weights(model)).digest()


def save_weights(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_weights(model))


def load_weights(path) -> Model:
    with open(path, "rb") as fh:
        return deserialize_weights(fh.read())
