"""The benchmark's coding path.

Composes nlic's public entropy and coder functions into the codec's coding
path: one NLIC v1 container per image with a z segment under the factorized
prior, then y and x segments coded one wavefront step at a time. Encoder and
decoder build every CDF table through ``step_tables`` on the same batches,
so both sides determinize identical parameter rows by construction.

Each call into a layer sits inside a span named after it; the spans are
no-ops unless a ``spans.Tracer`` is passed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from corpus import (CHANNELS, CONFIG, DOWN_Y, DOWN_Z, KERNEL_X, KERNEL_Y, Image, Mixture,
                    wavefront)
from nlic import coder, entropy
from nlic.entropy import LATENT_GRID, PIXEL_GRID
from nlic.errors import ContractViolation, HashMismatchError
from nlic.network import config_hash
from spans import NO_TRACE

CONFIG_HASH = config_hash(CONFIG)
# network.weight_hash needs a Model, which cannot be built yet (ROADMAP item 1).
WEIGHT_HASH = hashlib.sha256(b"perfbench stand-in weights").digest()


class State:
    """One side's per-run state, built before the first image: the z prior's
    per-channel pmf rows and CDF tables."""

    def __init__(self, side: str, tracer=NO_TRACE):
        with tracer.span(side), tracer.span("entropy.prior_pmf_table"):
            self.z_pmf = entropy.FactorizedPrior.init(CHANNELS).pmf_table(LATENT_GRID)
            self.z_cdfs = [entropy.build_cdf(p) for p in self.z_pmf]


def step_tables(tracer, mix: Mixture, ii, jj, grid):
    """CDF tables for one wavefront step, location-major then channel.

    Returns the determinized (w, m, s), the pmf rows and the CDF tables.
    """
    w, m, s = mix.weights[ii, jj], mix.means[ii, jj], mix.scales[ii, jj]
    with tracer.span("entropy.determinize"):
        w, m, s = entropy.determinize(w, m, s, grid)
    with tracer.span("entropy.gmm_pmf_table"):
        pmf = entropy.gmm_pmf_table(w, m, s, grid)
    rows = pmf.reshape(-1, grid.n_symbols)
    with tracer.span("entropy.build_cdf"):
        cdfs = [entropy.build_cdf(p) for p in rows]
    return (w, m, s), rows, cdfs


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def encode(image: Image, state: State, tracer=NO_TRACE, sink=None) -> bytes:
    """Container bytes for one image.

    When ``sink`` is a list, every wavefront step appends
    ``(segment, params, rows, cdfs, symbols)`` to it for bit accounting.
    """
    with tracer.span("encode"):
        with tracer.span("bench.segment"):
            enc = coder.RangeEncoder()
            columns = image.z.reshape(-1, CHANNELS).T.tolist()
            with tracer.span("coder.symbols"):
                for cdf, column in zip(state.z_cdfs, columns):
                    for sym in column:
                        enc.encode_symbol(sym, cdf)
            with tracer.span("coder.container"):
                seg_z = enc.finish()
        seg_y = _encode_wavefront(tracer, "y", image.y, image.y_params, KERNEL_Y,
                                  LATENT_GRID, sink)
        seg_x = _encode_wavefront(tracer, "x", image.x, image.x_params, KERNEL_X,
                                  PIXEL_GRID, sink)
        header = coder.ContainerHeader(image.width, image.height, image.width,
                                       image.height, CONFIG_HASH, WEIGHT_HASH)
        with tracer.span("coder.container"):
            return coder.write_container(header, seg_z, seg_y, seg_x)


def _encode_wavefront(tracer, segment, symbols, mix, kernel, grid, sink) -> bytes:
    with tracer.span("bench.segment"):
        enc = coder.RangeEncoder()
        for ii, jj in wavefront(*symbols.shape[:2], kernel):
            params, rows, cdfs = step_tables(tracer, mix, ii, jj, grid)
            batch = symbols[ii, jj].ravel().tolist()
            with tracer.span("coder.symbols"):
                for sym, cdf in zip(batch, cdfs):
                    enc.encode_symbol(sym, cdf)
            if sink is not None:
                sink.append((segment, params, rows, cdfs, batch))
        with tracer.span("coder.container"):
            return enc.finish()


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


def decode(blob: bytes, y_params: Mixture, x_params: Mixture, state: State,
           tracer=NO_TRACE):
    """Symbols (z, y, x) decoded from container bytes.

    ``y_params`` and ``x_params`` stand in for what the network would derive
    from z and the decoded context.
    """
    with tracer.span("decode"):
        with tracer.span("coder.container"):
            header, seg_z, seg_y, seg_x = coder.read_container(blob)
        if header.config_hash != CONFIG_HASH or header.weight_hash != WEIGHT_HASH:
            raise HashMismatchError("container was coded under another model")
        height, width = header.height, header.width
        if x_params.weights.shape[:2] != (height, width):
            raise ContractViolation(f"parameters do not fit a {width}x{height} image")
        with tracer.span("bench.segment"):
            with tracer.span("coder.container"):
                dec = coder.RangeDecoder(seg_z)
            count = (height // DOWN_Z) * (width // DOWN_Z)
            with tracer.span("coder.symbols"):
                columns = [[dec.decode_symbol(cdf) for _ in range(count)]
                           for cdf in state.z_cdfs]
            z = np.array(columns, dtype=np.int64).T.reshape(
                height // DOWN_Z, width // DOWN_Z, CHANNELS)
        y = _decode_wavefront(tracer, seg_y, y_params,
                              (height // DOWN_Y, width // DOWN_Y, CHANNELS),
                              KERNEL_Y, LATENT_GRID, np.int64)
        x = _decode_wavefront(tracer, seg_x, x_params, (height, width, 3),
                              KERNEL_X, PIXEL_GRID, np.uint8)
        return z, y, x


def _decode_wavefront(tracer, segment: bytes, mix, shape, kernel, grid, dtype):
    with tracer.span("bench.segment"):
        with tracer.span("coder.container"):
            dec = coder.RangeDecoder(segment)
        out = np.empty(shape, dtype=dtype)
        for ii, jj in wavefront(shape[0], shape[1], kernel):
            _, _, cdfs = step_tables(tracer, mix, ii, jj, grid)
            with tracer.span("coder.symbols"):
                batch = [dec.decode_symbol(cdf) for cdf in cdfs]
            out[ii, jj] = np.array(batch).reshape(ii.size, shape[2])
        return out
