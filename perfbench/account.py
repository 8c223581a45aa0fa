"""Bit accounting and work counters, computed outside the timed region from
the arrays the benchmark already holds (ROADMAP aim 4's three-way bit report).

Per segment, bits are counted three ways: ideal bits ``-log2 max(p, PMF_EPS)``
under the float pmf rows the tables were built from, bits under the
quantized CDF (``entropy.cdf_bits``), and the segment bytes actually written.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from corpus import CHANNELS, Image
from nlic import coder, entropy

SEGMENTS = ("z", "y", "x")


def empty_bins(rows: np.ndarray) -> int:
    """Bins that floor-quantize to zero, exactly as ``build_cdf`` sees them
    before its repair loop."""
    rows = np.atleast_2d(rows)
    cum = np.zeros((rows.shape[0], rows.shape[1] + 1))
    cum[:, 1:] = np.cumsum(rows, axis=1)
    cum = np.floor(cum * entropy.CDF_TOTAL)
    cum[:, 0] = 0
    cum[:, -1] = entropy.CDF_TOTAL
    return int(np.count_nonzero(np.diff(cum, axis=1) == 0))


def _ideal_bits(p: np.ndarray) -> float:
    return float(-np.log2(np.maximum(p, entropy.PMF_EPS)).sum())


def account(image: Image, blob: bytes, state, sink: list) -> Counter:
    """Bits and work counts of one encoded image.

    ``sink`` holds the wavefront steps ``codec.encode`` recorded for it. Table
    counts cover the per-image y and x tables; the z tables are per run.
    """
    out = Counter()
    z = image.z.reshape(-1, CHANNELS)
    chan = np.broadcast_to(np.arange(CHANNELS), z.shape)
    out["z.ideal"] = _ideal_bits(state.z_pmf[chan, z])
    out["z.cdf"] = sum(entropy.cdf_bits(state.z_cdfs[c], s)
                       for c, s in zip(chan.ravel().tolist(), z.ravel().tolist()))
    distinct = {}
    for segment, params, rows, cdfs, symbols in sink:
        sym = np.asarray(symbols)
        out[f"{segment}.ideal"] += _ideal_bits(rows[np.arange(sym.size), sym])
        out[f"{segment}.cdf"] += sum(entropy.cdf_bits(c, s) for c, s in zip(cdfs, symbols))
        out["tables"] += len(cdfs)
        out["bins"] += rows.size
        out["empty_bins"] += empty_bins(rows)
        out["steps"] += 1
        key = np.concatenate(params, axis=-1).reshape(len(cdfs), -1)
        distinct.setdefault(segment, set()).update(r.tobytes() for r in key)
    out["distinct_tables"] = sum(len(v) for v in distinct.values())
    _, seg_z, seg_y, seg_x = coder.read_container(blob)
    for segment, seg in zip(SEGMENTS, (seg_z, seg_y, seg_x)):
        out[f"{segment}.actual"] = 8.0 * len(seg)
    out["symbols"] = image.z.size + image.y.size + image.x.size
    out["bytes"] = len(blob)
    out["pixels"] = image.height * image.width
    return out


def layer_metrics(totals: Counter, images: int) -> dict[str, float]:
    """Per-image counters and bits per pixel from totals over a corpus."""
    px = totals["pixels"]
    m = {
        "entropy.tables": totals["tables"] / images,
        "coder.symbols": totals["symbols"] / images,
        "coder.bytes": totals["bytes"] / images,
        "wavefront.steps": totals["steps"] / images,
        "entropy.empty_bin_frac": totals["empty_bins"] / totals["bins"],
        "entropy.distinct_table_frac": totals["distinct_tables"] / totals["tables"],
    }
    for segment in SEGMENTS:
        for way in ("ideal", "cdf", "actual"):
            m[f"bits.{segment}.{way}_bpp"] = totals[f"{segment}.{way}"] / px
    m["entropy.cdf_overhead_bpp"] = sum(
        totals[f"{s}.cdf"] - totals[f"{s}.ideal"] for s in SEGMENTS) / px
    m["coder.overhead_bpp"] = sum(
        totals[f"{s}.actual"] - totals[f"{s}.cdf"] for s in SEGMENTS) / px
    return m
