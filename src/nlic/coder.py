"""Deterministic integer range coder and the bitstream container format.

The coder is a range coder with a 32-bit low, a 32-bit range and byte-wise
renormalization. It uses pure integer arithmetic only, so identical
(symbol, CDF) sequences produce identical bytes on any platform. Encoder and
decoder instances are stateful and single-threaded.

The encoder keeps its whole output in memory, so a carry out of the low goes
straight into the bytes already written: the trailing 0xFF bytes become 0x00
and the byte before them grows by one. encode_symbol takes table entries in
[0, 2^16] only, so every coded interval nests inside [0, 2^32 - 1), the
output read as one number stays below 2^(8 * its length) and the walk stops
at out[0] at the latest. No byte is dropped; the decoder starts from the
first 4 bytes.

Container layout, version 4. A varint is canonical unsigned LEB128 below
2^32: 7 bits per byte, low group first, the high bit set on every byte but
the last, at most 5 bytes and no trailing zero group.

    magic   "NLIC"                          4 bytes
    version u8 (currently 4)                1
    width, height                           2 varints
    padded_w - width, padded_h - height     2 varints
    config_hash                             32 (sha256 of canonical config text)
    weight_hash                             32 (sha256 of serialized weights)
    len_z, len_y, len_x                     3 varints
    segment z | segment y | segment x
    crc32 of everything above               u32 little-endian (poly 0xEDB88320, reflected)

Header and CRC take 80 bytes at the least, one byte for each of the 7
varints: a 16x16 image whose three segments are each under 128 bytes takes
exactly that. A varint takes a second byte from 128 and a third from 2^14,
so each segment of 128 to 16,383 bytes adds one byte.
Version 4 has the layout of version 3; each component's tails beyond
mu ± 8.5 sd fold into its window (entropy.gmm_pmf_table), so the same
symbols can code to other bytes. Version 3 has the layout of version 2; its
CDF tables changed from floor-and-repair to add-one quantization
(entropy.build_cdf). Versions 1 (a fixed 98-byte header with a u16
version), 2 and 3 are not read.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .entropy import CDF_PRECISION, CDF_TOTAL
from .errors import (
    ContractViolation,
    IntegrityError,
    TruncationError,
    VersionError,
)

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF

MAGIC = b"NLIC"
FORMAT_VERSION = 4
_VARINT_MAX_BYTES = 5  # 5 x 7 bits cover 2^32 - 1


class RangeEncoder:
    """Encodes symbols against 2^16-total CDF tables into a byte stream."""

    def __init__(self):
        self._low = 0
        self._range = _MASK32
        self._out = bytearray()
        self._finished = False

    def encode_symbol(self, symbol: int, cdf: np.ndarray) -> None:
        """cdf is the cumulative table from build_cdf; symbol indexes its bins.

        cdf must be an ndarray: its entries are read with ndarray.item.
        """
        if self._finished:
            raise ContractViolation("encoder already finished")
        if symbol < 0 or symbol >= len(cdf) - 1:
            raise ContractViolation(
                f"symbol {symbol} outside CDF support of {len(cdf) - 1}")
        cum_lo = cdf.item(symbol)
        cum_hi = cdf.item(symbol + 1)
        if cum_hi <= cum_lo:
            raise ContractViolation(f"CDF not strictly increasing at symbol {symbol}")
        if cum_lo < 0 or cum_hi > CDF_TOTAL:  # keeps the interval nested
            raise ContractViolation(f"CDF leaves [0, 2^16] at symbol {symbol}")
        r = self._range >> CDF_PRECISION
        low = self._low + r * cum_lo
        out = self._out
        if low > _MASK32:  # a carry, walked back as the module docstring says
            low &= _MASK32
            i = len(out) - 1
            while out[i] == 0xFF:
                out[i] = 0
                i -= 1
            out[i] += 1
        width = r * (cum_hi - cum_lo)
        while width < _TOP:
            out.append(low >> 24)
            low = (low << 8) & _MASK32
            width <<= 8
        self._low, self._range = low, width

    def finish(self) -> bytes:
        """Flush the state; returns the complete segment bytes."""
        if self._finished:
            raise ContractViolation("encoder already finished")
        self._finished = True
        return bytes(self._out + self._low.to_bytes(4, "big"))


class RangeDecoder:
    """Decodes a stream produced with the identical CDF sequence."""

    def __init__(self, data: bytes):
        if len(data) < 4:
            raise TruncationError(f"coded stream truncated at byte {len(data)}")
        self._data = data
        self._pos = 4
        self._range = _MASK32
        self._code = int.from_bytes(data[:4], "big")

    def decode_symbol(self, cdf: np.ndarray) -> int:
        """Next symbol under cdf, the table the encoder used for it.

        cdf must be a 1-D integer ndarray in native byte order, of any
        stride: it is read through one memoryview, searched with
        bisect.bisect_right. Raises IntegrityError where the code falls
        below r * cdf[0] or at or above r * cdf[-1]: an encoder's code never
        does, so the bytes are not a stream coded under this table sequence.
        """
        table = memoryview(cdf)
        r = self._range >> CDF_PRECISION
        code = self._code
        # greatest s with cdf[s] <= code // r
        symbol = bisect_right(table, code // r) - 1
        if not 0 <= symbol < len(table) - 1:
            raise IntegrityError(
                f"code outside the coded interval before byte {self._pos}")
        cum_lo = table[symbol]
        code -= r * cum_lo
        width = r * (table[symbol + 1] - cum_lo)
        data, pos = self._data, self._pos
        while width < _TOP:
            if pos >= len(data):
                raise TruncationError(f"coded stream truncated at byte {pos}")
            code = (code << 8) | data[pos]
            pos += 1
            width <<= 8
        self._pos = pos
        self._code = code
        self._range = width
        return symbol


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------


@dataclass
class ContainerHeader:
    width: int
    height: int
    padded_w: int
    padded_h: int
    config_hash: bytes  # 32 bytes
    weight_hash: bytes  # 32 bytes


def _varint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _read_varints(data: bytes, pos: int, count: int) -> tuple[list[int], int]:
    """The count varints from pos on, and the position after them."""
    values = []
    for _ in range(count):
        value = 0
        for i in range(_VARINT_MAX_BYTES):
            if pos + i >= len(data):
                raise TruncationError(f"container header cut inside the varint at byte {pos}")
            b = data[pos + i]
            value |= (b & 0x7F) << (7 * i)
            if b < 0x80:
                break
        else:
            raise IntegrityError(
                f"varint at byte {pos} is longer than {_VARINT_MAX_BYTES} bytes")
        if b == 0 and i > 0:
            raise IntegrityError(f"non-canonical varint at byte {pos}")
        if value > _MASK32:
            raise IntegrityError(f"varint at byte {pos} exceeds 2^32 - 1")
        values.append(value)
        pos += i + 1
    return values, pos


def seal(body) -> bytes:
    """body followed by its crc32 as a little-endian u32: the trailer of
    both the container and the weights file."""
    return b"".join((body, struct.pack("<I", zlib.crc32(body))))


def check_seal(data, declared: int, what: str) -> None:
    """Raises TruncationError if data is shorter than declared, else
    IntegrityError if it is longer or its trailer is not the crc32 of the
    bytes before it. Length goes first: a cut-off file reads as truncated."""
    if declared != len(data):
        error = TruncationError if declared > len(data) else IntegrityError
        raise error(f"{what} declares {declared} bytes, got {len(data)}")
    (stored,) = struct.unpack_from("<I", data, len(data) - 4)
    actual = zlib.crc32(memoryview(data)[:-4])
    if stored != actual:
        raise IntegrityError(
            f"{what} CRC mismatch: stored {stored:#010x}, computed {actual:#010x}")


def write_container(header: ContainerHeader, seg_z: bytes, seg_y: bytes,
                    seg_x: bytes) -> bytes:
    if len(header.config_hash) != 32 or len(header.weight_hash) != 32:
        raise ContractViolation("hashes must be 32 bytes")
    sizes = (header.width, header.height, header.padded_w, header.padded_h)
    lengths = (len(seg_z), len(seg_y), len(seg_x))
    if not all(0 <= v <= _MASK32 for v in sizes + lengths):
        raise ContractViolation(
            f"sizes {sizes} and segment lengths {lengths} must be in [0, 2^32 - 1]")
    if header.padded_w < header.width or header.padded_h < header.height:
        raise ContractViolation(
            f"padded size {header.padded_w}x{header.padded_h} is smaller than "
            f"the image, {header.width}x{header.height}")
    buf = bytearray(MAGIC)
    buf.append(FORMAT_VERSION)
    for v in (header.width, header.height, header.padded_w - header.width,
              header.padded_h - header.height):
        buf += _varint(v)
    buf += header.config_hash
    buf += header.weight_hash
    for v in lengths:
        buf += _varint(v)
    buf += seg_z
    buf += seg_y
    buf += seg_x
    return seal(buf)


def read_container(data: bytes):
    """Parse and validate a container; returns (header, seg_z, seg_y, seg_x)."""
    off = len(MAGIC) + 1
    if len(data) < off:
        raise TruncationError(f"container of {len(data)} bytes is too short")
    if data[:len(MAGIC)] != MAGIC:
        raise IntegrityError(f"bad magic {data[:len(MAGIC)]!r}, expected {MAGIC!r}")
    if data[len(MAGIC)] != FORMAT_VERSION:
        raise VersionError(f"unsupported container version {data[len(MAGIC)]}")
    (width, height, extra_w, extra_h), off = _read_varints(data, off, 4)
    if width + extra_w > _MASK32 or height + extra_h > _MASK32:
        raise IntegrityError("padded size exceeds 2^32 - 1")
    if off + 64 > len(data):
        raise TruncationError(f"container of {len(data)} bytes cut inside the hashes")
    config_hash, weight_hash = data[off:off + 32], data[off + 32:off + 64]
    lengths, off = _read_varints(data, off + 64, 3)
    check_seal(data, off + sum(lengths) + 4, "container")
    segments = []
    for n in lengths:
        segments.append(data[off:off + n])
        off += n
    header = ContainerHeader(width, height, width + extra_w, height + extra_h,
                             config_hash, weight_hash)
    return (header, *segments)
