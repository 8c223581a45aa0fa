"""Deterministic integer range coder and the bitstream container format.

The coder is a carry-propagating range coder with a 64-bit low accumulator,
32-bit range and byte-wise renormalization. It uses pure integer arithmetic
only, so identical (symbol, CDF) sequences produce identical bytes on any
platform. Encoder and decoder instances are stateful and single-threaded.

Container layout (all integers little-endian):

    magic   "NLIC"                      4 bytes
    version u16 (currently 1)           2
    width, height, padded_w, padded_h   4 x u32
    config_hash                         32 (sha256 of canonical config text)
    weight_hash                         32 (sha256 of serialized weights)
    len_z, len_y, len_x                 3 x u32
    segment z | segment y | segment x
    crc32 of everything above           u32 (poly 0xEDB88320, reflected)
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .entropy import CDF_PRECISION
from .errors import (
    ContractViolation,
    IntegrityError,
    TruncationError,
    VersionError,
)

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF

MAGIC = b"NLIC"
FORMAT_VERSION = 1
HEADER_SIZE = 4 + 2 + 4 * 4 + 32 + 32 + 3 * 4  # 98 bytes before segments


class RangeEncoder:
    """Encodes symbols against 2^16-total CDF tables into a byte stream."""

    def __init__(self):
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._cache_size = 1  # accounts for the leading dummy byte
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
        r = self._range >> CDF_PRECISION
        self._low += r * cum_lo
        self._range = r * (cum_hi - cum_lo)
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32

    def _shift_low(self) -> None:
        if self._low < 0xFF000000 or self._low > _MASK32:
            carry = self._low >> 32
            self._out.append((self._cache + carry) & 0xFF)
            for _ in range(self._cache_size - 1):
                self._out.append((0xFF + carry) & 0xFF)
            self._cache_size = 0
            self._cache = (self._low >> 24) & 0xFF
        self._cache_size += 1
        self._low = (self._low << 8) & _MASK32

    def finish(self) -> bytes:
        """Flush the state; returns the complete segment bytes."""
        if self._finished:
            raise ContractViolation("encoder already finished")
        for _ in range(5):
            self._shift_low()
        self._finished = True
        return bytes(self._out)


class RangeDecoder:
    """Decodes a stream produced with the identical CDF sequence."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._range = _MASK32
        self._code = 0
        self._next_byte()  # leading dummy byte
        for _ in range(4):
            self._code = (self._code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        if self._pos >= len(self._data):
            raise TruncationError(
                f"coded stream truncated at byte {self._pos}")
        b = self._data[self._pos]
        self._pos += 1
        return b

    def decode_symbol(self, cdf: np.ndarray) -> int:
        """Next symbol under cdf, the table the encoder used for it.

        cdf must be an ndarray: it is read with ndarray.item and searched
        with ndarray.searchsorted.
        """
        r = self._range >> CDF_PRECISION
        target = self._code // r
        total = cdf.item(-1)
        if target >= total:
            target = total - 1
        # binary search: greatest s with cdf[s] <= target
        symbol = int(cdf.searchsorted(target, side="right")) - 1
        cum_lo = cdf.item(symbol)
        cum_hi = cdf.item(symbol + 1)
        self._code -= r * cum_lo
        self._range = r * (cum_hi - cum_lo)
        while self._range < _TOP:
            self._code = (self._code << 8) | self._next_byte()
            self._range = (self._range << 8) & _MASK32
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


def write_container(header: ContainerHeader, seg_z: bytes, seg_y: bytes,
                    seg_x: bytes) -> bytes:
    if len(header.config_hash) != 32 or len(header.weight_hash) != 32:
        raise ContractViolation("hashes must be 32 bytes")
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<H", FORMAT_VERSION)
    buf += struct.pack("<4I", header.width, header.height,
                       header.padded_w, header.padded_h)
    buf += header.config_hash
    buf += header.weight_hash
    buf += struct.pack("<3I", len(seg_z), len(seg_y), len(seg_x))
    buf += seg_z
    buf += seg_y
    buf += seg_x
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    return bytes(buf)


def read_container(data: bytes):
    """Parse and validate a container; returns (header, seg_z, seg_y, seg_x)."""
    if len(data) < HEADER_SIZE + 4:
        raise TruncationError(f"container of {len(data)} bytes is too short")
    if data[:4] != MAGIC:
        raise IntegrityError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported container version {version}")
    # lengths before the CRC: a cut-off container must read as truncated,
    # not as corrupt
    len_z, len_y, len_x = struct.unpack_from("<3I", data, 86)
    declared = HEADER_SIZE + len_z + len_y + len_x + 4
    if declared != len(data):
        error = TruncationError if declared > len(data) else IntegrityError
        raise error(f"segment lengths declare {declared} bytes, container has {len(data)}")
    stored_crc = struct.unpack_from("<I", data, len(data) - 4)[0]
    actual_crc = zlib.crc32(data[:-4])
    if stored_crc != actual_crc:
        raise IntegrityError(
            f"CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}")
    width, height, padded_w, padded_h = struct.unpack_from("<4I", data, 6)
    config_hash = data[22:54]
    weight_hash = data[54:86]
    off = HEADER_SIZE
    seg_z = data[off:off + len_z]
    off += len_z
    seg_y = data[off:off + len_y]
    off += len_y
    seg_x = data[off:off + len_x]
    header = ContainerHeader(width=width, height=height, padded_w=padded_w,
                             padded_h=padded_h, config_hash=config_hash,
                             weight_hash=weight_hash)
    return header, seg_z, seg_y, seg_x
