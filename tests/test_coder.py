"""Range coder round-trip fuzzing, codelength bounds, container format."""

import hashlib
import math
import re
import struct
import zlib
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlic import entropy as E
from nlic.coder import (
    FORMAT_VERSION,
    MAGIC,
    ContainerHeader,
    RangeDecoder,
    RangeEncoder,
    read_container,
    write_container,
)
from nlic.errors import ContractViolation, IntegrityError, TruncationError, VersionError


def random_cdf(rng, n_symbols):
    """Random strictly increasing CDF over n_symbols with total 2^16."""
    shape = rng.choice(["uniform", "peaky", "geometric", "dirichlet"])
    if shape == "uniform":
        pmf = np.full(n_symbols, 1.0 / n_symbols)
    elif shape == "peaky":
        pmf = np.full(n_symbols, 1e-9)
        pmf[rng.integers(n_symbols)] = 1.0
        pmf /= pmf.sum()
    elif shape == "geometric":
        pmf = 0.5 ** np.arange(1, n_symbols + 1)
        pmf /= pmf.sum()
    else:
        pmf = rng.dirichlet(np.ones(n_symbols) * rng.uniform(0.1, 5.0))
    return E.build_cdf(pmf)


class TestRangeCoderRoundTrip:
    def test_empty_stream_flush_bound(self):
        enc = RangeEncoder()
        data = enc.finish()
        assert len(data) <= 8

    def test_round_trip_small(self, rng):
        cdf = random_cdf(rng, 10)
        symbols = rng.integers(0, 10, size=1000)
        enc = RangeEncoder()
        for s in symbols:
            enc.encode_symbol(int(s), cdf)
        data = enc.finish()
        dec = RangeDecoder(data)
        out = [dec.decode_symbol(cdf) for _ in symbols]
        np.testing.assert_array_equal(out, symbols)

    def test_round_trip_fuzz_many_cdf_shapes(self):
        # >=100 random CDF shapes, >=10^6 symbols total, exact round trip
        rng = np.random.default_rng(42)
        total_symbols = 0
        for trial in range(100):
            n = int(rng.integers(2, 300))
            n_cdfs = int(rng.integers(1, 6))
            cdfs = [random_cdf(rng, n) for _ in range(n_cdfs)]
            count = 10200
            picks = rng.integers(0, n_cdfs, size=count)
            symbols = rng.integers(0, n, size=count)
            enc = RangeEncoder()
            for s, c in zip(symbols, picks):
                enc.encode_symbol(int(s), cdfs[c])
            data = enc.finish()
            dec = RangeDecoder(data)
            for s, c in zip(symbols, picks):
                assert dec.decode_symbol(cdfs[c]) == s
            total_symbols += count
        assert total_symbols >= 10 ** 6

    @staticmethod
    def pinned_stream():
        """(cdfs, picks, symbols, stream): 20,000 fixed-seed symbols, each
        coded under cdfs[pick], one of 40 CDFs."""
        rng = np.random.default_rng(20221018)
        cdfs = [random_cdf(rng, int(rng.integers(2, 300))) for _ in range(40)]
        picks = rng.integers(0, len(cdfs), size=20000)
        symbols = [int(rng.integers(0, cdfs[c].size - 1)) for c in picks]
        enc = RangeEncoder()
        for s, c in zip(symbols, picks):
            enc.encode_symbol(s, cdfs[c])
        return cdfs, picks, symbols, enc.finish()

    def test_bytes_pinned(self):
        # sha256 of the pinned stream, with the leading zero byte the encoder
        # no longer writes put back. The tables come from build_cdf, so the
        # digest moved when its add-one rule replaced floor-and-repair; the
        # encoder and decoder did not change
        cdfs, picks, symbols, data = self.pinned_stream()
        assert hashlib.sha256(b"\x00" + data).hexdigest() == (
            "fbd8f7d95f3604e5e52dad86bcdd8b2d7a6707ce2b5790f58c5cf89f7b6da9be")
        dec = RangeDecoder(data)
        assert [dec.decode_symbol(cdfs[c]) for c in picks] == symbols

    @pytest.mark.parametrize("layout", ["strided", "int64", "read-only"])
    def test_decode_reads_any_integer_table(self, layout):
        # the decoder reads the table through a memoryview, which follows
        # the array's stride and item size
        cdfs, picks, symbols, data = self.pinned_stream()
        if layout == "strided":
            cdfs = [np.repeat(cdf, 2)[::2] for cdf in cdfs]
            assert not cdfs[0].flags.c_contiguous
        elif layout == "int64":
            cdfs = [cdf.astype(np.int64) for cdf in cdfs]
        else:
            cdfs = [cdf.view() for cdf in cdfs]
            for cdf in cdfs:
                cdf.flags.writeable = False
        dec = RangeDecoder(data)
        assert [dec.decode_symbol(cdfs[c]) for c in picks] == symbols

    def test_symbol_out_of_support(self, rng):
        cdf = random_cdf(rng, 4)
        enc = RangeEncoder()
        with pytest.raises(ContractViolation):
            enc.encode_symbol(4, cdf)

    @pytest.mark.parametrize("table, symbol, match", [
        ([0, 5, 5, 65536], 1, "strictly increasing"),
        ([0, 70000, 140000], 1, "leaves"),
        ([-5, 100, 65536], 0, "leaves"),
    ], ids=["flat", "over-total", "negative"])
    def test_bad_table_rejected(self, table, symbol, match):
        # a table outside [0, 2^16] breaks the nesting of the coded intervals:
        # the bytes decode to other symbols, or a carry walks past the first byte
        enc = RangeEncoder()
        with pytest.raises(ContractViolation, match=match):
            enc.encode_symbol(symbol, np.array(table, dtype=np.int64))

    def test_truncated_stream_raises(self, rng):
        cdf = random_cdf(rng, 64)
        enc = RangeEncoder()
        symbols = rng.integers(0, 64, size=5000)
        for s in symbols:
            enc.encode_symbol(int(s), cdf)
        data = enc.finish()
        dec = RangeDecoder(data[: len(data) // 2])
        with pytest.raises(TruncationError):
            for _ in symbols:
                dec.decode_symbol(cdf)

    @pytest.mark.parametrize("size", range(4))
    def test_stream_shorter_than_code_raises(self, size):
        with pytest.raises(TruncationError, match=f"truncated at byte {size}$"):
            RangeDecoder(bytes(size))

    @pytest.mark.parametrize("cut", [7, 8])
    def test_cut_during_renormalization_names_byte(self, cut):
        # under 256 equal bins a symbol shifts in exactly one byte, and under
        # a bin of one count in 2^16 exactly two; the last symbol reads bytes
        # 7 and 8, so a cut before either is named as that byte
        flat = np.arange(0, E.CDF_TOTAL + 1, 256)
        narrow = np.array([0, 1, E.CDF_TOTAL])
        coded = [(7, flat), (200, flat), (255, flat), (0, narrow)]
        enc = RangeEncoder()
        for symbol, cdf in coded:
            enc.encode_symbol(symbol, cdf)
        data = enc.finish()
        assert len(data) == 4 + 3 + 2
        dec = RangeDecoder(data[:cut])
        assert [dec.decode_symbol(cdf) for _, cdf in coded[:3]] == [7, 200, 255]
        with pytest.raises(TruncationError, match=f"truncated at byte {cut}$"):
            dec.decode_symbol(narrow)

    def test_bytes_no_encoder_wrote_raise(self):
        # the code 2^32 - 1 lies above the r * total an encoder's code stays
        # below, so the first symbol raises. Clamping the target instead let
        # the code outgrow the range and grow by 8 bits per renormalisation.
        cdf = E.build_cdf(np.array([0.5, 0.25, 0.125, 0.0625, 0.0625]))
        dec = RangeDecoder(b"\xff" * 4000)
        with pytest.raises(IntegrityError, match="outside"):
            dec.decode_symbol(cdf)

    def test_code_below_table_raises(self):
        # the target 0 lies below cdf[0] = 100, so no bin holds it; taken
        # as symbol -1, its negative width read on to the end of the stream
        dec = RangeDecoder(bytes([0, 0, 0, 0, 0xFF, 0xFF, 0xFF]))
        with pytest.raises(IntegrityError,
                           match="^code outside the coded interval before byte 4$") as info:
            dec.decode_symbol(np.array([100, 30000, E.CDF_TOTAL]))
        assert not isinstance(info.value, TruncationError)


class OracleEncoder:
    """Reference encoder: the coder's interval arithmetic with an unbounded
    low and no carry code. Its bytes are low's big-endian digits, one per
    renormalization and four for the flush."""

    def __init__(self):
        self.low, self.width, self.count = 0, (1 << 32) - 1, 0

    def encode(self, s, cdf):
        r = self.width >> E.CDF_PRECISION
        self.low += r * int(cdf[s])
        self.width = r * (int(cdf[s + 1]) - int(cdf[s]))
        while self.width < 1 << 24:
            self.low, self.width, self.count = self.low << 8, self.width << 8, self.count + 1

    def bytes(self):
        return self.low.to_bytes(self.count + 4, "big")


def oracle_encode(symbols, cdfs):
    oracle = OracleEncoder()
    for s, cdf in zip(symbols, cdfs):
        oracle.encode(s, cdf)
    return oracle.bytes()


def encode(symbols, cdfs):
    enc = RangeEncoder()
    for s, cdf in zip(symbols, cdfs):
        enc.encode_symbol(s, cdf)
    return enc.finish()


def carry_stream():
    """(cdf, symbols): 12 symbols of a 4,096-bin uniform table, each the bin
    that holds the boundary B = 2^31 (shifted left with each renormalization),
    so low creeps up to just below B and its bytes fill with 0xFF; then the
    bin just above B, whose low passes B and carries through all of them."""
    cdf = E.build_cdf(np.full(4096, 1 / 4096))
    oracle = OracleEncoder()
    symbols = []
    for step in range(13):
        r = oracle.width >> E.CDF_PRECISION
        s = bisect_right(cdf, ((1 << (31 + 8 * oracle.count)) - oracle.low) // r) - 1
        symbols.append(s + (step == 12))
        oracle.encode(symbols[-1], cdf)
    return cdf, symbols


@st.composite
def coded_streams(draw):
    """(symbols, cdfs): up to 4 build_cdf tables of 2 to 300 bins, from flat
    to sharply peaked, and a stream of symbols, about half of them at a peak."""
    tables, peaks = [], []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 300))
        peak = draw(st.integers(0, n - 1))
        pmf = np.exp(-draw(st.floats(0, 20)) * np.abs(np.arange(n) - peak))
        tables.append(E.build_cdf(pmf / pmf.sum()))
        peaks.append(peak)
    picks = draw(st.lists(st.tuples(st.integers(0, len(tables) - 1),
                                    st.none() | st.integers(0, 299)),
                          max_size=400))
    symbols = [peaks[t] if s is None else s % (tables[t].size - 1) for t, s in picks]
    return symbols, [tables[t] for t, _ in picks]


class TestCarry:
    @settings(max_examples=300, deadline=None, database=None)
    @given(coded_streams())
    def test_bytes_match_oracle(self, stream):
        symbols, cdfs = stream
        data = encode(symbols, cdfs)
        assert data == oracle_encode(symbols, cdfs)
        dec = RangeDecoder(data)
        assert [dec.decode_symbol(cdf) for cdf in cdfs] == symbols

    def test_carry_through_ff_run(self):
        cdf, symbols = carry_stream()
        cdfs = [cdf] * len(symbols)
        # the bytes before the last symbol, without the 4 flush bytes, end
        # in a run of 0xFF bytes
        before = oracle_encode(symbols[:-1], cdfs)[:-4]
        run = len(before) - len(before.rstrip(b"\xff"))
        assert run >= 3
        data = encode(symbols, cdfs)
        assert data == oracle_encode(symbols, cdfs)
        # the last symbol carries through the whole run
        head = len(before) - run - 1
        assert data[:head] == before[:head]
        assert data[head] == before[head] + 1
        assert data[head + 1:len(before)] == bytes(run)
        dec = RangeDecoder(data)
        assert [dec.decode_symbol(cdf) for _ in symbols] == symbols


class TestCodelengthBounds:
    def test_half_probability_symbols(self, rng):
        # 10^4 symbols at p=1/2 each: ~1250 bytes
        cdf = E.build_cdf(np.array([0.5, 0.5]))
        enc = RangeEncoder()
        symbols = rng.integers(0, 2, size=10 ** 4)
        for s in symbols:
            enc.encode_symbol(int(s), cdf)
        n = len(enc.finish())
        assert abs(n - 1250) <= 40

    def test_efficiency_bound_fuzz(self):
        # actual bits - sum(-log2 p_hat) <= 32 + 0.01 * n over >=10^4 symbols
        rng = np.random.default_rng(9)
        for trial in range(5):
            n_sym = int(rng.integers(4, 300))
            cdf = random_cdf(rng, n_sym)
            pmf = np.diff(cdf.astype(np.int64)) / E.CDF_TOTAL
            count = 12000
            symbols = rng.choice(n_sym, p=pmf / pmf.sum(), size=count)
            enc = RangeEncoder()
            ideal = 0.0
            for s in symbols:
                enc.encode_symbol(int(s), cdf)
                ideal += -math.log2(pmf[s])
            actual_bits = 8 * len(enc.finish())
            assert actual_bits - ideal <= 32 + 0.01 * count

    def test_decode_binary_search_matches_linear_scan(self, rng):
        cdf = random_cdf(rng, 50)
        symbols = rng.integers(0, 50, size=300)
        enc = RangeEncoder()
        for s in symbols:
            enc.encode_symbol(int(s), cdf)
        data = enc.finish()

        # independent linear-scan decoder over the same stream
        dec = RangeDecoder(data)
        for expected in symbols:
            r = dec._range >> E.CDF_PRECISION
            target = min(dec._code // r, E.CDF_TOTAL - 1)
            lin = 0
            while not (cdf[lin] <= target < cdf[lin + 1]):
                lin += 1
            got = dec.decode_symbol(cdf)
            assert got == lin == expected


class TestContainer:
    def _header(self):
        return ContainerHeader(width=16, height=16, padded_w=16, padded_h=16,
                               config_hash=bytes(range(32)),
                               weight_hash=bytes(range(32, 64)))

    def test_round_trip(self):
        hdr = self._header()
        blob = write_container(hdr, b"zz", b"yyy", b"xxxx")
        parsed, z, y, x = read_container(blob)
        assert parsed == hdr
        assert (z, y, x) == (b"zz", b"yyy", b"xxxx")

    def test_header_size_frozen(self):
        # the v4 layout, that of v3 and v2, byte for byte: 7 one-byte
        # varints make a 16x16 container with empty segments 80 bytes,
        # header and CRC
        blob = write_container(self._header(), b"", b"", b"")
        body = (b"NLIC" + bytes([4, 16, 16, 0, 0]) + bytes(range(64))
                + bytes([0, 0, 0]))
        assert blob == body + struct.pack("<I", zlib.crc32(body))
        assert len(blob) == 80

    def test_bytes_pinned(self):
        # multi-byte varints in the sizes and padding; the digest moved with
        # the version byte, from 2 to 3 and from 3 to 4: the v3 blob, digest
        # c26ce37d018d66b4a4964ca8b26cc8c3e7edac3b9514dd7f7ea5bcc540e5214f,
        # with byte 4 set to 4 and its CRC recomputed gives this one
        hdr = ContainerHeader(width=300, height=17, padded_w=304, padded_h=32,
                              config_hash=bytes(range(32)),
                              weight_hash=bytes(range(32, 64)))
        blob = write_container(hdr, b"zz", b"y" * 200, b"xxxx")
        assert blob[5:10] == bytes([0xAC, 0x02, 17, 4, 15])
        assert hashlib.sha256(blob).hexdigest() == (
            "d86b8f26c6a70689aa2f4a475a653636125ee411de42f9041fc3c670b536eaa2")
        assert read_container(blob) == (hdr, b"zz", b"y" * 200, b"xxxx")

    @staticmethod
    def _raw(sizes: bytes, lengths: bytes = bytes(3), version: int = FORMAT_VERSION):
        """A container with the given varint bytes and a valid CRC."""
        body = MAGIC + bytes([version]) + sizes + bytes(64) + lengths
        return body + struct.pack("<I", zlib.crc32(body))

    def test_largest_size_accepted(self):
        blob = self._raw(b"\xff\xff\xff\xff\x0f" + bytes([1, 0, 0]))
        hdr = read_container(blob)[0]
        assert (hdr.width, hdr.height, hdr.padded_w, hdr.padded_h) == (2 ** 32 - 1, 1, 2 ** 32 - 1, 1)
        assert write_container(hdr, b"", b"", b"") == blob

    @pytest.mark.parametrize("sizes, match", [
        (b"\x80\x80\x80\x80\x80\x01" + bytes([1, 0, 0]), "longer than 5"),
        (b"\xff\xff\xff\xff\x10" + bytes([1, 0, 0]), "exceeds"),
        (b"\x90\x00" + bytes([1, 0, 0]), "non-canonical"),
        (bytes([16, 16, 0]) + b"\x80\x00", "non-canonical"),
        (bytes([1]) + b"\xff\xff\xff\xff\x0f" + bytes([0, 1]), "padded"),
    ], ids=["over-long", "above-2^32-1", "non-canonical", "non-canonical-zero",
            "padded-above-2^32-1"])
    def test_bad_size_field(self, sizes, match):
        with pytest.raises(IntegrityError, match=match) as info:
            read_container(self._raw(sizes))
        assert not isinstance(info.value, TruncationError)

    def test_bad_segment_length_varint(self):
        with pytest.raises(IntegrityError, match="exceeds"):
            read_container(self._raw(bytes([16, 16, 0, 0]), b"\x00\xff\xff\xff\xff\x7f\x00"))

    @pytest.mark.parametrize("cut, match", [(5, "varint"), (6, "varint"), (20, "hashes"),
                                            (76, "varint")])
    def test_cut_inside_header(self, cut, match):
        # width 300 is 0xAC 0x02, at bytes 5 and 6; len_y 200 is 0xC8 0x01,
        # at bytes 75 and 76
        hdr = ContainerHeader(width=300, height=17, padded_w=300, padded_h=17,
                              config_hash=bytes(32), weight_hash=bytes(32))
        blob = write_container(hdr, b"", b"y" * 200, b"")
        assert blob[5:7] == bytes([0xAC, 0x02]) and blob[75:77] == bytes([0xC8, 0x01])
        with pytest.raises(TruncationError, match=match):
            read_container(blob[:cut])

    def test_v1_container_rejected(self):
        body = struct.pack("<4sH4I32s32s3I", b"NLIC", 1, 16, 16, 16, 16,
                           bytes(range(32)), bytes(range(32, 64)), 0, 0, 0)
        with pytest.raises(VersionError, match="version 1"):
            read_container(body + struct.pack("<I", zlib.crc32(body)))

    def test_v2_container_rejected(self):
        # v2 has the v3 layout, but its segments were coded under the
        # floor-and-repair tables
        with pytest.raises(VersionError, match="version 2"):
            read_container(self._raw(bytes([16, 16, 0, 0]), version=2))

    def test_v3_container_rejected(self):
        # v3 has the v4 layout, but its tables evaluated each component's
        # left tail below mu - 8.5 sd instead of folding it into the window
        with pytest.raises(VersionError, match="version 3"):
            read_container(self._raw(bytes([16, 16, 0, 0]), version=3))

    @pytest.mark.parametrize("sizes", [
        (16, 16, 15, 16), (16, 16, 16, 8), (-1, 16, 16, 16), (16, 16, 16, -16),
        (2 ** 32, 16, 2 ** 32, 16), (16, 16, 16, 2 ** 32)],
        ids=["padded_w<width", "padded_h<height", "negative-width", "negative-padded",
             "width-2^32", "padded_h-2^32"])
    def test_invalid_sizes_rejected(self, sizes):
        hdr = ContainerHeader(*sizes, config_hash=bytes(32), weight_hash=bytes(32))
        with pytest.raises(ContractViolation):
            write_container(hdr, b"", b"", b"")

    def test_any_flipped_byte_fails_crc(self, rng):
        blob = bytearray(write_container(self._header(), b"abc", b"de", b"f"))
        for _ in range(20):
            pos = int(rng.integers(4, len(blob)))  # keep magic intact
            orig = blob[pos]
            blob[pos] ^= 0xFF
            with pytest.raises(IntegrityError):
                read_container(bytes(blob))
            blob[pos] = orig

    def test_bad_magic(self):
        blob = bytearray(write_container(self._header(), b"", b"", b""))
        blob[0] = ord("X")
        with pytest.raises(IntegrityError, match="magic"):
            read_container(bytes(blob))

    def test_version_mismatch(self):
        blob = bytearray(write_container(self._header(), b"", b"", b""))
        blob[4] = 99
        # recompute CRC so the version check is what trips
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(VersionError):
            read_container(bytes(blob))

    def test_truncation(self):
        blob = write_container(self._header(), b"abc", b"", b"")
        with pytest.raises(TruncationError):
            read_container(blob[:50])

    @pytest.mark.parametrize("cut", range(1, 9))
    def test_cut_tail_is_truncation(self, cut):
        blob = write_container(self._header(), b"abcdef", b"gh", b"ijklm")
        with pytest.raises(TruncationError):
            read_container(blob[:-cut])

    def test_trailing_bytes_fail(self):
        blob = write_container(self._header(), b"abc", b"de", b"f")
        with pytest.raises(IntegrityError, match="declare") as info:
            read_container(blob + b"\x00")
        assert not isinstance(info.value, TruncationError)


def _finished_encoder():
    enc = RangeEncoder()
    enc.finish()
    return enc


def _short_hash_container():
    hdr = ContainerHeader(width=16, height=16, padded_w=16, padded_h=16,
                          config_hash=bytes(32), weight_hash=bytes(31))
    return write_container(hdr, b"", b"", b"")


@pytest.mark.parametrize("call, message", [
    (lambda: _finished_encoder().encode_symbol(0, np.array([0, E.CDF_TOTAL])),
     "encoder already finished"),
    (lambda: _finished_encoder().finish(), "encoder already finished"),
    (_short_hash_container, "hashes must be 32 bytes"),
], ids=["encode-after-finish", "finish-after-finish", "31-byte-hash"])
def test_contract_violations(call, message):
    with pytest.raises(ContractViolation, match=re.escape(message)):
        call()
