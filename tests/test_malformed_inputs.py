"""Property tests over every parser of untrusted input: random bytes,
truncations and single-byte changes of a valid input either parse or raise
an NlicError subclass, never a builtin exception."""

import struct
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlic import entropy as E
from nlic.coder import ContainerHeader, RangeDecoder, RangeEncoder, read_container, write_container
from nlic.errors import NlicError
from nlic.network import (
    ModelConfig,
    canonical_config_text,
    deserialize_weights,
    init_weights,
    parse_config_text,
    serialize_weights,
)

FUZZ = settings(max_examples=200, deadline=None, database=None)


def mutations(valid):
    """Random inputs, prefixes of valid, and valid with one element replaced
    by a drawn one; works on bytes and on str."""
    if isinstance(valid, bytes):
        whole, single = st.binary(max_size=256), st.binary(min_size=1, max_size=1)
    else:
        whole, single = st.text(max_size=256), st.characters()
    return st.one_of(
        whole,
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        st.tuples(st.integers(0, len(valid) - 1), single).map(
            lambda t: valid[:t[0]] + t[1] + valid[t[0] + 1:]),
    )


def parses_or_raises_nlic_error(parse, data):
    try:
        parse(data)
    except NlicError:
        pass


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------

CONTAINER = write_container(
    ContainerHeader(width=16, height=16, padded_w=16, padded_h=16,
                    config_hash=bytes(range(32)), weight_hash=bytes(range(32, 64))),
    b"zz", b"yyy", b"xxxx")


@FUZZ
@given(mutations(CONTAINER))
def test_read_container(data):
    parses_or_raises_nlic_error(read_container, data)


# ---------------------------------------------------------------------------
# range decoder
# ---------------------------------------------------------------------------

CODER_CDF = E.build_cdf(np.array([0.5, 0.25, 0.125, 0.0625, 0.0625]))
CODER_SYMBOLS = 64


def _coded_stream():
    enc = RangeEncoder()
    for s in np.random.default_rng(5).integers(0, CODER_CDF.size - 1, size=CODER_SYMBOLS):
        enc.encode_symbol(int(s), CODER_CDF)
    return enc.finish()


def _decode(data):
    dec = RangeDecoder(data)
    for _ in range(CODER_SYMBOLS):
        assert 0 <= dec.decode_symbol(CODER_CDF) < CODER_CDF.size - 1


@FUZZ
@given(mutations(_coded_stream()))
def test_range_decoder(data):
    parses_or_raises_nlic_error(_decode, data)


# ---------------------------------------------------------------------------
# config text and weights
# ---------------------------------------------------------------------------

CONFIG_TEXT = canonical_config_text(ModelConfig())
CONFIG_KEYS = [f.name for f in fields(ModelConfig)]


@FUZZ
@given(mutations(CONFIG_TEXT))
def test_parse_config_text(text):
    parses_or_raises_nlic_error(parse_config_text, text)


WEIGHTS_CONFIG = ModelConfig(filters_n=4, mixtures_k=1, downsample_factor=2,
                             hyper_downsample=2, use_attention=False)
WEIGHTS = serialize_weights(init_weights(WEIGHTS_CONFIG, 0))


def _with_config_value(key, digits):
    """WEIGHTS with `key` set to `digits` in its embedded config text."""
    text = "".join(f"{key}={digits}\n" if line.startswith(f"{key}=") else line
                   for line in canonical_config_text(WEIGHTS_CONFIG).splitlines(True))
    (cfg_len,) = struct.unpack_from("<I", WEIGHTS, 4)
    return (WEIGHTS[:4] + struct.pack("<I", len(text.encode())) + text.encode()
            + WEIGHTS[8 + cfg_len:])


config_digits = st.builds(_with_config_value, st.sampled_from(CONFIG_KEYS),
                          st.text(alphabet="0123456789", min_size=1, max_size=24))


@FUZZ
@given(st.one_of(mutations(WEIGHTS), config_digits))
def test_deserialize_weights(blob):
    parses_or_raises_nlic_error(deserialize_weights, blob)
