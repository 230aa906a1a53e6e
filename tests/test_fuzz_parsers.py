"""Fuzz tests for every file parser.

Each parser gets a valid file that is then truncated, byte-flipped,
given a random header, spliced with random bytes or with a token that
parsers tend to trip on (invalid UTF-8, non-finite or oversized
numbers, separators), given such a token as a line of its own, or
replaced by random bytes. Only FormatError or InvalidInput may escape,
and whatever loads must hold finite values.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amsal import Eraser, FormatError, InvalidInput
from amsal.io import (
    BIN,
    CSV,
    PipelineConfig,
    load_eraser,
    load_labels,
    load_matrix,
    load_seed_labels,
    load_values,
    save_eraser,
    save_matrix,
)

TOKENS = [b"\xff\xfe", b"\xc3", b"nan", b"inf", b"-1e999", b"9" * 20, b",", b"\n", b"=", b"#"]
SPECIAL = [struct.pack("<d", v) for v in (np.nan, np.inf, -np.inf)]


def _valid_files(tmp_path):
    """(file name, valid bytes, loader) for each parser."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((3, 2))
    save_matrix(matrix, tmp_path / "m.bin", fmt=BIN)
    save_matrix(matrix, tmp_path / "m.csv", fmt=CSV)
    save_eraser(Eraser(kind="sal", input_means=rng.standard_normal(3),
                       directions=np.eye(3)[:, 2:], iterations=0), tmp_path / "sal.bin")
    save_eraser(Eraser(kind="inlp", input_means=rng.standard_normal(3),
                       directions=np.eye(3)[:, 1:], iterations=2), tmp_path / "inlp.bin")
    amsl = (tmp_path / "m.bin").read_bytes()
    return {
        "amsl": ("m.bin", amsl, load_matrix),
        "amsl-sniffed": ("m.dat", amsl, load_matrix),
        "csv": ("m.csv", b"c0,c1\n" + (tmp_path / "m.csv").read_bytes(), load_matrix),
        "amse-sal": ("e.bin", (tmp_path / "sal.bin").read_bytes(), load_eraser),
        "amse-inlp": ("e.bin", (tmp_path / "inlp.bin").read_bytes(), load_eraser),
        "labels": ("l.csv", b"0\n1\n1\n0\n", load_labels),
        "values": ("v.csv", b"0.5\n-1.25\n3\n", load_values),
        "seed-pairs": ("s.csv", b"0,1\n2,0\n", load_seed_labels),
        "config": ("c.cfg", b"x = x.bin\nrecords = z.bin\noutput_dir = out\n"
                            b"priors = 0.7, 0.3\nscore_k = 2\n",
                   PipelineConfig.from_file),
    }


@st.composite
def _mutated(draw, raw):
    kind = draw(st.sampled_from(["truncate", "flip", "header", "splice", "token", "line",
                                 "special", "random"]))
    if kind == "random":
        return draw(st.binary(max_size=64))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "header":
        k = draw(st.integers(1, min(24, len(raw))))
        return draw(st.binary(min_size=k, max_size=k)) + raw[k:]
    out = bytearray(raw)
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "line":
        starts = [0] + [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]
        pos = draw(st.sampled_from(starts))
        return raw[:pos] + draw(st.sampled_from(TOKENS)) + b"\n" + raw[pos:]
    if kind == "special":
        pos = draw(st.integers(0, len(out) - 8))
        out[pos : pos + 8] = draw(st.sampled_from(SPECIAL))
        return bytes(out)
    pos = draw(st.integers(0, len(out)))
    insert = st.binary(min_size=1, max_size=16) if kind == "splice" else st.sampled_from(TOKENS)
    insert = draw(insert)
    return bytes(out[:pos] + insert + out[pos:])


@pytest.mark.parametrize("fmt", [
    "amsl", "amsl-sniffed", "csv", "amse-sal", "amse-inlp", "labels", "values", "seed-pairs",
    "config",
])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_parser_fuzz_raises_only_located_errors(tmp_path, fmt, data):
    name, raw, load = _valid_files(tmp_path)[fmt]
    path = tmp_path / name
    path.write_bytes(data.draw(_mutated(raw)))
    try:
        loaded = load(path)
    except (FormatError, InvalidInput):
        return
    if isinstance(loaded, Eraser):
        assert np.all(np.isfinite(loaded.input_means)) and np.all(np.isfinite(loaded.directions))
    elif load in (load_matrix, load_values):
        assert np.all(np.isfinite(loaded))
