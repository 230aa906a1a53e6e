import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from amsal import (
    Assignment,
    Eraser,
    EvalReport,
    FormatError,
    GuardedRecords,
    InvalidInput,
    fit_inlp,
    fit_sal,
)
from amsal.io import (
    BIN,
    CSV,
    SAL,
    PipelineConfig,
    erase,
    load_assignment,
    load_eraser,
    load_labels,
    load_matrix,
    load_seed_labels,
    load_values,
    output_dir,
    run_pipeline,
    save_assignment,
    save_eraser,
    save_matrix,
    save_report,
    save_trace,
)
from amsal.assignment import PRIOR_SLACK
from amsal.driver import AmsalConfig, AmsalTrace, TraceRow


def test_bin_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((100, 8))
    path = tmp_path / "m.bin"
    save_matrix(m, path, fmt=BIN)
    back = load_matrix(path)
    np.testing.assert_array_equal(back, m)
    save_matrix(back, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((20, 3)) * 1e3
    path = tmp_path / "m.csv"
    save_matrix(m, path, fmt=CSV)
    back = load_matrix(path)
    np.testing.assert_allclose(back, m, rtol=1e-15, atol=0.0)


def test_csv_bytes_match_per_scalar_formatting(tmp_path):
    rng = np.random.default_rng(3)
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1e-7]
    m = np.vstack([np.resize(special, (3, 8)), rng.standard_normal((20, 8)),
                   rng.standard_normal((5, 8)) * 1e-300,
                   np.round(rng.standard_normal((4, 8)) * 100)])
    save_matrix(m, tmp_path / "m.csv", fmt=CSV)
    # the row format before rows were formatted from matrix.tolist()
    rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m)
    assert (tmp_path / "m.csv").read_bytes() == rows.encode()
    np.testing.assert_array_equal(load_matrix(tmp_path / "m.csv"), m)
    (tmp_path / "h.csv").write_text(",".join(f"c{j}" for j in range(8)) + "\n" + rows)
    np.testing.assert_array_equal(load_matrix(tmp_path / "h.csv"), m)


def test_trivial_one_by_one(tmp_path):
    for name in ("t.bin", "t.csv"):
        path = tmp_path / name
        save_matrix(np.array([[0.0]]), path)
        np.testing.assert_array_equal(load_matrix(path), [[0.0]])


def test_csv_header_row(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1.5,2.5\n")
    np.testing.assert_allclose(load_matrix(path), [[1.5, 2.5]])


def test_empty_file_rejected(tmp_path):
    for name in ("e.csv", "e.bin"):
        path = tmp_path / name
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_matrix(path)


def test_bin_header_errors_carry_offsets(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 24)
    with pytest.raises(FormatError, match="byte 0"):
        load_matrix(path)
    path.write_bytes(struct.pack("<4sIQQ", b"AMSL", 9, 1, 1) + b"\x00" * 8)
    with pytest.raises(FormatError, match="byte 4"):
        load_matrix(path)
    path.write_bytes(struct.pack("<4sIQQ", b"AMSL", 1, 2, 2) + b"\x00" * 8)
    with pytest.raises(FormatError, match="byte 24"):
        load_matrix(path)
    path.write_bytes(struct.pack("<4sIQQ", b"AMSL", 1, 0, 5))
    with pytest.raises(FormatError, match="dimensions"):
        load_matrix(path)


def test_bin_nonfinite_rejected(tmp_path):
    path = tmp_path / "nan.bin"
    save_matrix(np.array([[1.0]]), path)
    data = bytearray(path.read_bytes())
    data[24:32] = np.float64("nan").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(InvalidInput):
        load_matrix(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
def test_bin_matrix_from_a_pipe_is_refused_as_not_a_regular_file(tmp_path):
    save_matrix(np.eye(3), tmp_path / "m.bin")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (tmp_path / "m.bin").read_bytes())
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        with pytest.raises(FormatError, match=f"^{path}: a BIN matrix must be a regular file"):
            load_matrix(path)
    finally:
        os.close(read_end)


def test_csv_errors_carry_line_and_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(FormatError, match="line 2, field 2"):
        load_matrix(path)
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_matrix(path)


@pytest.mark.parametrize("fmt", [CSV, BIN])
def test_matrix_files_move_in_about_the_matrix_memory(tmp_path, fmt):
    m = np.random.default_rng(4).standard_normal((3000, 64))
    path = tmp_path / f"m.{fmt}"
    tracemalloc.start()
    try:
        save_matrix(m, path)
        saved = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_matrix(path)
        loaded = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back, m)
    assert saved < 0.5 * m.nbytes
    assert loaded < 1.5 * m.nbytes  # the result plus a bounded transient


def test_text_line_rules(tmp_path):
    # lines end at "\r\n", a lone "\r", "\x0c", "\x0b", U+2028 or "\n", as
    # str.splitlines() splits a whole text; blank lines count in the numbering
    csv = tmp_path / "m.csv"
    csv.write_bytes(b"a,b\r\n1,2\r3,4\x0c\r\n5,6\x0b7,8\xe2\x80\xa89,10\n")
    np.testing.assert_array_equal(load_matrix(csv), [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])
    csv.write_bytes(b"1,2\r\n3,4\r\r5,6\x0c7\n")
    with pytest.raises(FormatError, match="m.csv: line 5: 1 fields, expected 2"):
        load_matrix(csv)
    labels = tmp_path / "y.csv"
    labels.write_bytes(b"1\r\n2\r3\x0c\n4\xe2\x80\xa85\r\n")
    np.testing.assert_array_equal(load_labels(labels), [1, 2, 3, 4, 5])
    labels.write_bytes(b"1\r\n2\r3\x0c\n4\xe2\x80\xa8x\r\n")
    with pytest.raises(FormatError, match="y.csv: line 6: not an integer"):
        load_labels(labels)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"x = a\r\nrecords = b\routput_dir = c\x0c\r\nnum_seeds = 2\n")
    parsed = PipelineConfig.from_file(cfg)
    assert (parsed.x, parsed.records, parsed.output_dir, parsed.num_seeds) == ("a", "b", "c", 2)
    cfg.write_bytes(b"x = a\r\nrecords = b\routput_dir = c\x0c\r\nbogus\n")
    with pytest.raises(FormatError, match="run.cfg: line 5: expected key = value"):
        PipelineConfig.from_file(cfg)


def test_utf8_fault_on_a_later_line_names_its_byte(tmp_path):
    path = tmp_path / "m.csv"
    body = b"1.5,2.5\n" * 5000  # spans several read buffers
    path.write_bytes(body + b"3.5,4\xc3\n")
    with pytest.raises(FormatError, match=f"m.csv: not UTF-8 text at byte {len(body) + 5}$"):
        load_matrix(path)
    path.write_bytes(b"1\r2\r3\r\xff\r")  # one "\n"-free piece
    with pytest.raises(FormatError, match="m.csv: not UTF-8 text at byte 6$"):
        load_labels(path)


@pytest.mark.parametrize("load, first", [
    (load_matrix, b"1"), (load_labels, b"1"), (load_values, b"1"),
    (load_seed_labels, b"0,1"), (PipelineConfig.from_file, b"x = a"),
])
def test_first_fault_in_file_order_is_reported(tmp_path, load, first):
    path = tmp_path / "f.csv"
    for sep in (b"\n", b"\r"):
        path.write_bytes(sep.join([first, b"zz", b"\xff", b""]))
        with pytest.raises(FormatError, match="f.csv: line 2"):
            load(path)
        path.write_bytes(sep.join([first, b"\xff", b"zz", b""]))
        with pytest.raises(FormatError, match=f"f.csv: not UTF-8 text at byte {len(first) + 1}"):
            load(path)


def test_assignment_and_label_files(tmp_path):
    pi = Assignment(np.array([0, 2, 1, 1]))
    path = tmp_path / "pi.csv"
    save_assignment(pi, path)
    np.testing.assert_array_equal(load_assignment(path).map, pi.map)
    np.testing.assert_array_equal(load_labels(path), pi.map)
    (tmp_path / "vals.csv").write_text("0.5\n-1.25\n")
    np.testing.assert_allclose(load_values(tmp_path / "vals.csv"), [0.5, -1.25])
    for bad in ("nan", "inf", "-inf", "1e999"):
        (tmp_path / "vals.csv").write_text(f"0.5\n\n{bad}\n")
        with pytest.raises(FormatError, match="vals.csv: line 3: not a finite number"):
            load_values(tmp_path / "vals.csv")
    (tmp_path / "seed.csv").write_text("0,1\n5,0\n")
    idx, val = load_seed_labels(tmp_path / "seed.csv")
    np.testing.assert_array_equal(idx, [0, 5])
    np.testing.assert_array_equal(val, [1, 0])
    np.testing.assert_array_equal(load_seed_labels(tmp_path / "seed.csv", 6, 2)[0], [0, 5])
    with pytest.raises(InvalidInput, match=r"seed.csv: line 2: seed label pair 1 \(5, 0\): "
                                           r"index must be in \[0, 5\)"):
        load_seed_labels(tmp_path / "seed.csv", 5, 2)
    with pytest.raises(InvalidInput, match=r"seed.csv: line 1: seed label pair 0 \(0, 1\): "
                                           r"record id must be in \[0, 1\)"):
        load_seed_labels(tmp_path / "seed.csv", 6, 1)
    for first in ("3,0", "3,1"):  # a repeat is refused even with the same record id
        (tmp_path / "seed.csv").write_text(f"{first}\n5,1\n\n3,1\n")
        with pytest.raises(InvalidInput, match=r"seed.csv: line 4: seed label pair 2 \(3, 1\): "
                                               r"index 3 repeats line 1$"):
            load_seed_labels(tmp_path / "seed.csv")
    (tmp_path / "neg.csv").write_text("-1,0\n")
    with pytest.raises(InvalidInput, match="line 1: seed label pair 0 \\(-1, 0\\)"):
        load_seed_labels(tmp_path / "neg.csv", 6, 2)
    (tmp_path / "junk.csv").write_text("1\nxx\n")
    with pytest.raises(FormatError, match="line 2"):
        load_labels(tmp_path / "junk.csv")
    (tmp_path / "junk.csv").write_text("1\n" + "9" * 20 + "\n")  # beyond int64
    with pytest.raises(FormatError, match="line 2"):
        load_labels(tmp_path / "junk.csv")
    (tmp_path / "junk.csv").write_text("0,1\n1," + "9" * 20 + "\n")
    with pytest.raises(FormatError, match="line 2"):
        load_seed_labels(tmp_path / "junk.csv")


def _fitted_erasers():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 5))
    z = rng.standard_normal((2, 2))
    records = GuardedRecords(z, [0, 0], [60, 60])
    pi = Assignment(rng.integers(0, 2, 60))
    labels = rng.integers(0, 2, 60)
    x[:, 0] += (2 * labels - 1) * 2.0
    return fit_sal(x, records, pi, 1), fit_inlp(x, labels, 3)


def test_eraser_round_trip(tmp_path):
    sal, inlp = _fitted_erasers()
    for eraser in (sal, inlp):
        save_eraser(eraser, tmp_path / "e.bin")
        back = load_eraser(tmp_path / "e.bin")
        assert (back.kind, back.iterations, back.removed) == (
            eraser.kind, eraser.iterations, eraser.removed)
        np.testing.assert_array_equal(back.directions, eraser.directions)
        np.testing.assert_array_equal(back.input_means, eraser.input_means)
        # the header, then one (1 + r) x d block: the means and the directions
        assert (tmp_path / "e.bin").stat().st_size == 13 + 16 + 8 * (1 + eraser.removed) * 5
    assert (sal.kind, sal.iterations, sal.removed) == ("sal", 0, 1)


def test_zero_round_inlp_eraser_round_trip(tmp_path):
    _, inlp = _fitted_erasers()
    eraser = Eraser(kind="inlp", input_means=inlp.input_means, directions=np.zeros((5, 0)),
                    iterations=0)
    save_eraser(eraser, tmp_path / "e.bin")
    assert (tmp_path / "e.bin").stat().st_size == 13 + 16 + 8 * 5  # a 1 x 5 block
    back = load_eraser(tmp_path / "e.bin")
    assert (back.kind, back.iterations, back.directions.shape) == ("inlp", 0, (5, 0))
    np.testing.assert_array_equal(back.input_means, inlp.input_means)


def test_eraser_bad_magic(tmp_path):
    (tmp_path / "x.bin").write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError, match="byte 0"):
        load_eraser(tmp_path / "x.bin")


def test_eraser_file_of_version_1_is_refused(tmp_path):
    """Version 1 stored the kept basis; read as removed directions it
    would erase the wrong subspace."""
    sal, _ = _fitted_erasers()
    path = tmp_path / "sal.bin"
    save_eraser(sal, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    with pytest.raises(FormatError, match="unsupported version 1 at byte 4$"):
        load_eraser(path)


def test_eraser_file_rejects_trailing_bytes_and_bad_blocks(tmp_path):
    sal, _ = _fitted_erasers()
    path = tmp_path / "sal.bin"
    save_eraser(sal, path)
    raw = path.read_bytes()
    path.write_bytes(raw + b"\x00" * 3)
    with pytest.raises(FormatError, match=re.escape(f"payload size mismatch at byte 29 (file "
                                                    f"{len(raw) + 3}, expected {len(raw)})")):
        load_eraser(path)
    path.write_bytes(raw[:13] + struct.pack("<QQ", 1, 0))
    with pytest.raises(FormatError, match="empty 1x0 block at byte 13"):
        load_eraser(path)
    path.write_bytes(raw[:20])
    with pytest.raises(FormatError, match="truncated block header at byte 13"):
        load_eraser(path)
    # the direction row doubled: a finite block the eraser refuses, named with the path
    direction = struct.pack("<5d", *(2.0 * sal.directions[:, 0]))
    path.write_bytes(raw[:13 + 16 + 40] + direction)
    with pytest.raises(InvalidInput,
                       match=re.escape(f"{path}: removed directions are not orthonormal")):
        load_eraser(path)
    path.write_bytes(raw[:9] + struct.pack("<I", 3) + raw[13:])  # a sal eraser with 3 rounds
    with pytest.raises(InvalidInput,
                       match=re.escape(f"{path}: a spectral eraser has 0 iterations, got 3")):
        load_eraser(path)
    path.write_bytes(raw[:8] + b"\x02" + raw[9:])
    with pytest.raises(FormatError, match="unknown eraser kind 2 at byte 8"):
        load_eraser(path)


def test_eraser_shapes_checked():
    sal, inlp = _fitted_erasers()
    with pytest.raises(InvalidInput, match=re.escape("4 input means for directions of shape "
                                                     "(5, 1)")):
        Eraser(kind="sal", input_means=sal.input_means[:4], directions=sal.directions,
               iterations=0)
    with pytest.raises(InvalidInput, match="4 input means for directions of shape"):
        Eraser(kind="inlp", input_means=inlp.input_means[:4], directions=inlp.directions,
               iterations=inlp.iterations)
    with pytest.raises(InvalidInput, match=re.escape("directions of shape (5,)")):
        Eraser(kind="inlp", input_means=inlp.input_means, directions=inlp.directions[:, 0],
               iterations=1)
    with pytest.raises(InvalidInput, match=re.escape("finite vector, got shape (1, 5)")):
        Eraser(kind="sal", input_means=sal.input_means[None], directions=sal.directions,
               iterations=0)
    for bad in (np.nan, np.inf):
        means = sal.input_means.copy()
        means[2] = bad
        with pytest.raises(InvalidInput, match=re.escape("finite vector, got shape (5,)")):
            Eraser(kind="sal", input_means=means, directions=sal.directions, iterations=0)
    with pytest.raises(InvalidInput, match="unknown eraser kind 'pca'"):
        Eraser(kind="pca", input_means=sal.input_means, directions=sal.directions, iterations=0)


def test_eraser_states_that_contradict_themselves_are_refused():
    sal, _ = _fitted_erasers()
    means = sal.input_means
    # a kept basis, or a projection, with no count next to it no longer fits the type
    with pytest.raises(TypeError):
        Eraser(kind="sal", input_means=means, basis=np.eye(5)[:, 1:])
    with pytest.raises(TypeError):
        Eraser(kind="inlp", input_means=means, basis=np.eye(5)[:, 1:])
    with pytest.raises(TypeError):
        Eraser(kind="sal", input_means=means, directions=sal.directions)
    # the count of removed directions is read off the matrix, so it cannot disagree with it
    with pytest.raises(TypeError):
        Eraser(kind="sal", input_means=means, directions=sal.directions, iterations=0, removed=2)
    assert sal.removed == sal.directions.shape[1] == 1
    for iterations, match in ((-1, "count below 2\\*\\*32, got -1"),
                              (2**32, "count below 2\\*\\*32"),
                              (1.0, "count below 2\\*\\*32, got 1.0")):
        with pytest.raises(InvalidInput, match=match):
            Eraser(kind="inlp", input_means=means, directions=sal.directions,
                   iterations=iterations)
    with pytest.raises(InvalidInput, match="a spectral eraser has 0 iterations, got 2"):
        Eraser(kind="sal", input_means=means, directions=sal.directions, iterations=2)


def test_eraser_checks_reject_huge_and_non_finite_matrices():
    # the check must fail on an inf or nan check value, and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in (1e200, np.nan, np.inf):
            directions = np.eye(3)[:, 1:]
            directions[0, 1] = bad
            for kind, iterations in (("sal", 0), ("inlp", 1)):
                with pytest.raises(InvalidInput, match="not orthonormal"):
                    Eraser(kind=kind, input_means=np.zeros(3), directions=directions,
                           iterations=iterations)


def test_trace_file_layout(tmp_path):
    trace = AmsalTrace(rows=(
        TraceRow(0, 1, 12.5, "ab" * 8, float("nan")),
        TraceRow(1, 2, 13.25, "cd" * 8, 0.75),
    ))
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,seed,objective,accuracy"
    assert lines[1] == "1,0,12.5,"
    assert lines[2] == "2,1,13.25,0.75"


def test_pipeline_config_parsing(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment\n"
        "x = x.bin\n"
        "records = z.bin\n"
        "output_dir = out\n"
        "priors = 0.7, 0.3\n"
        "rng_seed = 3\n"
    )
    cfg = PipelineConfig.from_file(cfg_path)
    assert cfg.x == "x.bin" and cfg.rng_seed == 3
    assert cfg.priors == (0.7, 0.3)
    assert cfg.slack == 0.2 and cfg.num_seeds == 3  # defaults


def test_pipeline_config_errors(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("x = a\nwat = 1\n")
    with pytest.raises(FormatError, match="line 2"):
        PipelineConfig.from_file(cfg_path)
    cfg_path.write_text("x = a\nrecords = b\n")
    with pytest.raises(FormatError, match="output_dir"):
        PipelineConfig.from_file(cfg_path)
    cfg_path.write_text("x = a\nrecords = b\noutput_dir = c\nnum_seeds = lots\n")
    with pytest.raises(FormatError, match="bad field"):
        PipelineConfig.from_file(cfg_path)
    cfg_path.write_text("x = a.bin\nrecords = b\n# x = c.bin\nx = b.bin\noutput_dir = c\n")
    with pytest.raises(FormatError, match="bad.cfg: line 4: key 'x' repeats line 1$"):
        PipelineConfig.from_file(cfg_path)


def test_pipeline_config_validation(tmp_path):
    for name in ("x.bin", "z.bin"):
        save_matrix(np.eye(2), tmp_path / name)
    base = dict(x=str(tmp_path / "x.bin"), records=str(tmp_path / "z.bin"),
                output_dir=str(tmp_path / "out"))
    values = {**{k: "" for k in ("priors", "seed_labels", "y", "truth")},
              "slack": "0.2", "max_iterations": "5", "num_seeds": "1",
              "rng_seed": "0", "score_k": "full",
              "removal": "sal", "removal_rank": "auto",
              "y_kind": "none", **base}
    for change, match in (({"removal": "lasso"}, "removal must be"),
                          ({"y_kind": "ranking"}, "y_kind must be"),
                          ({"y_kind": "regression"}, "y_kind=regression requires a y file"),
                          ({"y": "y.csv"}, "y = y.csv is given but y_kind = none")):
        with pytest.raises(InvalidInput, match=f"^{match}"):
            PipelineConfig.from_values({**values, **change})
    PipelineConfig.from_values(values)
    # a missing file is found by the loader that reads it, before any output
    missing = tmp_path / "seed.csv"
    cfg = PipelineConfig.from_values({**values, "seed_labels": str(missing)})
    with pytest.raises(InvalidInput, match=re.escape(f"{missing}: No such file or directory")):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("removal, key, text, value", [
    ("inlp", "removal_rank", "3", 3),
    ("inlp", "removal_rank", "auto", "auto"),
    ("sal", "inlp_rounds", "0", 0),
    ("sal", "inlp_rounds", "10", 10),
])
def test_pipeline_config_refuses_a_key_its_removal_ignores(tmp_path, removal, key, text, value):
    message = f"{key} does not apply to removal = {removal}"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"x = a\nrecords = b\noutput_dir = c\nremoval = {removal}\n"
                        f"{key} = {text}\n")
    with pytest.raises(InvalidInput, match=f"^{re.escape(str(cfg_path))}: line 5: {message}$"):
        PipelineConfig.from_file(cfg_path)
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        PipelineConfig(x="a", records="b", output_dir="c", removal=removal, **{key: value})
    other = {"sal": "inlp", "inlp": "sal"}[removal]
    assert getattr(PipelineConfig(x="a", records="b", output_dir="c", removal=other,
                                  **{key: value}), key) == value


@pytest.mark.parametrize("body, line, message", [
    ("removal = inlp\nremoval_rank = 3\n", 5, "removal_rank does not apply to removal = inlp"),
    ("inlp_rounds = 4\n", 4, "inlp_rounds does not apply to removal = sal"),
    ("# the removal\n\nremoval = lasso\n", 6, "removal must be 'sal' or 'inlp', got 'lasso'"),
    ("y_kind = regression\n", 4, "y_kind=regression requires a y file"),
    ("y_kind = ranking\ny = y.csv\n", 4, "y_kind must be classification, regression or none"),
    ("y = y.csv\n", 4, "y = y.csv is given but y_kind = none would ignore it"),
])
def test_pipeline_config_file_errors_name_the_line_of_the_key(tmp_path, body, line, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"x = a\nrecords = b\noutput_dir = c\n{body}")
    with pytest.raises(InvalidInput, match=f"^{re.escape(f'{cfg_path}: line {line}: {message}')}"):
        PipelineConfig.from_file(cfg_path)


@pytest.mark.parametrize("key, what", [("x", "file"), ("records", "file"),
                                       ("output_dir", "directory")])
def test_pipeline_config_refuses_an_empty_path(key, what):
    paths = {"x": "a", "records": "b", "output_dir": "c", key: ""}
    with pytest.raises(InvalidInput, match=f"^{key} must name a {what}, got an empty path$"):
        PipelineConfig(**paths)


def test_pipeline_config_from_values_defaults_and_located_errors():
    required = {"x": "a", "records": "b", "output_dir": "c"}
    cfg = PipelineConfig.from_values(required)
    assert cfg == PipelineConfig(x="a", records="b", output_dir="c")
    assert (cfg.slack, cfg.max_iterations, cfg.score_k) == (
        PRIOR_SLACK, AmsalConfig.max_iterations, AmsalConfig.score_k)
    assert cfg.removal_rank is None and cfg.inlp_rounds is None  # unset: each eraser's default
    with pytest.raises(FormatError, match="^config: missing required key 'records'$"):
        PipelineConfig.from_values({"x": "a", "output_dir": "c"})
    with pytest.raises(FormatError, match="^run.cfg: missing required key 'x'$"):
        PipelineConfig.from_values({**required, "x": ""}, source="run.cfg")
    with pytest.raises(FormatError, match="^config: unknown key 'selection'$"):
        PipelineConfig.from_values({**required, "selection": "partial"})


def test_eraser_file_rejects_non_finite_blocks(tmp_path):
    sal, inlp = _fitted_erasers()
    path = tmp_path / "e.bin"
    for eraser in (sal, inlp):
        save_eraser(eraser, path)
        raw = path.read_bytes()
        # the block at byte 13 holds the 5 means, then a direction of 5 values
        for value_at in (13 + 16 + 8, 13 + 16 + 40 + 24):
            for bad in (np.nan, np.inf):
                path.write_bytes(raw[:value_at] + struct.pack("<d", bad) + raw[value_at + 8:])
                with pytest.raises(FormatError, match="non-finite value in the block at byte "
                                                      "13$"):
                    load_eraser(path)


@pytest.mark.parametrize("load", [
    load_matrix, load_labels, load_values, load_seed_labels, load_eraser, PipelineConfig.from_file,
])
def test_unreadable_or_undecodable_file_is_located(tmp_path, load):
    missing = tmp_path / "missing.csv"
    with pytest.raises(InvalidInput, match=re.escape(f"{missing}: No such file or directory")):
        load(missing)
    with pytest.raises(InvalidInput, match=re.escape(f"{tmp_path}: Is a directory")):
        load(tmp_path)
    if load is not load_eraser:
        bad = tmp_path / "bad.csv"
        # line 1 is blank, so every reader reaches the bad byte on line 2
        bad.write_bytes(b" \n\xff\xfe2\n")
        with pytest.raises(FormatError, match=re.escape(f"{bad}: not UTF-8 text at byte 2")):
            load(bad)


def test_unwritable_output_is_located(tmp_path):
    (tmp_path / "notadir").write_text("")
    bad = tmp_path / "notadir" / "sub"
    with pytest.raises(InvalidInput, match=re.escape(f"{bad}: Not a directory")):
        output_dir(bad)
    assert output_dir(tmp_path / "a" / "b") == tmp_path / "a" / "b"
    sal, _ = _fitted_erasers()
    taken = tmp_path / "taken"  # a directory where each writer wants a file
    taken.mkdir()
    writers = [
        lambda: save_matrix(np.eye(2), taken, fmt=BIN),
        lambda: save_matrix(np.eye(2), taken, fmt=CSV),
        lambda: save_assignment(Assignment(np.array([0, 1])), taken),
        lambda: save_eraser(sal, taken),
        lambda: save_trace(AmsalTrace(rows=()), taken),
        lambda: save_report(EvalReport(), taken),
    ]
    for write in writers:
        with pytest.raises(InvalidInput, match=re.escape(f"{taken}: Is a directory")):
            write()


def test_erase_stage_refuses_sal_without_records():
    # the stage writes nothing; the commands' tests check that a refusal leaves no output
    x = np.random.default_rng(3).standard_normal((20, 4))
    pi = Assignment(np.arange(20) % 2)
    with pytest.raises(InvalidInput, match="sal removal requires the guarded records"):
        erase(x, pi, SAL)
