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
    PipelineConfig,
    load_assignment,
    load_eraser,
    load_labels,
    load_matrix,
    load_seed_labels,
    load_values,
    output_dir,
    save_assignment,
    save_eraser,
    save_matrix,
    save_report,
    save_trace,
)
from amsal.assignment import PRIOR_SLACK
from amsal.driver import AmsalConfig, AmsalTrace, TraceRow
from amsal.removal import INLP_ROUNDS


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
    save_eraser(sal, tmp_path / "sal.bin")
    back = load_eraser(tmp_path / "sal.bin")
    assert back.kind == "sal" and back.removed == sal.removed
    np.testing.assert_array_equal(back.basis, sal.basis)
    np.testing.assert_array_equal(back.input_means, sal.input_means)

    save_eraser(inlp, tmp_path / "inlp.bin")
    back = load_eraser(tmp_path / "inlp.bin")
    assert back.kind == "inlp" and back.iterations == inlp.iterations
    np.testing.assert_array_equal(back.projection, inlp.projection)


def test_eraser_bad_magic(tmp_path):
    (tmp_path / "x.bin").write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError, match="byte 0"):
        load_eraser(tmp_path / "x.bin")


def test_eraser_file_rejects_trailing_bytes_and_mismatched_means(tmp_path):
    sal, _ = _fitted_erasers()
    path = tmp_path / "sal.bin"
    save_eraser(sal, path)
    raw = path.read_bytes()
    path.write_bytes(raw + b"\x00" * 3)
    with pytest.raises(FormatError, match=f"3 trailing bytes at byte {len(raw)}"):
        load_eraser(path)
    # a means block of 4 values in front of the 5-row basis
    means = struct.pack("<QQ", 1, 4) + b"\x00" * 32
    path.write_bytes(raw[:13] + means + raw[13 + 16 + 40:])
    with pytest.raises(FormatError, match="byte 13 is 1x4, expected 1x5 for the block at byte 61"):
        load_eraser(path)
    path.write_bytes(raw[:13] + struct.pack("<QQ", 1, 0) + struct.pack("<QQ", 0, 0))
    with pytest.raises(FormatError, match="empty 1x0 block at byte 13"):
        load_eraser(path)


def test_eraser_shapes_checked():
    sal, inlp = _fitted_erasers()
    with pytest.raises(InvalidInput, match="4 input means for 5 matrix rows"):
        Eraser(kind="sal", input_means=sal.input_means[:4], basis=sal.basis)
    with pytest.raises(InvalidInput, match="4 input means for 5 matrix rows"):
        Eraser(kind="inlp", input_means=inlp.input_means[:4], projection=inlp.projection)
    with pytest.raises(InvalidInput, match="square"):
        Eraser(kind="inlp", input_means=inlp.input_means, projection=inlp.projection[:, :4])


def test_eraser_checks_reject_huge_and_non_finite_matrices():
    # the checks must fail on an inf or nan check value, and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad, first_failed in ((1e200, "idempotent"), (np.nan, "symmetric"),
                                  (np.inf, "symmetric")):
            diag = np.diag([1.0, 1.0, bad])
            with pytest.raises(InvalidInput, match=f"not {first_failed}"):
                Eraser(kind="inlp", input_means=np.zeros(3), projection=diag)
            with pytest.raises(InvalidInput, match="not orthonormal"):
                Eraser(kind="sal", input_means=np.zeros(3), basis=diag[:, 1:])


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


def test_pipeline_config_validation(tmp_path):
    for name in ("x.bin", "z.bin"):
        save_matrix(np.eye(2), tmp_path / name)
    base = dict(x=str(tmp_path / "x.bin"), records=str(tmp_path / "z.bin"),
                output_dir=str(tmp_path))
    values = {**{k: "" for k in ("priors", "seed_labels", "y", "truth")},
              "slack": "0.2", "max_iterations": "5", "num_seeds": "1",
              "rng_seed": "0", "score_k": "full",
              "removal": "sal", "removal_rank": "auto", "inlp_rounds": "3",
              "y_kind": "none", **base}
    for change, match in (({"seed_labels": "seed.csv"}, "seed_labels file not found"),
                          ({"removal": "lasso"}, "removal must be"),
                          ({"y_kind": "ranking"}, "y_kind must be"),
                          ({"y_kind": "regression"}, "requires a y file")):
        cfg = PipelineConfig.from_values({**values, **change})
        with pytest.raises(InvalidInput, match=match):
            cfg.validate()
    PipelineConfig.from_values(values).validate()


def test_pipeline_config_from_values_defaults_and_located_errors():
    required = {"x": "a", "records": "b", "output_dir": "c"}
    cfg = PipelineConfig.from_values(required)
    assert cfg == PipelineConfig(x="a", records="b", output_dir="c")
    assert (cfg.slack, cfg.inlp_rounds, cfg.max_iterations, cfg.score_k) == (
        PRIOR_SLACK, INLP_ROUNDS, AmsalConfig.max_iterations, AmsalConfig.score_k)
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
        # means block at byte 13 holds 5 values; the matrix block follows at 13 + 16 + 40
        for value_at, block_at in ((13 + 16 + 8, 13), (69 + 16 + 24, 69)):
            for bad in (np.nan, np.inf):
                path.write_bytes(raw[:value_at] + struct.pack("<d", bad) + raw[value_at + 8:])
                with pytest.raises(FormatError, match=f"non-finite value in the block at byte "
                                                      f"{block_at}$"):
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
