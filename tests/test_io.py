import re
import struct
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
from amsal.driver import AmsalTrace, TraceRow


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
    save_matrix(m, tmp_path / "m.csv", fmt=CSV, header=True)
    # the row format before rows were formatted from matrix.tolist()
    expected = ",".join(f"c{j}" for j in range(8)) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in m)
    assert (tmp_path / "m.csv").read_bytes() == expected.encode()
    np.testing.assert_array_equal(load_matrix(tmp_path / "m.csv"), m)


def test_trivial_one_by_one(tmp_path):
    for name in ("t.bin", "t.csv"):
        path = tmp_path / name
        save_matrix(np.array([[0.0]]), path)
        np.testing.assert_array_equal(load_matrix(path), [[0.0]])


def test_csv_header_row(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1.5,2.5\n")
    np.testing.assert_allclose(load_matrix(path), [[1.5, 2.5]])
    save_matrix(np.array([[1.0, 2.0]]), tmp_path / "w.csv", header=True)
    assert (tmp_path / "w.csv").read_text().splitlines()[0] == "c0,c1"


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
        load_matrix(path, fmt=BIN)
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
    base = dict(x="x.bin", records="z.bin", output_dir=str(tmp_path))
    values = {**{k: "" for k in ("priors", "seed_labels", "y", "truth")},
              "slack": "0.2", "max_iterations": "5", "num_seeds": "1",
              "rng_seed": "0", "score_k": "full", "selection": "partial",
              "removal": "sal", "removal_rank": "auto", "inlp_rounds": "3",
              "y_kind": "none", **base}
    cfg = PipelineConfig.from_values(values)
    with pytest.raises(InvalidInput, match="seed_labels"):
        cfg.validate()
    cfg = PipelineConfig.from_values({**values, "selection": "unsupervised",
                                      "seed_labels": "seed.csv"})
    with pytest.raises(InvalidInput, match="seed_labels file require each other"):
        cfg.validate()


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
        bad.write_bytes(b"1\n\xff\xfe2\n")
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
