import hashlib

import numpy as np
import pytest

from amsal.cli import main
from amsal.io import load_assignment, load_labels, load_matrix, save_assignment, save_matrix


def _synth(tmp_path, n=120, seed=0):
    out = tmp_path / "data"
    rc = main([
        "synth", "--out", str(out), "--n", str(n), "--seed", str(seed),
        "--priors", "0.7", "0.3",
    ])
    assert rc == 0
    return out


def test_synth_writes_expected_files(tmp_path):
    out = _synth(tmp_path)
    for name in ("x.bin", "z_samples.bin", "z_records.bin", "truth.csv", "states.csv", "priors.csv"):
        assert (out / name).exists(), name
    x = load_matrix(out / "x.bin")
    assert x.shape == (120, 8)
    truth = load_assignment(out / "truth.csv")
    records = load_matrix(out / "z_records.bin")
    assert truth.map.max() < records.shape[0]
    states = load_labels(out / "states.csv")
    assert (out / "states.csv").read_text() == "".join(f"{int(h)}\n" for h in states)
    counts = np.bincount(truth.map, minlength=records.shape[0])
    assert (out / "priors.csv").read_text() == ",".join(repr(float(c) / 120) for c in counts) + "\n"


def test_synth_refuses_slack_flag(tmp_path, capsys):
    # synth saves no count bounds, so it takes no slack for them
    with pytest.raises(SystemExit) as exit_:
        main(["synth", "--out", str(tmp_path / "data"), "--n", "20", "--slack", "0.3"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --slack 0.3" in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


def test_align_and_erase_cli(tmp_path, capsys):
    out = _synth(tmp_path, n=150, seed=1)
    align_dir = tmp_path / "align"
    rc = main([
        "align", "--x", str(out / "x.bin"), "--records", str(out / "z_records.bin"),
        "--priors", "0.7", "0.3", "--truth", str(out / "truth.csv"),
        "--out", str(align_dir), "--rng-seed", "0",
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "objective" in printed and "alignment_accuracy" in printed
    assert (align_dir / "assignment.csv").exists()
    assert (align_dir / "trace.csv").read_text().startswith("iteration,seed,objective,accuracy")

    erase_dir = tmp_path / "erase"
    rc = main([
        "erase", "--x", str(out / "x.bin"), "--records", str(out / "z_records.bin"),
        "--assignment", str(align_dir / "assignment.csv"),
        "--method", "sal", "--out", str(erase_dir),
    ])
    assert rc == 0
    erased = load_matrix(erase_dir / "x_erased.bin")
    assert erased.shape == (150, 8)

    rc = main([
        "erase", "--x", str(out / "x.bin"), "--assignment", str(align_dir / "assignment.csv"),
        "--method", "inlp", "--max-rounds", "3", "--out", str(tmp_path / "erase2"),
    ])
    assert rc == 0


def test_erase_sal_requires_records(tmp_path, capsys):
    out = _synth(tmp_path, n=60, seed=2)
    save_assignment(load_assignment(out / "truth.csv"), tmp_path / "pi.csv")
    # a missing x file shows that the flag is refused before any file is loaded
    for x in (tmp_path / "missing.bin", out / "x.bin"):
        rc = main([
            "erase", "--x", str(x), "--assignment", str(tmp_path / "pi.csv"),
            "--method", "sal", "--out", str(tmp_path / "e"),
        ])
        assert rc == 2
        assert "error: InvalidInput: --method sal requires --records" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_cli_classification(tmp_path, capsys):
    (tmp_path / "yt.csv").write_text("1\n1\n1\n1\n1\n1\n")
    (tmp_path / "yp.csv").write_text("1\n1\n1\n1\n1\n0\n")
    (tmp_path / "z.csv").write_text("1\n1\n1\n1\n0\n0\n")
    rc = main([
        "eval", "--task", "classification", "--y-true", str(tmp_path / "yt.csv"),
        "--y-pred", str(tmp_path / "yp.csv"), "--z", str(tmp_path / "z.csv"),
        "--out", str(tmp_path / "report.txt"),
    ])
    assert rc == 0
    text = (tmp_path / "report.txt").read_text()
    assert "tpr_gap_rms = 0.5" in text


def _pipeline_cfg(tmp_path, out_name, seed=0):
    data_dir = _synth(tmp_path, n=150, seed=3)
    y = (load_labels(data_dir / "states.csv") + 1) % 2
    ypath = tmp_path / "y.csv"
    ypath.write_text("".join(f"{v}\n" for v in y))
    cfg = tmp_path / f"{out_name}.cfg"
    cfg.write_text(
        f"x = {data_dir / 'x.bin'}\n"
        f"records = {data_dir / 'z_records.bin'}\n"
        f"truth = {data_dir / 'truth.csv'}\n"
        f"y = {ypath}\n"
        "y_kind = classification\n"
        "priors = 0.7,0.3\n"
        f"rng_seed = {seed}\n"
        f"output_dir = {tmp_path / out_name}\n"
    )
    return cfg


def test_pipeline_cli_end_to_end(tmp_path, capsys):
    cfg = _pipeline_cfg(tmp_path, "run1")
    rc = main(["pipeline", "--config", str(cfg)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "alignment_accuracy" in printed
    out = tmp_path / "run1"
    for name in ("assignment.csv", "eraser.bin", "x_erased.bin", "trace.csv", "report.txt"):
        assert (out / name).exists(), name


def test_pipeline_with_nothing_to_report_writes_an_empty_report(tmp_path, capsys):
    data = _synth(tmp_path, n=60)
    cfg = tmp_path / "bare.cfg"
    cfg.write_text(f"x = {data / 'x.bin'}\nrecords = {data / 'z_records.bin'}\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "out" / "report.txt").read_bytes() == b""


def test_pipeline_reruns_byte_identical(tmp_path):
    cfg1 = _pipeline_cfg(tmp_path, "a")
    main(["pipeline", "--config", str(cfg1)])
    cfg2 = _pipeline_cfg(tmp_path, "b")
    main(["pipeline", "--config", str(cfg2)])
    for name in ("assignment.csv", "eraser.bin", "x_erased.bin", "trace.csv", "report.txt"):
        h1 = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        h2 = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
        assert h1 == h2, name


def test_pipeline_partial_without_labels_fails_fast(tmp_path, capsys):
    # seed_labels alone turns on partial selection; the old selection key is gone
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "x = missing.bin\nrecords = missing.bin\noutput_dir = out\nselection = partial\n"
    )
    rc = main(["pipeline", "--config", str(cfg)])
    assert rc == 2
    assert f"FormatError: {cfg}: line 4: unknown key 'selection'" in capsys.readouterr().err


@pytest.mark.parametrize("with_labels", [False, True])
def test_cli_and_pipeline_resolve_the_same_defaults(tmp_path, with_labels):
    data = _synth(tmp_path, n=150, seed=6)
    x, records = str(data / "x.bin"), str(data / "z_records.bin")
    priors = (data / "priors.csv").read_text().strip()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x = {x}\nrecords = {records}\npriors = {priors}\n"
                   f"removal = inlp\noutput_dir = {tmp_path / 'pipe'}\n")
    labels = []
    if with_labels:
        truth = load_assignment(data / "truth.csv").map
        seeds = tmp_path / "seeds.csv"
        seeds.write_text("".join(f"{i},{truth[i]}\n" for i in (0, 7, 19, 40)))
        with open(cfg, "a") as fh:
            fh.write(f"seed_labels = {seeds}\n")
        labels = ["--labels", str(seeds)]
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert main(["align", "--x", x, "--records", records, "--priors", *priors.split(","),
                 *labels, "--out", str(tmp_path / "cli")]) == 0
    assert main(["erase", "--method", "inlp", "--x", x,
                 "--assignment", str(tmp_path / "pipe" / "assignment.csv"),
                 "--out", str(tmp_path / "cli")]) == 0
    for name in ("assignment.csv", "trace.csv", "eraser.bin"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "pipe" / name).read_bytes()


def test_align_k_zero_rejected_like_score_k_zero(tmp_path, capsys):
    out = _synth(tmp_path, n=60, seed=4)
    rc = main([
        "align", "--x", str(out / "x.bin"), "--records", str(out / "z_records.bin"),
        "--k", "0", "--out", str(tmp_path / "a"),
    ])
    assert rc == 2
    assert "score_k must be a positive count" in capsys.readouterr().err


def test_align_out_of_range_seed_label_exits_2(tmp_path, capsys):
    out = _synth(tmp_path, n=60, seed=4)
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("0,1\n60,0\n")
    argv = [
        "align", "--x", str(out / "x.bin"), "--records", str(out / "z_records.bin"),
        "--labels", str(seeds), "--out", str(tmp_path / "a"),
    ]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert "seed label pair 1 (60, 0)" in err
    assert f"{seeds}: line 2: seed label pair 1 (60, 0): index must be in [0, 60)" in err
    seeds.write_text("0,1\n\n70,1\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{seeds}: line 3: seed label pair 1 (70, 1): index must be in [0, 60)" in err
    assert "Traceback" not in err
    seeds.write_text("5,0\n3,2\n")
    assert main(argv) == 2
    assert f"{seeds}: line 2: seed label pair 1 (3, 2): record id must be in [0, 2)" in (
        capsys.readouterr().err)
    seeds.write_text("3,0\n5,1\n3,1\n")
    assert main(argv) == 2
    assert f"{seeds}: line 3: seed label pair 2 (3, 1): index 3 repeats line 1" in (
        capsys.readouterr().err)


def test_pipeline_out_of_range_seed_label_names_file_and_line(tmp_path, capsys):
    cfg = _pipeline_cfg(tmp_path, "run")
    (tmp_path / "seeds.csv").write_text("0,1\n9999,0\n")
    with open(cfg, "a") as fh:
        fh.write(f"seed_labels = {tmp_path / 'seeds.csv'}\n")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'seeds.csv'}: line 2: seed label pair 1 (9999, 0)" in err
    assert "index must be in [0, 150)" in err and "Traceback" not in err
    (tmp_path / "seeds.csv").write_text("7,1\n7,1\n")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert (f"{tmp_path / 'seeds.csv'}: line 2: seed label pair 1 (7, 1): "
            "index 7 repeats line 1") in capsys.readouterr().err


def test_align_prior_count_mismatch_is_located(tmp_path, capsys):
    out = _synth(tmp_path, n=60, seed=4)
    rc = main([
        "align", "--x", str(out / "x.bin"), "--records", str(out / "z_records.bin"),
        "--priors", "0.5", "0.3", "0.2", "--out", str(tmp_path / "a"),
    ])
    assert rc == 2
    assert f"{out / 'z_records.bin'}: 3 priors for 2 records" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_pipeline_prior_count_mismatch_names_the_records_file_before_any_output(tmp_path,
                                                                               capsys):
    out = _synth(tmp_path, n=60, seed=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x = {out / 'x.bin'}\nrecords = {out / 'z_records.bin'}\n"
                   f"priors = 0.3,0.3,0.4\noutput_dir = {tmp_path / 'run'}\n")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert f"{out / 'z_records.bin'}: 3 priors for 2 records" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_regression_short_predictions_exit_2(tmp_path, capsys):
    (tmp_path / "yt.csv").write_text("0.5\n1.5\n2.5\n")
    (tmp_path / "yp.csv").write_text("0.5\n1.0\n")
    (tmp_path / "z.csv").write_text("0\n1\n1\n")
    rc = main([
        "eval", "--task", "regression", "--y-true", str(tmp_path / "yt.csv"),
        "--y-pred", str(tmp_path / "yp.csv"), "--z", str(tmp_path / "z.csv"),
    ])
    assert rc == 2
    assert "3 gold values, 2 predictions and 3 groups" in capsys.readouterr().err


def test_eval_regression_scores_sparse_group_ids_like_dense_ones(tmp_path, capsys):
    (tmp_path / "yt.csv").write_text("0.5\n1.5\n2.5\n")
    (tmp_path / "yp.csv").write_text("0.5\n1.0\n2.0\n")
    reports = []
    for ids in ("0\n1\n1\n", "0\n2\n2\n"):
        (tmp_path / "z.csv").write_text(ids)
        assert main(["eval", "--task", "regression", "--y-true", str(tmp_path / "yt.csv"),
                     "--y-pred", str(tmp_path / "yp.csv"), "--z", str(tmp_path / "z.csv")]) == 0
        reports.append(capsys.readouterr().out)
    assert "mae_gap" in reports[0] and reports[1] == reports[0]


def test_pipeline_regression_with_an_empty_record_writes_its_report(tmp_path, capsys):
    rng = np.random.default_rng(35)
    save_matrix(rng.standard_normal((20, 3)), tmp_path / "x.bin")
    save_matrix(rng.standard_normal((3, 2)), tmp_path / "z.bin")
    (tmp_path / "y.csv").write_text("".join(f"{v!r}\n" for v in rng.standard_normal(20).tolist()))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x = {tmp_path / 'x.bin'}\nrecords = {tmp_path / 'z.bin'}\n"
                   f"y = {tmp_path / 'y.csv'}\ny_kind = regression\n"
                   f"priors = 0.48,0.04,0.48\nslack = 0.5\noutput_dir = {tmp_path / 'run'}\n")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    pi = load_assignment(tmp_path / "run" / "assignment.csv")
    assert np.bincount(pi.map, minlength=3)[1] == 0  # the groups are records 0 and 2
    assert "mae_gap = " in (tmp_path / "run" / "report.txt").read_text()


def test_pipeline_y_length_mismatch_exit_2(tmp_path, capsys):
    cfg = _pipeline_cfg(tmp_path, "run")
    (tmp_path / "y.csv").write_text("0\n1\n" * 10)
    rc = main(["pipeline", "--config", str(cfg)])
    assert rc == 2
    assert f"{tmp_path / 'y.csv'}: 20 values for the 150 rows of x" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, message", [
    ("1\n" * 150, "every label is 1; need 2 classes or more"),
    ("0\n1\n0.5\n" + "1\n" * 147, "line 3: not an integer"),
], ids=["one-class", "not-an-integer"])
def test_pipeline_unusable_y_exits_2_before_any_output(tmp_path, capsys, text, message):
    cfg = _pipeline_cfg(tmp_path, "run")
    (tmp_path / "y.csv").write_text(text)
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'y.csv'}: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, flag", [("truth", "--truth"), ("seed_labels", "--labels")])
def test_missing_truth_or_seed_file_same_error_from_align_and_pipeline(tmp_path, capsys,
                                                                        key, flag):
    data = _synth(tmp_path, n=60, seed=4)
    x, records = str(data / "x.bin"), str(data / "z_records.bin")
    missing = str(tmp_path / "missing.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x = {x}\nrecords = {records}\n{key} = {missing}\n"
                   f"output_dir = {tmp_path / 'pipe'}\n")
    errors = []
    for argv in (["align", "--x", x, "--records", records, flag, missing,
                  "--out", str(tmp_path / "cli")],
                 ["pipeline", "--config", str(cfg)]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: InvalidInput: {missing}: No such file or directory\n"
    assert not (tmp_path / "cli").exists() and not (tmp_path / "pipe").exists()


def _unreadable_input_argv(tmp_path, bad):
    """For each subcommand, a command line whose only unusable file is bad."""
    for name, text in (("x.csv", "1,2\n3,4\n5,6\n"), ("z.csv", "1,0\n0,1\n"),
                       ("pi.csv", "0\n1\n0\n"), ("y.csv", "0\n1\n1\n")):
        (tmp_path / name).write_text(text)
    x, z, pi, y = (str(tmp_path / name) for name in ("x.csv", "z.csv", "pi.csv", "y.csv"))
    out = str(tmp_path / "out")
    return {
        "align": ["align", "--x", x, "--records", z, "--labels", bad, "--out", out],
        "erase": ["erase", "--x", bad, "--assignment", pi, "--method", "inlp", "--out", out],
        "eval": ["eval", "--task", "classification", "--y-true", y, "--y-pred", bad, "--z", pi],
        "pipeline": ["pipeline", "--config", bad],
    }


@pytest.mark.parametrize("command", ["align", "erase", "eval", "pipeline"])
def test_unreadable_input_file_exits_2_naming_it(tmp_path, capsys, command):
    # main() catching the error is what keeps a traceback off stderr: an
    # uncaught exception would propagate out of it and fail this test
    missing = str(tmp_path / "missing.csv")
    assert main(_unreadable_input_argv(tmp_path, missing)[command]) == 2
    assert f"InvalidInput: {missing}: No such file or directory" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_bytes(b" \n\xff\xfe\n")  # line 1 is blank in every format
    assert main(_unreadable_input_argv(tmp_path, str(bad))[command]) == 2
    assert f"FormatError: {bad}: not UTF-8 text at byte 2" in capsys.readouterr().err


def test_pipeline_seed_labels_without_partial_selection_exit_2(tmp_path, capsys):
    cfg = _pipeline_cfg(tmp_path, "run")
    (tmp_path / "seeds.csv").write_text("9999,7\n")
    with open(cfg, "a") as fh:
        fh.write(f"seed_labels = {tmp_path / 'seeds.csv'}\n")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'seeds.csv'}: line 1: seed label pair 0 (9999, 7)" in err
    assert "index must be in [0, 150)" in err and "Traceback" not in err


def test_erase_inlp_refuses_sal_only_flags(tmp_path, capsys):
    out = _synth(tmp_path, n=60, seed=5)
    records = str(out / "z_records.bin")
    # a missing x file shows that each flag is refused before any file is loaded
    for x in (str(tmp_path / "missing.bin"), str(out / "x.bin")):
        base = ["erase", "--x", x, "--assignment", str(out / "truth.csv"),
                "--out", str(tmp_path / "e")]
        for method, flag, extra in (
            ("inlp", "--records", [records]), ("inlp", "--rank", ["2"]),
            ("inlp", "--rank", ["auto"]),
            ("sal", "--max-rounds", ["3"]),
        ):
            sal_args = ["--records", records] if method == "sal" else []
            assert main(base + ["--method", method, flag] + extra + sal_args) == 2
            err = capsys.readouterr().err
            assert f"InvalidInput: {flag} does not apply to --method {method}" in err
    assert not (tmp_path / "e").exists()
    assert main(base + ["--method", "inlp"]) == 0
    assert main(base + ["--method", "sal", "--records", records]) == 0


@pytest.mark.parametrize("method", ["sal", "inlp"])
@pytest.mark.parametrize("flag, values", [("--priors", ["0.7", "0.3"]), ("--slack", ["0.3"])])
def test_erase_refuses_count_bound_flags(tmp_path, capsys, method, flag, values):
    # no eraser reads count bounds, so erase takes no priors or slack for them
    out = _synth(tmp_path, n=60, seed=5)
    argv = ["erase", "--x", str(out / "x.bin"), "--assignment", str(out / "truth.csv"),
            "--method", method, "--out", str(tmp_path / "e"), flag, *values]
    if method == "sal":
        argv += ["--records", str(out / "z_records.bin")]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {' '.join(values)}" in err and "Traceback" not in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("method, bad_row, message", [
    ("sal", "5", "row 49: record id 5 outside [0, 2)"),
    ("inlp", "-1", "row 49: record id -1 is negative"),
    ("sal", None, "row 48: the map has 48 rows, expected 50"),
    ("inlp", None, "row 48: the map has 48 rows, expected 50"),
], ids=["id-past-records", "negative-id", "short-sal", "short-inlp"])
def test_erase_bad_assignment_exits_2_naming_file_and_row(tmp_path, capsys, method, bad_row,
                                                          message):
    data = _synth(tmp_path, n=50, seed=7)  # 2 records
    ids = [str(j) for j in load_assignment(data / "truth.csv").map.tolist()]
    pi = tmp_path / "assignment.csv"
    pi.write_text("\n".join(ids[:49] + [bad_row] if bad_row else ids[:48]) + "\n")
    argv = ["erase", "--x", str(data / "x.bin"), "--assignment", str(pi),
            "--method", method, "--out", str(tmp_path / "e")]
    if method == "sal":
        argv += ["--records", str(data / "z_records.bin")]
    assert main(argv) == 2  # main() returning at all means no traceback escaped
    err = capsys.readouterr().err
    assert f"InvalidInput: {pi}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "e").exists()


def test_synth_unwritable_output_file_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "s"
    (out / "states.csv").mkdir(parents=True)
    assert main(["synth", "--out", str(out), "--n", "20"]) == 2
    assert f"InvalidInput: {out / 'states.csv'}: Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["align", "erase", "pipeline", "eval"])
def test_unusable_output_path_exits_2_naming_it(tmp_path, capsys, command):
    (tmp_path / "notadir").write_text("")
    bad = str(tmp_path / "notadir" / "sub")
    if command == "pipeline":
        cfg = _pipeline_cfg(tmp_path, "run")
        cfg.write_text(cfg.read_text().replace(str(tmp_path / "run"), bad))
        argv = ["pipeline", "--config", str(cfg)]
    else:
        data = _synth(tmp_path, n=60, seed=6)
        x, z, truth = (str(data / name) for name in ("x.bin", "z_records.bin", "truth.csv"))
        argv = {
            "align": ["align", "--x", x, "--records", z, "--out", bad],
            "erase": ["erase", "--x", x, "--assignment", truth, "--method", "inlp", "--out", bad],
            "eval": ["eval", "--task", "classification", "--y-true", truth, "--y-pred", truth,
                     "--z", truth, "--out", bad],
        }[command]
    assert main(argv) == 2
    assert f"InvalidInput: {bad}: Not a directory" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", [
    ["align"],
    ["erase", "--method", "sal", "--assignment", "{pi}"],
], ids=["align", "erase-sal"])
def test_overflowing_cross_covariance_is_invalid_input(tmp_path, capsys, command):
    """Inputs at 1e200 make x^T z overflow: the CLI says so and exits 2
    instead of warning and failing later on an infinite matrix."""
    rng = np.random.default_rng(5)
    save_matrix(1e200 * rng.standard_normal((40, 4)), tmp_path / "x.bin")
    save_matrix(1e200 * rng.standard_normal((2, 3)), tmp_path / "z.bin")
    (tmp_path / "pi.csv").write_text("".join(f"{i % 2}\n" for i in range(40)))
    rc = main([a.format(pi=tmp_path / "pi.csv") for a in command] + [
        "--x", str(tmp_path / "x.bin"), "--records", str(tmp_path / "z.bin"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "the cross-covariance of x and the records overflows" in capsys.readouterr().err


@pytest.mark.parametrize("flag, key", [("--x", "x"), ("--records", "records"),
                                       ("--out", "output_dir")])
def test_align_empty_path_exits_2_naming_the_key(tmp_path, capsys, flag, key):
    data = _synth(tmp_path, n=60, seed=2)
    paths = {"--x": str(data / "x.bin"), "--records": str(data / "z_records.bin"),
             "--out": str(tmp_path / "out"), flag: ""}
    assert main(["align", *(a for item in paths.items() for a in item)]) == 2
    err = capsys.readouterr().err
    assert f"error: InvalidInput: {key} must name a " in err and "got an empty path" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, message", [
    ("removal = inlp\ninlp_rounds = -2\n", "line 5: inlp_rounds must be non-negative, got -2"),
    ("removal_rank = 0\n", "line 4: removal_rank must be a positive count or 'auto', got 0"),
    ("num_seeds = 0\n", "line 4: num_seeds must be at least 1"),
    ("max_iterations = -1\n", "line 4: max_iterations must be at least 1"),
    ("score_k = 0\n", "line 4: score_k must be a positive count or 'full'"),
    ("slack = 1.5\n", "line 4: slack must be in [0, 1), got 1.5"),
    ("priors = 0.5,,0.5\n", "line 4: bad field value for 'priors'"),
], ids=["inlp_rounds", "removal_rank", "num_seeds", "max_iterations", "score_k", "slack",
        "priors"])
def test_pipeline_bad_config_value_exits_2_naming_its_line_before_any_output(
        tmp_path, capsys, body, message):
    data = _synth(tmp_path, n=60)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x = {data / 'x.bin'}\nrecords = {data / 'z_records.bin'}\n"
                   f"output_dir = {tmp_path / 'out'}\n{body}")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_pipeline_removal_rank_of_d_exits_2_before_any_output(tmp_path, capsys):
    data = _synth(tmp_path, n=60)  # x has d = 8 columns
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x = {data / 'x.bin'}\nrecords = {data / 'z_records.bin'}\n"
                   f"output_dir = {tmp_path / 'out'}\nremoval_rank = 8\n")
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: InvalidInput: cannot remove removal_rank=8 of d=8 directions" in err
    assert not (tmp_path / "out").exists()


def _stage_refusal(tmp_path, case):
    """argv and expected message of a refusal inside the align stage, or of
    an erase flag refused before the stage."""
    if case == "align-overflow":
        rng = np.random.default_rng(5)
        save_matrix(1e200 * rng.standard_normal((40, 4)), tmp_path / "x.bin")
        save_matrix(1e200 * rng.standard_normal((2, 3)), tmp_path / "z.bin")
        return (["align", "--x", str(tmp_path / "x.bin"), "--records", str(tmp_path / "z.bin")],
                "the cross-covariance of x and the records overflows")
    data = _synth(tmp_path, n=60)  # x has d = 8 columns
    argv = ["erase", "--method", "sal", "--x", str(data / "x.bin"),
            "--assignment", str(data / "truth.csv")]
    if case == "erase-rank":
        return (argv + ["--records", str(data / "z_records.bin"), "--rank", "8"],
                "error: InvalidInput: cannot remove --rank=8 of d=8 directions")
    return argv, "error: InvalidInput: --method sal requires --records"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["align-overflow", "erase-rank", "erase-no-records"])
def test_stage_refusal_exits_2_and_leaves_no_output_directory(tmp_path, capsys, case):
    argv, message = _stage_refusal(tmp_path, case)
    assert main(argv + ["--out", str(tmp_path / "out" / "run")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_stage_refusal_keeps_an_output_directory_it_did_not_create(tmp_path, capsys):
    argv, message = _stage_refusal(tmp_path, "align-overflow")
    (tmp_path / "out").mkdir()
    assert main(argv + ["--out", str(tmp_path / "out" / "run")]) == 2
    assert message in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []
