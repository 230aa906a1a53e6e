"""On-disk formats and the align -> erase -> evaluate stages.

Each stage has one implementation, shared by the CLI subcommands and
`run_pipeline`: `load_align_inputs` reads x, the count-bounded records,
the `AmsalConfig` and the truth map or None from a `PipelineConfig`,
`align` runs the search and writes assignment.csv and trace.csv, `erase`
fits and applies a SAL or INLP eraser and writes eraser.bin and
x_erased.<fmt>, and `evaluate` scores predictions.

Two matrix formats: CSV for interchange (shortest round-trip float
printing, optional header row) and a raw binary format for speed and
bit-exact round trips. The binary layout is magic "AMSL", version u32,
rows u64, cols u64 (all little endian), then rows*cols float64 values
row major. Eraser model files (version 2) hold magic "AMSE", version u32,
kind u8 (0 sal, 1 inlp), INLP rounds u32, then one (1 + r) x d block, rows
u64, cols u64 and float64 values: the input means, then the r removed
directions as rows. Pipeline configuration is a flat key = value text
file so runs can be replayed without any extra dependencies.

Matrix files move in about the matrix's own memory: binary payloads go
straight between the file and the array, and CSV is written a row at a
time and parsed a line at a time into one float64 buffer. A label or
value file is decoded and parsed whole in one pass. A file with several
faults reports the first one in file order: the other text readers walk
their file a line at a time, and a label or value reader that meets a
fault rescans its file that way to name it.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import stat
import struct
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .assignment import PRIOR_SLACK, Assignment, GuardedRecords, bounds_from_priors
from .driver import AmsalConfig, alignment_accuracy, run_amsal
from .errors import AmsalError, FormatError, InvalidInput
from .linalg import _as_index_map, as_matrix
from .metrics import EvalReport, accuracy, f1_macro, mae, mae_gap, tpr_gap_rms
from .removal import (INLP, INLP_ROUNDS, SAL, Eraser, _check_rank, _check_rounds,
                      apply_eraser, fit_inlp, fit_logistic_probe, fit_sal)

MATRIX_MAGIC = b"AMSL"
ERASER_MAGIC = b"AMSE"
FORMAT_VERSION = 1
ERASER_VERSION = 2  # version 1 stored the kept basis or the projection

CSV = "csv"
BIN = "bin"


def _infer_format(path, head=None):
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return CSV
    if suffix == ".bin":
        return BIN
    if head is not None and head[:4] == MATRIX_MAGIC:
        return BIN
    return CSV if head is not None else BIN


def save_matrix(matrix, path, fmt=None):
    """Write a matrix; format comes from *fmt* or the suffix."""
    matrix = as_matrix(matrix, "matrix")
    fmt = fmt or _infer_format(path)
    if fmt == BIN:
        rows, cols = matrix.shape
        with _opened(path, "wb") as fh:
            fh.write(struct.pack("<4sIQQ", MATRIX_MAGIC, FORMAT_VERSION, rows, cols))
            fh.write(np.ascontiguousarray(matrix, dtype="<f8"))  # buffer protocol, no copy
    elif fmt == CSV:
        with _opened(path, "w") as fh:
            for row in matrix:  # Python floats: repr is the shortest round trip
                fh.write(",".join(map(repr, row.tolist())) + "\n")
    else:
        raise InvalidInput(f"unknown matrix format {fmt!r}")


def output_dir(path):
    """Create directory path and its parents; InvalidInput names the path
    when that fails. Returns it as a Path."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc.strerror}") from None
    return Path(path)


@contextmanager
def _stage_output(path):
    """A stage's output directory path, created up front so that an
    unusable path fails before the stage runs. If the stage raises an
    AmsalError before writing a file, the directories this call created
    are removed again, so a refusal leaves nothing behind."""
    path = Path(path)
    created = [d for d in (path, *path.parents) if not os.path.exists(d)]  # deepest first
    out = output_dir(path)
    try:
        yield out
    except AmsalError:
        for d in created:
            try:
                d.rmdir()
            except OSError:  # a file was written
                break
        raise


@contextmanager
def _opened(path, mode):
    """path opened in mode; an OSError while opening, reading or writing
    it raises InvalidInput naming the path."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc.strerror}") from None


def _lines(fh, path):
    """(line number, line) for each line of the binary file fh, split and
    numbered as str.splitlines() splits its whole text, holding one
    b"\n"-ended piece of it at a time. An invalid UTF-8 sequence raises
    FormatError naming its byte offset once the lines before it have
    been yielded."""
    ln = 0
    offset = 0
    for raw in fh:  # each piece ends at b"\n", which no UTF-8 sequence or "\r\n" spans
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the lines complete before the bad byte come first; "x" ends
            # the one it falls in, so [:-1] drops that line alone
            for line in (raw[:exc.start].decode("utf-8") + "x").splitlines()[:-1]:
                ln += 1
                yield ln, line
            raise FormatError(f"{path}: not UTF-8 text at byte {offset + exc.start}") from None
        offset += len(raw)
        for line in text.splitlines():
            ln += 1
            yield ln, line


def load_matrix(path):
    """Read a matrix back, in the format of its suffix or else its magic;
    BIN round trips are bit exact."""
    with _opened(path, "rb") as fh:
        if _infer_format(path, fh.peek(4)) == BIN:
            return _parse_bin(fh, path)
        return _parse_csv(fh, path)


def _parse_bin(fh, path):
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        raise FormatError(f"{path}: a BIN matrix must be a regular file (a pipe has no size)")
    head = fh.read(24)
    if len(head) < 24:
        raise FormatError(f"{path}: truncated header at byte {len(head)} (need 24 bytes)")
    magic, version, rows, cols = struct.unpack("<4sIQQ", head)
    if magic != MATRIX_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    if rows < 1 or cols < 1 or rows * cols > 2**48:
        raise FormatError(f"{path}: bad dimensions {rows}x{cols} at byte 8")
    expect = 24 + rows * cols * 8
    size = info.st_size
    if size == expect:
        data = np.empty((rows, cols), dtype="<f8")
        size = 24 + fh.readinto(data)  # less if the file shrank after fstat
    if size != expect:
        raise FormatError(
            f"{path}: payload size mismatch at byte 24 (file {size}, expected {expect})"
        )
    return as_matrix(data, str(path))


def _parse_csv(fh, path):
    values = array("d")
    width = None
    header_allowed = True
    for ln, line in _lines(fh, path):
        if not line.strip():
            continue
        fields = line.split(",")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue  # a single leading non-numeric row is a header
            bad = next(i for i, f in enumerate(fields, start=1) if not _is_float(f))
            raise FormatError(f"{path}: line {ln}, field {bad}: not a number") from None
        header_allowed = False
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"{path}: line {ln}: {len(row)} fields, expected {width}")
        values.extend(row)
    if not values:
        raise FormatError(f"{path}: no data rows")
    return as_matrix(np.frombuffer(values, dtype=np.float64).reshape(-1, width), str(path))


def _is_float(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


def save_labels(values, path):
    """Integers, one per line."""
    text = "".join(f"{v}\n" for v in np.asarray(values, dtype=np.int64).tolist())
    with _opened(path, "w") as fh:
        fh.write(text)


def save_assignment(pi, path):
    save_labels(pi.map, path)


def load_assignment(path, n=None, m=None):
    """Record ids, one per line. With n given the map must cover exactly
    n inputs, and with m its ids must lie in [0, m); errors name the path
    and the first bad row."""
    labels = load_labels(path)  # its errors name the path already
    try:
        pi = Assignment(labels)
        if n is not None:
            _as_index_map(pi, n, m)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from None
    return pi


def load_labels(path):
    """Integer labels, one per line."""
    return _load_column(path, _int64, "an integer", np.int64)


def load_values(path):
    """Finite float values, one per line."""
    return _load_column(path, _finite, "a finite number", np.float64)


def _finite(tok):
    value = float(tok)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _int64(tok):
    value = int(tok)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is outside int64")
    return value


def _load_column(path, parse, what, dtype):
    """One value per non-blank line: the file is read and decoded whole and
    its stripped lines parsed in one pass. On a fault a rescan a line at
    a time names the first one in file order, a bad value or a bad byte."""
    with _opened(path, "rb") as fh:
        raw = fh.read()
    try:
        values = [parse(tok) for line in raw.decode("utf-8").splitlines() if (tok := line.strip())]
    except (UnicodeDecodeError, ValueError):
        for ln, line in _lines(io.BytesIO(raw), path):
            try:
                if line.strip():
                    parse(line.strip())
            except ValueError:
                raise FormatError(f"{path}: line {ln}: not {what}") from None
        raise  # the rescan meets the same fault, so it never gets here
    if not values:
        raise FormatError(f"{path}: no data rows")
    return np.asarray(values, dtype=dtype)


def load_seed_labels(path, n=None, m=None):
    """Partial-supervision pairs: lines of "input_index,record_index". With
    n given each index must lie in [0, n), and with m each record id in
    [0, m), and no index may be given twice; errors name the path and the
    line."""
    idx, val = [], []
    first_line = {}  # input index -> line that gave it
    with _opened(path, "rb") as fh:
        for ln, line in _lines(fh, path):
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise FormatError(f"{path}: line {ln}: expected index,record")
            try:
                i, j = _int64(fields[0]), _int64(fields[1])
            except ValueError:
                raise FormatError(f"{path}: line {ln}: not an integer pair") from None
            pair = f"{path}: line {ln}: seed label pair {len(idx)} ({i}, {j})"
            if n is not None and not 0 <= i < n:
                raise InvalidInput(f"{pair}: index must be in [0, {n})")
            if m is not None and not 0 <= j < m:
                raise InvalidInput(f"{pair}: record id must be in [0, {m})")
            if i in first_line:
                raise InvalidInput(f"{pair}: index {i} repeats line {first_line[i]}")
            first_line[i] = ln
            idx.append(i)
            val.append(j)
    if not idx:
        raise FormatError(f"{path}: no data rows")
    return np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=np.int64)


def save_eraser(eraser, path):
    block = np.vstack([eraser.input_means, eraser.directions.T])
    with _opened(path, "wb") as fh:
        fh.write(struct.pack("<4sIBIQQ", ERASER_MAGIC, ERASER_VERSION, int(eraser.kind == INLP),
                             eraser.iterations, *block.shape))
        fh.write(np.ascontiguousarray(block, dtype="<f8"))


def load_eraser(path):
    with _opened(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 13:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    magic, version, kind, iterations = struct.unpack_from("<4sIBI", raw, 0)
    if magic != ERASER_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
    if version != ERASER_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    if kind > 1:
        raise FormatError(f"{path}: unknown eraser kind {kind} at byte 8")
    if len(raw) < 29:
        raise FormatError(f"{path}: truncated block header at byte 13")
    rows, cols = struct.unpack_from("<QQ", raw, 13)
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: empty {rows}x{cols} block at byte 13")
    if len(raw) != 29 + rows * cols * 8:
        raise FormatError(f"{path}: payload size mismatch at byte 29 "
                          f"(file {len(raw)}, expected {29 + rows * cols * 8})")
    block = np.frombuffer(raw, dtype="<f8", offset=29).reshape(rows, cols)
    if not np.all(np.isfinite(block)):
        raise FormatError(f"{path}: non-finite value in the block at byte 13")
    try:
        return Eraser(kind=(SAL, INLP)[kind], input_means=block[0], directions=block[1:].T,
                      iterations=iterations)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from None


def save_trace(trace, path):
    """Objective trace as CSV: iteration, seed, objective, accuracy (blank without truth)."""
    with _opened(path, "w") as fh:
        fh.write("iteration,seed,objective,accuracy\n")
        for row in trace.rows:
            acc = "" if np.isnan(row.accuracy) else repr(row.accuracy)
            fh.write(f"{row.iteration},{row.seed},{repr(row.objective)},{acc}\n")


def format_report(report):
    """One "key = value" line per score the report holds; "" when it holds none."""
    return "".join(f"{key} = {value!r}\n" for key, value in report.as_dict().items())


def save_report(report, path):
    with _opened(path, "w") as fh:
        fh.write(format_report(report))


def _score_k(text):
    return text if text == "full" else int(text)


def _rank(text):
    return text if text == "auto" else int(text)


def _priors(text):
    return tuple(float(tok) for tok in text.split(",")) if text.strip() else ()


# parsers of the config values that are not strings
_PARSERS = {
    "priors": _priors,
    "slack": float,
    "max_iterations": int,
    "num_seeds": int,
    "rng_seed": int,
    "score_k": _score_k,
    "removal_rank": _rank,
    "inlp_rounds": int,
}


# the checks of the calls that each config value reaches, run on the value
# alone; an unset removal_rank or inlp_rounds is None
_CHECKS = {
    "priors": lambda v: v and bounds_from_priors(v, 1, PRIOR_SLACK),
    "slack": lambda v: bounds_from_priors([1.0], 1, v),
    "max_iterations": lambda v: AmsalConfig(max_iterations=v),
    "num_seeds": lambda v: AmsalConfig(num_seeds=v),
    "score_k": lambda v: AmsalConfig(score_k=v),
    "removal_rank": lambda v: v is None or _check_rank(v, name="removal_rank"),
    "inlp_rounds": lambda v: v is None or _check_rounds(v, name="inlp_rounds"),
}


def _refused(key, message, kind=InvalidInput):
    """kind(message) about the config key `key`; from_file puts the file
    and the line that set the key in front."""
    exc = kind(message)
    exc.key = key
    return exc


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """Parsed pipeline settings, one field per config key. The fields
    without a default are required; a seed_labels file turns on partial
    selection (see AmsalConfig). Bad or ignored settings are refused."""

    x: str
    records: str
    output_dir: str
    priors: tuple = ()
    slack: float = PRIOR_SLACK
    max_iterations: int = AmsalConfig.max_iterations
    num_seeds: int = AmsalConfig.num_seeds
    rng_seed: int = AmsalConfig.rng_seed
    score_k: int | str = AmsalConfig.score_k
    seed_labels: str = ""
    removal: str = SAL
    removal_rank: int | str | None = None  # sal only; unset is fit_sal's "auto"
    inlp_rounds: int | None = None  # inlp only; unset is INLP_ROUNDS
    y: str = ""
    y_kind: str = "none"
    truth: str = ""

    def __post_init__(self):
        for key, what in (("x", "file"), ("records", "file"), ("output_dir", "directory")):
            if not getattr(self, key):
                raise _refused(key, f"{key} must name a {what}, got an empty path")
        if self.removal not in (SAL, INLP):
            raise _refused("removal", f"removal must be 'sal' or 'inlp', got {self.removal!r}")
        for key, other in (("removal_rank", INLP), ("inlp_rounds", SAL)):
            if self.removal == other and getattr(self, key) is not None:
                raise _refused(key, f"{key} does not apply to removal = {other}")
        if self.y_kind not in ("classification", "regression", "none"):
            raise _refused("y_kind", "y_kind must be classification, regression or none")
        if self.y_kind != "none" and not self.y:
            raise _refused("y_kind", f"y_kind={self.y_kind} requires a y file")
        if self.y_kind == "none" and self.y:
            raise _refused("y", f"y = {self.y} is given but y_kind = none would ignore it; "
                                "set y_kind to classification or regression")
        for key, check in _CHECKS.items():
            try:
                check(getattr(self, key))
            except InvalidInput as exc:
                raise _refused(key, str(exc)) from None

    @classmethod
    def from_file(cls, path):
        keys = {f.name for f in dataclasses.fields(cls)}
        values = {}
        lines = {}  # key -> line that set it
        with _opened(path, "rb") as fh:
            for ln, line in _lines(fh, path):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise FormatError(f"{path}: line {ln}: expected key = value")
                key, _, value = stripped.partition("=")
                key = key.strip()
                if key not in keys:
                    raise FormatError(f"{path}: line {ln}: unknown key {key!r}")
                if key in lines:
                    raise FormatError(f"{path}: line {ln}: key {key!r} repeats line {lines[key]}")
                lines[key] = ln
                values[key] = value.strip()
        try:
            return cls.from_values(values, source=str(path))
        except (InvalidInput, FormatError) as exc:
            key = getattr(exc, "key", None)
            if key not in lines:
                raise
            raise type(exc)(f"{path}: line {lines[key]}: {exc}") from None

    @classmethod
    def from_values(cls, values, source="config"):
        """Settings from a key -> text mapping; keys left out keep their
        defaults. FormatError names an unknown key, a missing or empty
        required key (after `source`), or the key of a value that does not
        parse."""
        known = dataclasses.fields(cls)
        names = {f.name for f in known}
        for key in values:
            if key not in names:
                raise FormatError(f"{source}: unknown key {key!r}")
        for f in known:
            if f.default is dataclasses.MISSING and not values.get(f.name):
                raise FormatError(f"{source}: missing required key {f.name!r}")
        parsed = {}
        for key, text in values.items():
            try:
                parsed[key] = _PARSERS.get(key, str)(text)
            except ValueError as exc:
                raise _refused(key, f"bad field value for {key!r}: {exc}", FormatError) from None
        return cls(**parsed)


def guarded_records(z, n, priors, slack):
    """Records z with count bounds for n inputs from one prior per record
    (uniform when none are given)."""
    m = len(z)
    if priors is None or len(priors) == 0:
        priors = np.full(m, 1.0 / m)
    lower, upper = bounds_from_priors(priors, n, slack)
    return GuardedRecords(z, lower, upper)


def load_align_inputs(cfg):
    """(x, records bounded by cfg.priors and cfg.slack, AmsalConfig, truth
    map or None), read and checked from the files cfg names."""
    x = load_matrix(cfg.x)
    n = x.shape[0]
    z = load_matrix(cfg.records)
    if cfg.priors and len(cfg.priors) != len(z):
        raise InvalidInput(f"{cfg.records}: {len(cfg.priors)} priors for {len(z)} records")
    records = guarded_records(z, n, cfg.priors, cfg.slack)
    truth = load_assignment(cfg.truth, n, records.m) if cfg.truth else None
    seed_labels = load_seed_labels(cfg.seed_labels, n, records.m) if cfg.seed_labels else None
    amsal_cfg = AmsalConfig(max_iterations=cfg.max_iterations, num_seeds=cfg.num_seeds,
                            score_k=cfg.score_k, seed_labels=seed_labels, rng_seed=cfg.rng_seed)
    return x, records, amsal_cfg, truth


def align(x, records, cfg, out, truth=None):
    """run_amsal, then write assignment.csv and trace.csv under out (created
    first, so an unusable out fails before the search, and removed again
    if the search refuses)."""
    with _stage_output(out) as out:
        result = run_amsal(x, records, cfg, truth=truth)
        save_assignment(result.assignment, out / "assignment.csv")
        save_trace(result.trace, out / "trace.csv")
    return result


def erase(x, pi, method, out, fmt, records=None, rank=None, max_rounds=None):
    """Fit a SAL (uses records and rank, "auto" if None) or INLP (uses
    max_rounds, INLP_ROUNDS if None) eraser under the map pi, apply it to
    x, and write eraser.bin and x_erased.<fmt> under out (created first,
    and removed again if the fit refuses); returns the erased matrix."""
    with _stage_output(out) as out:
        if method == SAL:
            if records is None:
                raise InvalidInput("sal removal requires the guarded records")
            eraser = fit_sal(x, records, pi, "auto" if rank is None else rank)
        else:
            eraser = fit_inlp(x, pi.map, INLP_ROUNDS if max_rounds is None else max_rounds)
        erased = apply_eraser(eraser, x)
        save_eraser(eraser, out / "eraser.bin")
        save_matrix(erased, out / f"x_erased.{fmt}", fmt=fmt)
    return erased


def evaluate(task, y_true, y_pred, groups, alignment_accuracy=None):
    """Scores of predictions against gold values and group ids: accuracy,
    macro F1 and (binary groups) TPR gap for "classification", MAE and
    MAE gap for "regression"."""
    n = len(y_true)
    if len(y_pred) != n or len(groups) != n:
        raise InvalidInput(f"{n} gold values, {len(y_pred)} predictions and {len(groups)} groups")
    if task == "classification":
        gap = tpr_gap_rms(y_true, y_pred, groups) if np.unique(groups).size == 2 else None
        return EvalReport(
            task_accuracy=accuracy(y_true, y_pred),
            f1_macro=f1_macro(y_true, y_pred),
            tpr_gap_rms=gap,
            alignment_accuracy=alignment_accuracy,
        )
    return EvalReport(
        mae=mae(y_true, y_pred),
        # mae_gap takes dense ids 0..k-1; a map can leave a record empty
        mae_gap=mae_gap(np.abs(y_true - y_pred), np.unique(groups, return_inverse=True)[1]),
        alignment_accuracy=alignment_accuracy,
    )


def run_pipeline(cfg):
    """align -> erase -> eval in one deterministic pass.

    Reads every input file, then writes assignment.csv, eraser.bin,
    x_erased.bin, trace.csv and report.txt under cfg.output_dir and
    returns the EvalReport. All randomness flows from cfg.rng_seed, so
    reruns are byte identical. The task predictions are in-sample: for
    classification, the ridge softmax probe of `fit_logistic_probe`
    (standardized features, trained to a gradient tolerance) on the
    erased inputs; for regression, least squares with an intercept.
    """
    x, records, amsal_cfg, truth = load_align_inputs(cfg)
    if cfg.removal_rank is not None:
        _check_rank(cfg.removal_rank, x.shape[1], name="removal_rank")
    if cfg.y_kind != "none":
        y = load_labels(cfg.y) if cfg.y_kind == "classification" else load_values(cfg.y)
        if y.size != len(x):
            raise InvalidInput(f"{cfg.y}: {y.size} values for the {len(x)} rows of x")
        if cfg.y_kind == "classification":
            classes, y = np.unique(y, return_inverse=True)
            if classes.size < 2:
                raise InvalidInput(f"{cfg.y}: every label is {classes[0]}; need 2 classes or more")
    result = align(x, records, amsal_cfg, cfg.output_dir, truth)
    erased = erase(x, result.assignment, cfg.removal, cfg.output_dir, BIN, records=records,
                   rank=cfg.removal_rank, max_rounds=cfg.inlp_rounds)

    align_acc = alignment_accuracy(result.assignment, truth) if truth is not None else None
    report = EvalReport(alignment_accuracy=align_acc)
    if cfg.y_kind != "none":
        if cfg.y_kind == "classification":
            w, b = fit_logistic_probe(erased, y, classes.size)
            y_pred = (erased @ w.T + b).argmax(axis=1)
        else:
            design = np.hstack([erased, np.ones((len(x), 1))])
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            y_pred = design @ coef
        groups = truth.map if truth is not None else result.assignment.map
        report = evaluate(cfg.y_kind, y, y_pred, groups, align_acc)
    save_report(report, Path(cfg.output_dir) / "report.txt")
    return report
