"""Command-line interface: CSV panels in, CSV/JSON reports out.

Commands: decompose, test, resample, select, simulate, power. Matrices and
time series are written as CSV (floats at full round-trip precision),
reports as JSON; every run writes its configuration, seed and library
version next to the artifacts. Every CSV goes through one writer,
`_write_csv`, which takes the columns as blocks (string lists and float
arrays). Floats are written exactly as `'%.17g' % x` writes them: one
numpy kernel, `_float_cells`, formats every value with 1e-4 <= |x| < 1e16
(in fixed notation, from its exact 17-digit decimal significand), and any
other value (0, -0, smaller or larger magnitudes) takes `'%.17g' % x`
itself. Rows are formatted 16 384 cells at a time (one row at a time when
a row is longer), so artifacts are the same, byte for byte, as a per-cell
`%.17g` writer's. The writer works in bytes only: every byte of a cell's
fixed-width slot that its text does not use is set to 0xFF, which never
occurs in UTF-8, and one `bytes.translate` per chunk deletes them. The
chunks are streamed into a temp file beside the target, which is then
renamed over it, so the target holds either its old content or the whole
new file. Input cells are ASCII decimal reals only:
`float` syntax without underscores or non-ASCII digits. Artifacts contain no
timestamps, so reruns with the same arguments are byte-identical. `main`
creates the output directory before a command runs; a path that cannot be
a directory is a config error. A failing command prints one error JSON and
exits with its error type's `exit_code` (`mafkit.errors`); a command that
reads no panel turns a data error into a config error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CsvParseError, InvalidConfigError, MafkitError
from .inference import (ExperimentGrid, power_curve, resample_maf, run_comparison_experiment,
                        select_num_factors, signal_presence_test)
from .maf import compute_maf, compute_pca, standardize_columns
from .oracles import SnModelSpec
from .panel import TimeSeriesPanel
from .simulate import SIGNAL_KINDS, SignalSpec, gen_signal
from .smoothing import SmootherConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def ingest_csv(path, standardize: bool = False) -> TimeSeriesPanel:
    """Read a panel CSV: header of series names, optional leading `t` column.

    One row per time step, ASCII decimal-point reals (`float` syntax without
    underscores). Raises CsvParseError with the offending 1-based file row /
    column on any schema violation.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path} is not valid UTF-8: {exc}") from exc
    if not rows:
        raise CsvParseError(f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise CsvParseError(f"duplicate column headers: {', '.join(dupes)}", row=1)
    has_time = bool(header) and header[0] == "t"
    labels = header[1:] if has_time else header
    if not labels:
        raise CsvParseError("no series columns found", row=1)

    data_rows = rows[1:]
    if len(data_rows) < 3:
        raise CsvParseError(f"need at least 3 data rows, got {len(data_rows)}")
    parsed = np.empty((len(data_rows), len(header)))
    for i, row in enumerate(data_rows):
        file_row = i + 2
        if len(row) != len(header):
            raise CsvParseError(
                f"row {file_row} has {len(row)} cells, expected {len(header)}",
                row=file_row,
            )
        floats = []
        for j, cell in enumerate(row):
            try:
                # `float` alone also reads PEP 515 underscores ("1_5") and
                # non-ASCII digits and spaces ("１２")
                if not cell.isascii() or "_" in cell:
                    raise ValueError(cell)
                value = float(cell)
            except ValueError:
                raise CsvParseError(
                    f"row {file_row}, column {header[j]!r}: {cell!r} is not a number",
                    row=file_row, column=j + 1,
                ) from None
            if not math.isfinite(value):
                raise CsvParseError(
                    f"row {file_row}, column {header[j]!r}: non-finite value {cell!r}",
                    row=file_row, column=j + 1,
                )
            floats.append(value)
        parsed[i] = floats

    time = parsed[:, 0] if has_time else None
    values = parsed[:, 1:] if has_time else parsed
    if standardize:
        values = standardize_columns(values)
    return TimeSeriesPanel(values=values, labels=tuple(labels), time=time)


def _atomic_write(path: Path, pieces) -> None:
    # the pieces, bytes, stream into a temp file beside `path`, which replaces
    # `path` only once every piece is written. mkstemp makes it 0600, so it
    # is first given the mode open() would give it: 0666 less the umask,
    # which can only be read by setting it
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(pieces)
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _quote(cell: str) -> str:
    # RFC 4180 quoting, which `csv.reader` reads back unchanged
    if _NEEDS_QUOTES.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


# Floats are written as `'%.17g' % x` writes them, a whole array at a time.
# A value with 1e-4 <= |x| < 1e16 is printed by `%.17g` in fixed notation from
# its 17-digit decimal significand D = round-half-even(|x| * 10**(16 - k)),
# k = floor(log10 |x|). 10**(16 - k) is exact in binary64, and Dekker's product
# (with Veltkamp's split) gives |x| * 10**(16 - k) as p + err with no rounding
# error, so D is exact. A cell is 40 bytes: "-0.000", the lead digit and "."
# (one 8-byte word), then the other 16 digits as four words of "d.d.d.d.". A
# mask chosen by (sign, k, digits left once trailing zeros go) sets every
# byte not in the text to 0xFF; the last byte holds the cell's separator.
# Every other value (0, -0, |x| < 1e-4, |x| >= 1e16, non-finite, and the rare
# value whose float log10 rounds up to the next power of ten) is formatted by
# `%.17g` itself.
_CELL_BYTES = 40
_CHUNK_CELLS = 16_384  # cells formatted at a time, unless one row is longer


def _group_words() -> np.ndarray:
    # word g holds "d.d.d.d.", the four digits of g each followed by a point
    text = np.full((10_000, 8), ord("."), dtype=np.uint8)
    text[:, ::2] = ord("0") + np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
    return text.view(np.uint64).ravel()


_LEAD_WORDS = np.frombuffer("".join(f"-0.000{d}." for d in range(10)).encode(), dtype=np.uint64)
_GROUP_WORDS = _group_words()
_GROUP_ZEROS = sum((np.arange(10_000) % 10**j == 0).astype(np.intp) for j in range(1, 5))
_POW10 = np.array([float(10**e) for e in range(22)])  # exact in binary64


def _split(v):
    # Veltkamp: v == hi + lo with each half at most 26 significant bits
    hi = v * 134217729.0  # 2**27 + 1
    hi = hi - (hi - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _drop_table() -> np.ndarray:
    # row (negative * 20 + k + 4) * 17 + kept - 1: five words that are 0xFF
    # in the bytes of a cell that `%.17g` does not print for that sign,
    # exponent k in [-4, 15] and `kept` digits, and 0 in those it prints
    keep = np.zeros((2, 20, 17, _CELL_BYTES), dtype=bool)
    keep[1, ..., 0] = True  # "-"
    keep[..., -1] = True  # separator
    for k in range(-4, 16):
        for kept in range(1, 18):
            row = keep[:, k + 4, kept - 1]
            if k < 0:
                row[:, 1:2 - k] = True  # "0." and -k - 1 zeros
                row[:, 6:6 + 2 * kept:2] = True
            else:
                row[:, 6:6 + 2 * max(k + 1, kept):2] = True  # integer digits, then fraction
                row[:, 2 * k + 7] = kept > k + 1  # the point, if a fraction digit is left
    return np.where(keep, 0, 0xFF).astype(np.uint8).reshape(-1, _CELL_BYTES).view(np.uint64)


_DROP = _drop_table()


def _significand(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    # round-half-even(a * 10**(16 - k)) as int64. Where that has 17 digits,
    # p >= 2**53 is an even integer, so rounding p + err is p + rint(err)
    e = 16 - k
    p = a * _POW10[e]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[e], _POW10_LO[e]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Cells of `'%.17g' % v` for each v of the 1-D float array `x`.

    Returns the (len(x), 40) cell bytes, 0xFF where the text leaves a byte
    unused; the last byte of every cell is left for the caller to set to a
    separator.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    digits = _significand(a, k)
    # D has 17 digits exactly when k is right: doubles below a power of ten
    # are further from it than half a unit in the 17th digit, so rounding
    # never carries D to 10**17. log10 can miss k by one just below a power
    # of ten, and such a value takes the fallback
    fast &= (digits >= 10**16) & (digits < 10**17)

    high, low = np.divmod(digits, 10**8)
    lead, high = np.divmod(high, 10**8)
    groups = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))
    words = np.empty((x.size, 5), dtype=np.uint64)
    words[:, 0] = _LEAD_WORDS[lead]
    for j, group in enumerate(groups, 1):
        words[:, j] = _GROUP_WORDS[group]
    # digits of D left once its trailing zeros go, up to the last nonzero group
    kept = 5 - _GROUP_ZEROS[groups[0]]
    for end, group in zip((9, 13, 17), groups[1:]):
        kept = np.where(group != 0, end - _GROUP_ZEROS[group], kept)
    layout = (np.signbit(x) * 20 + k + 4) * 17 + kept - 1
    layout[~fast] = 0
    words |= np.take(_DROP, layout, axis=0)
    cells = words.view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [b"%.17g" % v for v in x[slow].tolist()]
        cells[slow, :-1] = _padded(text, _CELL_BYTES - 1)
    return cells


def _padded(cells: list[bytes], width: int) -> np.ndarray:
    # (len(cells), width) bytes of the cells, each padded with 0xFF
    return np.frombuffer(b"".join(cell.ljust(width, b"\xff") for cell in cells),
                         dtype=np.uint8).reshape(len(cells), width)


def _column_cells(column) -> np.ndarray:
    # (rows, bytes) cells of one column block, each ending in "," and padded
    # with 0xFF
    if isinstance(column, list):
        cells = _padded(column, max(map(len, column)) + 1).copy()
    else:
        cells = _float_cells(column.ravel())
    cells[:, -1] = ord(",")
    return cells.reshape(len(column), -1)


def _csv_rows(blocks):
    """The CSV bytes of the rows of column `blocks`, a chunk of rows at a time.

    A list of str is one column of quoted cells; a float array is one
    column if 1-D, or one column per array column if 2-D. Floats are
    written as `'%.17g' % x` writes them, which round-trips every finite
    double: `_float_cells` formats each value with 1e-4 <= |x| < 1e16, and
    any other goes through `%.17g` itself. A chunk is at most `_CHUNK_CELLS`
    (16 384) cells, or one row when a row has more, of fixed-width cells
    padded with 0xFF, which never occurs in UTF-8; one `bytes.translate`
    deletes the padding.
    """
    columns = []
    for block in blocks:
        if isinstance(block, list):
            columns.append([_quote(cell).encode() for cell in block])
        else:
            block = np.asarray(block, dtype=float)
            columns.append(block[:, None] if block.ndim == 1 else block)
    width = sum(1 if isinstance(column, list) else column.shape[1] for column in columns)
    step = max(1, _CHUNK_CELLS // width)
    for start in range(0, len(columns[0]), step):
        cells = np.hstack([_column_cells(column[start:start + step]) for column in columns])
        cells[:, -1] = ord("\n")
        yield cells.tobytes().translate(None, b"\xff")


def _write_csv(path: Path, header: list[str], *blocks) -> None:
    """Write a CSV of a header line and the rows of column `blocks` (`_csv_rows`).

    The text is the same, byte for byte, as quoting each str cell and
    formatting each float with `'%.17g' % x`, one cell at a time.
    """
    _atomic_write(path, itertools.chain([(",".join(map(_quote, header)) + "\n").encode()],
                                        _csv_rows(blocks)))


def _json_text(value, pad: str = "") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, each line after the
    first indented by `pad` more, with every list of floats encoded by
    json's C encoder (see `_write_json`)."""
    inner = pad + "  "
    if isinstance(value, list) and value and all(isinstance(v, float) for v in value):
        lines, brackets = [json.dumps(value)[1:-1].replace(", ", ",\n" + inner)], "[]"
    elif isinstance(value, list) and value:
        lines, brackets = [_json_text(item, inner) for item in value], "[]"
    elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        lines = [f"{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        brackets = "{}"
    else:
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(lines) + f"\n{pad}{brackets[1]}"


def _write_json(path: Path, payload: dict) -> None:
    # The bytes of `json.dumps(payload, indent=2, sort_keys=True) + "\n"`.
    # json encodes in pure Python whenever `indent` is set, which made
    # `test`'s null draws (k x B floats) the slowest part of its report; a
    # list of floats instead goes through the C encoder as one line, whose
    # ", " separators are then re-indented, since no float's repr (nor NaN
    # or Infinity) contains ", ". Everything else keeps json's own rules.
    _atomic_write(path, [(_json_text(payload) + "\n").encode()])


def _config_dict(args: argparse.Namespace) -> dict:
    # `output` is excluded so that the same run written elsewhere is
    # byte-identical; the artifact's own location carries no information
    skip = {"func", "output"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def _smoother(args) -> SmootherConfig:
    return SmootherConfig(span_fraction=args.span, degree=args.degree)


def _run_meta(args) -> dict:
    return {"config": _config_dict(args), "seed": args.seed, "version": __version__}


def _time_column(panel: TimeSeriesPanel) -> np.ndarray:
    return panel.time if panel.time is not None else np.arange(panel.n, dtype=float)


def _cmd_decompose(args) -> None:
    panel = ingest_csv(args.input, standardize=args.standardize)
    maf = compute_maf(panel)
    pca = compute_pca(panel)
    out = Path(args.output)
    p = panel.p
    maf_cols = [f"maf_{j + 1}" for j in range(p)]
    pca_cols = [f"pca_{j + 1}" for j in range(p)]

    _write_csv(out / "coefficients.csv", ["series"] + maf_cols + pca_cols,
               list(panel.column_labels()), maf.coefficients, pca.coefficients)
    _write_csv(out / "factors.csv", ["t"] + maf_cols + pca_cols,
               _time_column(panel), maf.factors, pca.factors)
    _write_csv(out / "spectrum.csv",
               ["factor", "maf_autocorrelation", "maf_diff_eigenvalue", "pca_variance"],
               [str(j + 1) for j in range(p)],
               np.column_stack([maf.autocorrelations, maf.diff_eigenvalues, pca.variances]))
    meta = _run_meta(args)
    meta["degenerate_factor_pairs"] = [list(pair) for pair in maf.degenerate_pairs]
    _write_json(out / "run.json", meta)


def _cmd_test(args) -> None:
    panel = ingest_csv(args.input, standardize=args.standardize)
    report = signal_presence_test(
        panel, B=args.B, cfg=_smoother(args), mode=args.mode,
        block_len=args.block_len, n_factors_tested=args.factors, seed=args.seed,
    )
    payload = _run_meta(args)
    payload.update(
        {
            "statistic": report.statistic_name,
            "mode": report.mode,
            "block_len": report.block_len,
            "n_replicates": report.n_replicates,
            "observed_snr": report.observed.tolist(),
            "null_draws": report.null_draws.tolist(),
            "p_value": report.p_value.tolist(),
        }
    )
    _write_json(Path(args.output) / "report.json", payload)


def _cmd_resample(args) -> None:
    panel = ingest_csv(args.input, standardize=args.standardize)
    envelope = resample_maf(
        panel, B=args.B, block_len=args.block_len, cfg=_smoother(args),
        n_factors=args.factors, seed=args.seed, alpha=args.alpha,
    )
    out = Path(args.output)
    t = _time_column(panel)
    k, B = envelope.replicate_factors.shape[:2]

    header = ["t"] + [f"maf_{j + 1}_{col}" for j in range(k)
                      for col in ("lower", "upper", "smoothed", "original")]
    # (k, n, 4) per-factor column groups, laid side by side as (n, 4k)
    bands = np.concatenate([envelope.pointwise_bands, envelope.original_smoothed[..., None],
                            envelope.original_factors[..., None]], axis=2)
    _write_csv(out / "bands.csv", header, t, bands.transpose(1, 0, 2).reshape(panel.n, 4 * k))

    replicates = [str(b) for b in range(B)]
    stamps = b"".join(_csv_rows([t])).decode().splitlines()
    for j in range(k):
        _write_csv(out / f"replicates_maf_{j + 1}.csv", ["replicate"] + stamps,
                   replicates, envelope.replicate_factors[j])
    _write_csv(out / "replicate_coefficients.csv",
               ["factor", "replicate"] + [f"w_{i + 1}" for i in range(panel.p)],
               [str(j + 1) for j in range(k) for _ in range(B)], replicates * k,
               envelope.replicate_coefficients.reshape(k * B, panel.p))
    meta = _run_meta(args)
    meta["retries"] = envelope.retries
    _write_json(out / "run.json", meta)


def _cmd_select(args) -> None:
    panel = ingest_csv(args.input, standardize=args.standardize)
    result = select_num_factors(
        panel, method=args.method, cfg=_smoother(args), seed=args.seed,
        alpha_frac=args.alpha_frac, holdout_frac=args.holdout_frac,
        B=args.B, alpha=args.alpha,
    )
    payload = _run_meta(args)
    payload.update({"k": result.k, "method": result.method, "diagnostics": result.diagnostics})
    _write_json(Path(args.output) / "selection.json", payload)


def _cmd_simulate(args) -> None:
    grid = ExperimentGrid(
        rho_values=tuple(args.rho),
        b_multipliers=tuple(args.multipliers),
        base_b=tuple(args.b),
        n=args.n,
        reps=args.reps,
        seed=args.seed,
    )
    rows = run_comparison_experiment(grid)
    out = Path(args.output)
    mean, se = np.array([[row.mean, row.se] for row in rows]).T
    _write_csv(
        out / "experiment.csv",
        ["rho", "multiplier", "statistic", "mean", "se", "mean_minus_2se", "mean_plus_2se", "reps"],
        np.array([[row.rho, row.multiplier] for row in rows]), [row.statistic for row in rows],
        np.column_stack([mean, se, mean - 2 * se, mean + 2 * se]), [str(row.reps) for row in rows],
    )
    _write_json(out / "run.json", _run_meta(args))


def _cmd_power(args) -> None:
    spec = SnModelSpec.equicorrelated(b=args.b, sigma=1.0, rho=args.rho)
    signal = gen_signal(SignalSpec(kind=args.signal, n=args.n, seed=7))
    points = power_curve(
        spec, signal, args.multipliers, B=args.B, alpha=args.alpha,
        seed=args.seed, cfg=_smoother(args), statistic=args.statistic,
    )
    out = Path(args.output)
    _write_csv(out / "power.csv", ["multiplier", "power"],
               np.array([[pt.multiplier, pt.power] for pt in points]))
    _write_json(out / "run.json", _run_meta(args))


def _default_seed() -> int:
    env = os.environ.get("MAFKIT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InvalidConfigError(f"MAFKIT_SEED must be an integer, got {env!r}") from None


def _add_common(sub, input_file: bool = True) -> None:
    if input_file:
        sub.add_argument("--input", required=True, type=Path, help="panel CSV to read")
    sub.add_argument("--output", required=True, type=Path, help="directory for artifacts")
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: MAFKIT_SEED env var, else 0)")
    if input_file:
        sub.add_argument("--standardize", action="store_true",
                         help="scale each input series to zero mean, unit variance")


def _add_smoother(sub) -> None:
    sub.add_argument("--span", type=float, default=0.4, help="smoother span fraction")
    sub.add_argument("--degree", type=int, default=1, choices=(0, 1, 2),
                     help="local polynomial degree")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mafkit",
        description="Extract common time trends from CSV panels of concurrent series.",
    )
    parser.add_argument("--version", action="version", version=f"mafkit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("decompose", help="MAF and PCA coefficients, factors, spectrum")
    _add_common(sub)
    sub.set_defaults(func=_cmd_decompose)

    sub = commands.add_parser("test", help="signal-presence test for the leading factors")
    _add_common(sub)
    _add_smoother(sub)
    sub.add_argument("-B", type=int, default=999, help="number of null replicates")
    sub.add_argument("--block-len", dest="block_len", type=int, default=1)
    sub.add_argument("--mode", choices=("permutation", "bootstrap"), default=None,
                     help="resampling mode (default: permutation iff block-len is 1)")
    sub.add_argument("--factors", type=int, default=1, help="number of factors tested")
    sub.set_defaults(func=_cmd_test)

    sub = commands.add_parser("resample", help="bootstrap confidence bands for the factors")
    _add_common(sub)
    _add_smoother(sub)
    sub.add_argument("-B", type=int, default=999, help="number of replicates")
    sub.add_argument("--block-len", dest="block_len", type=int, default=1)
    sub.add_argument("--alpha", type=float, default=0.05, help="band level is 1 - alpha")
    sub.add_argument("--factors", type=int, default=1, help="number of factors resampled")
    sub.set_defaults(func=_cmd_resample)

    sub = commands.add_parser("select", help="choose how many factors to retain")
    _add_common(sub)
    _add_smoother(sub)
    sub.add_argument("--method", required=True, choices=("scree", "cutoff", "cv", "test"))
    sub.add_argument("--alpha-frac", dest="alpha_frac", type=float, default=0.95,
                     help="cumulative autocorrelation fraction for --method cutoff")
    sub.add_argument("--holdout-frac", dest="holdout_frac", type=float, default=0.25,
                     help="holdout share for --method cv")
    sub.add_argument("-B", type=int, default=199, help="replicates for --method test")
    sub.add_argument("--alpha", type=float, default=0.05, help="level for --method test")
    sub.set_defaults(func=_cmd_select)

    sub = commands.add_parser("simulate", help="MAF vs PCA signal-recovery experiment")
    _add_common(sub, input_file=False)
    sub.add_argument("--rho", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75],
                     help="noise cross-correlations")
    sub.add_argument("--multipliers", type=float, nargs="+", default=[1.0],
                     help="signal-strength multipliers")
    sub.add_argument("--b", type=float, nargs="+", default=[0.8, 0.4, 0.2],
                     help="base signal strengths")
    sub.add_argument("-n", type=int, default=150, help="panel length")
    sub.add_argument("--reps", type=int, default=100, help="repetitions per cell")
    sub.set_defaults(func=_cmd_simulate)

    sub = commands.add_parser("power", help="Monte Carlo power of the presence test")
    _add_common(sub, input_file=False)
    _add_smoother(sub)
    sub.add_argument("--b", type=float, nargs="+", default=[0.8, 0.4, 0.2],
                     help="base signal strengths")
    sub.add_argument("--rho", type=float, default=0.5, help="noise cross-correlation")
    sub.add_argument("--multipliers", type=float, nargs="+",
                     default=[0.0, 0.25, 0.5, 0.75, 1.0])
    sub.add_argument("-B", type=int, default=1000, help="replicates per curve point")
    sub.add_argument("--alpha", type=float, default=0.05, help="test level")
    sub.add_argument("-n", type=int, default=150, help="panel length")
    sub.add_argument("--signal", choices=SIGNAL_KINDS,
                     default="sinusoid-mixture", help="underlying signal shape")
    sub.add_argument("--statistic", choices=("snr", "autocorrelation"), default="snr")
    sub.set_defaults(func=_cmd_power)

    return parser


def _error_payload(exc: MafkitError, code: int) -> str:
    detail = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
    if isinstance(exc, CsvParseError):
        if exc.row is not None:
            detail["row"] = exc.row
        if exc.column is not None:
            detail["column"] = exc.column
    return json.dumps({"error": detail}, sort_keys=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if args.seed < 0:
            raise InvalidConfigError(f"seed must be non-negative, got {args.seed}")
        try:
            args.output.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidConfigError(f"cannot create --output: {exc}") from None
        args.func(args)
    except MafkitError as exc:
        code = exc.exit_code
        # a command that reads no panel has no data to blame: its bad values are flags
        if code == EXIT_DATA and "input" not in vars(args):
            code = EXIT_CONFIG
        print(_error_payload(exc, code))
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
