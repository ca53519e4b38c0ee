"""Command-line interface: CSV panels in, CSV/JSON reports out.

Commands: decompose, test, resample, select, simulate, power. Matrices and
time series are written as CSV (floats at full round-trip precision),
reports as JSON; every run writes its configuration, seed and library
version next to the artifacts. Every CSV goes through one writer,
`_write_csv`, which takes the columns as blocks (string lists and float
arrays) and formats each row with one template. Rows are streamed into a
temp file beside the target, which is then renamed over it, so the target
holds either its old content or the whole new file. Artifacts contain no
timestamps, so reruns with the same arguments are byte-identical. `main`
creates the output directory before a command runs; a path that cannot be
a directory is a config error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CsvParseError,
    DegenerateResidualError,
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidInputError,
    MafkitError,
)
from .inference import (ExperimentGrid, power_curve, resample_maf, run_comparison_experiment,
                        select_num_factors, signal_presence_test)
from .maf import compute_maf, compute_pca
from .oracles import SnModelSpec
from .panel import TimeSeriesPanel
from .simulate import SignalSpec, gen_signal
from .smoothing import SmootherConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_DATA_ERRORS = (
    CsvParseError,
    InsufficientDataError,
    InvalidInputError,
    DegenerateSeriesError,
    DegenerateResidualError,
)


def ingest_csv(path, standardize: bool = False) -> TimeSeriesPanel:
    """Read a panel CSV: header of series names, optional leading `t` column.

    One row per time step, decimal-point reals. Raises CsvParseError with
    the offending 1-based file row / column on any schema violation.
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
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(
                    f"row {file_row}, column {header[j]!r}: {cell!r} is not a number",
                    row=file_row, column=j + 1,
                ) from None
            if not np.isfinite(value):
                raise CsvParseError(
                    f"row {file_row}, column {header[j]!r}: non-finite value {cell!r}",
                    row=file_row, column=j + 1,
                )
            parsed[i, j] = value

    time = parsed[:, 0] if has_time else None
    values = parsed[:, 1:] if has_time else parsed
    if standardize:
        values = values - values.mean(axis=0)
        scale = values.std(axis=0, ddof=1)
        scale[scale == 0.0] = 1.0
        values = values / scale
    return TimeSeriesPanel(values=values, labels=tuple(labels), time=time)


def _atomic_write(path: Path, pieces) -> None:
    # the pieces stream into a temp file beside `path`, which replaces
    # `path` only once every piece is written
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _quote(cell: str) -> str:
    # RFC 4180 quoting, which `csv.reader` reads back unchanged
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path: Path, header: list[str], *blocks) -> None:
    """Write a CSV whose columns are `blocks`, from left to right.

    A list of str is one column of quoted cells; a float array is one
    column if 1-D, or one column per array column if 2-D. Floats are
    written with `%.17g`, which round-trips every finite double.
    """
    columns, template = [], []
    for block in blocks:
        if isinstance(block, list):
            columns.append([_quote(cell) for cell in block])
            template.append("%s")
        else:
            block = np.asarray(block, dtype=float)
            block_columns = (block[:, None] if block.ndim == 1 else block).T.tolist()
            columns += block_columns
            template += ["%.17g"] * len(block_columns)
    row = ",".join(template) + "\n"
    _atomic_write(path, itertools.chain([",".join(map(_quote, header)) + "\n"],
                                        (row % cells for cells in zip(*columns))))


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


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
    for j in range(k):
        _write_csv(out / f"replicates_maf_{j + 1}.csv",
                   ["replicate"] + ["%.17g" % x for x in t.tolist()],
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
    sub.add_argument("--signal", choices=("linear", "quadratic", "sinusoid-mixture"),
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
    except InvalidConfigError as exc:
        print(_error_payload(exc, EXIT_CONFIG))
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(_error_payload(exc, EXIT_DATA))
        return EXIT_DATA
    except MafkitError as exc:
        print(_error_payload(exc, EXIT_NUMERICAL))
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
