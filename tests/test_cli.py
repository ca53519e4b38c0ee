import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mafkit
import mafkit.errors
from mafkit import (CsvParseError, DegenerateResidualError, DegenerateSeriesError,
                    InsufficientDataError, InvalidConfigError, InvalidInputError, MafkitError,
                    ParameterPoleError, SingularMatrixError, __version__)
import mafkit.cli
from mafkit.cli import (_atomic_write, _csv_rows, _quote, _write_csv, _write_json, build_parser,
                         ingest_csv, main)
from mafkit.datasets import example_panel_path
from mafkit.simulate import SIGNAL_KINDS


# the exit status of every error type, written out so that a new type is
# added here with the status it declares
EXIT_CODES = {
    MafkitError: 4, SingularMatrixError: 4, ParameterPoleError: 4,
    InvalidConfigError: 2,
    InvalidInputError: 3, InsufficientDataError: 3, DegenerateSeriesError: 3,
    DegenerateResidualError: 3, CsvParseError: 3,
}


def write_panel_csv(path, n=40, p=3, seed=0, with_time=True):
    rng = np.random.default_rng(seed)
    trend = np.linspace(-1.0, 1.0, n)
    values = trend[:, None] * rng.uniform(0.5, 1.5, p) + 0.4 * rng.standard_normal((n, p))
    header = (["t"] if with_time else []) + [f"s{j}" for j in range(p)]
    lines = [",".join(header)]
    for i in range(n):
        cells = ([str(i)] if with_time else []) + [repr(float(v)) for v in values[i]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return values


class TestIngestCsv:
    def test_example_panel_shape(self):
        panel = ingest_csv(example_panel_path())
        assert panel.n == 150 and panel.p == 4
        assert panel.labels == ("site_a", "site_b", "site_c", "site_d")
        assert panel.time is not None and panel.time[0] == 1850.0

    def test_time_column_excluded_from_p(self, tmp_path):
        path = tmp_path / "p.csv"
        values = write_panel_csv(path, with_time=True)
        panel = ingest_csv(path)
        assert panel.p == values.shape[1]
        np.testing.assert_array_equal(panel.values, values)

    def test_no_time_column(self, tmp_path):
        path = tmp_path / "p.csv"
        write_panel_csv(path, with_time=False)
        panel = ingest_csv(path)
        assert panel.time is None and panel.p == 3

    def test_ragged_row_names_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n4.0,5.0\n")
        with pytest.raises(CsvParseError, match="row 3") as exc:
            ingest_csv(path)
        assert exc.value.row == 3

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,x\n4.0,5.0\n")
        with pytest.raises(CsvParseError, match="row 3"):
            ingest_csv(path)

    @pytest.mark.parametrize("cell", ["1_5", "１２", "١٢", "\u00a012"])
    def test_cell_that_float_reads_but_is_not_ascii_decimal_is_located(self, tmp_path, cell):
        # `float` reads PEP 515 underscores ("1_5" is 15.0), full-width and
        # Arabic-Indic digits, and non-ASCII spaces
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n4.0,5.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="is not a number") as exc:
            ingest_csv(path)
        assert (exc.value.row, exc.value.column) == (3, 2)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_cell_located(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n4.0,5.0\n")
        with pytest.raises(CsvParseError) as exc:
            ingest_csv(path)
        assert str(exc.value) == f"row 3, column 'b': non-finite value {cell!r}"
        assert (exc.value.row, exc.value.column) == (3, 2)

    @pytest.mark.parametrize("text, message, location", [
        ("a,b\n1.0,2.0\nnan,x\n4.0,5.0\n", "non-finite value 'nan'", (3, 1)),
        ("a,b\n1.0,inf\nx,2.0\n4.0,5.0\n", "non-finite value 'inf'", (2, 2)),
        ("a,b\n1.0,2.0\nx,nan\n4.0,5.0\n", "'x' is not a number", (3, 1)),
    ])
    def test_first_bad_cell_in_reading_order_is_reported(self, tmp_path, text, message,
                                                         location):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvParseError, match=message) as exc:
            ingest_csv(path)
        assert (exc.value.row, exc.value.column) == location

    def test_ascii_decimal_spellings_are_read(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,b\n1e5,-.5\n+3.,2.5E-3\n 7 ,-0\n")
        np.testing.assert_array_equal(ingest_csv(path).values,
                                      [[1e5, -0.5], [3.0, 2.5e-3], [7.0, 0.0]])

    def test_duplicate_headers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,a\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        with pytest.raises(CsvParseError, match="duplicate"):
            ingest_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(CsvParseError, match="3 data rows"):
            ingest_csv(path)

    def test_utf8_byte_order_mark_ignored(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a BOM; it must not turn
        # the `t` header into a series label
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + Path(example_panel_path()).read_bytes())
        panel, expected = ingest_csv(path), ingest_csv(example_panel_path())
        assert panel.labels == expected.labels
        np.testing.assert_array_equal(panel.time, expected.time)
        np.testing.assert_array_equal(panel.values, expected.values)

    def test_standardize(self, tmp_path):
        path = tmp_path / "p.csv"
        write_panel_csv(path)
        panel = ingest_csv(path, standardize=True)
        np.testing.assert_allclose(panel.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(panel.values.std(axis=0, ddof=1), 1.0, atol=1e-12)


class TestCliCommands:
    def test_decompose_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "decompose", "--input", str(example_panel_path()), "--output", str(out),
        ])
        assert code == 0
        coef_lines = (out / "coefficients.csv").read_text().splitlines()
        assert coef_lines[0] == "series,maf_1,maf_2,maf_3,maf_4,pca_1,pca_2,pca_3,pca_4"
        assert len(coef_lines) == 5  # header + one row per series
        factors = (out / "factors.csv").read_text().splitlines()
        assert len(factors) == 151
        meta = json.loads((out / "run.json").read_text())
        assert meta["version"] == __version__
        assert meta["seed"] == 0
        assert meta["config"]["command"] == "decompose"

    def test_labels_with_commas_are_quoted(self, tmp_path):
        path = tmp_path / "comma.csv"
        values = np.random.default_rng(0).standard_normal((30, 2))
        rows = [f"{i},{float(a)!r},{float(b)!r}" for i, (a, b) in enumerate(values)]
        path.write_text('t,"a,b",c\n' + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(path), "--output", str(out)]) == 0
        with open(out / "coefficients.csv", newline="") as fh:
            cells = list(csv.reader(fh))
        assert all(len(row) == 5 for row in cells)
        assert [row[0] for row in cells] == ["series", "a,b", "c"]

    def test_decompose_factors_round_trip(self, tmp_path):
        out = tmp_path / "out"
        main(["decompose", "--input", str(example_panel_path()), "--output", str(out)])
        from mafkit import compute_maf, compute_pca

        panel = ingest_csv(example_panel_path())
        expected = np.column_stack(
            [compute_maf(panel).factors, compute_pca(panel).factors]
        )
        reread = ingest_csv(out / "factors.csv")
        np.testing.assert_array_equal(reread.values, expected)

    def test_rerun_byte_identical(self, tmp_path):
        panel = str(example_panel_path())
        commands = {
            "test": ["test", "--input", panel, "-B", "199", "--seed", "4"],
            "resample": ["resample", "--input", panel, "-B", "20", "--block-len", "5",
                         "--factors", "2", "--seed", "4"],
            "power": ["power", "--multipliers", "0", "1", "-B", "50", "-n", "60", "--seed", "4"],
        }
        for name, args in commands.items():
            out1, out2 = tmp_path / name / "a", tmp_path / name / "b"
            assert main(args + ["--output", str(out1)]) == 0
            assert main(args + ["--output", str(out2)]) == 0
            files = sorted(f.name for f in out1.iterdir())
            assert files == sorted(f.name for f in out2.iterdir())
            assert files
            for f in files:
                assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), (name, f)

    def test_test_report_schema(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "test", "--input", str(example_panel_path()), "--output", str(out),
            "-B", "199", "--seed", "11", "--factors", "2",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("p_value", "observed_snr", "null_draws", "seed", "config"):
            assert key in report
        assert len(report["p_value"]) == 2
        assert len(report["null_draws"][0]) == 199
        assert report["p_value"][0] < 0.05  # the packaged panel carries a trend

    def test_resample_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "resample", "--input", str(example_panel_path()), "--output", str(out),
            "-B", "50", "--block-len", "5", "--factors", "2", "--seed", "3",
        ])
        assert code == 0
        bands = (out / "bands.csv").read_text().splitlines()
        assert bands[0].split(",")[:3] == ["t", "maf_1_lower", "maf_1_upper"]
        assert len(bands) == 151
        reps = (out / "replicates_maf_1.csv").read_text().splitlines()
        assert len(reps) == 51
        assert (out / "replicate_coefficients.csv").exists()

    def test_select_command(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "select", "--input", str(example_panel_path()), "--output", str(out),
            "--method", "cutoff", "--alpha-frac", "0.9",
        ])
        assert code == 0
        payload = json.loads((out / "selection.json").read_text())
        assert payload["method"] == "cutoff"
        assert 1 <= payload["k"] <= 4

    def test_simulate_command(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "simulate", "--output", str(out), "--rho", "0.25", "--reps", "5",
            "-n", "80", "--seed", "2",
        ])
        assert code == 0
        lines = (out / "experiment.csv").read_text().splitlines()
        assert lines[0] == (
            "rho,multiplier,statistic,mean,se,mean_minus_2se,mean_plus_2se,reps"
        )
        assert len(lines) == 4  # one cell x three statistics

    def test_power_command(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "power", "--output", str(out), "--multipliers", "0", "1",
            "-B", "100", "-n", "60", "--seed", "9",
        ])
        assert code == 0
        lines = (out / "power.csv").read_text().splitlines()
        assert lines[0] == "multiplier,power"
        assert len(lines) == 3

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAFKIT_SEED", "77")
        out = tmp_path / "out"
        main(["decompose", "--input", str(example_panel_path()), "--output", str(out)])
        meta = json.loads((out / "run.json").read_text())
        assert meta["seed"] == 77

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        code = main([
            "test", "--input", str(example_panel_path()),
            "--output", str(tmp_path / "o"), "--seed", "-1",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "InvalidConfigError"
        assert "-1" in err["error"]["message"]

    def test_negative_env_seed_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MAFKIT_SEED", "-3")
        code = main(["power", "--output", str(tmp_path / "o"), "-B", "10"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "InvalidConfigError"
        assert not (tmp_path / "o").exists()

    def test_data_error_exit_code_and_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n5,6\n")
        code = main(["decompose", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "CsvParseError"
        assert err["error"]["exit_code"] == 3

    def test_unusable_output_is_a_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        code = main([
            "decompose", "--input", str(example_panel_path()), "--output", str(blocker / "out"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "InvalidConfigError"
        assert err["error"]["exit_code"] == 2
        assert blocker.read_text() == "not a directory\n"

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main([
            "test", "--input", str(example_panel_path()),
            "--output", str(tmp_path / "o"), "-B", "10",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "InvalidConfigError"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--multipliers", "-1"],
        ["power", "--multipliers", "-1"],
        ["simulate", "-n", "2"],
        ["power", "-n", "2"],
        ["simulate", "--reps", "0"],
        ["power", "--rho", "1.5"],
        ["simulate", "--rho", "1.5"],
    ])
    def test_bad_flag_without_input_is_a_config_error(self, argv, tmp_path, capsys):
        # simulate and power read no panel, so a bad value can only come from a flag
        code = main(argv + ["--output", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["exit_code"] == 2

    @pytest.mark.parametrize("frac", ["nan", "inf", "2"])
    def test_bad_holdout_frac_is_a_config_error(self, frac, tmp_path, capsys):
        code = main([
            "select", "--input", str(example_panel_path()), "--output", str(tmp_path / "o"),
            "--method", "cv", "--holdout-frac", frac,
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "InvalidConfigError"
        assert "holdout_frac" in err["message"]

    @pytest.mark.parametrize("alpha", ["nan", "0", "2"])
    def test_bad_select_alpha_is_a_config_error(self, alpha, tmp_path, capsys):
        code = main([
            "select", "--input", str(example_panel_path()), "--output", str(tmp_path / "o"),
            "--method", "test", "--alpha", alpha,
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "InvalidConfigError"
        assert "alpha" in err["message"]
        assert not (tmp_path / "o" / "selection.json").exists()

    @pytest.mark.parametrize("argv", [["decompose"], ["test", "-B", "99"],
                                      ["resample", "-B", "10"], ["select", "--method", "cv"]],
                             ids=["decompose", "test", "resample", "select"])
    def test_constant_series_is_a_data_error_under_every_command(self, argv, tmp_path,
                                                                 capsys):
        # every command that decomposes a panel rejects a constant series the
        # same way, before its covariance is found singular; the sample
        # standard deviation of forty 0.1s is 4e-17, not 0
        path = tmp_path / "constant.csv"
        rng = np.random.default_rng(0)
        rows = [f"{float(a)!r},0.1,{float(c)!r}" for a, c in rng.standard_normal((40, 2))]
        path.write_text("a,b,c\n" + "\n".join(rows) + "\n")
        code = main(argv + ["--input", str(path), "--output", str(tmp_path / "o")])
        assert code == 3
        assert json.loads(capsys.readouterr().out) == {"error": {
            "type": "DegenerateSeriesError", "message": "series 2 is constant", "exit_code": 3}}

    def test_every_error_type_declares_its_exit_code(self):
        types = {cls for cls in vars(mafkit.errors).values()
                 if isinstance(cls, type) and issubclass(cls, MafkitError)}
        assert types == set(EXIT_CODES)
        assert {cls: cls.exit_code for cls in types} == EXIT_CODES

    @pytest.mark.parametrize("error", EXIT_CODES, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("command, target", [("test", "signal_presence_test"),
                                                 ("power", "power_curve")])
    def test_error_type_sets_the_exit_status(self, command, target, error, tmp_path,
                                             monkeypatch, capsys):
        # `power` reads no panel, so a data error there came from a flag
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(f"mafkit.cli.{target}", fail)
        argv = [command, "--output", str(tmp_path / "o")]
        if command == "test":
            argv += ["--input", str(example_panel_path())]
        code = EXIT_CODES[error]
        if command == "power" and code == 3:
            code = 2
        assert main(argv) == code
        assert json.loads(capsys.readouterr().out) == {"error": {
            "type": error.__name__, "message": "injected", "exit_code": code}}

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "collinear.csv"
        rng = np.random.default_rng(0)
        col = rng.standard_normal(30)
        lines = ["a,b"] + [f"{float(x)!r},{float(2 * x)!r}" for x in col]
        path.write_text("\n".join(lines) + "\n")
        code = main(["decompose", "--input", str(path), "--output", str(tmp_path / "o")])
        assert code == 4
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "SingularMatrixError"


def src_env():
    """The environment with mafkit's source directory first on PYTHONPATH."""
    src = str(Path(mafkit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_module_entry_point_exits_with_main_code(tmp_path):
    def run(csv, out):
        return subprocess.run(
            [sys.executable, "-m", "mafkit.cli", "decompose", "--input", str(csv),
             "--output", str(tmp_path / out)],
            env=src_env(), capture_output=True, text=True, timeout=120)

    ok = run(example_panel_path(), "ok")
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "ok" / "factors.csv").exists()
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,x\n5,6\n7,8\n")
    failed = run(bad, "bad")
    assert failed.returncode == 3
    error = json.loads(failed.stdout)["error"]
    assert error["type"] == "CsvParseError" and error["exit_code"] == 3


def test_import_does_not_load_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy blocked, every signal
    # kind and every command still runs
    env = src_env()
    panel = str(example_panel_path())
    runs = [
        ["decompose", "--input", panel],
        ["test", "--input", panel, "-B", "99"],
        ["resample", "--input", panel, "-B", "5"],
        *(["select", "--input", panel, "--method", m] for m in ("scree", "cutoff", "cv", "test")),
        ["simulate", "--reps", "2"],
        *(["power", "-B", "20", "--signal", kind] for kind in SIGNAL_KINDS),
    ]
    runs = [argv + ["--output", str(tmp_path / f"run{i}")] for i, argv in enumerate(runs)]
    code = f"""
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from mafkit.cli import main
from mafkit.simulate import SIGNAL_KINDS, SignalSpec, gen_signal
for kind in SIGNAL_KINDS:
    gen_signal(SignalSpec(kind=kind, n=50, seed=1))
for argv in {runs!r}:
    assert main(argv) == 0, argv
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


# `ingest_csv` strips header cells, so labels carry no outer whitespace
LABEL = st.text('abcdefghijklmnopqrstuvwxyz0123456789_,"% ', min_size=1, max_size=6).filter(
    lambda label: label != "t" and label == label.strip())


@st.composite
def csv_panels(draw):
    """A finite n x p panel, distinct series labels and a strictly increasing
    time column (bounded so that its differences cannot overflow). Panels are
    small, so that a failing example shrinks in seconds: quoting is per label
    and float formatting per cell, so more cells would add no case."""
    n = draw(st.integers(min_value=3, max_value=8))
    p = draw(st.integers(min_value=1, max_value=3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(st.lists(finite, min_size=p, max_size=p), min_size=n, max_size=n))
    time = draw(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=n,
                         max_size=n, unique=True))
    labels = draw(st.lists(LABEL, min_size=p, max_size=p, unique=True))
    return np.array(values, dtype=float), np.sort(time), labels


@settings(max_examples=200, deadline=None)
@given(data=csv_panels())
def test_write_then_ingest_round_trips(tmp_path_factory, data):
    # `.17g` round-trips every finite double, so nothing is lost on the way
    values, time, labels = data
    path = tmp_path_factory.mktemp("round_trip") / "panel.csv"
    _write_csv(path, ["t"] + labels, np.column_stack([time, values]))
    panel = ingest_csv(path)
    assert panel.labels == tuple(labels)
    np.testing.assert_array_equal(panel.time, time)
    np.testing.assert_array_equal(panel.values, values)


# The per-cell writer that `_write_csv` replaced, kept as its reference;
# `_atomic_write` takes any iterable of bytes, here one piece
def _fmt(x) -> str:
    return format(float(x), ".17g")


def reference_write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(map(_quote, header))]
    for row in rows:
        lines.append(",".join(_quote(cell) if isinstance(cell, str) else _fmt(cell) for cell in row))
    _atomic_write(path, [("\n".join(lines) + "\n").encode()])


FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
                     -sys.float_info.max, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
CELL = st.text(',"%\r\n a1.é€', max_size=6)


@st.composite
def csv_blocks(draw):
    """1-40 rows as a header plus column blocks in any order: string lists,
    1-D float arrays and 2-D float arrays."""
    n = draw(st.integers(min_value=1, max_value=40))
    blocks = []
    for kind in draw(st.lists(st.sampled_from(["str", "1-D", "2-D"]), min_size=1, max_size=5)):
        if kind == "str":
            blocks.append(draw(st.lists(CELL, min_size=n, max_size=n)))
            continue
        shape = (n,) if kind == "1-D" else (n, draw(st.integers(min_value=1, max_value=3)))
        blocks.append(draw(arrays(np.float64, shape, elements=FINITE)))
    rows = [
        [cell for block in blocks
         for cell in ([block[i]] if isinstance(block, list) or block.ndim == 1 else block[i])]
        for i in range(n)
    ]
    header = draw(st.lists(CELL, min_size=len(rows[0]), max_size=len(rows[0])))
    return header, blocks, rows


@settings(max_examples=300, deadline=None)
@given(data=csv_blocks())
def test_block_writer_matches_per_cell_writer(tmp_path_factory, data):
    header, blocks, rows = data
    out = tmp_path_factory.mktemp("writers")
    _write_csv(out / "blocks.csv", header, *blocks)
    reference_write_csv(out / "cells.csv", header, rows)
    assert (out / "blocks.csv").read_bytes() == (out / "cells.csv").read_bytes()


def test_str_cells_round_trip_through_the_0xff_padding(tmp_path):
    # str cells are padded with 0xFF, which `bytes.translate` deletes: cells
    # that need quoting, multi-byte UTF-8 and empty cells, beside floats,
    # are written as the per-cell writer writes them and read back unchanged
    labels = ['a,b', 'say "hi"', "two\r\nlines", "", "é€ÿ", "ÿ߿\U0001f600", "x"]
    values = np.arange(len(labels), dtype=float) / 3.0
    header = ["", "ÿ,", "v"]
    _write_csv(tmp_path / "blocks.csv", header, labels, [""] * len(labels), values)
    reference_write_csv(tmp_path / "cells.csv", header,
                        [[label, "", value] for label, value in zip(labels, values)])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    with open(tmp_path / "blocks.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert [row[:2] for row in rows[1:]] == [[label, ""] for label in labels]
    assert [float(row[2]) for row in rows[1:]] == values.tolist()


@pytest.mark.parametrize("chunk_cells", [1, 7, 64])
def test_writer_chunks_match_per_cell_writer(tmp_path, monkeypatch, chunk_cells):
    # chunks of one cell (one row each), of rows that do not divide the row
    # count, and of several rows
    monkeypatch.setattr(mafkit.cli, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-8, 20, (50, 6))
    header = ["label", "t"] + [f"v{j}" for j in range(5)]
    rows = [[f"r,{i}", *row] for i, row in enumerate(values)]
    _write_csv(tmp_path / "blocks.csv", header, [row[0] for row in rows], values[:, 0],
               values[:, 1:])
    reference_write_csv(tmp_path / "cells.csv", header, rows)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_resample_csvs_match_per_cell_writer_at_workload_scale(tmp_path):
    # a 3000 x 8 panel: bands and replicate rows span more than one chunk,
    # and the replicate files' header holds 3000 formatted time stamps
    n, p = 3000, 8
    rng = np.random.default_rng(8)
    trend = np.sin(np.linspace(0.0, 6.0, n))[:, None] * rng.uniform(0.5, 2.0, p)
    values = trend + rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2, p)
    rows = [[1850.0 + 0.1 * i, *row] for i, row in enumerate(values)]
    panel = tmp_path / "panel.csv"
    reference_write_csv(panel, ["t"] + [f"s{j}" for j in range(p)], rows)
    out = tmp_path / "out"
    assert main(["resample", "--input", str(panel), "--output", str(out), "-B", "10",
                 "--block-len", "20", "--factors", "2", "--seed", "3"]) == 0

    def read(text):
        try:
            return float(text)
        except ValueError:
            return text

    written = sorted(out.glob("*.csv"))
    assert [path.name for path in written] == [
        "bands.csv", "replicate_coefficients.csv", "replicates_maf_1.csv",
        "replicates_maf_2.csv"]
    for path in written:
        with open(path, newline="") as fh:
            header, *cells = csv.reader(fh)
        header = [_fmt(cell) if isinstance(cell, float) else cell for cell in map(read, header)]
        reference_write_csv(tmp_path / "reference.csv", header,
                            [[read(cell) for cell in row] for row in cells])
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes(), path.name


def float_sweep() -> np.ndarray:
    """1 000 158 doubles that probe the float kernel and its fallback.

    Standard normals; log-uniform magnitudes over [1e-6, 1e18), across the
    kernel's range [1e-4, 1e16) and its edges; odd integers in [2**40, 2**53)
    over 2 ** (1..12), about 26 000 of which are exact ties at the 17th
    digit; random bit patterns, log-uniform over the whole finite range,
    and subnormals; every power of ten from 1e-6 to 1e18 and its two
    neighbours; and 0, the largest, the smallest normal and the smallest
    subnormal double. All of either sign.
    """
    rng = np.random.default_rng(17)

    def signed(x):
        return x * rng.choice([-1.0, 1.0], x.size)

    powers = np.array([float(f"1e{e}") for e in range(-6, 19)])
    odd = rng.integers(2**40, 2**53, 200_000) | 1
    finite = np.finfo(float)
    return np.concatenate([
        rng.standard_normal(400_000),
        signed(10.0 ** rng.uniform(-6, 18, 340_000)),
        signed(odd / 2.0 ** rng.integers(1, 13, odd.size)),
        signed(rng.integers(1, 0x7FF0_0000_0000_0000, 50_000).view(np.float64)),
        signed(rng.integers(1, 2**52, 10_000).view(np.float64)),
        *(sign * near for near in (powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf))
          for sign in (1.0, -1.0)),
        [0.0, -0.0, finite.max, -finite.max, finite.tiny, -finite.tiny, 5e-324, -5e-324],
    ])


# sha256 of `"%.17g\n" * n % tuple(float_sweep())`, recorded once, so that
# CPython's per-value formatting of the sweep (about 1 s on a 2-vCPU host)
# runs only when the kernel's text has another digest
FLOAT_SWEEP_SHA256 = "77628c82bfa9123ec473eacfdaa40e247bb16e0ec6363519b801343ba94807af"


def test_float_kernel_writes_what_percent_17g_writes():
    x = float_sweep()
    assert x.size >= 10**6
    text = b"".join(_csv_rows([x])).decode()
    if hashlib.sha256(text.encode()).hexdigest() == FLOAT_SWEEP_SHA256:
        return
    # another digest: either the kernel is wrong or this numpy draws another
    # sweep, so compare with `%.17g` itself and name the first wrong cells
    got, expected = text.splitlines(), ("%.17g\n" * x.size % tuple(x.tolist())).splitlines()
    assert len(got) == len(expected)
    wrong = [(float(v), g, e) for v, g, e in zip(x, got, expected) if g != e]
    assert not wrong, wrong[:5]


# JSON payloads for `_write_json`: floats at the edges of repr (NaN, the
# infinities, -0.0, the least subnormal, the points where repr switches to
# exponent notation), other scalars, strings holding the ", " that float
# lists are re-indented at, quotes, newlines and non-ASCII text, and nested
# lists and dicts, empty ones included, so that float lists occur at every
# depth, inside lists of lists and beside lists that mix floats with ints
# or None
JSON_FLOAT = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16,
                                        1e-5, 0.1]), st.floats())
JSON_TEXT = st.text(st.sampled_from(', "\n\\aZ09é€\U0001f600'), max_size=6)
JSON_VALUE = st.recursive(
    st.one_of(JSON_FLOAT, st.integers(), st.booleans(), st.none(), JSON_TEXT,
              st.lists(JSON_FLOAT, max_size=5)),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(JSON_TEXT, children,
                                                                      max_size=4),
    max_leaves=24,
)


def stdlib_json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(payload=st.dictionaries(JSON_TEXT, JSON_VALUE, max_size=5))
def test_json_writer_writes_the_stdlib_bytes(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "payload.json"
    _write_json(path, payload)
    assert path.read_bytes() == stdlib_json_bytes(payload)


def test_json_writer_writes_the_stdlib_bytes_of_a_test_report(tmp_path):
    # the payload `test` writes: config, k x B null draws and the p-values.
    # json reads back every float it wrote, so the report's own payload is
    # what the stdlib must have encoded
    main(["test", "--input", str(example_panel_path()), "--output", str(tmp_path),
          "-B", "99", "--factors", "2"])
    written = (tmp_path / "report.json").read_bytes()
    payload = json.loads(written)
    assert len(payload["null_draws"]) == 2 and len(payload["null_draws"][0]) == 99
    assert written == stdlib_json_bytes(payload)


def test_atomic_write_keeps_the_old_file_when_a_piece_fails(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def pieces():
        yield b"new,"
        raise RuntimeError("row formatting failed")

    with pytest.raises(RuntimeError, match="row formatting failed"):
        _atomic_write(target, pieces())
    assert target.read_text() == "old\n"
    assert list(tmp_path.glob(".out.csv.*.tmp")) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifacts_get_the_mode_open_would_give(tmp_path, umask, mode):
    # every file of an output directory is 0666 less the umask, as if
    # written by open(), not mkstemp's 0600
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["resample", "--input", str(example_panel_path()), "--output", str(out),
                     "-B", "5", "--factors", "2", "--seed", "3"]) == 0
    finally:
        os.umask(old)
    modes = {f.name: f.stat().st_mode & 0o777 for f in out.iterdir()}
    assert len(modes) > 1 and set(modes.values()) == {mode}, modes


def test_readme_library_quickstart_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL).group(1)
    namespace = {}
    exec(block, namespace)
    np.testing.assert_array_equal(namespace["report"].p_value, [0.0])
    assert namespace["bands"].pointwise_bands.shape == (2, 150, 2)


def test_readme_flag_table_matches_parser():
    # README lists every flag but --output and --seed, in declaration order
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: [action.option_strings[0] for action in sub._actions
               if action.option_strings
               and action.option_strings[0] not in ("-h", "--output", "--seed")]
        for name, sub in commands.choices.items()
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\| (.*) \|$", readme, flags=re.MULTILINE)
    assert {name: re.findall(r"`([^`]+)`", flags) for name, flags in rows} == declared
