import argparse
import csv
import json
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
from mafkit import CsvParseError, __version__
from mafkit.cli import _atomic_write, _quote, _write_csv, build_parser, ingest_csv, main
from mafkit.datasets import example_panel_path


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


def test_import_does_not_load_scipy():
    # scipy.interpolate alone takes about 0.6 s to import; only the
    # piecewise-interpolated signal needs it
    src = str(Path(mafkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, mafkit, mafkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


# `ingest_csv` strips header cells, so labels carry no outer whitespace
LABEL = st.text('abcdefghijklmnopqrstuvwxyz0123456789_,"% ', min_size=1, max_size=6).filter(
    lambda label: label != "t" and label == label.strip())


@st.composite
def csv_panels(draw):
    """A finite n x p panel, distinct series labels and a strictly increasing
    time column (bounded so that its differences cannot overflow)."""
    n = draw(st.integers(min_value=3, max_value=40))
    p = draw(st.integers(min_value=1, max_value=5))
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


# The per-cell writer that `_write_csv` replaced, kept verbatim as its
# reference (`_atomic_write` takes any iterable of text, and a str is one)
def _fmt(x) -> str:
    return format(float(x), ".17g")


def reference_write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(map(_quote, header))]
    for row in rows:
        lines.append(",".join(_quote(cell) if isinstance(cell, str) else _fmt(cell) for cell in row))
    _atomic_write(path, "\n".join(lines) + "\n")


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


def test_atomic_write_keeps_the_old_file_when_a_piece_fails(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def pieces():
        yield "new,"
        raise RuntimeError("row formatting failed")

    with pytest.raises(RuntimeError, match="row formatting failed"):
        _atomic_write(target, pieces())
    assert target.read_text() == "old\n"
    assert list(tmp_path.glob(".out.csv.*.tmp")) == []


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
