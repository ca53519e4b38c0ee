#!/usr/bin/env python3
"""mafkit benchmark: three seeded CLI workloads run through `mafkit.cli.main`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload presence --seed 1 --seconds 20 --trace 0

Workloads are `presence`, `resample-long` and `power` (see README.md). All
commands run in this one process. With `--trace 0` the last line of stdout
is a JSON object with the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a traced run, and the spans are written to
`.perfbench/trace-<workload>-seed<seed>.json.gz`. Every command's outputs are
checked; a command that exits non-zero or fails a check counts as failed.

`--record-reference` runs only the warm-up command and stores its output
fingerprint in `perfbench/reference.json`. `--inject-delay NAME=SECONDS`
adds a fixed busy delay to each call of one wrapped function; the
sensitivity self-test uses it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = Path(".perfbench")  # relative to ROOT, so artifacts name no checkout path
WORK = RUN_DIR / "work"
REFERENCE = HERE / "reference.json"

# BLAS is pinned to one thread: the matrices here are at most 3000 x 3000
# and threads on a small shared machine mostly add noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 3
MIN_COMMANDS = 3

# Times are reported at a reference host speed: each command's wall time is
# scaled by PROBE_REF_S over the mean probe time just before and after it
# (see probe_seconds); set-up and per-layer times by the run's median. On a
# shared VM the host's speed drifts by up to 60% within minutes, which moved
# raw run medians by up to 0.31 (IQR/median over 10 runs). The raw figures
# are printed on the line before the result.
PROBE_LOOPS = 1000
PROBE_REF_S = 0.1

# BENCHMARK.json names the per-layer metrics that --trace 1 reports
BENCHMARK = ROOT / "BENCHMARK.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("presence", "resample-long", "power"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed command wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-delay", dest="inject_delay", action="append", default=[],
                        metavar="NAME=SECONDS", help="busy delay per call of a wrapped function")
    parser.add_argument("--record-reference", dest="record_reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    delays = {}
    for item in args.inject_delay:
        name, sep, value = item.partition("=")
        try:
            delays[name] = float(value)
        except ValueError:
            parser.error(f"--inject-delay expects NAME=SECONDS, got {item!r}")
        if not sep or delays[name] < 0:
            parser.error(f"--inject-delay expects NAME=SECONDS, got {item!r}")
    args.delays = delays
    return args


def import_seconds() -> float:
    """Median time of `import mafkit, mafkit.cli` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import mafkit, mafkit.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_cli(argv: list[str]) -> tuple[int | str, str]:
    """Run one mafkit command in this process; returns (exit code, its stdout)."""
    import mafkit.cli

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = mafkit.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except Exception as exc:  # a crash is a failed command, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    return code, buffer.getvalue()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def probe_seconds() -> float:
    """Wall time of a fixed numpy kernel shaped like one replicate loop.

    The kernel uses no mafkit code, so no change to the program moves it;
    only the host's speed does. It runs between commands, and a command's
    time is scaled by PROBE_REF_S over the mean of the probes around it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    panel = rng.standard_normal((150, 4))
    smoother = rng.standard_normal((150, 150)) / 150.0
    start = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        x = panel[rng.permutation(150)]
        _, vectors = np.linalg.eigh(np.cov(x, rowvar=False))
        y = x @ vectors[:, -1]
        fitted = smoother @ y
        float(np.std(fitted)) / float(np.std(y - fitted))
    return time.perf_counter() - start


class Loop:
    """The timed closed loop of one run and its per-command bookkeeping."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        # per command: (wall seconds, mean of the probes just before and after it)
        self.times: list[tuple[float, float]] = []
        self.traced_times: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.replicates = 0
        self.traced = {"replicates": 0, "retries": 0, "bytes_written": 0}
        self.first_report: bytes | None = None

    def command(self, i: int, traced: bool) -> float:
        """Run, time and check command i; returns its wall time."""
        out = WORK / f"cmd-{i}"
        shutil.rmtree(out, ignore_errors=True)
        argv = self.workload.argv(i, out)
        gc.collect()  # start every command from the same heap state
        if traced:
            self.tracer.command_id = i
        start = time.perf_counter()
        code, stdout = run_cli(argv)
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.command_id = None
        self.attempted += 1
        errors = self.checked(i, out, code, stdout)
        if errors:
            self.failed += 1
            print(f"command {i} ({' '.join(argv)}) failed: {'; '.join(errors)}", file=sys.stderr)
        else:
            replicates = self.workload.replicates(out)
            self.replicates += replicates
            if traced:
                self.traced["replicates"] += replicates
                self.traced["retries"] += self.workload.retries(out)
        if traced:
            self.traced["bytes_written"] += dir_bytes(out) if out.exists() else 0
        if i == 0 and self.workload.rerun_check and not errors:
            self.first_report = self.report_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def checked(self, i: int, out: Path, code, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit {code} {stdout.strip()}"]
        try:
            return self.workload.check(i, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    @staticmethod
    def report_bytes(out: Path) -> bytes:
        return b"".join(p.read_bytes() for p in sorted(out.iterdir()) if p.is_file())

    def run(self, first: int, seconds: float, commands: int | None, traced: bool) -> int:
        """Issue commands from index `first` until the budget is spent; returns the next index.

        The budget is `commands` commands if given, else `seconds` of timed
        command wall time (and at least MIN_COMMANDS commands).
        """
        i, spent = first, 0.0
        before = probe_seconds()
        while (i - first < commands if commands is not None
               else i - first < MIN_COMMANDS or spent < seconds):
            elapsed = self.command(i, traced)
            after = probe_seconds()
            (self.traced_times if traced else self.times).append((elapsed, (before + after) / 2))
            spent += elapsed
            before = after
            i += 1
        return i

    def warm_up(self, record: bool) -> float:
        """Run and check the default-seed command; returns its wall time.

        Its outputs are compared with the recorded reference outputs, or
        with `record` become the reference.
        """
        import workloads

        out = WORK / "warmup"
        argv = self.workload.argv(workloads.WARMUP, out)
        start = time.perf_counter()
        code, stdout = run_cli(argv)
        elapsed = time.perf_counter() - start
        errors = self.checked(workloads.WARMUP, out, code, stdout)
        if not errors:
            fingerprint = workloads.fingerprint(out)
            references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            if record:
                references[self.workload.name] = fingerprint
                REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
            elif self.workload.name not in references:
                errors.append(f"no reference outputs for {self.workload.name}")
            else:
                errors += workloads.compare(references[self.workload.name], fingerprint)
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"warm-up ({' '.join(argv)}) failed: {'; '.join(errors)}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def rerun_matches(self) -> bool:
        """Rerun command 0 and compare its artifacts byte for byte."""
        out = WORK / "rerun-0"
        code, _ = run_cli(self.workload.argv(0, out))
        same = code == 0 and self.report_bytes(out) == self.first_report
        shutil.rmtree(out, ignore_errors=True)
        return same


def scaled_median(samples: list[tuple[float, float]]) -> float:
    """Median command time at the reference host speed."""
    return statistics.median(t * PROBE_REF_S / p for t, p in samples)


def input_bytes(call_args, call_kwargs) -> int:
    """Size of the file an `ingest_csv` call reads."""
    return os.path.getsize(call_args[0] if call_args else call_kwargs["path"])


def hat_misses() -> int | None:
    """Misses of the smoother's hat-matrix cache, if it exposes its counters."""
    import mafkit.smoothing

    info = getattr(getattr(mafkit.smoothing, "_hat_matrix", None), "cache_info", None)
    return info().misses if info is not None else None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mafkit" / "__init__.py").is_file():
        print(f"error: no mafkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    old_path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old_path if old_path else "")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    import mafkit
    import mafkit.cli

    import tracing
    import workloads

    if Path(mafkit.__file__).resolve().parent != SRC / "mafkit":
        print(f"error: imported mafkit from {mafkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        return measure(args, tracing, workloads)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(args, tracing, workloads) -> int:
    setup_import = import_seconds()
    workload = workloads.WORKLOADS[args.workload](ROOT, WORK, args.seed, args.seconds)
    tracer = None
    if args.trace or args.delays:
        tracer = tracing.Tracer(record=bool(args.trace), delays=args.delays,
                                hooks={"cli.ingest_csv": input_bytes})
    loop = Loop(workload, tracer)
    warm_s = loop.warm_up(args.record_reference)
    if args.record_reference:
        return 1 if loop.failed else 0
    commands = workload.max_commands
    installed = tracer if tracer is not None else contextlib.nullcontext()
    if args.trace:
        untraced = None if commands is None else commands // 2
        next_i = loop.run(0, args.seconds / 2, untraced, traced=False)
        misses_before = hat_misses()
        with installed:
            loop.run(next_i, args.seconds / 2,
                     None if commands is None else commands - untraced, traced=True)
        misses_after = hat_misses()
    else:
        with installed:
            loop.run(0, args.seconds, commands, traced=False)

    if workload.rerun_check and loop.first_report is not None and not loop.rerun_matches():
        loop.failed += 1
        print("rerun of command 0 is not byte-identical", file=sys.stderr)

    probe_p50 = statistics.median(p for _, p in loop.times + loop.traced_times)
    scale = PROBE_REF_S / probe_p50
    facts = {"workload": workload.name, "seed": args.seed, "machine": machine_facts(),
             "commands": loop.attempted - 1,
             "host": {"probe_s_p50": probe_p50, "scale": scale}}
    if tracer is not None:
        facts["absent"] = tracer.absent
    if args.trace:
        n_traced = len(loop.traced_times)
        summary = {name: value * scale if name.endswith("_s") else value
                   for name, value in tracer.summary(n_traced).items()}
        summary["inference.replicates"] = loop.traced["replicates"] / n_traced
        summary["inference.retries"] = loop.traced["retries"] / n_traced
        summary["cli.ingest_csv.bytes_read"] = tracer.hook_totals["cli.ingest_csv"] / n_traced
        summary["cli.bytes_written"] = loop.traced["bytes_written"] / n_traced
        summary["trace.overhead_s"] = (scaled_median(loop.traced_times)
                                       - scaled_median(loop.times))
        if misses_before is not None and misses_after is not None:
            summary["smoothing.hat_builds"] = (misses_after - misses_before) / n_traced
        facts["traced_commands"] = n_traced
        RUN_DIR.mkdir(exist_ok=True)
        tracer.write(RUN_DIR / f"trace-{workload.name}-seed{args.seed}.json.gz", facts)
        per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
        metrics = {m["name"]: {"value": summary[m["name"]], "unit": m["unit"]}
                   for m in per_layer if m["name"] in summary}
    else:
        wall = [t for t, _ in loop.times]
        facts["host"]["raw"] = {"cmd_s_p50": statistics.median(wall),
                                "replicates_per_s": loop.replicates / sum(wall),
                                "setup_s": setup_import + warm_s}
        scaled_total = sum(t * PROBE_REF_S / p for t, p in loop.times)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "cmd_s_p50": {"value": scaled_median(loop.times), "unit": "s"},
            "replicates_per_s": {"value": loop.replicates / scaled_total, "unit": "1/s"},
            "setup_s": {"value": (setup_import + warm_s) * scale, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb * 1024 / 1e6, "unit": "MB"},
            "ok_frac": {"value": 1.0 - loop.failed / loop.attempted, "unit": "frac"},
        }
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
