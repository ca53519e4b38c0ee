"""Sensitivity self-test of the benchmark.

A fixed busy delay is injected through the tracing wrapper into every call
of `simulate.gen_sn_panel`. The benchmark should see it where the function
runs and nowhere else: the traced busy time of the function grows by about
calls x delay, `cmd_s_p50` moves on `power` (6000 calls per command), and
`cmd_s_p50` stays within the benchmark's bound on `presence` (no calls).

Run from the repository root; it takes about three minutes:

    python3 -m pytest perfbench/test_sensitivity.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TARGET = "simulate.gen_sn_panel"
DELAY = 300e-6
SECONDS = 8


def bench(workload: str, trace: int, delay: float = 0.0) -> tuple[dict, dict]:
    """Metrics of one run as reported, and with times unscaled to raw wall seconds."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "11", "--seconds", str(SECONDS), "--trace", str(trace)]
    if delay:
        cmd += ["--inject-delay", f"{TARGET}={delay}"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    facts, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    assert result["correct"], done.stderr
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    # the injected delay is wall time, so its effect is checked before host
    # scaling: per-layer times carry the run's scale, end-to-end raw figures
    # are on the line before the result
    scale = facts["host"]["scale"]
    raw = {name: value / scale if name.endswith("_s") else value
           for name, value in metrics.items()}
    raw.update(facts["host"].get("raw", {}))
    return metrics, raw


def bound(metric: str) -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def test_busy_time_grows_by_calls_times_delay():
    (_, base), (_, slow) = bench("power", trace=1), bench("power", trace=1, delay=DELAY)
    calls = slow[f"{TARGET}.calls"]
    assert calls == base[f"{TARGET}.calls"] == 6000
    growth = slow[f"{TARGET}.busy_s"] - base[f"{TARGET}.busy_s"]
    assert growth == pytest.approx(calls * DELAY, rel=0.25)


def test_cmd_time_moves_on_power():
    (base, base_raw), (slow, slow_raw) = bench("power", 0), bench("power", 0, delay=DELAY)
    assert slow["cmd_s_p50"] - base["cmd_s_p50"] > bound("cmd_s_p50") * base["cmd_s_p50"]
    # one-sided: the host's speed drifts between the two runs, so only a
    # lower bound on the raw growth is reliable
    assert slow_raw["cmd_s_p50"] - base_raw["cmd_s_p50"] > 0.65 * 6000 * DELAY


def test_presence_stays_within_bound():
    (base, _), (slow, _) = bench("presence", 0), bench("presence", 0, delay=DELAY)
    change = abs(slow["cmd_s_p50"] - base["cmd_s_p50"]) / base["cmd_s_p50"]
    assert change <= bound("cmd_s_p50")
