"""The benchmark's workloads: their inputs, CLI commands and output checks.

Every workload is a closed loop with one client: command i starts when
command i - 1 has returned. Command -1 is the warm-up; it always uses seed 0
and the inputs made from seed 0, and its outputs are compared with the
reference outputs in `reference.json`, recorded at the seed commit.

Each output check states its false-failure rate for a correct program; the
rates of one command's checks add up to no more than 1e-4.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

WARMUP = -1

# Relative tolerance of the reference comparison, on the scale of the summed
# magnitudes of each output column. Reordering float sums moves results by
# ~1e-15 relative (1e-12 through the small eigenproblems); a wrong
# decomposition moves them by O(1).
REFERENCE_RTOL = 1e-7


def cli_seed(seed: int, i: int) -> int:
    """CLI --seed of command i of a run with workload seed `seed`."""
    if i == WARMUP:
        return 0
    return int(np.random.SeedSequence([seed % 2**63, i]).generate_state(1)[0])


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Presence:
    """`mafkit test` on the packaged 150x4 example panel, permutation null."""

    name = "presence"
    B = 4999
    FACTORS = 2
    rerun_check = True

    def __init__(self, root: Path, work: Path, seed: int, seconds: float):
        from mafkit.datasets import example_panel_path

        self.seed = seed
        self.input = str(Path(example_panel_path()).resolve().relative_to(root))
        self.max_commands = None

    def argv(self, i: int, out: Path) -> list[str]:
        return ["test", "--input", self.input, "--output", str(out),
                "--mode", "permutation", "-B", str(self.B),
                "--factors", str(self.FACTORS), "--seed", str(cli_seed(self.seed, i))]

    def replicates(self, out: Path) -> int:
        return len(_read_json(out / "report.json")["null_draws"][0])

    def retries(self, out: Path) -> int:
        return 0

    def check(self, i: int, out: Path) -> list[str]:
        report = _read_json(out / "report.json")
        observed = np.asarray(report["observed_snr"], dtype=float)
        null = np.asarray(report["null_draws"], dtype=float)
        p_value = np.asarray(report["p_value"], dtype=float)
        if null.shape != (self.FACTORS, self.B) or not np.all(np.isfinite(null)):
            return [f"null draws have shape {null.shape} or are not finite"]
        errors = []
        # The example panel's MAF1 SNR (1.08) sits far in the null tail: an
        # exponential fit to the top 1% of 60 000 null draws puts a single
        # draw at or above it at 2.5e-14, i.e. ~1e-10 per command.
        if p_value[0] != 0.0:
            errors.append(f"MAF1 p-value is {p_value[0]}, expected 0")
        recount = (null >= observed[:, None]).mean(axis=1)
        if not np.allclose(recount, p_value, rtol=0.0, atol=1e-12):
            errors.append(f"p-values {p_value} disagree with the null draws ({recount})")
        return errors


class ResampleLong:
    """`mafkit resample` on simulated p=8 panels of about 3000 rows."""

    name = "resample-long"
    P = 8
    N0 = 3000
    B = 199
    BLOCK_LEN = 20
    FACTORS = 2
    STRENGTH = np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.0, -0.2, -0.4])
    RHO = 0.5
    # Over 400 seeds the MAF1 direction was 3.9 deg RMS from the oracle,
    # ~1.5 deg per each of the 7 directions of error; 15 deg is ~10 of
    # those, a chi-square(7) tail near 1e-19. PCA1 lies ~78 deg away.
    ANGLE_BOUND_DEG = 15.0
    # At the seed commit one command takes ~2.5 s
    SECONDS_PER_COMMAND = 2.5
    rerun_check = False

    def __init__(self, root: Path, work: Path, seed: int, seconds: float):
        self.seed = seed
        # A fixed command count: every command caches one more n x n hat
        # matrix, so a time-bounded count would tie peak_rss_mb to speed.
        self.max_commands = max(3, math.ceil(seconds / self.SECONDS_PER_COMMAND))
        order = np.random.default_rng([seed % 2**63, 1]).permutation(self.max_commands)
        self.inputs = {WARMUP: work / "panel-warmup.csv"}
        self._write_panel(self.inputs[WARMUP], self.N0, np.random.default_rng([0, 0]))
        for i in range(self.max_commands):
            # distinct lengths, so each command builds its smoother cold
            n = self.N0 + 1 + int(order[i])
            self.inputs[i] = work / f"panel-{i}.csv"
            self._write_panel(self.inputs[i], n, np.random.default_rng([seed % 2**63, 2, i]))
        self._oracle = None

    def _write_panel(self, path: Path, n: int, rng: np.random.Generator) -> None:
        # The benchmark's own generator, so a change to mafkit.simulate
        # cannot change these inputs.
        t = np.arange(n, dtype=float)
        signal = np.zeros(n)
        for j in range(3):
            cycles, phase = rng.uniform(1.0, 4.0), rng.uniform(0.0, 2.0 * np.pi)
            signal += np.sin(2.0 * np.pi * cycles * t / n + phase) / (j + 1.0)
        signal = (signal - signal.mean()) / signal.std()
        noise = rng.standard_normal((n, self.P)) @ np.linalg.cholesky(self._noise_cov()).T
        values = np.outer(signal, self.STRENGTH) + noise
        header = ",".join(["t"] + [f"s{j + 1}" for j in range(self.P)])
        np.savetxt(path, np.column_stack([t, values]), fmt="%.10g", delimiter=",",
                   header=header, comments="")

    def _noise_cov(self) -> np.ndarray:
        return np.full((self.P, self.P), self.RHO) + (1.0 - self.RHO) * np.eye(self.P)

    def argv(self, i: int, out: Path) -> list[str]:
        return ["resample", "--input", str(self.inputs[i]), "--output", str(out),
                "--block-len", str(self.BLOCK_LEN), "-B", str(self.B),
                "--factors", str(self.FACTORS), "--seed", str(cli_seed(self.seed, i))]

    def replicates(self, out: Path) -> int:
        return len(_read_csv(out / "replicate_coefficients.csv")) // self.FACTORS

    def retries(self, out: Path) -> int:
        return int(_read_json(out / "run.json")["retries"])

    def oracle(self) -> np.ndarray:
        if self._oracle is None:
            from mafkit.oracles import SnModelSpec, population_maf_weights

            spec = SnModelSpec(b=self.STRENGTH, noise_cov=self._noise_cov())
            self._oracle = population_maf_weights(spec)
        return self._oracle

    def check(self, i: int, out: Path) -> list[str]:
        values = _read_csv(self.inputs[i])[:, 1:]
        bands = _read_csv(out / "bands.csv")
        n = values.shape[0]
        if bands.shape != (n, 1 + 4 * self.FACTORS) or not np.all(np.isfinite(bands)):
            return [f"bands.csv has shape {bands.shape} or is not finite"]
        errors = []
        lower, upper = bands[:, 1::4], bands[:, 2::4]
        if np.any(lower > upper):
            errors.append(f"{int(np.sum(lower > upper))} band rows have lower > upper")
        # recover the MAF1 weights from the written factor: factor = values @ w
        weights = np.linalg.lstsq(values, bands[:, 4], rcond=None)[0]
        cosine = abs(weights @ self.oracle()) / np.linalg.norm(weights)
        angle = math.degrees(math.acos(min(1.0, cosine)))
        if angle > self.ANGLE_BOUND_DEG:
            errors.append(f"MAF1 direction is {angle:.2f} deg from the oracle")
        coefs = _read_csv(out / "replicate_coefficients.csv")
        if coefs.shape != (self.FACTORS * self.B, 2 + self.P):
            errors.append(f"replicate_coefficients.csv has shape {coefs.shape}")
        retries = self.retries(out)
        if retries > 0.1 * self.B:
            errors.append(f"{retries} retries exceed 10% of B={self.B}")
        return errors


class Power:
    """`mafkit power -B 1000` over the default five signal multipliers."""

    name = "power"
    B = 1000
    MULTIPLIERS = (0.0, 0.25, 0.5, 0.75, 1.0)
    ALPHA = 0.05
    # Each bound's false-failure rate, from 20 000 simulated statistics per
    # multiplier: power at 1.0 <= 0.9 has ~2.3e-5, a drop of more than 0.03
    # between adjacent points ~2e-9.
    POWER_AT_ONE_MIN = 0.9
    MONOTONE_TOL = 0.03
    # two-sided rate of the exact interval for power at multiplier 0
    NULL_TAIL = 5e-5
    rerun_check = False

    def __init__(self, root: Path, work: Path, seed: int, seconds: float):
        self.seed = seed
        self.max_commands = None
        self._null_counts = None

    def argv(self, i: int, out: Path) -> list[str]:
        return ["power", "--output", str(out), "-B", str(self.B),
                "--seed", str(cli_seed(self.seed, i))]

    def replicates(self, out: Path) -> int:
        config = _read_json(out / "run.json")["config"]
        return int(config["B"]) * (1 + len(config["multipliers"]))

    def retries(self, out: Path) -> int:
        return 0

    def null_counts(self) -> tuple[int, int]:
        """Exact acceptance interval for the exceedance count at multiplier 0.

        The threshold is the (1 - alpha) quantile of B null statistics, which
        np.quantile interpolates between order statistics r and r + 1. The
        count of B further null statistics above order statistic r is
        beta-binomial(B, B - r + 1, r); the two order statistics bracket it.
        """
        if self._null_counts is None:
            from scipy.stats import betabinom

            r = math.floor((1.0 - self.ALPHA) * (self.B - 1)) + 1
            tail = self.NULL_TAIL / 2.0
            low = betabinom(self.B, self.B - r, r + 1).ppf(tail)
            high = betabinom(self.B, self.B - r + 1, r).isf(tail)
            self._null_counts = (int(low), int(high))
        return self._null_counts

    def check(self, i: int, out: Path) -> list[str]:
        rows = _read_csv(out / "power.csv")
        if rows.shape != (len(self.MULTIPLIERS), 2) or not np.allclose(rows[:, 0], self.MULTIPLIERS):
            return [f"power.csv has shape {rows.shape} or other multipliers"]
        power = rows[:, 1]
        errors = []
        low, high = self.null_counts()
        count = round(power[0] * self.B)
        if not low <= count <= high:
            errors.append(f"power at multiplier 0 is {power[0]}, outside [{low}, {high}] / {self.B}")
        if not power[-1] > self.POWER_AT_ONE_MIN:
            errors.append(f"power at multiplier 1 is {power[-1]}, not above {self.POWER_AT_ONE_MIN}")
        if np.any(np.diff(power) < -self.MONOTONE_TOL):
            errors.append(f"power curve {power.tolist()} drops by more than {self.MONOTONE_TOL}")
        return errors


WORKLOADS = {w.name: w for w in (Presence, ResampleLong, Power)}


def fingerprint(out: Path) -> dict:
    """Order-sensitive sums of every numeric column of a command's artifacts."""
    result = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            header = path.read_text(encoding="utf-8").split("\n", 1)[0]
            if len(header) > 200:  # a header of time stamps
                header = "sha256:" + hashlib.sha256(header.encode()).hexdigest()
            data = _read_csv(path)
            # sum along the longer axis, so wide replicate files stay small
            axis = "columns" if data.shape[1] <= data.shape[0] else "rows"
            vectors = data.T if axis == "columns" else data
            result[path.name] = {"header": header,
                                 axis: [{"sums": _sums(v)} for v in vectors]}
        elif path.suffix == ".json":
            result[path.name] = _json_fingerprint(_read_json(path))
    return result


def _sums(values) -> list[float]:
    # sum, absolute sum and position-weighted sum: the last catches reordering
    x = np.asarray(values, dtype=float).ravel()
    weights = np.arange(1, x.size + 1) / max(x.size, 1)
    return [float(x.sum()), float(np.abs(x).sum()), float(x @ weights)]


def _json_fingerprint(value):
    if isinstance(value, dict):
        return {key: _json_fingerprint(item) for key, item in value.items()}
    if isinstance(value, list) and value and all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in np.ravel(np.asarray(value, dtype=object))):
        return {"sums": _sums(value)}
    return value


def compare(reference, actual, where: str = "") -> list[str]:
    """Differences between two fingerprints beyond REFERENCE_RTOL."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict) or set(reference) != set(actual):
            return [f"{where or 'outputs'}: keys differ"]
        if set(reference) == {"sums"}:
            ref, got = reference["sums"], actual["sums"]
            tol = REFERENCE_RTOL * ref[1]
            if any(abs(a - b) > tol for a, b in zip(ref, got)):
                return [f"{where}: sums {got} differ from reference {ref}"]
            return []
        errors = []
        for key in reference:
            errors += compare(reference[key], actual[key], f"{where}/{key}")
        return errors
    if isinstance(reference, list) and isinstance(actual, list):
        if len(reference) != len(actual):
            return [f"{where}: length {len(actual)}, reference {len(reference)}"]
        errors = []
        for k, (ref, got) in enumerate(zip(reference, actual)):
            errors += compare(ref, got, f"{where}[{k}]")
        return errors
    if isinstance(reference, float) and isinstance(actual, (int, float)):
        if abs(reference - actual) > REFERENCE_RTOL * max(abs(reference), abs(actual)):
            return [f"{where}: {actual} differs from reference {reference}"]
        return []
    if reference != actual:
        return [f"{where}: {actual!r} differs from reference {reference!r}"]
    return []
