"""The four benchmark workloads.

Each workload turns a seed into a list of inputs (``setup``), runs one
input through the package (``run``, the only timed call) and checks the
result (``check``). ``run`` looks the package functions up on their
modules at call time, so the tracer's wrappers take effect.

Pools of inputs are cycled by the timed loop. The sizes in a pool
(dimension, Kraus count, beta) sit on a fixed grid that spans the
workload's ranges, and the seed draws everything else: Hamiltonians,
channels and probabilities. So every seed gets the same mix of cheap and
expensive inputs, and the run-to-run spread stays small.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from fluctlab import channels, cli, scenario, states, thermo

BUNDLED_BETAS = (0.2, 1.0, 5.0)
UNITAL_GAMMA_TOL = 1e-10  # the check `fluctlab batch` applies to unital campaigns

# Scenario files shipped in scenarios/ (the batch specs are not scenarios).
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
BUNDLED_FILES = ("amplitude_damping_golden.json", "identity.json",
                 "random_qutrit.json", "unitary_flip.json")


class WrongOutput(Exception):
    """The program finished but its output is wrong."""


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _distinct_seeds(rng, n: int) -> np.ndarray:
    seeds = rng.integers(0, 2**63 - 1, size=n)
    if np.unique(seeds).size != n:
        raise RuntimeError("seed draw produced a duplicate")
    return seeds


def _stratified(rng, lo: float, hi: float, n: int) -> list:
    """n draws from [lo, hi), one in each of n equal slices, in random order."""
    return [float(v) for v in lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n]


def _report_outcome(sc, report, unital: bool):
    passed = report.max_residual() < sc.identity_rtol
    if unital:
        passed = passed and abs(report.gamma - 1.0) <= UNITAL_GAMMA_TOL
    digest = hashlib.sha256(repr(report.as_dict()).encode()).hexdigest()
    return passed, 1, digest


class BatchSmall:
    """The `fluctlab batch` campaign in-process: generate, then report."""

    name = "batch_small"
    BETAS = BUNDLED_BETAS + (40.0,)  # beta=40 keeps the large-beta defect visible

    # Distinct scenario seeds per run. A fixed pool, cycled by the timed
    # loop, makes the failures a function of the seed alone; a run gets
    # through it several times.
    POOL = 3000

    def setup(self, seed: int, seconds: int, workdir: str) -> np.ndarray:
        # rows (seed, unital_only)
        seeds = _distinct_seeds(_rng(seed, 1), self.POOL)
        return np.column_stack((seeds, np.arange(self.POOL) % 2))

    def label(self, inp) -> str:
        return f"seed={int(inp[0])}"

    def run(self, inp):
        sc = scenario.random_scenario(int(inp[0]), dim_range=(2, 5), n_kraus_range=(1, 6),
                                      beta_set=self.BETAS, unital_only=bool(inp[1]))
        return sc, thermo.build_report(sc)

    def check(self, inp, result):
        return _report_outcome(*result, unital=bool(inp[1]))


class _ScenarioPool:
    """Reports on a pool of scenarios built during set-up."""

    unital = False

    def label(self, sc) -> str:
        return f"{sc.name}:d={sc.dim}:k={sc.channel.n_kraus}:beta={sc.beta}"

    def run(self, sc):
        return thermo.build_report(sc)

    def check(self, sc, report):
        return _report_outcome(sc, report, unital=self.unital)


class LargeRandom(_ScenarioPool):
    """Reports on large random scenarios."""

    name = "large_random"
    # (dim, n_kraus, beta) over dim 48..64, n_kraus 1..16 and the bundled betas
    GRID = ((48, 7, 0.2), (50, 13, 1.0), (53, 1, 5.0), (55, 9, 0.2),
            (57, 3, 1.0), (59, 11, 5.0), (62, 5, 0.2), (64, 16, 1.0))

    def setup(self, seed: int, seconds: int, workdir: str) -> list:
        seeds = _distinct_seeds(_rng(seed, 2), len(self.GRID))
        return [scenario.random_scenario(int(s), dim_range=(d, d), n_kraus_range=(k, k),
                                         beta_set=(b,))
                for s, (d, k, b) in zip(seeds, self.GRID)]


class DegenerateLadder(_ScenarioPool):
    """Depolarizing channels on an equally spaced ladder, H_i = H_f."""

    name = "degenerate_ladder"
    unital = True
    # (dim, beta): every dim of 16..24 once, the bundled betas in turn
    GRID = tuple((d, BUNDLED_BETAS[d % 3]) for d in range(16, 25))

    def setup(self, seed: int, seconds: int, workdir: str) -> list:
        probs = _stratified(_rng(seed, 3), 0.05, 0.95, len(self.GRID))
        out = []
        for i, ((d, b), p) in enumerate(zip(self.GRID, probs)):
            channel = channels.preset("depolarizing", [p], d)
            h = states.Hamiltonian.from_matrix(np.diag(np.linspace(0.0, 1.0, d)))
            out.append(scenario.Scenario(name=f"ladder-{i}", dim=d, beta=b, h_initial=h,
                                         h_final=h, channel=channel, seed=i))
        return out


def _complex_rows(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


class CliOp(NamedTuple):
    command: str   # "run" or "sweep"
    path: str
    args: tuple    # sweep arguments
    out: str
    reports: int   # reports the command computes


class CliFiles:
    """In-process `fluctlab run` / `fluctlab sweep` on scenario files."""

    name = "cli_files"
    # explicit Kraus files as (dim, n_kraus, beta); preset files as (preset, dim, beta)
    KRAUS_FILES = ((4, 2, 0.2), (12, 4, 1.0), (20, 1, 5.0), (28, 3, 0.2))
    PRESET_FILES = (("dephasing", 8, 1.0), ("amplitude_damping", 16, 5.0),
                    ("random", 24, 0.2), ("dephasing", 32, 1.0))
    SWEEPABLE = ("dephasing", "amplitude_damping")

    def _seeded_docs(self, rng) -> list:
        n_k = len(self.KRAUS_FILES)
        seeds = [int(s) for s in _distinct_seeds(rng, 3 * (n_k + len(self.PRESET_FILES)))]
        docs = []
        for i, (d, k, beta) in enumerate(self.KRAUS_FILES):
            s_c, s_hi, s_hf = seeds[3 * i:3 * i + 3]
            ch = channels.random_channel(d, k, s_c)
            docs.append({
                "name": f"kraus-{i}", "dim": d, "beta": beta, "seed": s_c % 1000,
                "h_initial": _complex_rows(scenario.random_hamiltonian(d, s_hi).matrix),
                "h_final": {"diag": sorted(_rng(s_hf, 0).random(d).tolist())},
                "channel": {"kraus": [_complex_rows(a) for a in ch.kraus_ops]},
            })
        for j, (name, d, beta) in enumerate(self.PRESET_FILES):
            i = n_k + j
            s_c, s_hi, s_hf = seeds[3 * i:3 * i + 3]
            if name == "random":
                params = [3]  # n_kraus; the file's seed is the preset seed
            else:
                params = [round(0.05 + 0.9 * _rng(s_c, 0).random(), 3)]
            docs.append({
                "name": f"{name}-{j}", "dim": d, "beta": beta, "seed": s_c % 1000,
                "h_initial": _complex_rows(scenario.random_hamiltonian(d, s_hi).matrix),
                "h_final": _complex_rows(scenario.random_hamiltonian(d, s_hf).matrix),
                "channel": {"preset": name, "params": params},
            })
        return docs

    def setup(self, seed: int, seconds: int, workdir: str) -> list:
        rng = _rng(seed, 4)
        in_dir = os.path.join(workdir, "inputs")
        os.makedirs(in_dir, exist_ok=True)
        files = [str(SCENARIO_DIR / f) for f in BUNDLED_FILES]
        for doc in self._seeded_docs(rng):
            path = os.path.join(in_dir, doc["name"] + ".json")
            with open(path, "w") as fh:
                fh.write(json.dumps(doc))  # one C-encoded string, not a write per token
            files.append(path)
        ops = []
        for path in files:
            with open(path) as fh:
                spec = json.load(fh)["channel"]
            if spec.get("preset") in self.SWEEPABLE:
                param = "channel.p"
                values = [round(v, 3) for v in _stratified(rng, 0.05, 0.95, 2)]
            else:
                param, values = "beta", list(BUNDLED_BETAS)
            sweep = ("--param", param, "--values", ",".join(repr(v) for v in values))
            ops += [("run", path, (), 1), ("sweep", path, sweep, len(values))]
        order = rng.permutation(len(ops))
        return [CliOp(*ops[o][:3], os.path.join(workdir, "out", str(k)), ops[o][3])
                for k, o in enumerate(order)]

    def label(self, op: CliOp) -> str:
        return f"{op.command}:{os.path.basename(op.path)}"

    def run(self, op: CliOp):
        return cli.main([op.command, op.path, *op.args, "--out", op.out, "--quiet"])

    def check(self, op: CliOp, code):
        digest = hashlib.sha256()
        names = sorted(os.listdir(op.out)) if os.path.isdir(op.out) else []
        for name in names:
            digest.update(name.encode() + b"\0")
            with open(os.path.join(op.out, name), "rb") as fh:
                digest.update(fh.read())
        expected = ("pb.csv", "pf.csv", "report.json", "summary.txt") if op.command == "run" \
            else ("sweep.csv",)
        if code == 0 and tuple(names) != expected:
            raise WrongOutput(f"{self.label(op)} exited 0 but wrote {names}")
        return code == 0, op.reports, digest.hexdigest()


WORKLOADS = {w.name: w for w in (BatchSmall, LargeRandom, DegenerateLadder, CliFiles)}
