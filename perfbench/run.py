"""fluctlab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; ``fluctlab`` is imported from its
``src/`` tree. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run. The line before it records the
environment, the sample count, failures and output digests. Workloads,
metrics and what each layer metric should move are described in
``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread, set before numpy is first imported (in main): the
# benchmark is one process on a small shared machine, and a fixed count
# keeps floating-point results bit-identical.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_REPEATS = 3      # set-ups per run, at least; more while under SETUP_MIN_S
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 500
IMPORT_SPAWNS = 9
TRACE_ROUNDS = 10
VERIFY_INPUTS = 4      # inputs re-run after the timed window to check determinism
DIGESTS_SHOWN = 64     # output digests printed per run, by input index


def quantile(values: list, q: float) -> float:
    """Quantile, linearly interpolated between samples."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Outcomes of the operations of one run.

    ``attempted`` and ``failed`` count distinct inputs, each of which the run
    attempts at least once, so they depend on the seed alone and not on how
    many operations fit into the time window. Repeats of an input must give
    its first output again. The timing fields cover the timed operations.
    """

    def __init__(self):
        self.latencies = []   # seconds, of the timed operations that passed
        self.busy_s = 0.0
        self.timed = 0        # timed operations
        self.timed_failed = 0
        self.reports = 0      # reports of the timed operations that passed
        self.passed = {}      # input index -> whether its first run passed
        self.digests = {}     # input index -> digest of its first result
        self.problems = []

    @property
    def attempted(self) -> int:
        return len(self.passed)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.passed.values())

    def record(self, key: int, label: str, seconds, outcome):
        """outcome is (passed, reports, digest); seconds is None when untimed."""
        passed, reports, digest = outcome
        if seconds is not None:
            self.timed += 1
            self.busy_s += seconds
            if passed:
                self.latencies.append(seconds)
                self.reports += reports
            else:
                self.timed_failed += 1
        self.passed.setdefault(key, passed)
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.problems.append(f"{label}: output differs between repeats")

    def missing(self, n_inputs: int) -> list:
        """Indices of the inputs not yet run."""
        return [k for k in range(n_inputs) if k not in self.passed]


def run_ops(workload, inputs, keys, tally: Tally, timed: bool = True,
            deadline: float | None = None) -> int:
    """Run the inputs at the indices ``keys`` yields (cycled), at least one,
    until the keys or the time run out."""
    from fluctlab.errors import FluctLabError
    from workloads import WrongOutput

    keys = iter(keys)
    n = 0
    while deadline is None or not n or perf_counter() < deadline:
        key = next(keys, None)
        if key is None:
            break
        inp = inputs[key % len(inputs)]
        label = workload.label(inp)
        t0 = perf_counter()
        try:
            result = workload.run(inp)
        except FluctLabError as exc:
            seconds = perf_counter() - t0
            outcome = (False, 0, f"raised {type(exc).__name__}")
        else:
            seconds = perf_counter() - t0
            try:
                outcome = workload.check(inp, result)
            except WrongOutput as exc:
                tally.problems.append(str(exc))
                outcome = (False, 0, "wrong output")
        tally.record(key % len(inputs), label, seconds if timed else None, outcome)
        n += 1
    return n


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing fluctlab from src/."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import fluctlab"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(), "system": platform.platform(),
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREADS), "seed": seed,
    }


def untraced_run(workload, seed, seconds, workdir, tally):
    # A cheap set-up is repeated until SETUP_MIN_S is spent, so that its
    # median is not a single timer-resolution reading.
    setups = []
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_MIN_S
                                          and len(setups) < SETUP_MAX_REPEATS):
        t0 = perf_counter()
        inputs = workload.setup(seed, seconds, workdir)
        setups.append(perf_counter() - t0)
    run_ops(workload, inputs, [0], tally, timed=False)  # warm-up
    # The machine's speed drifts over seconds, so the import spawns are
    # spread over the timed window instead of run back to back.
    keys = itertools.count()
    imports = []
    for _ in range(IMPORT_SPAWNS):
        run_ops(workload, inputs, keys, tally, deadline=perf_counter() + seconds / IMPORT_SPAWNS)
        imports.append(import_seconds())
    run_ops(workload, inputs, tally.missing(len(inputs)), tally, timed=False)
    run_ops(workload, inputs, range(min(VERIFY_INPUTS, len(inputs))), tally, timed=False)
    # Failed operations are counted by pass_frac, not in the percentiles
    # (see DESIGN.md); if none passed, the whole window stands in.
    lat_ms = [x * 1e3 for x in tally.latencies] or [seconds * 1e3]
    metrics = {
        "reports_per_s": (tally.reports / tally.busy_s, "1/s"),
        "report_ms_p50": (quantile(lat_ms, 0.50), "ms"),
        "report_ms_p90": (quantile(lat_ms, 0.90), "ms"),
        "pass_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
        "import_s": (statistics.median(imports), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return inputs, metrics, []


def traced_run(workload, seed, seconds, workdir, tally):
    from tracing import LAYERS, Tracer, metric_spec

    tracer = Tracer()
    tracer.install()
    try:
        inputs = workload.setup(seed, seconds, workdir)
    finally:
        tracer.uninstall()
    setup_ms = tracer.self_ms_by_layer()
    run_ops(workload, inputs, [0], tally, timed=False)  # warm-up

    # Each round runs a chunk of operations untraced and then the same chunk
    # traced; the ratio of the two busy times is the tracing overhead.
    # Short alternating rounds keep the machine's speed drift out of it.
    tracer.reset()
    n = 0
    untraced_s = traced_s = 0.0
    for _ in range(TRACE_ROUNDS):
        before = tally.busy_s
        chunk = run_ops(workload, inputs, itertools.count(n), tally,
                        deadline=perf_counter() + seconds / 2 / TRACE_ROUNDS)
        middle = tally.busy_s
        tracer.install()
        try:
            run_ops(workload, inputs, range(n, n + chunk), tally)
        finally:
            tracer.uninstall()
        untraced_s += middle - before
        traced_s += tally.busy_s - middle
        n += chunk

    run_ops(workload, inputs, tally.missing(len(inputs)), tally, timed=False)
    values = tracer.per_op_metrics(n)
    for layer in LAYERS:
        values[f"setup.{layer}.self_ms"] = setup_ms[layer]
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics = {name: (values[name], unit) for name, unit, _ in metric_spec()}
    return inputs, metrics, tracer.absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fluctlab" / "__init__.py").is_file():
        print(f"error: no fluctlab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import fluctlab
    import fluctlab.cli  # noqa: F401  (not imported by the package itself)
    from workloads import WORKLOADS

    if Path(fluctlab.__file__).resolve().parent != SRC / "fluctlab":
        print(f"error: fluctlab imported from {fluctlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    seed = args.seed % 2**63
    tally = Tally()
    work_root = Path(__file__).resolve().parent / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        run = traced_run if args.trace else untraced_run
        inputs, metrics, absent = run(workload, seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shown = sorted(k for k in tally.digests if k < DIGESTS_SHOWN)
    info = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": environment(seed), "inputs": len(inputs),
        "timed_ops": tally.timed, "timed_failed": tally.timed_failed,
        "problems": tally.problems, "absent": absent,
        "digests": {workload.label(inputs[k]): tally.digests[k] for k in shown},
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
