"""Per-layer tracing from outside the package.

Every traced function is wrapped once, and the wrapper is installed under
every name that refers to that function object in any ``fluctlab.*``
module namespace (``thermo`` and ``cli`` import names from the lower
layers, so patching the defining module alone would miss their calls).
``KrausChannel`` methods are wrapped on the class. ``uninstall`` puts
every original back.

A span's self time is its duration minus the time covered by the spans
it caused; since the package is single-threaded, child spans nest and a
stack of child-time accumulators gives self times exactly.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

from fluctlab.errors import FluctLabError

LAYERS = ("linalg", "states", "channels", "distributions", "thermo", "scenario", "cli")

# "<module>.<function>" or "<module>.<Class>.<method>"; a name missing
# from the package is reported as absent, never raised.
TRACED = (
    "linalg.hermitian_eig",
    "states.gibbs_state",
    "states.check_density_matrix",
    "states.von_neumann_entropy",
    "states.nonequilibrium_entropy",
    "channels.validate_channel",
    "channels.is_unital",
    "channels.backward_of",
    "channels.KrausChannel.apply",
    "channels.KrausChannel.kraus_sum",
    "channels.haar_unitary",
    "channels.random_channel",
    "channels.unitary_mixture",
    "channels.preset",
    "distributions.transition_table",
    "distributions.forward_distribution",
    "distributions.backward_distribution",
    "distributions.renormalize_backward",
    "distributions.gamma_of",
    "distributions.exp_average",
    "distributions.crooks_residual",
    "distributions.kl_divergence",
    "distributions.write_distribution_csv",
    "thermo.scenario_artifacts",
    "thermo.internal_energy_change",
    "thermo.report_to_json",
    "thermo.report_csv_row",
    "scenario.random_scenario",
    "scenario.random_hamiltonian",
    "scenario.scenario_from_dict",
    "cli.main",
)

COUNTS = (
    ("distributions.atoms_in", "count", "lower"),
    ("distributions.bins_out", "count", "lower"),
    ("distributions.bins_per_atom", "ratio", "higher"),
    ("channels.kraus_ops", "count", "lower"),
    ("scenario.bytes_parsed", "B", "lower"),
    ("cli.bytes_written", "B", "lower"),
)


def metric_spec() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in TRACED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_ms", "ms", "lower"))
    out += COUNTS
    out += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    out += [(f"setup.{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    out.append(("trace.overhead_frac", "frac", "lower"))
    return out


def _count_distribution(tracer, args, result):
    if args:
        tracer.counts["distributions.atoms_in"] += int(getattr(args[0], "dim", 0)) ** 2
    tracer.counts["distributions.bins_out"] += int(getattr(result, "n_atoms", 0))


def _count_kraus(tracer, args, result):
    tracer.counts["channels.kraus_ops"] += int(getattr(args[0], "n_kraus", 0))


def _count_cli(tracer, args, result):
    argv = list(args[0]) if args else []
    if len(argv) > 1 and os.path.isfile(argv[1]):
        tracer.counts["scenario.bytes_parsed"] += os.path.getsize(argv[1])
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        for entry in os.scandir(out):
            if entry.is_file():
                tracer.counts["cli.bytes_written"] += entry.stat().st_size


POST_HOOKS = {
    "distributions.forward_distribution": _count_distribution,
    "distributions.backward_distribution": _count_distribution,
    "channels.KrausChannel.apply": _count_kraus,
    "channels.KrausChannel.kraus_sum": _count_kraus,
    "cli.main": _count_cli,
}


class Tracer:
    """Call counts, self times and counts per traced function."""

    def __init__(self):
        self._stack = []
        self._restore = []
        self.absent = []
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts = {name: 0 for name, _, _ in COUNTS if name != "distributions.bins_per_atom"}

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        post = POST_HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except FluctLabError as exc:
                # attribute the error to the layer that raised it first
                if not getattr(exc, "_perfbench_seen", False):
                    exc._perfbench_seen = True
                    self.errors[layer] += 1
                raise
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._stack.clear()
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fluctlab" or key.startswith("fluctlab."))]
        self.absent = []
        for name in TRACED:
            parts = name.split(".")
            module = sys.modules.get("fluctlab." + parts[0])
            if len(parts) == 3:
                cls = getattr(module, parts[1], None)
                fn = vars(cls).get(parts[2]) if isinstance(cls, type) else None
                if not callable(fn):
                    self.absent.append(name)
                    continue
                setattr(cls, parts[2], self._wrap(name, fn))
                self._restore.append((cls, parts[2], fn))
                continue
            fn = getattr(module, parts[1], None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    def self_ms_by_layer(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds * 1e3
        return out

    def per_op_metrics(self, n_ops: int) -> dict:
        """calls, self_ms, counts and errors per operation."""
        n = max(n_ops, 1)
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name] / n
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3 / n
        for name, value in self.counts.items():
            out[name] = value / n
        atoms = self.counts["distributions.atoms_in"]
        out["distributions.bins_per_atom"] = (
            self.counts["distributions.bins_out"] / atoms if atoms else 0.0)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer] / n
        return out
