"""Command-line front end: run single scenarios, parameter sweeps and
randomized batch campaigns, and the one module that reads or writes files.

Every command runs its scenarios through thermo.evaluate, which holds the
pass rule. Exit codes: 0 when every scenario passes, 2 when one fails, 1 on
any input or validation error. Every output format lives here, and outputs
are byte-deterministic for a given scenario file and seed: floats are
printed at 17 significant digits by fmt and row order is fixed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from .channels import _P, _PRESET_PARAMS
from .distributions import EnergyDistribution
from .errors import FluctLabError, ScenarioError, UnknownParam
from .scenario import (
    DEFAULT_RESIDUAL_TOL,
    Scenario,
    batch_from_dict,
    number,
    parse_channel,
    scenario_from_dict,
)
from .thermo import (
    REPORT_FIELDS,
    RESIDUAL_KEYS,
    FluctuationReport,
    ScenarioArtifacts,
    evaluate,
    max_or_nan,
    residual_verdicts,
)

SWEEPABLE_PRESETS = tuple(name for name, kinds in _PRESET_PARAMS.items() if kinds[:1] == (_P,))

# the report fields of a batch.csv row, after seed, dim and unital and before max_residual
BATCH_FIELDS = ("gamma", "x", "kl", "delta_u", "delta_s")


class _Parser(argparse.ArgumentParser):
    # usage errors are input errors: exit 1, keeping 2 for residual violations
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# every number in an output file: 17 significant digits, round-trip exact for doubles
def fmt(value: float) -> str:
    return format(float(value), ".17g")


def report_csv_header(extra: tuple = ()) -> list:
    return [*extra, *REPORT_FIELDS, *("residual_" + k for k in sorted(RESIDUAL_KEYS))]


def report_csv_row(report: FluctuationReport, extra: tuple = ()) -> list:
    """The texts under report_csv_header(extra); report.json and summary.txt print the same."""
    return ([str(v) for v in extra] + [fmt(getattr(report, name)) for name in REPORT_FIELDS]
            + [fmt(report.residuals[k]) for k in sorted(RESIDUAL_KEYS)])


def report_to_json(report: FluctuationReport, header: dict | None = None) -> str:
    """Flat JSON document: header strings/ints, then the report's CSV columns as keys."""
    items = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in (header or {}).items()]
    items += [f'  "{k}": {v}' for k, v in zip(report_csv_header(), report_csv_row(report))]
    return "{\n" + ",\n".join(items) + "\n}\n"


def write_distribution_csv(p: EnergyDistribution, path) -> None:
    """Two-column CSV (delta_u, mass) at 17 significant digits."""
    rows = zip(p.delta_u.tolist(), p.mass.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("delta_u,mass\n" + "".join(f"{fmt(x)},{fmt(w)}\n" for x, w in rows))


def _load_json(path: str, seed: int | None):
    """The JSON document at path, with the --seed override, if given, as its seed."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deeply to parse") from exc
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    if seed is not None and isinstance(doc, dict):
        doc["seed"] = seed
    return doc


def _threshold(args, scenario: Scenario | None = None) -> float:
    if args.tol is not None:
        return number(args.tol, "--tol", positive=True)
    return scenario.identity_rtol if scenario is not None else DEFAULT_RESIDUAL_TOL


def _summary_text(scenario: Scenario, artifacts: ScenarioArtifacts,
                  threshold: float, passed: bool) -> str:
    report, check = artifacts.report, artifacts.unitality
    lines = [
        f"scenario: {scenario.name}",
        f"dim: {scenario.dim}",
        f"beta: {fmt(scenario.beta)}",
        f"channel: {scenario.channel.label or 'explicit'} ({scenario.channel.n_kraus} Kraus ops)",
        f"unital: {str(check.unital).lower()} (deviation {fmt(check.deviation)})",
        "",
    ]
    texts = report_csv_row(report)
    lines += [f"{name:24s} = {text}" for name, text in zip(REPORT_FIELDS, texts)]
    lines += ["", f"residuals (threshold {fmt(threshold)}):"]
    verdicts = residual_verdicts(report, threshold)
    for name, text in zip(sorted(RESIDUAL_KEYS), texts[len(REPORT_FIELDS):]):
        lines.append(f"  {name:24s} {text:26s} {'PASS' if verdicts[name] else 'FAIL'}")
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    scenario = scenario_from_dict(_load_json(args.scenario_file, args.seed))
    threshold = _threshold(args, scenario)
    _, artifacts, passed = next(evaluate([scenario], threshold))

    os.makedirs(args.out, exist_ok=True)
    header = {"name": scenario.name, "dim": scenario.dim, "beta": scenario.beta,
              "seed": scenario.seed, "unital": bool(artifacts.unitality.unital)}
    with open(os.path.join(args.out, "report.json"), "w", newline="") as fh:
        fh.write(report_to_json(artifacts.report, header=header))
    write_distribution_csv(artifacts.forward, os.path.join(args.out, "pf.csv"))
    write_distribution_csv(artifacts.backward, os.path.join(args.out, "pb.csv"))
    summary = _summary_text(scenario, artifacts, threshold, passed)
    with open(os.path.join(args.out, "summary.txt"), "w", newline="") as fh:
        fh.write(summary)

    if not args.quiet:
        sys.stdout.write(summary)
    return 0 if passed else 2


def _sweep_scenarios(base: Scenario, param: str, values: list) -> list:
    if not values:
        raise UnknownParam("sweep needs a non-empty list of values")
    if param == "beta":
        return [replace(base, beta=number(v, "--values", positive=True)) for v in values]
    if param == "channel.p":
        spec = base.channel_spec
        if not spec or spec.get("preset") not in SWEEPABLE_PRESETS:
            raise UnknownParam(
                "channel.p sweeps need a preset channel with a leading "
                f"probability parameter (one of {', '.join(SWEEPABLE_PRESETS)})"
            )
        specs = [dict(spec, params=[v] + list(spec.get("params", []))[1:]) for v in values]
        return [replace(base, channel=parse_channel(s, base.dim, base.seed), channel_spec=s)
                for s in specs]
    raise UnknownParam(f"unknown sweep parameter {param!r} (use 'beta' or 'channel.p')")


def cmd_sweep(args) -> int:
    base = scenario_from_dict(_load_json(args.scenario_file, args.seed))
    threshold = _threshold(args, base)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UnknownParam(f"bad sweep values {args.values!r}: {exc}") from exc
    scenarios = _sweep_scenarios(base, args.param, values)

    os.makedirs(args.out, exist_ok=True)
    worst, all_passed = 0.0, True
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report_csv_header(extra=("param", "value")))
        for value, (_, artifacts, passed) in zip(values, evaluate(scenarios, threshold)):
            worst = max_or_nan(worst, artifacts.report.max_residual())
            all_passed = all_passed and passed
            writer.writerow(report_csv_row(artifacts.report, extra=(args.param, fmt(value))))
    if not args.quiet:
        print(f"sweep: {len(values)} runs of '{args.param}' -> {path}")
        print(f"max residual: {fmt(worst)}")
    return 0 if all_passed else 2


def cmd_batch(args) -> int:
    spec = batch_from_dict(_load_json(args.spec_file, args.seed))
    threshold = _threshold(args)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "batch.csv")
    worst, all_passed = 0.0, True
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "dim", "unital", *BATCH_FIELDS, "max_residual"])
        for scenario, artifacts, passed in evaluate(spec.scenarios(), threshold, spec.unital_only):
            report = artifacts.report
            max_res = report.max_residual()
            worst = max_or_nan(worst, max_res)
            all_passed = all_passed and passed
            writer.writerow([
                str(scenario.seed), str(scenario.dim), str(artifacts.unitality.unital).lower(),
                *(fmt(getattr(report, name)) for name in BATCH_FIELDS), fmt(max_res),
            ])
    aggregate = (f"scenarios: {spec.count}\n"
                 f"max_residual: {fmt(worst)}\n"
                 f"threshold: {fmt(threshold)}\n"
                 f"result: {'PASS' if all_passed else 'FAIL'}\n")
    with open(os.path.join(args.out, "batch_summary.txt"), "w", newline="") as fh:
        fh.write(aggregate)
    if not args.quiet:
        sys.stdout.write(aggregate)
    return 0 if all_passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fluctlab",
        description="Energy-fluctuation identities of finite-dimensional "
                    "quantum channels: compute two-point-measurement "
                    "distributions and verify every identity to tolerance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="residual threshold (default 1e-8 or scenario override)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")

    p_run = sub.add_parser("run", help="evaluate one scenario file")
    p_run.add_argument("scenario_file")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a scenario")
    p_sweep.add_argument("scenario_file")
    p_sweep.add_argument("--param", required=True,
                         help="parameter to sweep: beta or channel.p")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of values")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_batch = sub.add_parser("batch", help="run a randomized scenario campaign")
    p_batch.add_argument("spec_file")
    common(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FluctLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))
