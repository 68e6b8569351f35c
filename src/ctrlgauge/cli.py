"""Command-line front end.

Subcommands: normalize, region, compare, mintime, verify. Every command
prints a human-readable summary (matrices and scalars at four significant
digits) and writes its machine-readable report plus a manifest into
--out-dir. File writes go through a temp file and os.replace, so readers
never observe partial output.

Exit codes: 0 success, 1 other library failure, 2 bad usage or model
schema, 3 missing target bounds, 4 singular state matrix, 5 unstable
generator growth, 6 state not reachable, 7 verification mismatch.

Set CTRLGAUGE_LOG=DEBUG (or another level name) to enable diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .control import compare_ability, min_time, simulate
from .errors import (
    CtrlGaugeError,
    DimensionMismatch,
    MissingTarget,
    NonPositiveBound,
    NotReachable,
    SingularA,
    UnstableGrowth,
)
from .model import NormalizationSpec, load_model, model_to_dict, normalize_full
from .oracle import OracleConfig, verification_suite
from .region import RegionKind, reach_region, recover_region, region_summary
from .zonotope import polygon_to_csv, svg_document

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_SCHEMA = 2
EXIT_NO_TARGET = 3
EXIT_SINGULAR = 4
EXIT_UNSTABLE = 5
EXIT_UNREACHABLE = 6
EXIT_MISMATCH = 7


class _CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


def _setup_logging():
    name = os.environ.get("CTRLGAUGE_LOG")
    if not name:
        return
    level = getattr(logging, name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _atomic_write(path, text):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _write_manifest(out_dir, command, args, outputs):
    recorded = {}
    for key, value in vars(args).items():
        if key == "func":
            continue
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        recorded[key] = value
    manifest = {
        "command": command,
        "arguments": recorded,
        "outputs": [Path(p).name for p in outputs],
        "version": __version__,
    }
    path = Path(out_dir) / f"{command}_manifest.json"
    _write_json(path, manifest)
    return path


def _fmt_matrix(M):
    rows = np.atleast_2d(np.asarray(M, dtype=float))
    return "\n".join("  " + "  ".join(f"{v:.4g}" for v in row) for row in rows)


def _parse_floats(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty number list")
    return np.asarray(values)


def _parse_steps(text):
    try:
        steps = sorted({int(tok) for tok in text.split(",") if tok.strip() != ""})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad step list {text!r}") from exc
    if not steps or steps[0] < 1:
        raise argparse.ArgumentTypeError("steps must be positive integers")
    return steps


def _parse_axes(text):
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad axis pair {text!r}") from exc
    if len(parts) != 2 or parts[0] == parts[1] or min(parts) < 1:
        raise argparse.ArgumentTypeError(
            "project expects two distinct 1-based axes, e.g. 1,2"
        )
    return (parts[0] - 1, parts[1] - 1)


def _load(path):
    try:
        return load_model(path)
    except FileNotFoundError:
        raise _CliFailure(EXIT_SCHEMA, f"model file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise _CliFailure(EXIT_SCHEMA, f"model file is not valid JSON: {exc}") from None
    except (ValueError, DimensionMismatch, NonPositiveBound) as exc:
        raise _CliFailure(EXIT_SCHEMA, f"model schema error: {exc}") from None


def _normalized(args):
    system, spec = _load(args.model)
    use_target = args.mode == "target"
    return system, spec, normalize_full(system, spec, use_target=use_target)


def _state_scale(spec, mode):
    return spec.state_target if mode == "target" else spec.state_rated


def _out_dir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_normalize(args):
    system, _, normed = _normalized(args)
    print(f"system: {system.name}")
    print(f"mode: {args.mode}")
    print("A:")
    print(_fmt_matrix(normed.A))
    print("B:")
    print(_fmt_matrix(normed.B))
    out = _out_dir(args)
    unit_spec = NormalizationSpec(np.ones(normed.r), np.ones(normed.n))
    report = out / "normalized_model.json"
    _write_json(report, model_to_dict(normed, unit_spec))
    _write_manifest(out, "normalize", args, [report])
    return EXIT_OK


def _cmd_region(args):
    system, _, normed = _normalized(args)
    kind = RegionKind(args.kind)
    horizon = max(args.steps)
    builder = reach_region if kind is RegionKind.REACH else recover_region
    family = builder(normed, horizon)
    summary = region_summary(family)
    summary["model"] = system.name
    summary["mode"] = args.mode
    summary["requestedSteps"] = args.steps
    print(f"system: {system.name}")
    print(f"kind: {kind.value}")
    print(f"rank: {summary['rank']}")
    for k in args.steps:
        vol = summary["volumeByStage"][k - 1]
        count = summary["vertexCountByStage"][k - 1]
        shown = "n/a" if count is None else count
        print(f"stage {k}: volume {vol:.4g}, vertices {shown}")
    out = _out_dir(args)
    outputs = []
    if args.format == "json":
        path = out / "region_report.json"
        _write_json(path, summary)
        outputs.append(path)
    else:
        if normed.n < 2:
            raise _CliFailure(
                EXIT_SCHEMA, "csv/svg output needs at least two state dimensions"
            )
        axes = args.project if args.project is not None else (0, 1)
        if max(axes) >= normed.n:
            raise _CliFailure(
                EXIT_SCHEMA,
                f"projection axes out of range for state dimension {normed.n}",
            )
        polys = [family.stage(k).project_2d(axes) for k in args.steps]
        tag = f"x{axes[0] + 1}x{axes[1] + 1}"
        if args.format == "csv":
            for k, poly in zip(args.steps, polys):
                path = out / f"region_step{k}_{tag}.csv"
                _atomic_write(path, polygon_to_csv(poly))
                outputs.append(path)
        else:
            labels = [f"{kind.value} k={k}" for k in args.steps]
            path = out / f"region_{tag}.svg"
            _atomic_write(path, svg_document(polys, labels=labels))
            outputs.append(path)
    outputs.append(_write_manifest(out, "region", args, outputs))
    return EXIT_OK


def _cmd_compare(args):
    system_a, _, normed_a = _normalized(args)
    args_b = argparse.Namespace(model=args.model_b, mode=args.mode)
    system_b, _, normed_b = _normalized(args_b)
    kind = RegionKind(args.kind)
    horizon = max(args.steps)
    verdict = compare_ability(normed_a, normed_b, horizon, kind=kind)
    print(f"comparing: {system_a.name} vs {system_b.name}")
    print(f"relation: {verdict.relation}")
    if verdict.stronger is not None:
        print(f"stronger: {verdict.stronger}")
    print(f"exact: {verdict.exact}")
    report = verdict.to_dict()
    report["modelA"] = system_a.name
    report["modelB"] = system_b.name
    report["mode"] = args.mode
    out = _out_dir(args)
    path = out / "compare_report.json"
    _write_json(path, report)
    _write_manifest(out, "compare", args, [path])
    return EXIT_OK


def _cmd_mintime(args):
    system, spec, normed = _normalized(args)
    if args.x0.size != system.n:
        raise _CliFailure(
            EXIT_SCHEMA, f"--x0 must have {system.n} entries, got {args.x0.size}"
        )
    scale = _state_scale(spec, args.mode)
    x_norm = args.x0 / scale
    kind = RegionKind(args.kind)
    solution = min_time(normed, x_norm, kind=kind, max_steps=args.max_steps)
    start = np.zeros(system.n) if kind is RegionKind.REACH else x_norm
    trajectory = simulate(normed, start, solution.inputs)
    target = x_norm if kind is RegionKind.REACH else np.zeros(system.n)
    replay_error = float(np.abs(trajectory[-1] - target).max(initial=0.0))
    print(f"system: {system.name}")
    print(f"minimum steps: {solution.min_steps}")
    print(f"boundary: {solution.boundary}")
    print(f"margin: {solution.margin:.4g}")
    print(f"strategy dimension at horizon {solution.horizon}: {solution.strategy_dim}")
    print(f"replay error: {replay_error:.4g}")
    report = solution.to_dict()
    report["model"] = system.name
    report["mode"] = args.mode
    report["kind"] = kind.value
    report["x0"] = args.x0.tolist()
    report["x0Normalized"] = x_norm.tolist()
    report["inputsPhysical"] = (
        solution.inputs * spec.input_rated[np.newaxis, :]
    ).tolist()
    report["finalStateNormalized"] = trajectory[-1].tolist()
    report["finalStatePhysical"] = (trajectory[-1] * scale).tolist()
    report["replayError"] = replay_error
    out = _out_dir(args)
    path = out / "mintime_report.json"
    _write_json(path, report)
    _write_manifest(out, "mintime", args, [path])
    return EXIT_OK


def _cmd_verify(args):
    cfg = OracleConfig(seed=args.seed, mc_samples=args.samples)
    report = verification_suite(cfg)
    for check in report["checks"]:
        print(
            f"{check['name']}: {check['status']} "
            f"(discrepancy {check['discrepancy']:.4g})"
        )
    print("result: " + ("pass" if report["passed"] else "FAIL"))
    out = _out_dir(args)
    path = out / "verify_report.json"
    _write_json(path, report)
    _write_manifest(out, "verify", args, [path])
    return EXIT_OK if report["passed"] else EXIT_MISMATCH


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ctrlgauge",
        description=(
            "Quantify open-loop control ability of discrete-time linear "
            "systems under unit input amplitude bounds."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument(
            "--mode",
            choices=("rated", "target"),
            default="rated",
            help="which state bounds normalize the model",
        )
        p.add_argument("--out-dir", default=".", help="directory for reports")

    norm = sub.add_parser("normalize", help="per-unit normalize a model")
    add_common(norm)
    norm.set_defaults(func=_cmd_normalize)

    region = sub.add_parser("region", help="build and export stage regions")
    add_common(region)
    region.add_argument(
        "--kind", choices=("reach", "recover"), default="reach"
    )
    region.add_argument(
        "--steps",
        type=_parse_steps,
        default=[5],
        help="comma-separated stage counts, e.g. 5,10",
    )
    region.add_argument(
        "--project",
        type=_parse_axes,
        default=None,
        help="two 1-based state axes for csv/svg projections, e.g. 1,2",
    )
    region.add_argument(
        "--format", choices=("json", "csv", "svg"), default="json"
    )
    region.set_defaults(func=_cmd_region)

    compare = sub.add_parser("compare", help="compare two systems' regions")
    add_common(compare)
    compare.add_argument("--model-b", required=True, help="second model JSON file")
    compare.add_argument(
        "--kind", choices=("reach", "recover"), default="reach"
    )
    compare.add_argument(
        "--steps", type=_parse_steps, default=[10], help="horizon (largest used)"
    )
    compare.set_defaults(func=_cmd_compare)

    mintime = sub.add_parser(
        "mintime", help="minimum steps to reach or recover a state"
    )
    add_common(mintime)
    mintime.add_argument(
        "--x0",
        type=_parse_floats,
        required=True,
        help="target state in physical units, comma-separated",
    )
    mintime.add_argument(
        "--kind", choices=("reach", "recover"), default="reach"
    )
    mintime.add_argument("--max-steps", type=int, default=50)
    mintime.set_defaults(func=_cmd_mintime)

    verify = sub.add_parser(
        "verify", help="re-run the built-in oracle cross-checks"
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--samples", type=int, default=1_000_000)
    verify.add_argument("--out-dir", default=".")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except MissingTarget as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_TARGET
    except SingularA as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except UnstableGrowth as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except NotReachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except CtrlGaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
