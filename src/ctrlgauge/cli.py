"""Command-line front end.

Subcommands: normalize, region, compare, mintime, verify. Every command
prints a human-readable summary (matrices and scalars at four significant
digits) and returns its exit code with its outputs, a JSON-ready report or
text by file name. main alone creates --out-dir, writes the outputs in
that order and then the manifest that lists them, so a failing command
writes nothing. File writes go through a temp file and os.replace, so
readers never observe partial output.

The argument parser is built once per process, on the first call, and
reused: main may be called repeatedly, and its defaults are immutable.

Exit codes: 0 success, 1 other library failure, 2 bad usage, model
schema or numeric argument (such as a non-finite number or a step count
below 1), 3 missing target bounds, 4 singular state matrix, 5 unstable
generator growth, 6 state not reachable, 7 verification mismatch.

Set CTRLGAUGE_LOG=DEBUG (or another level name) to enable diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .control import DEFAULT_MAX_STEPS, compare_ability, min_time, simulate
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
# library errors by exit code, most specific first: the first match decides
_EXIT_CODES = (
    (MissingTarget, EXIT_NO_TARGET),
    (SingularA, EXIT_SINGULAR),
    (UnstableGrowth, EXIT_UNSTABLE),
    (NotReachable, EXIT_UNREACHABLE),
    (CtrlGaugeError, EXIT_FAILURE),
)


class _CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


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


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n"


def _write_manifest(out_dir, command, args, outputs):
    manifest = {
        "command": command,
        # arrays go through _jsonable, and tuples are written as arrays
        "arguments": {k: v for k, v in vars(args).items() if k != "func"},
        "outputs": [Path(p).name for p in outputs],
        "version": __version__,
    }
    path = Path(out_dir) / f"{command}_manifest.json"
    _atomic_write(path, _json_text(manifest))
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
    if not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"non-finite number in {text!r}")
    return np.asarray(values)


def _parse_steps(text):
    try:
        steps = sorted({int(tok) for tok in text.split(",") if tok.strip() != ""})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad step list {text!r}") from exc
    if not steps or steps[0] < 1:
        raise argparse.ArgumentTypeError("steps must be positive integers")
    return tuple(steps)


def _parse_step(text):
    if "," in text:
        raise argparse.ArgumentTypeError(f"expected one step count, got {text!r}")
    return _parse_steps(text)[0]


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


def _normalized(path, mode):
    system, spec = _load(path)
    return system, spec, normalize_full(system, spec, use_target=mode == "target")


def _cmd_normalize(args):
    system, _, normed = _normalized(args.model, args.mode)
    print(f"system: {system.name}")
    print(f"mode: {args.mode}")
    print("A:")
    print(_fmt_matrix(normed.A))
    print("B:")
    print(_fmt_matrix(normed.B))
    unit_spec = NormalizationSpec(np.ones(normed.r), np.ones(normed.n))
    return EXIT_OK, {"normalized_model.json": model_to_dict(normed, unit_spec)}


def _cmd_region(args):
    system, _, normed = _normalized(args.model, args.mode)
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
        shown = "n/a" if count is None else count  # None past the count budget
        print(f"stage {k}: volume {vol:.4g}, vertices {shown}")
    if args.format == "json":
        return EXIT_OK, {"region_report.json": summary}
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
        return EXIT_OK, {
            f"region_step{k}_{tag}.csv": polygon_to_csv(poly)
            for k, poly in zip(args.steps, polys)
        }
    labels = [f"{kind.value} k={k}" for k in args.steps]
    return EXIT_OK, {f"region_{tag}.svg": svg_document(polys, labels=labels)}


def _cmd_compare(args):
    system_a, _, normed_a = _normalized(args.model, args.mode)
    system_b, _, normed_b = _normalized(args.model_b, args.mode)
    kind = RegionKind(args.kind)
    horizon = max(args.steps)
    verdict = compare_ability(normed_a, normed_b, horizon, kind=kind)
    print(f"comparing: {system_a.name} vs {system_b.name}")
    print(f"relation: {verdict.relation}")
    if verdict.stronger is not None:
        print(f"stronger: {verdict.stronger}")
    report = verdict.to_dict()
    report["modelA"] = system_a.name
    report["modelB"] = system_b.name
    report["mode"] = args.mode
    return EXIT_OK, {"compare_report.json": report}


def _cmd_mintime(args):
    system, spec, normed = _normalized(args.model, args.mode)
    if args.x0.size != system.n:
        raise _CliFailure(
            EXIT_SCHEMA, f"--x0 must have {system.n} entries, got {args.x0.size}"
        )
    scale = spec.state_target if args.mode == "target" else spec.state_rated
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
    return EXIT_OK, {"mintime_report.json": report}


def _cmd_verify(args):
    try:
        cfg = OracleConfig(seed=args.seed, mc_samples=args.samples)
    except ValueError as exc:
        raise _CliFailure(EXIT_SCHEMA, str(exc)) from None
    report = verification_suite(cfg)
    for check in report["checks"]:
        print(
            f"{check['name']}: {check['status']} "
            f"(discrepancy {check['discrepancy']:.4g})"
        )
    print("result: " + ("pass" if report["passed"] else "FAIL"))
    code = EXIT_OK if report["passed"] else EXIT_MISMATCH
    return code, {"verify_report.json": report}


@functools.cache
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

    def command(name, func, summary, *, model=True, kind=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
            p.add_argument(
                "--mode",
                choices=("rated", "target"),
                default="rated",
                help="which state bounds normalize the model",
            )
        p.add_argument("--out-dir", default=".", help="directory for reports")
        if kind:
            p.add_argument("--kind", choices=("reach", "recover"), default="reach")
        return p

    command("normalize", _cmd_normalize, "per-unit normalize a model", kind=False)

    region = command("region", _cmd_region, "build and export stage regions")
    region.add_argument(
        "--steps",
        type=_parse_steps,
        default=(5,),
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

    compare = command("compare", _cmd_compare, "compare two systems' regions")
    compare.add_argument("--model-b", required=True, help="second model JSON file")
    compare.add_argument(
        "--steps", type=_parse_steps, default=(10,), help="horizon (largest used)"
    )

    mintime = command(
        "mintime", _cmd_mintime, "minimum steps to reach or recover a state"
    )
    mintime.add_argument(
        "--x0",
        type=_parse_floats,
        required=True,
        help="target state in physical units, comma-separated",
    )
    mintime.add_argument("--max-steps", type=_parse_step, default=DEFAULT_MAX_STEPS)

    verify = command(
        "verify",
        _cmd_verify,
        "re-run the built-in oracle cross-checks",
        model=False,
        kind=False,
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--samples", type=int, default=1_000_000)

    return parser


def main(argv=None):
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, outputs = args.func(args)
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CtrlGaugeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in outputs.items():
        text = content if isinstance(content, str) else _json_text(content)
        _atomic_write(out / name, text)
    _write_manifest(out, args.command, args, outputs)
    return code


if __name__ == "__main__":
    sys.exit(main())
