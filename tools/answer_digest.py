#!/usr/bin/env python3
"""Digest every answer of the benchmark workloads, to show that two checkouts agree.

    python3 tools/answer_digest.py ROOT OUT      # write ROOT's digest to OUT
    python3 tools/answer_digest.py --diff A B    # list what differs between two digests

For each workload in ROOT's bench/workloads.py and each seed 1 to 10, the
round of operations is built as bench/run.py builds it, with ROOT's own
ctrlgauge, and every operation runs once. Its answer is hashed (SHA-256 of
its pickle; an operation that raises, by its exception text). A CLI
operation also hashes every report and manifest it writes. Each failing
CLI call of FAILURES then runs once, through ROOT's bench.workloads.run_cli,
with an --out-dir of its own that does not exist beforehand; its exit code,
its printed text and every path it leaves there, directories included, are
hashed under one key. Strings and files are read with ROOT's path and the
output directory replaced by placeholders, so two checkouts in different
directories give equal digests when their answers are byte-identical.
Nothing is timed.

--diff prints the keys that are in one digest only or whose hashes differ,
and exits with 1 when there is any, 0 when the digests are equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
import tempfile
import traceback
from pathlib import Path

# as bench/run.py: BLAS gets a single thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SEEDS = range(1, 11)

# CLI calls that fail: bad numbers, an axis out of range, an unreachable
# state and a missing model file; model paths are relative to ROOT
DC = "models/dc_motor.json"
FAILURES = (
    ("verify", "--samples", "999"),
    ("mintime", "--model", DC, "--x0", "1,10,1", "--max-steps", "0"),
    ("mintime", "--model", DC, "--x0", "nan,1,1"),
    ("region", "--model", DC, "--steps", "3", "--format", "csv", "--project", "1,4"),
    ("mintime", "--model", DC, "--x0", "1000,1000,1000", "--max-steps", "3"),
    ("normalize", "--model", "models/missing.json"),
)


def _scrub(obj, subs):
    """obj with every (old, new) of subs replaced in the strings it holds."""
    if isinstance(obj, str):
        for old, new in subs:
            obj = obj.replace(old, new)
        return obj
    if isinstance(obj, (tuple, list)):
        return type(obj)(_scrub(item, subs) for item in obj)
    if isinstance(obj, dict):
        return {key: _scrub(value, subs) for key, value in obj.items()}
    return obj


def _hash(data):
    return hashlib.sha256(data).hexdigest()


def _raised(exc, subs):
    text = "".join(traceback.format_exception_only(type(exc), exc))
    return "raised: " + _scrub(text, subs)


def _failure_answer(root, out_dir, argv, run_cli, subs):
    """Text of one failing CLI call: exit code, output and the paths it left."""
    argv = [str(root / tok) if tok.startswith("models/") else tok for tok in argv]
    try:
        code, text = run_cli(argv + ["--out-dir", str(out_dir)])
        answer = f"exit {code}\n{_scrub(text, subs)}"
    except Exception as exc:  # an escaping exception is an answer too
        answer = _raised(exc, subs)
    paths = [out_dir, *sorted(out_dir.rglob("*"))] if out_dir.exists() else []
    for path in paths:
        answer += f"\npath {path.relative_to(out_dir.parent)}"
        if path.is_file():
            answer += "\n" + _scrub(path.read_text(encoding="utf-8"), subs)
    return answer


def digest(root, out_dir):
    """{operation or file key: hash} over every workload and seed."""
    sys.path[:0] = [str(root / "src"), str(root)]
    from bench import workloads

    subs = [(str(out_dir), "<OUT>"), (str(root), "<ROOT>")]
    ctx = workloads.Context.load(root / "models", out_dir)
    found = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, op in enumerate(workloads.build(name, seed, ctx)):
                key = f"{name} seed{seed} #{i} {op.label}"
                try:
                    answer = pickle.dumps(_scrub(op.call(), subs), protocol=4)
                except Exception as exc:  # a raising operation is an answer too
                    answer = _raised(exc, subs).encode()
                found[key] = _hash(answer)
                for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
                    text = _scrub(path.read_text(encoding="utf-8"), subs)
                    found[f"{key} file {path.relative_to(out_dir)}"] = _hash(text.encode())
                    path.unlink()
    for i, argv in enumerate(FAILURES):
        answer = _failure_answer(root, out_dir / f"failure{i}", list(argv),
                                 workloads.run_cli, subs)
        found[f"cli failure #{i} {' '.join(argv)}"] = _hash(answer.encode())
    return found


def diff(old, new):
    """Lines naming every key missing from one digest or hashed differently."""
    lines = [f"only in first: {k}" for k in old if k not in new]
    lines += [f"only in second: {k}" for k in new if k not in old]
    lines += [f"differs: {k}" for k in old if k in new and old[k] != new[k]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true", help="compare two digest files")
    parser.add_argument("first", type=Path, help="checkout root, or the first digest")
    parser.add_argument("second", type=Path, help="output file, or the second digest")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (args.first, args.second))
        lines = diff(old, new)
        print("\n".join(lines[:50]))
        print(f"{len(old)} and {len(new)} keys, {len(lines)} differences")
        return 1 if lines else 0
    root = args.first.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        found = digest(root, Path(tmp).resolve())
    args.second.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    files = sum(" file " in k for k in found)
    print(f"{len(found) - files} answers and {files} files hashed into {args.second}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
