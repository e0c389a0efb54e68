#!/usr/bin/env python3
"""Pin the bytes of the command-line outputs: tests/golden.json.

For each run the manifest holds the exit code and the SHA-256 of its stdout
and of every file it writes. The runs are ``run`` or ``linear-et`` on every
``configs/*.cfg``, on the ``digraph_ladder`` inputs of seeds 1-3, and on the
20 ``linear_et_plants`` plants; the benchmark's ``perfbench/workloads.py``
writes the ladder and plant inputs into a temporary directory.

Usage: python scripts/golden.py --update | --check

``--update`` rewrites the manifest from this tree. ``--check`` prints each
digest that differs from it and exits 1 if any does. A change that moves
output bytes on purpose updates the manifest and names every digest it moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden.json"
LADDER_SEEDS = (1, 2, 3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(command: str, config: Path, out: Path) -> dict:
    """Exit code and digests of one in-process CLI run into the empty ``out``."""
    from etconsensus.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(config), "--output-dir", str(out)])
    files = {path.relative_to(out).as_posix(): _sha(path.read_bytes())
             for path in sorted(out.rglob("*")) if path.is_file()}
    return {"exit": code, "stdout": _sha(stdout.getvalue().encode()), "files": files}


def _runs(work: Path):
    """Yield (key, command, config) of every pinned run, writing the ladder
    and plant inputs into ``work``."""
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        command = "linear-et" if "[linear_et]" in cfg.read_text() else "run"
        yield f"configs/{cfg.stem}", command, cfg
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import build
    finally:
        sys.path.remove(str(ROOT))
    for seed in LADDER_SEEDS:
        inputs = work / f"digraph_ladder_{seed}"
        inputs.mkdir()
        for op in build("digraph_ladder", seed, inputs):
            yield f"digraph_ladder/seed{seed}/{op['name']}", op["command"], inputs / op["config"]
    inputs = work / "linear_et_plants"
    inputs.mkdir()
    for op in sorted(build("linear_et_plants", 1, inputs), key=lambda op: op["name"]):
        yield f"linear_et_plants/{op['name']}", op["command"], inputs / op["config"]


def compute() -> dict:
    """The manifest of this tree: {run key: {exit, stdout, files}}."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        return {key: _run(command, config, work / "out" / key)
                for key, command, config in _runs(work)}


def differences(got: dict, want: dict) -> list:
    """One line per digest or exit code that differs, or that only one side has."""
    lines = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            lines.append(f"{key}: only in {'the manifest' if key in want else 'this tree'}")
            continue
        a, b = got[key], want[key]
        for field in ("exit", "stdout"):
            if a[field] != b[field]:
                lines.append(f"{key}: {field}")
        for name in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(name) != b["files"].get(name):
                lines.append(f"{key}: {name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--update", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    got = compute()
    if args.update:
        MANIFEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} runs to {MANIFEST.relative_to(ROOT)}")
        return 0
    lines = differences(got, json.loads(MANIFEST.read_text()))
    print("\n".join(lines) if lines else f"all {len(got)} runs match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
