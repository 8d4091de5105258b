#!/usr/bin/env python3
"""Check that another checkout's `construct` writes the same outputs as this one.

Usage, from anywhere:

    python3 scripts/compare_outputs.py --against OTHER_CHECKOUT

Runs `python3 -m shiftflex construct --seed S` for S in 0 and 7 on every
file in this checkout's `configs/` and on every entry of its
`perfbench/flex_entries.json` (read, never written), once with each
checkout's `src/`, and the analysis commands `entropy`, `parry` and
`find-word -l 24` once on each of them.  Both sides of a case run on the
same config text, in working directories laid out alike, so that printed
paths agree.  The output directories of `construct` (file names and
bytes), stdout, stderr and the exit code must match.  Prints the first
difference and exits 1, or exits 0 when every case matches.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)
ANALYSES = (("entropy",), ("parry",), ("find-word", "-l", "24"))


def cases():
    """(name, config text) of every config file and flex-sweep entry."""
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        yield path.stem, path.read_text(encoding="utf-8")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import common  # the flex-sweep entries and their config text

    for i, entry in enumerate(common.load_entries()):
        if "config" in entry:
            yield f"flex-{i}", (ROOT / entry["config"]).read_text(encoding="utf-8")
        else:
            yield f"flex-{i}", common.entry_config(entry)


def run(checkout, config_text, command, workdir):
    """Outcome of one command (`construct` or an analysis, with its
    arguments) on the config: exit code, stdout, stderr and {name: bytes}
    of the output directory."""
    workdir.mkdir(parents=True)
    (workdir / "case.cfg").write_text(config_text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "shiftflex", *command, "--config", "case.cfg"],
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src")),
        capture_output=True,
    )
    out = workdir / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def first_difference(mine, theirs):
    for what in ("exit code", "stdout", "stderr"):
        if mine[what] != theirs[what]:
            return f"{what}: {mine[what]!r} here, {theirs[what]!r} there"
    if sorted(mine["files"]) != sorted(theirs["files"]):
        return f"output files: {sorted(mine['files'])} here, {sorted(theirs['files'])} there"
    for name, data in mine["files"].items():
        if data != theirs["files"][name]:
            here = data.decode(errors="replace").splitlines() + [""]
            there = theirs["files"][name].decode(errors="replace").splitlines() + [""]
            line = next((i for i, (a, b) in enumerate(zip(here, there)) if a != b), None)
            if line is None:
                return f"{name}: the same lines, different line endings"
            return f"{name}, line {line + 1}: {here[line]!r} here, {there[line]!r} there"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, help="root of the other checkout")
    args = ap.parse_args(argv)
    if not (Path(args.against) / "src" / "shiftflex").is_dir():
        ap.error(f"{args.against} holds no src/shiftflex")
    count = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for name, text in cases():
            commands = [(f"seed{seed}", ("construct", "--seed", str(seed), "--out", "out"))
                        for seed in SEEDS]
            commands += [(command[0], command) for command in ANALYSES]
            for tag, command in commands:
                case = f"{name}-{tag}"
                mine = run(ROOT, text, command, Path(tmp) / "here" / case)
                theirs = run(args.against, text, command, Path(tmp) / "there" / case)
                diff = first_difference(mine, theirs)
                if diff:
                    print(f"{case}: {diff}")
                    return 1
                count += 1
                print(f"{case}: same (exit code {mine['exit code']}, "
                      f"{len(mine['files'])} output files)", flush=True)
    print(f"all {count} cases match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
