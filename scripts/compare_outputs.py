#!/usr/bin/env python3
"""Check that another checkout's `construct` writes the same outputs as this one.

Usage, from anywhere:

    python3 scripts/compare_outputs.py --against OTHER_CHECKOUT

Runs `python3 -m shiftflex construct` and the analysis commands
`entropy`, `parry` and `find-word -l 24` on every file in this checkout's
`configs/` and on every entry of its `perfbench/flex_entries.json` (read,
never written), the `construct` refusal runs of `REFUSALS`, the
analysis commands on the block presentation `BLOCK`, and all four
commands on the period-3 graph `PERIODIC`, 94 cases in all, once with
each checkout's `src/`, the two sides of a case at once, in two processes.
Both sides of a case run on the same config text, in working
directories laid out alike, so that printed paths agree.  The output directories of `construct` (file names and bytes),
stdout, stderr and the exit code must match.  Runs every case, prints
each differing one with all its differences (for each differing output
file, how many lines differ and the first of them), and exits 1 when any
case differs, 0 when every case matches.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (("construct", "--out", "out"), ("entropy",), ("parry",), ("find-word", "-l", "24"))
# runs of a config in `configs/` with more stages than it verifies, each
# ending in a refusal: (config, construct flags)
REFUSALS = (
    ("full2_small", "--stages", "2"),  # exit 6, names word_length 7656
    ("full3_roof_first", "--stages", "2"),  # exit 6
    ("full2_tower", "--stages", "3"),  # exit 3, no ambient past a structured stage
)
# a `forbidden` list recoded past its longest word, whose analysis commands
# answer from the root it is lifted from, which no config in `configs/` and
# no flex entry reaches; its `construct` stops at the subset search's state
# cap (exit 5), so only the analyses run
BLOCK = """\
[shift]
alphabet = 2
forbidden = 111 0000
block = 7

[roof]
constant = 1.0

[target]
c_fraction = 0.5

[run]
stages = 1
"""

# a period-3 base, which no config in `configs/` and no flex entry has: its
# Perron vectors come from the periodic branch of the power iteration; its
# `construct` finds no (Y, Z) pair (exit 5)
PERIODIC = """\
[shift]
alphabet = 6
matrix = 000100 001100 000010 000011 110000 100000

[roof]
constant = 1.0

[target]
c_fraction = 0.5

[run]
stages = 1
"""


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


def runs():
    """(case name, config text, command) of every comparison."""
    for name, text in cases():
        for command in COMMANDS:
            yield f"{name}-{command[0]}", text, command
    for name, *flags in REFUSALS:
        text = (ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
        case = "-".join([name, "construct", *(flag.lstrip("-") for flag in flags)])
        yield case, text, (*COMMANDS[0], *flags)
    for command in COMMANDS[1:]:
        yield f"block7-{command[0]}", BLOCK, command
    for command in COMMANDS:
        yield f"period3-{command[0]}", PERIODIC, command


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


def differences(mine, theirs):
    """Every difference between two outcomes, one line each: the exit code,
    stdout, stderr, the output file names, and the first differing line of
    each output file both sides wrote, with the number of differing lines."""
    out = [
        f"{what}: {mine[what]!r} here, {theirs[what]!r} there"
        for what in ("exit code", "stdout", "stderr")
        if mine[what] != theirs[what]
    ]
    if sorted(mine["files"]) != sorted(theirs["files"]):
        out.append(f"output files: {sorted(mine['files'])} here, {sorted(theirs['files'])} there")
    for name, data in mine["files"].items():
        if name not in theirs["files"] or data == theirs["files"][name]:
            continue
        here = data.decode(errors="replace").splitlines()
        there = theirs["files"][name].decode(errors="replace").splitlines()
        size = max(len(here), len(there))
        here, there = here + [""] * (size - len(here)), there + [""] * (size - len(there))
        lines = [i for i in range(size) if here[i] != there[i]]
        if not lines:
            out.append(f"{name}: the same lines, different line endings")
            continue
        line = lines[0]
        out.append(f"{name}, {len(lines)} lines differ, the first is line {line + 1}: "
                   f"{here[line]!r} here, {there[line]!r} there")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, help="root of the other checkout")
    args = ap.parse_args(argv)
    if not (Path(args.against) / "src" / "shiftflex").is_dir():
        ap.error(f"{args.against} holds no src/shiftflex")
    count = differing = 0
    # the two sides of a case run at once, each in its own process; a
    # thread per side only waits for its process
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp, \
            ThreadPoolExecutor(2) as pool:
        for case, text, command in runs():
            here = pool.submit(run, ROOT, text, command, Path(tmp) / "here" / case)
            there = pool.submit(run, args.against, text, command, Path(tmp) / "there" / case)
            mine, theirs = here.result(), there.result()
            count += 1
            diffs = differences(mine, theirs)
            if diffs:
                differing += 1
                print(f"{case}: differs", *(f"  {d}" for d in diffs), sep="\n", flush=True)
                continue
            print(f"{case}: same (exit code {mine['exit code']}, "
                  f"{len(mine['files'])} output files)", flush=True)
    if differing:
        print(f"{differing} of {count} cases differ")
        return 1
    print(f"all {count} cases match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
