#!/usr/bin/env python3
"""Run the two-stage acceptance configuration and write its reports.

Usage: python scripts/run_acceptance.py [outdir]

Both stages verify fully (exit code 0); stage 2 is a permutation-class
stage on the renewal ambient stage 1 builds (see the README's section on
renewal ambients).  All windows are evaluated and written either way.
After the exit line it prints the wall time since the script started,
imports included, and the process's peak resident set size.
"""

import time

START = time.perf_counter()

import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from shiftflex.cli import main  # noqa: E402

HERE = Path(__file__).resolve().parent.parent
CONFIG = HERE / "configs" / "full3_acceptance.cfg"

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "acceptance-out"
    code = main(["construct", "--config", str(CONFIG), "--out", out])
    print(f"exit code {code}; reports in {out}/")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"wall {time.perf_counter() - START:.2f} s; peak RSS {peak_mb:.0f} MB")
    sys.exit(code)
