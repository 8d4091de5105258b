"""Shared pieces of the benchmark: where the program comes from, and the
flex-sweep bases and entries.

Every script here runs from the root of a checkout and imports shiftflex
from that checkout's `src/`, never from an installed copy.
"""

import gc
import importlib
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread: the workloads are single-threaded by design, and a thread
# pool that sizes itself to the machine makes timings depend on its load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ENTRIES_FILE = HERE / "flex_entries.json"
SRC = Path.cwd() / "src"


class MissingProgram(RuntimeError):
    """The working directory is not a shiftflex checkout."""


def import_shiftflex(repeats=1):
    """Import shiftflex (and shiftflex.config) from ./src, refusing any other
    copy; return the package and the times of `repeats` imports.

    Each import starts with no shiftflex module loaded, so it runs every
    module of the package; numpy and scipy.sparse, the third-party modules
    the package imports, are loaded first, so the time is the package's
    own.  The modules of the last import are the ones left in use.
    """
    if not (SRC / "shiftflex" / "__init__.py").is_file():
        raise MissingProgram(f"no shiftflex sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401

    times = []
    for _ in range(repeats):
        for name in [n for n in sys.modules if n == "shiftflex" or n.startswith("shiftflex.")]:
            del sys.modules[name]
        gc.collect()
        t0 = time.perf_counter()
        importlib.import_module("shiftflex")
        importlib.import_module("shiftflex.config")
        times.append(time.perf_counter() - t0)
    shiftflex = sys.modules["shiftflex"]
    if Path(shiftflex.__file__).resolve().parent != (SRC / "shiftflex").resolve():
        raise MissingProgram(f"imported shiftflex from {shiftflex.__file__}, not {SRC}")
    return shiftflex, times


# Base shift and roof of each flex-sweep entry, as config sections.
BASES = {
    "full2": "[shift]\nalphabet = 2\nmatrix = 11 11\n\n[roof]\nconstant = 1.0\n",
    "full3": "[shift]\nalphabet = 3\nmatrix = 111 111 111\n\n[roof]\nconstant = 1.0\n",
    "full3_roof": (
        "[shift]\nalphabet = 3\nmatrix = 111 111 111\n\n"
        "[roof]\ndepth = 1\n0 = 1.0\n1 = 1.5\n2 = 2.0\n"
    ),
}

# Fixed per-stage knobs of every generated entry; calibration searches the rest.
KAPPA = RADIUS = 0.5
METRIC_DEPTH = 2
SAMPLES = 32


def entry_config(entry):
    """Config text of one flex-sweep entry (a one-stage construct)."""
    if "config" in entry:
        return (Path.cwd() / entry["config"]).read_text(encoding="utf-8")
    stage = [
        f"word_length = {entry['word_length']}",
        "overlap_length = 1",
        f"delta = {entry['delta']!r}",
        f"kappa = {KAPPA!r}",
        f"radius = {RADIUS!r}",
        "block_depth = 2",
    ]
    return (
        BASES[entry["base"]]
        + f"\n[target]\nc_fraction = {entry['c_fraction']!r}\n"
        + f"\n[run]\nstages = 1\nseed = 0\nmetric_depth = {METRIC_DEPTH}\nsamples = {SAMPLES}\n"
        + "\n[stage 1]\n" + "\n".join(stage) + "\n"
    )


def load_entries():
    with open(ENTRIES_FILE, encoding="utf-8") as fh:
        return json.load(fh)["entries"]
