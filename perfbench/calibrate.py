#!/usr/bin/env python3
"""Search the flex-sweep entries: first stages that verify, with their times.

Usage, from the root of a checkout:

    python3 perfbench/calibrate.py

For each base of `common.BASES` and each target fraction c/h* it tries a
grid of word lengths and window slacks delta at kappa = radius = 0.5,
builds the first stage of each candidate (a try is cut after PER_TRY
seconds), and keeps the candidates whose stage verifies on two sample
seeds within TIME_RANGE, so no operation of the sweep is a few
milliseconds long.  `configs/full2_small.cfg` is always the first entry;
the others are taken round-robin over (base, c), nearest TIME_AIM first,
up to ENTRIES in all, and writes them to perfbench/flex_entries.json.
"""

import itertools
import json
import signal
import sys
import time

import common

C_FRACTIONS = (0.03, 0.05, 0.07, 0.1, 0.13, 0.16, 0.2)
WORD_LENGTHS = (6, 8, 10, 12, 14)
DELTAS = (0.06, 0.08, 0.11, 0.13, 0.16, 0.19, 0.22, 0.26)
TIME_RANGE = (0.25, 1.5)  # seconds a kept entry may take
TIME_AIM = 0.65
PER_TRY = 2.5  # seconds before a try is cut
ENTRIES = 14


class _Cut(Exception):
    pass


def _alarm(signum, frame):
    raise _Cut()


def try_entry(sf, entry, seeds):
    """Build time of the entry's verified first stage, or None."""
    rc = sf.config.parse_config(common.entry_config(entry))
    try:
        target = rc.build_target()
        params = rc.build_schedule(target)[0]
    except sf.ShiftflexError:
        return None
    times = []
    for seed in seeds:
        settings = sf.RunSettings(seed=seed, samples=rc.samples)
        signal.setitimer(signal.ITIMER_REAL, PER_TRY)
        t0 = time.perf_counter()
        try:
            sf.build_stage(sf.construction.base_stage(target), target, params, settings)
        except (sf.ShiftflexError, _Cut):
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    sf, _ = common.import_shiftflex()

    signal.signal(signal.SIGALRM, _alarm)
    entries = [{"config": "configs/full2_small.cfg"}]
    entries[0]["seconds"] = round(try_entry(sf, entries[0], (0, 1)), 3)
    found, kept = [], []
    for base, c in itertools.product(common.BASES, C_FRACTIONS):
        ok = []
        for n, d in itertools.product(WORD_LENGTHS, DELTAS):
            entry = dict(base=base, c_fraction=c, word_length=n, delta=d)
            t = try_entry(sf, entry, (0, 1))
            if t is None:
                continue
            found.append(dict(entry, seconds=round(t, 3)))
            print(f"verified {found[-1]}", file=sys.stderr, flush=True)
            if TIME_RANGE[0] <= t <= TIME_RANGE[1]:
                ok.append(found[-1])
        if ok:
            kept.append(sorted(ok, key=lambda e: abs(e["seconds"] - TIME_AIM)))
    for group in itertools.zip_longest(*kept):
        entries.extend(e for e in group if e is not None)
    del entries[ENTRIES:]
    with open(common.ENTRIES_FILE, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "grid": dict(
                    c_fractions=C_FRACTIONS,
                    word_lengths=WORD_LENGTHS,
                    deltas=DELTAS,
                    kappa=common.KAPPA,
                    radius=common.RADIUS,
                ),
                "verified": found,
                "entries": entries,
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    print(f"{len(found)} verified candidates; {len(entries)} entries written to {common.ENTRIES_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
