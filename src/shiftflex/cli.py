"""Batch command line front end.

Subcommands: entropy, parry, ud-check, find-word, construct, report.
A run ends in exit code 0, or in one stderr line and the exit code that
`OUTCOMES` gives its error (README, "CLI").
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .codes import Code, find_low_overlap_word, max_self_overlap, ud_witness
from .config import parse_config
from .construction import iterate, normalized_entropy
from .errors import (
    CapacityError,
    ConfigError,
    InfeasibleTargetError,
    InsufficientWordLengthError,
    NoLowOverlapWordError,
    ReducibleShiftError,
    ShiftflexError,
    StageVerificationError,
    SubsystemSearchError,
)
from .spectral import parry_measure, roof_integral, topological_entropy
from .words import label_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAGE = 3

# the stderr prefix and exit code of each library error a command can end
# in; any other error takes the caller's default
OUTCOMES = (
    (ConfigError, "config error", EXIT_USAGE),
    (InfeasibleTargetError, "infeasible-target", 2),
    (StageVerificationError, "stage failure", EXIT_STAGE),
    (CapacityError, "capacity", 4),
    (SubsystemSearchError, "subsystem-search", 5),
    (InsufficientWordLengthError, "word-length", 6),
)


def _fail(exc, prefix="error", code=EXIT_USAGE):
    """Print the stderr line of a run that ended in the library error `exc`
    and return its exit code.  The line is the prefix, the message, and
    `; key: value` per detail the error carries; a reducible shift is
    refused the same way whichever query met it."""
    prefix, code = next((row[1:] for row in OUTCOMES if isinstance(exc, row[0])), (prefix, code))
    message = "reducible transition matrix" if isinstance(exc, ReducibleShiftError) else exc
    details = getattr(exc, "diagnostics", {})
    if isinstance(exc, InsufficientWordLengthError):
        details = {"least_word_length": exc.least_word_length}
    print(f"{prefix}: {message}" + "".join(f"; {k}: {v}" for k, v in details.items()),
          file=sys.stderr)
    return code


def _fmt12(x):
    return f"{x:.12g}"


def _fmt6(x):
    return f"{x:.6g}"


def _decimal(n):
    """Exact decimal digits of a non-negative int of any size.

    Python refuses str() beyond 4300 digits; a permutation-class |Γ| such
    as 1433! can outgrow that, so convert 4000 digits at a time.
    """
    chunk = 10**4000
    parts = []
    while n >= chunk:
        n, r = divmod(n, chunk)
        parts.append(f"{r:04000d}")
    parts.append(str(n))
    return "".join(reversed(parts))


def _load_config(path, args):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rc = parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if getattr(args, "stages", None) is not None:
        rc.stages = args.stages
    if getattr(args, "metric_depth", None) is not None:
        rc.metric_depth = args.metric_depth
    if getattr(args, "out", None) is not None:
        rc.out = args.out
    return rc


def cmd_entropy(args):
    rc = _load_config(args.config, args)
    print(f"{topological_entropy(rc.build_shift()):.12f}")
    return EXIT_OK


def cmd_parry(args):
    rc = _load_config(args.config, args)
    m = parry_measure(rc.build_shift())
    print("pi = " + " ".join(f"{x:.12f}" for x in m.pi))
    # one dense row at a time, from its CSR slice: the n × n array of a
    # block presentation of thousands of states takes hundreds of MiB
    indptr, indices, data = m.P.indptr, m.P.indices, m.P.data
    row = np.zeros(m.P.shape[1])
    for i in range(m.P.shape[0]):
        row[:] = 0.0
        row[indices[indptr[i] : indptr[i + 1]]] = data[indptr[i] : indptr[i + 1]]
        print(f"P[{i}] = " + " ".join(f"{x:.12f}" for x in row))
    return EXIT_OK


def _parse_words(tokens):
    words = []
    for tok in tokens:
        if not tok.isdigit():
            raise ConfigError(f"code words are digit strings, got {tok!r}")
        words.append(tuple(int(ch) for ch in tok))
    return words


def cmd_ud_check(args):
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                tokens = fh.read().split()
        except OSError as exc:
            print(f"error: cannot read code words: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        tokens = args.words
    if not tokens:
        print("error: no code words given", file=sys.stderr)
        return EXIT_USAGE
    code = Code(tuple(_parse_words(tokens)))
    witness = ud_witness(code)
    if witness is None:
        print("uniquely decipherable")
    else:
        string, fa, fb = witness
        sw = "".join(map(str, string))
        fa_s = "·".join("".join(map(str, w)) for w in fa)
        fb_s = "·".join("".join(map(str, w)) for w in fb)
        print(f"NOT uniquely decipherable: {sw} = {fa_s} = {fb_s}")
    return EXIT_OK


def cmd_find_word(args):
    if args.length < 1:
        print(f"error: word length must be >= 1, got {args.length}", file=sys.stderr)
        return EXIT_USAGE
    rc = _load_config(args.config, args)
    shift = rc.build_shift()
    try:
        w = find_low_overlap_word(shift, args.length)
    except NoLowOverlapWordError as exc:
        return _fail(exc, "not found")
    lw = label_word(shift, w)
    border = max_self_overlap(lw)
    print("".join(map(str, lw)) + f"  max overlap {border} < {args.length / 4:g}")
    return EXIT_OK


CSV_HEADER = (
    "stage,k,gamma,h_top,roof_integral,normalized_entropy,"
    "bracket_lower,bracket_upper,dist_prev,ud_pass,sync_depth"
)
SUMMARY_HEADER = "stage  k     gamma  h_top      norm       sync  verdict"


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))


def _write_outputs(target, tower, outdir):
    """Write stages.csv, summary.txt and the report of each built stage into
    `outdir`, each stage's fields built once; return the summary lines."""
    os.makedirs(outdir, exist_ok=True)
    rows, lines = [CSV_HEADER], [SUMMARY_HEADER]
    for st, rep in zip(tower.stages, tower.reports):
        if rep is None:  # the base
            h, norm = st.entropy, normalized_entropy(st, target.rho)
            ri = roof_integral(st.measure, target.rho)
            rows.append(f"{st.index},,,{_fmt12(h)},{_fmt12(ri)},{_fmt12(norm)},,,,,{st.sync_depth}")
            lines.append(f"{st.index:<6} {'-':<5} {'-':<6} {_fmt6(h):<10} {_fmt6(norm):<10} "
                         f"{st.sync_depth!s:<5} base")
            continue
        gamma = _decimal(rep.gamma_size)
        values = (rep.h_top, rep.roof_integral_next, rep.normalized_entropy,
                  rep.bracket[0], rep.bracket[1], rep.distance_to_prev)
        rows.append(",".join([str(st.index), str(rep.k), gamma, *map(_fmt12, values),
                              "pass" if rep.ud_ok else "fail", str(st.sync_depth)]))
        verdict = "pass" if rep.all_pass else "FAIL:" + ",".join(i.name for i in rep.failing())
        lines.append(f"{st.index:<6} {rep.k:<5} {gamma:<6} {_fmt6(rep.h_top):<10} "
                     f"{_fmt6(rep.normalized_entropy):<10} {st.sync_depth!s:<5} {verdict}")
        _write_lines(os.path.join(outdir, f"stage-{st.index}.report"), [
            f"stage: {st.index}",
            f"k: {rep.k}",
            f"gamma: {gamma}",
            f"h_top: {_fmt12(rep.h_top)}",
            f"roof_integral: {_fmt12(rep.roof_integral_next)}",
            f"normalized_entropy: {_fmt12(rep.normalized_entropy)}",
            f"eta_count: {rep.eta_count}",
            f"sync_depth: {st.sync_depth}",
            *(f"check {i.name}: {'PASS' if i.ok else 'FAIL'} ({i.detail})" for i in rep.items()),
        ])
    if tower.error is not None:
        lines.append(f"error: {tower.error}")
    _write_lines(os.path.join(outdir, "stages.csv"), rows)
    _write_lines(os.path.join(outdir, "summary.txt"), lines)
    return lines


def cmd_construct(args):
    rc = _load_config(args.config, args)
    target = rc.build_target()
    tower = iterate(target, rc.stages, rc.build_schedule(target))
    outdir = rc.out or "shiftflex-out"
    for line in _write_outputs(target, tower, outdir):
        print(line)
    print(f"wrote {outdir}/stages.csv")
    if tower.error is not None:
        return _fail(tower.error, "stage failure", EXIT_STAGE)
    return EXIT_OK


def cmd_report(args):
    path = os.path.join(args.out or "shiftflex-out", "summary.txt")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            sys.stdout.write(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _build_parser():
    top = argparse.ArgumentParser(prog="shiftflex")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--stages", type=int)
        p.add_argument("--metric-depth", dest="metric_depth", type=int)

    p = sub.add_parser("entropy", help="topological entropy of the configured shift")
    common(p)
    p.set_defaults(func=cmd_entropy)
    p = sub.add_parser("parry", help="measure of maximal entropy")
    common(p)
    p.set_defaults(func=cmd_parry)
    p = sub.add_parser("ud-check", help="unique decipherability of a word list")
    p.add_argument("words", nargs="*")
    p.add_argument("--file")
    p.set_defaults(func=cmd_ud_check)
    p = sub.add_parser("find-word", help="low self-overlap word of a given length")
    common(p)
    p.add_argument("-l", "--length", type=int, required=True)
    p.set_defaults(func=cmd_find_word)
    p = sub.add_parser("construct", help="build and verify the subshift tower")
    common(p)
    p.set_defaults(func=cmd_construct)
    p = sub.add_parser("report", help="print the summary of a previous run")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ShiftflexError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
