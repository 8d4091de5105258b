"""Batch command line front end.

Subcommands: entropy, parry, ud-check, find-word, construct, report.
Exit codes: 0 success, 1 usage/parse, 2 infeasible target, 3 stage
verification failure, 4 capacity exceeded, 5 no subsystem pair found,
6 word length too short.
"""

from __future__ import annotations

import argparse
import os
import sys

from .codes import Code, find_low_overlap_word, max_self_overlap, ud_witness
from .config import parse_config
from .construction import iterate
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
EXIT_INFEASIBLE = 2
EXIT_STAGE = 3
EXIT_CAPACITY = 4
EXIT_SUBSYSTEM = 5
EXIT_WORD_LENGTH = 6


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
    shift = rc.build_shift()
    try:
        h = topological_entropy(shift)
    except ReducibleShiftError:
        print("error: reducible transition matrix", file=sys.stderr)
        return EXIT_USAGE
    print(f"{h:.12f}")
    return EXIT_OK


def cmd_parry(args):
    rc = _load_config(args.config, args)
    shift = rc.build_shift()
    try:
        m = parry_measure(shift)
    except ReducibleShiftError:
        print("error: reducible transition matrix", file=sys.stderr)
        return EXIT_USAGE
    print("pi = " + " ".join(f"{x:.12f}" for x in m.pi))
    dense = m.P.toarray()
    for i, row in enumerate(dense):
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
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lw = label_word(shift, w)
    border = max_self_overlap(lw)
    print("".join(map(str, lw)) + f"  max overlap {border} < {args.length / 4:g}")
    return EXIT_OK


CSV_HEADER = (
    "stage,k,gamma,h_top,roof_integral,normalized_entropy,"
    "bracket_lower,bracket_upper,dist_prev,ud_pass,sync_depth"
)


def _stage_rows(target, tower):
    rows = []
    for st, rep in zip(tower.stages, tower.reports):
        if rep is None:
            h = topological_entropy(st.shift)
            ri = roof_integral(st.measure, target.rho)
            rows.append(
                [
                    str(st.index),
                    "",
                    "",
                    _fmt12(h),
                    _fmt12(ri),
                    _fmt12(h / ri),
                    "",
                    "",
                    "",
                    "",
                    str(st.sync_depth),
                ]
            )
        else:
            rows.append(
                [
                    str(st.index),
                    str(rep.k),
                    _decimal(rep.gamma_size),
                    _fmt12(rep.h_top),
                    _fmt12(rep.roof_integral_next),
                    _fmt12(rep.normalized_entropy),
                    _fmt12(rep.bracket[0]),
                    _fmt12(rep.bracket[1]),
                    _fmt12(rep.distance_to_prev),
                    "pass" if rep.ud_ok else "fail",
                    str(st.sync_depth),
                ]
            )
    return rows


def _write_outputs(rc, target, tower, outdir):
    os.makedirs(outdir, exist_ok=True)
    rows = _stage_rows(target, tower)
    with open(os.path.join(outdir, "stages.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    lines = ["stage  k     gamma  h_top      norm       sync  verdict"]
    for st, rep in zip(tower.stages, tower.reports):
        if rep is None:
            h = topological_entropy(st.shift)
            lines.append(
                f"{st.index:<6} {'-':<5} {'-':<6} {_fmt6(h):<10} "
                f"{_fmt6(h / roof_integral(st.measure, target.rho)):<10} "
                f"{st.sync_depth!s:<5} base"
            )
        else:
            verdict = "pass" if rep.all_pass else (
                "FAIL:" + ",".join(i.name for i in rep.failing())
            )
            lines.append(
                f"{st.index:<6} {rep.k:<5} {_decimal(rep.gamma_size):<6} "
                f"{_fmt6(rep.h_top):<10} {_fmt6(rep.normalized_entropy):<10} "
                f"{st.sync_depth!s:<5} {verdict}"
            )
    if tower.error is not None:
        lines.append(f"error: {tower.error}")
    with open(os.path.join(outdir, "summary.txt"), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    for st, rep in zip(tower.stages, tower.reports):
        if rep is None:
            continue
        path = os.path.join(outdir, f"stage-{st.index}.report")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"stage: {st.index}\n")
            fh.write(f"k: {rep.k}\n")
            fh.write(f"gamma: {_decimal(rep.gamma_size)}\n")
            fh.write(f"h_top: {_fmt12(rep.h_top)}\n")
            fh.write(f"roof_integral: {_fmt12(rep.roof_integral_next)}\n")
            fh.write(f"normalized_entropy: {_fmt12(rep.normalized_entropy)}\n")
            fh.write(f"eta_count: {rep.eta_count}\n")
            fh.write(f"sync_depth: {st.sync_depth}\n")
            for item in rep.items():
                status = "PASS" if item.ok else "FAIL"
                fh.write(f"check {item.name}: {status} ({item.detail})\n")
    return lines


def cmd_construct(args):
    rc = _load_config(args.config, args)
    try:
        target = rc.build_target()
        schedule = rc.build_schedule(target)
    except InfeasibleTargetError as exc:
        print(f"infeasible-target: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    tower = iterate(target, rc.stages, schedule)
    outdir = rc.out or "shiftflex-out"
    lines = _write_outputs(rc, target, tower, outdir)
    for ln in lines:
        print(ln)
    print(f"wrote {outdir}/stages.csv")
    if tower.error is not None:
        if isinstance(tower.error, CapacityError):
            print(f"capacity: {tower.error}", file=sys.stderr)
            return EXIT_CAPACITY
        if isinstance(tower.error, InfeasibleTargetError):
            print(f"infeasible-target: {tower.error}", file=sys.stderr)
            return EXIT_INFEASIBLE
        if isinstance(tower.error, SubsystemSearchError):
            diagnostics = "".join(
                f"; {key}: {value}" for key, value in tower.error.diagnostics.items()
            )
            print(f"subsystem-search: {tower.error}{diagnostics}", file=sys.stderr)
            return EXIT_SUBSYSTEM
        if isinstance(tower.error, InsufficientWordLengthError):
            print(
                f"word-length: {tower.error}; least_word_length: "
                f"{tower.error.least_word_length}",
                file=sys.stderr,
            )
            return EXIT_WORD_LENGTH
        print(f"stage failure: {tower.error}", file=sys.stderr)
        return EXIT_STAGE
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleTargetError as exc:
        print(f"infeasible-target: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except StageVerificationError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except ShiftflexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
