"""Show that every check can fail: each gets a true value from a small real
run of the program, which it must accept, and a corrupted copy, which it
must reject.  Run as `python3 perfbench/run.py --self-test`.
"""

import math
from dataclasses import replace

import numpy as np

import checks
import common
import sft as sftlib

SMALL_SFT = sftlib.Slot(2, 4, 2, False, "forbidden", 300, (0.3, 0.69))


def _raises(fn, args):
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def _check_roof_integral(stage, rho, want):
    checks._close("roof integral", checks.stage_roof_integral(stage, rho), want, checks.TOL)


def _check_class_count(stage):
    checks.check_entropy_count(stage.code.entropy, *checks.code_log_size(stage))


def permutation_cases(sf, stage):
    """The permutation-class branches of the stage checks (the tower's
    stage 2 is such a class), on classes built from the small stage's
    code words: the same code words lie behind a renewal presentation."""
    renewal = stage.shift.renewal
    if len(renewal.code.words) < 6:
        raise RuntimeError("the small stage has too few code words for a permutation class")

    def as_stage(free):
        code = sf.PermutationCode(renewal, (0,), 0, (1,), free)
        return sf.Stage(index=2, shift=None, measure=code, code=code)

    distinct, repeated = as_stage((2, 3, 4, 5)), as_stage((2, 2, 3, 4))
    rho = {(0,): 1.0, (1,): 1.5}
    word = next(distinct.code.words())
    want = sum(rho[(a,)] for a in word) / len(word)
    # the renewal closed form, wrongly applied to a permutation class
    wrong = checks.roof_mean(renewal.code.words, rho)
    if abs(want - wrong) < 1e-6:
        raise RuntimeError("the permutation class's roof mean equals the renewal one")
    return [
        ("roof integral of a permutation class", _check_roof_integral,
         (distinct, rho, want), (distinct, rho, wrong)),
        ("permutation class with a repeated free word", _check_class_count,
         (distinct,), (repeated,)),
    ]


def stage_cases(sf):
    rc = sf.config.parse_config(common.entry_config({"config": "configs/full2_small.cfg"}))
    target = rc.build_target()
    params = rc.build_schedule(target)[0]
    base = sf.construction.base_stage(target)
    stage, report = sf.build_stage(base, target, params, sf.RunSettings(seed=0, samples=rc.samples))
    rho, c, d = target.rho.values, target.c, params.delta
    ri_prev = checks.stage_roof_integral(base, rho)
    ri_next = checks.stage_roof_integral(stage, rho)
    log_count, k = checks.code_log_size(stage)
    lo, v, hi = report.entropy_window
    rlo, rmin, rmax, rhi = report.roof_window
    full = (base, stage, report, c, d, rho)
    return permutation_cases(sf, stage) + [
        ("stage as a whole", checks.check_stage, full,
         (base, stage, replace(report, h_top=report.h_top * (1 + 1e-6)), c, d, rho)),
        ("entropy window edge", checks.check_windows, (report, c, d, ri_prev),
         (replace(report, entropy_window=(lo * (1 + 1e-6), v, hi)), c, d, ri_prev)),
        ("roof window edge", checks.check_windows, (report, c, d, ri_prev),
         (replace(report, roof_window=(rlo, rmin, rmax, rhi * (1 + 1e-6))), c, d, ri_prev)),
        ("h_top from the code-word count", checks.check_entropy_count,
         (report.h_top, log_count, k), (report.h_top, math.log(len(stage.code) + 1), k)),
        ("failing report item", checks.check_report, (report, c, d, report.h_top, ri_next),
         (replace(report, ud_ok=False), c, d, report.h_top, ri_next)),
        ("normalized entropy", checks.check_report, (report, c, d, report.h_top, ri_next),
         (replace(report, normalized_entropy=report.normalized_entropy * 1.01), c, d, report.h_top, ri_next)),
    ]


def sft_cases(sf):
    s = sftlib.generate(np.random.default_rng(0), SMALL_SFT)
    a = s.slot.alphabet
    shift = sf.words.from_forbidden_words(a, s.forbidden, block=s.block)
    h = sf.spectral.topological_entropy(shift)
    parry = sf.spectral.parry_measure(shift)
    lang = sf.words.label_language(shift, s.depth)
    window = sf.words.longest_window_avoiding(shift, s.pattern)
    other = sf.words.longest_window_avoiding(sf.words.from_forbidden_words(a, s.forbidden), s.pattern)
    path = sf.codes.find_low_overlap_word(shift, s.overlap_length)
    label = sf.words.label_word(shift, path)
    # the first step of the path sent to a state that does not follow
    u = path[0]
    v = next(v for v in range(shift.num_states) if not shift.matrix[u, v])
    broken = (u, v) + tuple(path[2:])
    adj = sftlib.minimal_presentation(a, s.forbidden)
    count = sftlib.brute_force_count(a, s.forbidden, s.depth)
    l, f = s.overlap_length, s.forbidden[0]
    skewed = parry.pi.copy()
    skewed[0] += 1e-3
    skewed[-1] -= 1e-3
    return [
        ("entropy against eigvals", checks.check_entropy, (h, sftlib.entropy(adj)),
         (h + 1e-6, sftlib.entropy(adj))),
        ("stationary Parry vector", checks.check_parry, (parry.pi, parry.P, h), (skewed, parry.P, h)),
        ("Parry entropy equals h_top", checks.check_parry, (parry.pi, parry.P, h),
         (parry.pi, parry.P, h + 1e-6)),
        ("label-language size", checks.check_count, ("words", len(lang), count),
         ("words", len(lang) + 1, count)),
        ("longest window between recodings", checks.check_count, ("window", window, other),
         ("window", (window or 0) + 1, other)),
        ("low-overlap word is a path", checks.check_path, (shift.matrix, path),
         (shift.matrix, broken)),
        ("low-overlap word free of forbidden words", checks.check_low_overlap,
         (label, s.forbidden, l), (f + tuple(label[len(f):]), s.forbidden, l)),
        ("low-overlap word border", checks.check_low_overlap, (label, s.forbidden, l),
         ((tuple(label[:6]) * l)[:l], (), l)),
    ]


def main():
    sf, _ = common.import_shiftflex()

    bad = 0
    for name, fn, good, corrupted in stage_cases(sf) + sft_cases(sf):
        accepts = not _raises(fn, good)
        rejects = _raises(fn, corrupted)
        ok = accepts and rejects
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: accepts the true value {accepts}, "
              f"rejects the corrupted one {rejects}")
    print(f"self-test: {'every check can fail' if not bad else f'{bad} checks misbehave'}")
    return 1 if bad else 0
