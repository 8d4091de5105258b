"""Correctness checks on the program's outputs.

Each check compares an output with a value the benchmark computes apart
from the program (closed forms, its own counts and eigenvalues) or with a
property the method must have, and raises CheckFailed when they differ.
`selftest.py` feeds every check a true value and a corrupted one.
"""

import math

import numpy as np

import sft as sftlib

TOL = 1e-9  # the program's own entropy-identity tolerance
ENTROPY_TOL = 1e-8  # power iteration (program) against eigvals (numpy)


class CheckFailed(AssertionError):
    pass


def _close(name, got, want, tol):
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckFailed(f"{name}: program {got!r}, expected {want!r}")


# --- stages ------------------------------------------------------------------


def roof_mean(words, rho):
    """Mean of a depth-1 roof over every symbol of the given words: the roof
    integral of a full shift's uniform measure (one word per symbol), of a
    uniform-length renewal stage's Parry measure (its code words), and of
    every measure of a permutation-class stage (one of its code words)."""
    total = sum(rho[(a,)] for w in words for a in w)
    return total / sum(len(w) for w in words)


def stage_roof_integral(stage, rho):
    """Closed-form integral of rho under the stage's maximal measure."""
    if stage.index == 0:
        return roof_mean([(a,) for a in range(stage.shift.ambient_size)], rho)
    if stage.shift is None:  # permutation class: every code word alike
        code = stage.code
        return roof_mean([code.spell(code.glue + code.fixed + code.free)], rho)
    return roof_mean(stage.code.words, rho)


def code_log_size(stage):
    """(log of the number of code words, code-word length), from the code."""
    code = stage.code
    if stage.shift is None:
        if len(set(code.free)) != len(code.free):
            raise CheckFailed("permutation class with repeated free words")
        k = sum(len(code.ambient.code.words[a]) for a in code.glue + code.fixed + code.free)
        return math.lgamma(len(code.free) + 1), k
    lengths = {len(w) for w in code.words}
    if len(lengths) != 1:
        raise CheckFailed(f"code words of lengths {sorted(lengths)}")
    return math.log(len(set(code.words))), lengths.pop()


def check_windows(report, c, delta, ri_prev):
    """Entropy and roof window edges from c, delta and the closed-form
    integral of the previous stage."""
    _close("entropy window lower edge", report.entropy_window[0], (1 + delta) ** 2 * c * ri_prev, TOL)
    _close("entropy window upper edge", report.entropy_window[2], (1 + 3 * delta) * c * ri_prev, TOL)
    _close("roof window lower edge", report.roof_window[0], (1 - delta) * ri_prev, TOL)
    _close("roof window upper edge", report.roof_window[3], (1 + delta) * ri_prev, TOL)


def check_entropy_count(h_top, log_count, k):
    _close("h_top = log(#code words)/k", h_top, log_count / k, TOL)


def check_report(report, c, delta, h_top, ri_next):
    """Every item passes and the normalized entropy h_top / int(rho) lies in
    the bracket [c (1+d), c (1+3d)/(1-d)]."""
    failing = [i.name for i in report.items() if not i.ok]
    if failing:
        raise CheckFailed(f"report items fail: {failing}")
    norm = h_top / ri_next
    _close("normalized entropy", report.normalized_entropy, norm, TOL)
    lo, hi = c * (1 + delta), c * (1 + 3 * delta) / (1 - delta)
    if not lo - TOL <= norm <= hi + TOL:
        raise CheckFailed(f"normalized entropy {norm!r} outside [{lo!r}, {hi!r}]")


def check_stage(prev, stage, report, c, delta, rho):
    ri_prev = stage_roof_integral(prev, rho)
    check_windows(report, c, delta, ri_prev)
    log_count, k = code_log_size(stage)
    check_entropy_count(report.h_top, log_count, k)
    check_report(report, c, delta, report.h_top, stage_roof_integral(stage, rho))


# --- SFT queries ---------------------------------------------------------------


def check_entropy(h_prog, h_ref):
    _close("topological entropy vs eigvals", h_prog, h_ref, ENTROPY_TOL)


def measure_entropy(pi, P):
    """-sum pi_i P_ij log P_ij, computed here from the measure's arrays."""
    coo = P.tocoo()
    keep = coo.data > 0
    p = coo.data[keep]
    return float(-(pi[coo.row[keep]] * p * np.log(p)).sum())


def check_stationary(pi, P):
    """pi is a probability vector and pi P = pi, P row-stochastic."""
    if pi.min() < -TOL or abs(pi.sum() - 1) > TOL:
        raise CheckFailed("pi is not a probability vector")
    if np.abs(np.asarray(P.sum(axis=1)).ravel() - 1).max() > TOL:
        raise CheckFailed("P is not row-stochastic")
    drift = float(np.abs(pi @ P - pi).max())
    if drift > TOL:
        raise CheckFailed(f"pi is not stationary (|pi P - pi| = {drift:.3e})")


def check_parry(pi, P, h_top):
    """The Parry measure is stationary and has entropy h_top."""
    check_stationary(pi, P)
    _close("entropy of the Parry measure", measure_entropy(pi, P), h_top, ENTROPY_TOL)


def check_count(name, got, want):
    if got != want:
        raise CheckFailed(f"{name}: program {got}, expected {want}")


def check_path(matrix, word):
    """Each step of the state word is an edge of the presentation."""
    for i, (u, v) in enumerate(zip(word, word[1:])):
        if not matrix[u, v]:
            raise CheckFailed(f"step {i} of the low-overlap word, {u} -> {v}, is not an edge")


def check_low_overlap(label, forbidden, length):
    """A word of the asked length, free of forbidden words, border < l/4."""
    if len(label) != length:
        raise CheckFailed(f"word of length {len(label)}, asked {length}")
    if sftlib.contains_any(tuple(label), forbidden):
        raise CheckFailed("low-overlap word contains a forbidden word")
    b = sftlib.border(label)
    if not b < length / 4:
        raise CheckFailed(f"border {b} not below {length}/4")
