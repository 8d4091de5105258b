"""Empirical measures, a computable weak* surrogate metric, and separated sets.

The metric compares any two objects that expose ambient cylinder
probabilities (`cylinder_table(depth)`): empirical measures of finite words
and Markov measures alike.  It is the depth-weighted cylinder total
variation

    d(a, b) = sum_{m=1..D} 2^-m * (1/2) * sum_{|w|=m} |a[w] - b[w]|,

which metrizes weak* convergence on shift spaces and is exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientWordLengthError, WordTooShortError
from .spectral import markov_entropy
from .words import language


@dataclass(frozen=True)
class MetricConfig:
    """Truncation depth of the weak* surrogate metric."""

    max_depth: int = 2

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("metric depth must be >= 1")


class EmpiricalMeasure:
    """Window frequencies of a finite word over the ambient alphabet.

    At depth d the word of length N has N-d+1 windows, each weighted
    1/(N-d+1); the declared depth is the deepest cylinder the measure is
    meant to resolve, but frequencies at any shallower depth are computed
    directly from the word (not by marginalizing), matching the finite-word
    empirical statistics.
    """

    def __init__(self, word, depth, ambient_size=None):
        word = tuple(word)
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if len(word) < depth:
            raise WordTooShortError(
                f"word of length {len(word)} has no depth-{depth} windows"
            )
        self.word = word
        self.depth = depth
        self.ambient_size = (
            max(word) + 1 if ambient_size is None else int(ambient_size)
        )
        self._tables = {}

    def cylinder_table(self, depth):
        """Window frequencies at the given depth; ValueError below depth 1."""
        if depth < 1:
            raise ValueError("cylinder depth must be >= 1")
        if depth in self._tables:
            return self._tables[depth]
        if len(self.word) < depth:
            raise WordTooShortError(
                f"word of length {len(self.word)} has no depth-{depth} windows"
            )
        counts = {}
        n = len(self.word) - depth + 1
        for i in range(n):
            w = self.word[i : i + depth]
            counts[w] = counts.get(w, 0) + 1
        table = {w: c / n for w, c in counts.items()}
        self._tables[depth] = table
        return table

    def __repr__(self):
        return f"EmpiricalMeasure(len={len(self.word)}, depth={self.depth})"


def empirical_from_windows(word, positions, depth, ambient_size=None):
    """Average of the window distributions at selected window indices.

    Positions index windows word[i : i + d]; every metric depth d <= depth
    averages over the same index set, mirroring an orbit-segment average
    restricted to those times.
    """
    word = tuple(word)
    positions = tuple(positions)
    if not positions:
        raise ValueError("need at least one window position")
    m = EmpiricalMeasure(word[:depth], depth, ambient_size=ambient_size)
    m.word = word
    tables = {}
    for d in range(1, depth + 1):
        counts = {}
        for i in positions:
            if i < 0 or i + depth > len(word):
                raise ValueError(f"window {i} out of range")
            w = word[i : i + d]
            counts[w] = counts.get(w, 0) + 1
        tables[d] = {w: c / len(positions) for w, c in counts.items()}
    m._tables = tables
    return m


def weak_star_distance(a, b, cfg):
    """Depth-weighted cylinder total variation between two measure-like objects.

    Symmetric, satisfies the triangle inequality, and vanishes exactly when
    all cylinder probabilities agree up to the configured depth.
    """
    total = 0.0
    for m in range(1, cfg.max_depth + 1):
        ta = a.cylinder_table(m)
        tb = b.cylinder_table(m)
        keys = set(ta) | set(tb)
        l1 = sum(abs(ta.get(w, 0.0) - tb.get(w, 0.0)) for w in keys)
        total += 0.5 * l1 / (1 << m)
    return total


def window_counts(words, depth, alphabet_size):
    """Window counts of every row of a (rows, length) array of label words.

    Each length-`depth` window is read as a base-`alphabet_size` integer,
    first symbol most significant; entry (r, c) of the (rows,
    alphabet_size**depth) result counts the windows of row r with code c.
    One bincount over row-offset codes fills the whole table.  `words` may
    be of any integer dtype; only the window codes are int64.  ValueError
    for a symbol outside 0..alphabet_size - 1.
    """
    words = np.asarray(words)
    rows, length = words.shape
    span = length - depth + 1
    if span < 1:
        raise WordTooShortError(f"word of length {length} has no depth-{depth} windows")
    if words.size:
        lo, hi = int(words.min()), int(words.max())
        if lo < 0 or hi >= alphabet_size:
            bad = lo if lo < 0 else hi
            raise ValueError(f"symbol {bad} outside the alphabet of size {alphabet_size}")
    codes = words[:, :span].astype(np.int64)
    for i in range(1, depth):
        codes *= alphabet_size
        codes += words[:, i : i + span]
    cols = alphabet_size**depth
    codes += (np.arange(rows, dtype=np.int64) * cols)[:, None]
    return np.bincount(codes.ravel(), minlength=rows * cols).reshape(rows, cols)


def dense_table(table, depth, alphabet_size, fill=0.0):
    """A {word: value} table of length-`depth` words as a dense vector,
    indexed like the columns of `window_counts`; absent words read `fill`."""
    vec = np.full(alphabet_size**depth, fill)
    for w, p in table.items():
        vec[np.ravel_multi_index(w, (alphabet_size,) * depth)] = p
    return vec


def cyclic_windows(words, depth):
    """Each row of a (rows, length) array extended by its first depth - 1
    symbols, so its windows are those of the row's periodic orbit."""
    length = words.shape[1]
    return words[:, np.arange(length + depth - 1) % length]


def empirical_distances(words, m, depth, alphabet_size, cyclic=False):
    """weak_star_distance at `depth` from each row's empirical measure to m.

    `words` is a (rows, length) array of label words of any integer dtype;
    m's cylinder tables become dense vectors indexed like the columns of
    `window_counts`.  With `cyclic`, a row stands for the periodic orbit of
    its word (`cyclic_windows`).  At each depth, rows are scored in blocks
    whose window codes and count table hold about 2^16 entries together
    (at least one row), so only `words` and the result grow with the row
    count.
    """
    words = np.asarray(words)
    rows, length = words.shape
    total = np.zeros(rows)
    for d in range(1, depth + 1):
        target = dense_table(m.cylinder_table(d), d, alphabet_size)
        block = max(1, (1 << 16) // (length + d - 1 + alphabet_size**d))
        for lo in range(0, rows, block):
            chunk = words[lo : lo + block]
            windows = cyclic_windows(chunk, d) if cyclic else chunk
            freq = window_counts(windows, d, alphabet_size) / (windows.shape[1] - d + 1)
            total[lo : lo + block] += 0.5 * np.abs(freq - target).sum(axis=1) / (1 << d)
    return total


@dataclass(frozen=True)
class KatokResult:
    """Separated word set, a lexicographic (words × n) state array, with
    its entropy-count deviation."""

    words: np.ndarray
    deviation: float
    qualifying: int  # how many words passed the radius filter before sizing


def katok_separated_set(shift, m, n, kappa, radius, cfg):
    """Words of length n whose empirical statistics are radius-close to m.

    Returns the rows of `language(shift, n)` it keeps, in lexicographic
    order, with the deviation |log(count)/n - h(m)|.  When the full
    qualifying set overshoots the deviation target it is trimmed
    deterministically (closest empirical distance first, then
    lexicographic) to the count floor(exp(n h)); when even the full set
    undershoots, InsufficientWordLengthError signals that n must grow.
    All words are scored together, from one array of their label words.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    h = markov_entropy(m)
    states = language(shift, n)
    alphabet = np.min_scalar_type(shift.ambient_size - 1)
    labels = shift.label_array.astype(alphabet)[states]
    dist = empirical_distances(labels, m, min(cfg.max_depth, n), shift.ambient_size)
    (chosen,) = np.nonzero(dist < radius)  # indices into the lexicographic language
    count = len(chosen)
    if not count:
        raise InsufficientWordLengthError(
            f"no word of length {n} is within radius {radius} of the measure"
        )
    deviation = abs(math.log(count) / n - h)
    if deviation < kappa:
        return KatokResult(states[chosen], deviation, count)
    if math.log(count) / n < h:  # too few words; only a larger n can help
        raise InsufficientWordLengthError(
            f"deviation {deviation:.6f} >= kappa {kappa} with all {count} "
            f"qualifying words; increase n",
            deviation=deviation,
        )
    target = max(1, math.floor(math.exp(n * h)))
    # a stable sort keeps lexicographic order among equal distances
    chosen = np.sort(chosen[np.argsort(dist[chosen], kind="stable")[:target]])
    deviation = abs(math.log(len(chosen)) / n - h)
    if deviation >= kappa:
        raise InsufficientWordLengthError(
            f"trimmed deviation {deviation:.6f} still >= kappa {kappa}",
            deviation=deviation,
        )
    return KatokResult(states[chosen], deviation, count)


def pigeonhole_refine(rows, shift):
    """(cell, first, last): the largest set of rows of a (words × n) state
    array of `shift` sharing first and last state, in their order in `rows`.

    One `np.unique` counts the keys first * N + last (N states), so ties
    break toward the smallest (first, last) pair; the cell has at least
    |rows| / N^2 rows.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or not rows.size:
        raise ValueError("gamma must be a nonempty (words × length) array")
    keys = rows[:, 0] * shift.num_states + rows[:, -1]
    cells, counts = np.unique(keys, return_counts=True)
    start, end = divmod(int(cells[counts.argmax()]), shift.num_states)
    return rows[keys == start * shift.num_states + end], start, end
