"""Seeded shifts of finite type for the sft-queries workload, and the
benchmark's own reference computations on them.

A shift is a forbidden-word list over 2-4 symbols.  Everything here works
on the benchmark's own minimal presentation: states are the clean words of
length m - 1 (m the longest forbidden word), edges the clean words of
length m.  None of it calls shiftflex, so the checks built on it are made
apart from the program.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Slot:
    """The shape of one query's shift; the seed fills in the words."""

    alphabet: int
    longest: int  # length m of the longest forbidden word
    extra_words: int  # forbidden words beyond the parity rule
    periodic: bool  # two symbol classes that must alternate
    recode: str  # "forbidden": from_forbidden_words(block=b); "higher": higher_block
    states: int  # aim for the recoded presentation's state count
    entropy: tuple  # (lo, hi) band for the topological entropy


# The shapes of sft-queries: aperiodic and periodic (two alternating symbol
# classes) shifts over 2-4 symbols, each recoded to a state count at which
# one query takes about half a second, so that operation times cluster and
# their median is steady.  A round draws REPEATS shifts of every shape.
SLOTS = (
    Slot(2, 5, 3, False, "forbidden", 6000, (0.45, 0.62)),
    Slot(2, 6, 4, False, "higher", 12000, (0.45, 0.62)),
    Slot(2, 4, 2, False, "higher", 12000, (0.5, 0.66)),
    Slot(3, 4, 4, False, "forbidden", 6000, (0.8, 1.0)),
    Slot(3, 4, 5, False, "higher", 18000, (0.75, 1.0)),
    Slot(3, 5, 6, False, "higher", 15000, (0.75, 1.0)),
    Slot(4, 4, 8, False, "higher", 11000, (1.15, 1.33)),
    Slot(3, 3, 3, False, "forbidden", 7500, (0.9, 1.06)),
    Slot(4, 4, 3, True, "higher", 16000, (0.55, 0.68)),
    Slot(4, 4, 4, True, "higher", 16000, (0.5, 0.66)),
    Slot(4, 5, 3, True, "higher", 14000, (0.55, 0.68)),
    Slot(4, 3, 2, True, "higher", 16000, (0.6, 0.69)),
    Slot(3, 4, 2, True, "higher", 12000, (0.2, 0.345)),
    Slot(4, 4, 3, True, "higher", 22000, (0.55, 0.68)))

REPEATS = 4


@dataclass(frozen=True)
class Sft:
    slot: Slot
    forbidden: tuple  # tuples of symbols
    entropy: float  # log spectral radius of the minimal presentation
    block: int  # from_forbidden_words block, or the base block for higher_block
    higher: int  # higher_block depth (1: none)
    depth: int  # label_language depth
    pattern: tuple  # longest_window_avoiding pattern
    overlap_length: int  # find_low_overlap_word length


def contains_any(word, forbidden):
    return any(
        word[i : i + len(f)] == f for f in forbidden for i in range(len(word) - len(f) + 1)
    )


def minimal_presentation(alphabet, forbidden):
    """Dense 0/1 adjacency on the clean words of length m - 1."""
    m = max(len(f) for f in forbidden)
    states = [
        w for w in itertools.product(range(alphabet), repeat=m - 1)
        if not contains_any(w, forbidden)
    ]
    index = {w: i for i, w in enumerate(states)}
    adj = np.zeros((len(states), len(states)), dtype=np.int64)
    for i, u in enumerate(states):
        for s in range(alphabet):
            v = u[1:] + (s,)
            j = index.get(v)
            if j is not None and not contains_any(u + (s,), forbidden):
                adj[i, j] = 1
    return adj


def _reach(adj, start):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adj[u]):
            if v not in seen:
                seen.add(int(v))
                queue.append(int(v))
    return seen


def strongly_connected(adj):
    """Every state reaches every state, a lone state through its own loop."""
    n = adj.shape[0]
    if n == 0 or (n == 1 and not adj[0, 0]):
        return False
    return len(_reach(adj, 0)) == n and len(_reach(adj.T, 0)) == n


def period(adj):
    """gcd of cycle lengths of a strongly connected graph, from BFS levels."""
    level = {0: 0}
    queue = deque([0])
    g = 0
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adj[u]):
            v = int(v)
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g = math.gcd(g, level[u] + 1 - level[v])
    return g


def entropy(adj):
    """log of the spectral radius, by numpy.linalg.eigvals."""
    return float(math.log(max(abs(np.linalg.eigvals(adj.astype(np.float64))))))


def clean_counts(adj, m, up_to):
    """[number of clean words of length L for L = m - 1 .. up_to] (exact ints)."""
    vec = [1] * adj.shape[0]
    rows = [np.flatnonzero(adj[i]).tolist() for i in range(adj.shape[0])]
    out = [sum(vec)]
    for _ in range(m - 1, up_to):
        vec = [sum(vec[j] for j in rows[i]) for i in range(len(rows))]
        out.append(sum(vec))
    return out


def brute_force_count(alphabet, forbidden, length):
    """Words of the given length containing no forbidden word, one by one."""
    return sum(
        1 for w in itertools.product(range(alphabet), repeat=length)
        if not contains_any(w, forbidden)
    )


def border(word):
    """Longest proper prefix of the word that is also its suffix, by direct comparison."""
    word = tuple(word)
    return max((b for b in range(len(word)) if word[:b] == word[len(word) - b :]), default=0)


def _random_forbidden(rng, slot):
    a = slot.alphabet
    words = set()
    if slot.periodic:
        half = a // 2
        cls = [0 if s < half else 1 for s in range(a)]
        words |= {(x, y) for x in range(a) for y in range(a) if cls[x] == cls[y]}
    lengths = [slot.longest] + [int(rng.integers(3, slot.longest + 1)) for _ in range(slot.extra_words - 1)]
    for L in lengths:
        words.add(tuple(int(s) for s in rng.integers(0, a, size=L)))
    return tuple(sorted(words))


BRUTE_FORCE = 20000


def generate(rng, slot, tries=400):
    """One Sft of the slot's shape: irreducible, of the slot's period class,
    entropy in the slot's band, recodable to about `slot.states` states."""
    for _ in range(tries):
        forbidden = _random_forbidden(rng, slot)
        m = max(len(f) for f in forbidden)
        if m != slot.longest:
            continue
        adj = minimal_presentation(slot.alphabet, forbidden)
        if not strongly_connected(adj) or (period(adj) > 1) != slot.periodic:
            continue
        h = entropy(adj)
        if not slot.entropy[0] <= h <= slot.entropy[1]:
            continue
        counts = clean_counts(adj, m, m + 40)  # counts[i]: length m - 1 + i
        fit = _fit_states(counts, m, slot)
        if fit is None:
            continue
        block, higher = fit
        # at least 400 label words, unless brute force would pass BRUTE_FORCE words
        depth = next(
            L for L in range(m, m + 40)
            if counts[L - m + 1] >= 400 or slot.alphabet ** (L + 1) > BRUTE_FORCE
        )
        pattern = _pattern(rng, slot.alphabet, forbidden)
        return Sft(slot, forbidden, h, block, higher, depth, pattern, 24)
    raise RuntimeError(f"no shift of shape {slot} in {tries} draws")


def _fit_states(counts, m, slot):
    """(block, higher) whose state count is within 20% of the aim."""
    best = None
    for i, c in enumerate(counts):
        length = m - 1 + i
        if length < m:
            continue
        if slot.recode == "forbidden":
            block, higher = length, 1
            if slot.alphabet ** block > 6 * slot.states:  # from_forbidden_words scans a^b words
                continue
        else:
            block, higher = m, length - m + 1
        if best is None or abs(c - slot.states) < abs(best[2] - slot.states):
            best = (block, higher, c)
    if best is None or abs(best[2] - slot.states) > 0.2 * slot.states:
        return None
    return best[:2]


def _pattern(rng, alphabet, forbidden):
    """A clean word of length 2 for longest_window_avoiding."""
    clean = [w for w in itertools.product(range(alphabet), repeat=2) if not contains_any(w, forbidden)]
    return clean[int(rng.integers(0, len(clean)))]
