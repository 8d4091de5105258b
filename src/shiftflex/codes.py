"""Finite codes, unique decipherability, renewal presentations, borders.

A renewal system is the shift space of free bi-infinite concatenations of a
finite word set.  Uniform-length uniquely decipherable codes are converted
to a positional vertex-shift presentation whose states are (word, offset)
pairs labeled by the symbols they read.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    CapacityError,
    NoLowOverlapWordError,
    NonUniformLengthError,
    NotUniquelyDecipherableError,
    StructureDepthError,
)
from .words import (
    DEFAULT_WORD_BUDGET,
    VertexShift,
    _extend_borders,
    _failure_function,
)


def _per_depth(method):
    """Compute `method(self, depth)` once per depth and keep it on the instance.

    The cache sits in the instance's own `__dict__` (a frozen dataclass
    takes it too), so it lives and dies with the structure it describes.
    """
    key = "_cache_" + method.__name__

    @functools.wraps(method)
    def cached(self, depth):
        cache = self.__dict__.setdefault(key, {})
        if depth not in cache:
            cache[depth] = method(self, depth)
        return cache[depth]

    return cached


@dataclass(frozen=True)
class Code:
    """Nonempty set of distinct finite words."""

    words: tuple

    def __post_init__(self):
        ws = tuple(sorted({tuple(w) for w in self.words}))
        if not ws:
            raise ValueError("code must be nonempty")
        if any(len(w) == 0 for w in ws):
            raise ValueError("code words must be nonempty")
        object.__setattr__(self, "words", ws)

    @property
    def uniform_length(self):
        lengths = {len(w) for w in self.words}
        return lengths.pop() if len(lengths) == 1 else None

    @property
    def alphabet_size(self):
        return max(max(w) for w in self.words) + 1

    @property
    def size(self):
        return len(self.words)

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.words)


def _initial_suffixes(words):
    """Dangling suffixes from one codeword being a proper prefix of another."""
    out = []
    ordered = sorted(words)
    for i, u in enumerate(ordered):
        for v in ordered[i + 1 :]:
            if v[: len(u)] != u:
                break  # sorted: once the prefix fails it fails for the rest
            out.append((v[len(u) :], (v,), (u,)))
    return out


def ud_witness(code):
    """A string with two factorizations, or None when the code is UD.

    Returns (string, factorization_a, factorization_b) with the
    factorizations given as tuples of codewords.  Implements the dangling
    suffix iteration with breadth-first parent tracking, so the witness is
    short.
    """
    words = list(code.words)
    queue = deque()
    seen = set()
    for s, f1, f2 in _initial_suffixes(words):
        # stream(f1) = stream(f2) + s, s nonempty since words are distinct
        if s not in seen:
            seen.add(s)
            queue.append((s, f1, f2))
    while queue:
        s, f1, f2 = queue.popleft()
        for w in words:
            if w == s:
                ahead = f1
                behind = f2 + (w,)
                string = sum(ahead, ())
                return (string, ahead, behind)
            if len(w) > len(s) and w[: len(s)] == s:
                t = w[len(s) :]
                if t not in seen:
                    seen.add(t)
                    queue.append((t, f2 + (w,), f1))
            elif len(s) > len(w) and s[: len(w)] == w:
                t = s[len(w) :]
                if t not in seen:
                    seen.add(t)
                    queue.append((t, f1, f2 + (w,)))
    return None


def is_uniquely_decipherable(code):
    """Sardinas-Patterson test: every concatenation factors uniquely."""
    return ud_witness(code) is None


def renewal_to_sft(code, ambient_size=None):
    """Positional vertex shift of a uniform-length uniquely decipherable code.

    States are (word index a, offset p) in code-sorted order, with edges
    (a, p) -> (a, p+1) inside each word and (a, k-1) -> (b, 0) for every b.
    Each state is labeled by the symbol it reads, so label sequences are
    exactly the bi-infinite free concatenations.  The transition matrix has
    spectral radius |code|^(1/k).
    """
    k = code.uniform_length
    if k is None:
        raise NonUniformLengthError(
            "renewal presentation requires a uniform-length code"
        )
    witness = ud_witness(code)
    if witness is not None:
        string, fa, fb = witness
        raise NotUniquelyDecipherableError(
            f"code is not uniquely decipherable: "
            f"{_fmt_word(string)} = {_fmt_fact(fa)} = {_fmt_fact(fb)}",
            witness=witness,
        )
    t = len(code)
    n = t * k
    states = np.arange(n).reshape(t, k)
    inner = states[:, :-1].ravel()
    # every word end (a, k-1) -> every word start (b, 0)
    rows = np.concatenate([inner, np.repeat(states[:, -1], t)])
    cols = np.concatenate([inner + 1, np.tile(states[:, 0], t)])
    mat = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n)
    )
    if ambient_size is None:
        ambient_size = code.alphabet_size
    labels = [x for w in code.words for x in w]
    shift = VertexShift(mat, labels=labels, ambient_size=ambient_size)
    shift.renewal = RenewalStructure(code=code, k=k)
    return shift


@dataclass(frozen=True)
class RenewalStructure:
    """The uniform-length code behind a positional renewal presentation.

    State a * k + p of the presentation reads symbol p of code word a.
    The structure is also the presentation's measure of maximal entropy
    (`entropy`, `cylinder_table`).
    """

    code: Code
    k: int

    @cached_property
    def _sorted_tails(self):
        # offset s -> the code words' tails w[s:], sorted, for prefix search
        return tuple(sorted(w[s:] for w in self.code.words) for s in range(self.k))

    @cached_property
    def _word_set(self):
        return frozenset(self.code.words)

    def _tail_starts_with(self, s, piece):
        tails = self._sorted_tails[s]
        i = bisect.bisect_left(tails, piece)
        return i < len(tails) and tails[i][: len(piece)] == piece

    def admits(self, word):
        """True iff the label word occurs in a concatenation of code words.

        Tries every offset at which the word may start inside a code word:
        the first piece must continue some code word from that offset, the
        full-length middle pieces must be code words and the last piece
        must begin one.
        """
        word, k = tuple(word), self.k
        for s in range(k):
            first = word[: k - s]
            if not self._tail_starts_with(s, first):
                continue
            pos = len(first)
            while pos + k <= len(word) and word[pos : pos + k] in self._word_set:
                pos += k
            if pos + k <= len(word):
                continue
            if pos == len(word) or self._tail_starts_with(0, word[pos:]):
                return True
        return False

    @cached_property
    def shared_ends(self):
        """(P, S): lengths of the prefix and suffix every code word shares."""
        words = self.code.words
        p = len(os.path.commonprefix(words))
        s = len(os.path.commonprefix([w[::-1] for w in words]))
        return min(p, self.k), min(s, self.k)

    @property
    def exact_depth(self):
        """Largest window depth decided by a single code word.

        With the shared prefix P and suffix S, a window of depth at most
        P + S + 1 whose start lies in [-e, k - e) relative to a code word,
        e = max(0, depth - P - 1), reads only that word and the shared ends
        of its neighbours.  Cutting every concatenation at these offsets
        attributes each window to exactly one code word.
        """
        p, s = self.shared_ends
        return p + s + 1

    def language(self, depth):
        """Label words of the given depth, lexicographically ordered."""
        return sorted({w for ws in self.windows(depth) for _, w in ws})

    @property
    def entropy(self):
        """log t / k, in nats: the entropy of the renewal system."""
        return math.log(len(self.code)) / self.k

    def cylinder_table(self, depth, budget=None):
        """Cylinder table of the measure of maximal entropy, for depths
        single code words decide.

        That measure gives every state (a, p) the mass 1/(t k) and every
        junction a -> b the probability 1/t, so its table is the uniform
        mixture of the code words' windows.  `budget` bounds the
        enumeration of a presentation's measure; nothing is enumerated
        here, so it is not read.
        """
        return self._mixture(depth)

    @_per_depth
    def _mixture(self, depth):
        counts = Counter(w for ws in self.windows(depth) for _, w in ws)
        mass = len(self.code) * self.k
        return {w: c / mass for w, c in counts.items()}

    @_per_depth
    def windows(self, depth):
        """Per code word, its attributed depth-`depth` windows.

        Returns one tuple of (offset, window) pairs per code word, offsets
        ascending in [-e, k - e) as in `exact_depth`.
        """
        if not 1 <= depth <= self.exact_depth:
            raise StructureDepthError(
                f"depth {depth} outside 1..{self.exact_depth}, the depths "
                "single code words decide"
            )
        p, s = self.shared_ends
        e = max(0, depth - p - 1)
        suffix, prefix = self.code.words[0][self.k - s :], self.code.words[0][:p]
        out = []
        for w in self.code.words:
            ctx = suffix + w + prefix
            out.append(
                tuple((o, ctx[s + o : s + o + depth]) for o in range(-e, self.k - e))
            )
        return tuple(out)

    def occurrences(self, depth, indices=None):
        """word -> {code word a -> ascending offsets of a's windows reading it}.

        Covers the code words with the given indices (default: all of them),
        offsets as in `windows`.
        """
        profile = self.windows(depth)
        occ = {}
        for a in range(len(profile)) if indices is None else indices:
            for o, w in profile[a]:
                occ.setdefault(w, {}).setdefault(a, []).append(o)
        return occ

    @_per_depth
    def longest_avoiding(self, depth):
        """(word, longest window avoiding it) per depth-`depth` word,
        lexicographically; None where windows of any length avoid the word.

        Cutting a concatenation at the offsets of `windows` gives every
        occurrence to one code word.  A word that some code word's windows
        miss is avoided by that word's periodic orbit.  Otherwise
        consecutive occurrences lie inside one code word or span a junction
        a -> b, at most k + max_b first(b) - min_a last(a) apart (any code
        word may follow any other, itself included); a window between
        occurrences p < p' has at most p' - p + depth - 2 symbols.
        """
        t, k = len(self.code), self.k
        out = {}
        for w, by_word in self.occurrences(depth).items():
            if len(by_word) < t:
                out[w] = None
                continue
            offsets = by_word.values()
            gaps = [k + max(o[0] for o in offsets) - min(o[-1] for o in offsets)]
            for o in offsets:
                gaps.extend(y - x for x, y in zip(o, o[1:]))
            out[w] = max(gaps) + depth - 2
        return tuple(sorted(out.items()))

    def path(self, frm, to):
        """Shortest path of at least one edge from state `frm` to state `to`.

        It is unique: the only edges that leave a code word run from its
        last state to the first state of any code word.  Within one word and
        forwards the path stays inside it; otherwise it runs to the end of
        `frm`'s word, across one junction and along `to`'s word.
        """
        k = self.k
        a, p = divmod(frm, k)
        b, q = divmod(to, k)
        if a == b and q > p:
            return tuple(range(frm, to + 1))
        return tuple(range(frm, a * k + k)) + tuple(range(b * k, to + 1))


def _fmt_word(w):
    return "".join(str(s) for s in w)


def _fmt_fact(f):
    return "·".join(_fmt_word(w) for w in f)


def max_self_overlap(word):
    """Length of the longest proper border (prefix equal to suffix).

    The last entry of the KMP prefix function, so linear in the length.
    """
    word = tuple(word)
    if len(word) < 1:
        raise ValueError("word must be nonempty")
    return _failure_function(word)[-1]


def find_low_overlap_word(shift, l, budget=DEFAULT_WORD_BUDGET):
    """First admissible word of length l whose label word has border < l/4.

    Scans internal words in lexicographic order, depth first along the CSR
    rows, and stops at the first qualifying one, so large languages are
    cheap when a qualifying word appears early.  The prefix function of the
    label word grows by one entry per step, so each word costs only its
    last symbol.  Raises NoLowOverlapWordError after an exhaustive scan
    (the border bound needs positive entropy) and CapacityError if the scan
    passes the budget without success.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    bound = l / 4
    indptr, indices = shift.matrix.indptr.tolist(), shift.matrix.indices.tolist()
    labels = shift.labels
    word, lab, borders = [0] * l, [0] * l, [-1] + [0] * l
    # per depth, the next candidate and the end of the candidates: the
    # states themselves at depth 0, CSR positions below
    nxt, stop = [0] * l, [0] * l
    stop[0] = shift.num_states
    depth, scanned = 0, 0
    while depth >= 0:
        if nxt[depth] == stop[depth]:
            depth -= 1
            continue
        s = indices[nxt[depth]] if depth else nxt[depth]
        nxt[depth] += 1
        word[depth], lab[depth] = s, labels[s]
        depth += 1
        _extend_borders(borders, lab, depth)
        if depth < l:
            nxt[depth], stop[depth] = indptr[s], indptr[s + 1]
            continue
        depth -= 1
        scanned += 1
        if borders[l] < bound:
            return tuple(word)
        if scanned > budget:
            raise CapacityError(scanned, budget, what="scanned words")
    raise NoLowOverlapWordError(
        f"no admissible word of length {l} has self-overlap below {bound:g}"
    )


@dataclass(frozen=True)
class PermutationCode:
    """Uniform-length code built from the code words of a renewal ambient.

    Every code word is `glue[-head:] + γ + glue[:-head]` in labels, where
    `glue` spells glue_in + w + glue_out as ambient code words and γ runs
    through the ambient code words `fixed` in order, then through the
    multiset `free` in any order.  All code words share the ambient words
    they are made of, so the class is counted, never listed, and every
    quantity below that only looks at windows up to the ambient's
    `exact_depth` is the same for each of its words.
    """

    ambient: RenewalStructure
    glue: tuple
    head: int
    fixed: tuple
    free: tuple

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(sorted(self.free)))

    @property
    def word_length(self):
        """Length n of γ."""
        return (len(self.fixed) + len(self.free)) * self.ambient.k

    @property
    def uniform_length(self):
        return self.word_length + len(self.glue) * self.ambient.k

    @cached_property
    def size(self):
        """Exact number of code words: distinct orders of the free multiset."""
        total = math.factorial(len(self.free))
        for c in Counter(self.free).values():
            total //= math.factorial(c)
        return total

    @property
    def log_size(self):
        return math.lgamma(len(self.free) + 1) - sum(
            math.lgamma(c + 1) for c in Counter(self.free).values()
        )

    @property
    def entropy(self):
        """log|code| / k, the entropy of the renewal system it generates."""
        return self.log_size / self.uniform_length

    def spell(self, indices):
        words = self.ambient.code.words
        return tuple(s for a in indices for s in words[a])

    def gamma_word(self, order=None):
        """Labels of γ for a given order of the free multiset (default sorted)."""
        return self.spell(self.fixed + (self.free if order is None else tuple(order)))

    def words(self):
        """Every code word, enumerated (small classes only)."""
        glue = self.spell(self.glue)
        cut = len(glue) - self.head
        for order in _multiset_permutations(self.free):
            yield glue[cut:] + self.gamma_word(order) + glue[:cut]

    def _block(self):
        """Ambient code words of one code word, starting at the glue."""
        return self.glue + self.fixed + self.free

    def cylinder_table(self, depth, budget=None):
        """Cylinder table shared by every invariant measure of the renewal
        system, for depths the ambient's single code words decide."""
        table = {}
        profile = self.ambient.windows(depth)
        for a, count in Counter(self._block()).items():
            for _, w in profile[a]:
                table[w] = table.get(w, 0) + count
        k = self.uniform_length
        return {w: c / k for w, c in table.items()}

    def language(self, depth):
        """Label words of the given depth, lexicographically ordered."""
        profile = self.ambient.windows(depth)
        return sorted({w for a in set(self._block()) for _, w in profile[a]})

    def longest_avoiding(self, depth, budget=None):
        """(word, longest window avoiding it) per depth-`depth` word,
        lexicographically; None where windows of any length avoid the word.

        `budget` bounds the graph search of a presentation
        (`VertexShift.longest_avoiding`); the code-word windows here search
        no graph, so it is not read.
        """
        return self._longest_avoiding(depth)

    @_per_depth
    def _longest_avoiding(self, depth):
        """`longest_avoiding`, kept per depth.

        Cut a concatenation into ambient code-word slots: slot i of a code
        word (rotated to start at the glue) owns the occurrences starting
        in [i k1 - e, (i + 1) k1 - e), and which ones it owns depends only
        on the ambient word in it.  The glue and fixed slots come first
        and never move; the free slots follow in any order.  Consecutive
        occurrences are then one of: two in the fixed part, two inside one
        free word, the fixed part and the first free hit (hits packed last),
        the last free hit and the next fixed part (hits packed first), two
        free hits with every blank free word between them, or, without
        fixed occurrences, the last hit of one code word and the first of
        the next.  A window between occurrences p < p' has at most
        p' - p + depth - 2 symbols.
        """
        k1 = self.ambient.k
        fixed_slots = self.glue + self.fixed
        s0, n_free = len(fixed_slots), len(self.free)
        period = (s0 + n_free) * k1
        free_count = Counter(self.free)
        slots_of = {}
        for i, a in enumerate(fixed_slots):
            slots_of.setdefault(a, []).append(i)
        occ = self.ambient.occurrences(depth, set(fixed_slots) | set(free_count))
        out = {}
        for w, by_word in occ.items():
            fx = sorted(
                i * k1 + o
                for a, offs in by_word.items()
                for i in slots_of.get(a, ())
                for o in offs
            )
            gaps = [y - x for x, y in zip(fx, fx[1:])]
            hits = []
            for a, offs in by_word.items():
                if free_count.get(a):
                    hits.append((offs[0], offs[-1], free_count[a]))
                    gaps.extend(y - x for x, y in zip(offs, offs[1:]))
            n_hits = sum(h[2] for h in hits)
            if n_hits == 0:
                if not fx:
                    out[w] = None
                    continue
                gaps.append(period + fx[0] - fx[-1])
            else:
                first = (s0 + n_free - n_hits) * k1 + max(h[0] for h in hits)
                last = (s0 + n_hits - 1) * k1 + min(h[1] for h in hits)
                if fx:
                    gaps += [first - fx[-1], period + fx[0] - last]
                else:
                    gaps.append(period + first - last)
                if n_hits >= 2:
                    gaps.append((n_free - n_hits + 1) * k1 + _widest_pair(hits))
            out[w] = max(gaps) + depth - 2
        return tuple(sorted(out.items()))


def _widest_pair(hits):
    """max lo(b) - hi(a) over two distinct instances a, b of (lo, hi, count)."""
    by_lo = sorted(range(len(hits)), key=lambda i: -hits[i][0])[:2]
    by_hi = sorted(range(len(hits)), key=lambda i: hits[i][1])[:2]
    return max(
        hits[i][0] - hits[j][1]
        for i in by_lo
        for j in by_hi
        if i != j or hits[i][2] >= 2
    )


def _multiset_permutations(items):
    """Distinct orderings of a multiset, lexicographically."""
    items = sorted(items)
    while True:
        yield tuple(items)
        i = len(items) - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(items) - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1 :] = reversed(items[i + 1 :])
