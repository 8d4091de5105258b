"""Finite codes, unique decipherability, renewal presentations, borders.

A renewal system is the shift space of free bi-infinite concatenations of a
finite word set.  Uniform-length codes, uniquely decipherable as their
words are distinct, become a positional vertex-shift presentation whose
states are (word, offset) pairs labeled by the symbols they read.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    CapacityError,
    NoLowOverlapWordError,
    NonUniformLengthError,
    StructureDepthError,
)
from .words import (
    DEFAULT_WORD_BUDGET,
    VertexShift,
    _as_tuples,
    _block_path,
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


def _stable_order(keys):
    """The permutation `np.argsort(keys, kind="stable")` returns, from one
    `np.sort` of the packed keys `key << b | index`, b the bit width of the
    largest index: the index bits make every packed key distinct and break
    ties by position, so any sort gives the stable order.  Raises
    OverflowError when a key does not fit in the 63 - b bits left."""
    keys = np.asarray(keys, dtype=np.int64).ravel()
    if len(keys) == 0:
        return np.zeros(0, np.int64)
    b = (len(keys) - 1).bit_length()
    if int(keys.min()) < -(1 << 63 - b) or int(keys.max()) >= 1 << 63 - b:
        raise OverflowError(f"keys overflow an int64 key packed with {b} index bits")
    return np.sort(keys << b | np.arange(len(keys))) & ((1 << b) - 1)


class Code:
    """Nonempty set of distinct nonempty finite words, in lexicographic order.

    A code of one word length k keeps its t words as one sorted,
    deduplicated, read-only (t × k) int64 array, `rows`; an array of rows
    (or of label words with repeats) is sorted and deduplicated by one
    `np.lexsort`, and the words as a tuple of tuples, `words`, are made
    only when first read.  A code of several word lengths has `words`
    alone and `rows` None.  Two codes are equal when their words are.
    """

    def __init__(self, words):
        if not isinstance(words, np.ndarray):
            ws = {tuple(w) for w in words}
            if not ws:
                raise ValueError("code must be nonempty")
            if len({len(w) for w in ws}) > 1:
                if not all(ws):
                    raise ValueError("code words must be nonempty")
                self.rows, self.__dict__["words"] = None, tuple(sorted(ws))
                return
            words = np.array(list(ws), dtype=np.int64)
        rows = np.asarray(words, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError(f"code rows must form a 2-D array, not {rows.ndim}-D")
        if not len(rows):
            raise ValueError("code must be nonempty")
        if not rows.shape[1]:
            raise ValueError("code words must be nonempty")
        rows = rows[np.lexsort(rows.T[::-1])]
        distinct = np.ones(len(rows), bool)
        distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        self.rows = rows[distinct]
        self.rows.flags.writeable = False

    @classmethod
    def _of_rows(cls, rows):
        """The code of rows already sorted and distinct: a slice of a code's."""
        code = object.__new__(cls)
        code.rows = rows
        return code

    @cached_property
    def words(self):
        return _as_tuples(self.rows)

    @property
    def uniform_length(self):
        return None if self.rows is None else self.rows.shape[1]

    @property
    def alphabet_size(self):
        if self.rows is None:
            return max(max(w) for w in self.words) + 1
        return int(self.rows.max()) + 1

    @property
    def size(self):
        return len(self)

    def __len__(self):
        return len(self.words) if self.rows is None else len(self.rows)

    def __iter__(self):
        return iter(self.words)

    def __eq__(self, other):
        if not isinstance(other, Code):
            return NotImplemented
        if self.rows is None or other.rows is None:
            return self.words == other.words
        return np.array_equal(self.rows, other.rows)

    def __hash__(self):
        return hash((len(self), self.uniform_length))

    def __repr__(self):
        return f"Code(words={self.words!r})"


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


def renewal_to_sft(code, ambient_size=None):
    """Positional vertex shift of a uniform-length code.

    States are (word index a, offset p) in code-sorted order, with edges
    (a, p) -> (a, p+1) inside each word and (a, k-1) -> (b, 0) for every b.
    Each state is labeled by the symbol it reads, so label sequences are
    exactly the bi-infinite free concatenations.  Distinct words of one
    length are uniquely decipherable, so the length check is the whole
    gate.  The spectral radius is |code|^(1/k) (`RenewalStructure.entropy`).

    The code itself is the `renewal` link, which a stage reads as its
    space; the t(k - 1) + t^2 edges and the labels are built and checked
    when a graph query first reads them (`VertexShift.deferred`).
    """
    k = code.uniform_length
    if k is None:
        raise NonUniformLengthError(
            "renewal presentation requires a uniform-length code"
        )
    renewal = RenewalStructure(code=code, k=k)
    t = len(code)
    n = t * k

    def build():
        states = np.arange(n).reshape(t, k)
        inner = states[:, :-1].ravel()
        # every word end (a, k-1) -> every word start (b, 0)
        rows = np.concatenate([inner, np.repeat(states[:, -1], t)])
        cols = np.concatenate([inner + 1, np.tile(states[:, 0], t)])
        mat = sp.csr_matrix(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n)
        )
        return mat, code.rows.ravel()

    if ambient_size is None:
        ambient_size = code.alphabet_size
    shift = VertexShift.deferred(build, n, ambient_size)
    shift.renewal = renewal
    return shift


@dataclass(frozen=True)
class RenewalStructure:
    """The uniform-length code behind a positional renewal presentation.

    State a * k + p of the presentation reads symbol p of code word a, row
    a of the code's sorted (t × k) array `code.rows`; every table below is
    built from that array, and no code word is read as a tuple.  The
    structure is also the presentation's measure of maximal entropy
    (`entropy`, `cylinder_table`).  Up to `exact_depth` every window of a
    concatenation belongs to one code word, at one of its k attributed
    offsets, and one table per depth (`_table`) ranks each code word's
    windows among the distinct ones; languages, cylinder tables and the
    span table behind `longest_avoiding` are array reductions of it.
    """

    code: Code
    k: int

    @cached_property
    def _letters(self):
        """The code words with every symbol x as the big-endian letter x + 1,
        so rows compare as byte strings in lexicographic order; 0 pads."""
        words = self.code.rows + 1
        return words.astype(np.dtype(np.min_scalar_type(int(words.max()))).newbyteorder(">"))

    @_per_depth
    def _tails(self, s):
        """The code words' tails w[s:] as sorted byte strings, and the code
        word of each."""
        tails = np.ascontiguousarray(self._letters[:, s:])
        tails = tails.view(f"S{tails.shape[1] * tails.itemsize}").ravel()
        order = np.argsort(tails, kind="stable")
        return tails[order], order

    def _matched(self, s, pieces):
        """Per row of `pieces` (letters), its longest common prefix with a
        tail from offset s: with a neighbour of its sorted insertion point."""
        tails, letters = self._tails(s)[0], self._letters
        pieces = np.ascontiguousarray(pieces)
        at = np.searchsorted(tails, pieces.view(tails.dtype).ravel())
        near = np.stack([np.maximum(at - 1, 0), np.minimum(at, len(tails) - 1)])
        same = tails.view(letters.dtype).reshape(len(tails), -1)[near] == pieces
        return np.logical_and.accumulate(same, axis=-1).sum(-1).max(0)

    def admitted(self, words):
        """Per row of a (rows × d) label array, the length of its longest
        prefix that occurs in a concatenation of code words.

        From offset s of a code word a prefix reads a tail w[s:], whole
        code words, then the start of one.  Any code word may follow any
        other, so each piece is matched on its own (`_matched`), and only
        at the alignments a reading reaches: position 0, and the end
        k - s of each offset-s head that matched its whole tail.  A
        reading moves on by k only past a whole code word, so each round
        matches the next k symbols of the live readings at once, in at
        most d / k + 1 rounds.
        """
        words = np.asarray(words, dtype=np.int64)
        (rows, d), k, letters = words.shape, self.k, self._letters
        text = np.zeros((rows, d + k), letters.dtype)
        text[:, :d] = np.where((words >= 0) & (words < letters.max()), words + 1, 0)
        best = np.zeros(rows, np.int64)
        row, at = [np.arange(rows)], [np.zeros(rows, np.int64)]
        for s in range(1, k):
            head = self._matched(s, text[:, : k - s])
            best = np.maximum(best, head)
            row.append(np.flatnonzero(head == k - s))
            at.append(np.full(len(row[-1]), k - s))
        row, at = np.concatenate(row), np.concatenate(at)
        while len(row):
            lcp = self._matched(0, text.ravel()[(row * (d + k) + at)[:, None] + np.arange(k)])
            np.maximum.at(best, row, at + lcp)
            whole = lcp == k  # a whole code word: the reading goes on past it
            row, at = row[whole], at[whole] + k
        return best

    def path_labels(self, depth, budget=DEFAULT_WORD_BUDGET):
        """The label word of every internal path of `depth` states of the
        presentation (`renewal_to_sft`), one row each, unsorted and with
        repeats: the rows `label_rows` deduplicates.

        A path from offset p of a code word crosses (p + depth - 1) // k
        junctions, each to any of the t code words, so the paths that
        cross j of them are the windows at those offsets of the t^(j + 1)
        runs of j + 1 code words.  CapacityError past `budget` paths, as
        `language` refuses the presentation's words."""
        t, k = len(self.code), self.k
        cross = (np.arange(k) + depth - 1) // k
        total = t * sum(t ** j for j in cross.tolist())
        if total > budget:
            raise CapacityError(total, budget)
        rows = []
        for j in np.unique(cross).tolist():
            runs = self.code.rows[np.indices((t,) * (j + 1)).reshape(j + 1, -1).T]
            runs = runs.reshape(t ** (j + 1), -1)
            offsets = np.flatnonzero(cross == j)
            rows.append(runs[:, offsets[:, None] + np.arange(depth)].reshape(-1, depth))
        return np.concatenate(rows)

    @cached_property
    def shared_ends(self):
        """(P, S): lengths of the prefix and suffix every code word shares,
        the leading and trailing columns on which every letter row is the
        first."""
        same = (self._letters == self._letters[0]).all(axis=0)
        if same.all():
            return self.k, self.k
        return int(same.argmin()), int(same[::-1].argmin())

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

    @_per_depth
    def _table(self, depth):
        """(ids, windows): `ids[a, o]` ranks code word a's depth-`depth`
        window at attributed offset o among the distinct attributed
        windows, which `windows` lists in that (lexicographic) order.

        The context ranks (`_ranks`) already order the windows, so the
        attributed ones are re-ranked by presence (`bincount > 0`, then
        `cumsum`), with no sort; any occurrence of a window spells it.
        Each cumsum here runs on int64: numpy casts a boolean one element
        by element, at about three times the cost."""
        if not 1 <= depth <= self.exact_depth:
            raise StructureDepthError(
                f"depth {depth} outside 1..{self.exact_depth}, the depths "
                "single code words decide"
            )
        p, s = self.shared_ends
        col = s - max(0, depth - p - 1)  # attributed offset 0, as in `exact_depth`
        attributed = self._ranks(depth)[:, col : col + self.k]
        used = np.bincount(attributed.ravel()) > 0
        ids = (used.astype(np.int64).cumsum() - 1)[attributed]
        where = np.zeros(int(used.sum()), np.int64)
        where[ids.ravel()] = np.arange(ids.size)
        a, c = np.divmod(where, self.k)
        ctx = self._contexts  # one flat gather: a 2-D one costs twice as much
        windows = ctx.ravel()[(a * ctx.shape[1] + c + col)[:, None] + np.arange(depth)]
        return ids, windows

    @_per_depth
    def _ranks(self, depth):
        """`ranks[a, c]`: the lexicographic rank, among all windows of the
        contexts (shared suffix + code word a + shared prefix), of the one
        starting at column c.  Prefix doubling ranks the pair (rank of its
        first h symbols, rank of the rest), h the largest power of two
        below depth, so no window is read as one number.  When the pair
        keys take no more values than there are keys, the keys in use are
        counted (`bincount > 0`, then `cumsum`) and numbered in order;
        otherwise one packed sort of the pair keys (`_stable_order`),
        whose runs of equal keys are the dense ranks."""
        if depth == 1:
            return self._contexts.astype(np.int64)
        h = 1 << (depth - 1).bit_length() - 1
        head, rest = self._ranks(h)[:, : h - depth], self._ranks(depth - h)[:, h:]
        span = int(rest.max()) + 1
        space, n = (int(head.max()) + 1) * span, head.size
        # the pair key with the index bits `_stable_order` packs below it;
        # dense ranks: only past about 2e6 context windows
        if space > n and space << (n - 1).bit_length() > 2**63:
            raise OverflowError(f"depth-{depth} window pairs overflow an int64 key")
        keys = (head * span + rest).ravel()
        if space <= n:
            used = np.bincount(keys) > 0
            return (used.astype(np.int64).cumsum() - 1)[keys].reshape(head.shape)
        order = _stable_order(keys)
        new = np.diff(keys[order], prepend=-1) != 0
        ranks = np.empty(len(keys), np.int64)
        ranks[order] = new.astype(np.int64).cumsum() - 1
        return ranks.reshape(head.shape)

    @cached_property
    def _contexts(self):
        words, (p, s) = self.code.rows, self.shared_ends
        ctx = np.hstack([words[:, self.k - s :], words, words[:, :p]])
        return ctx.astype(np.min_scalar_type(int(ctx.max())))

    @_per_depth
    def _words(self, depth):
        return _as_tuples(self._table(depth)[1])

    def language(self, depth):
        """Label words of the given depth, lexicographically ordered."""
        return list(self._words(depth))

    @property
    def entropy(self):
        """log t / k, in nats: the entropy of the renewal system."""
        return math.log(len(self.code)) / self.k

    @_per_depth
    def cylinder_table(self, depth):
        """Cylinder table of the measure of maximal entropy, for depths
        single code words decide.

        That measure gives every state (a, p) the mass 1/(t k) and every
        junction a -> b the probability 1/t, so its table is the uniform
        mixture of the code words' windows.
        """
        ids = self._table(depth)[0].ravel()
        return _cylinder_dict(self._words(depth), ids, None, len(self.code) * self.k)

    @_per_depth
    def _spans(self, depth):
        """Per (window, code word) reading it, ordered by window id and then
        code word: the id, the code word, its first and last attributed
        offsets and the widest step between consecutive ones (0 for one).
        Offsets count from the first attributed one; only their
        differences are ever read.  One stable sort of the ids
        (`_stable_order`) lists each window's occurrences by code word and
        offset, as the table holds them row by row."""
        ids = self._table(depth)[0]
        order = _stable_order(ids)
        win, (word, off) = ids.ravel()[order], np.divmod(order, self.k)
        start = np.flatnonzero(np.diff(win, prepend=-1) | np.diff(word, prepend=-1))
        step = np.diff(off, prepend=0)
        step[start] = 0
        end = np.append(start[1:], len(off)) - 1
        return win[start], word[start], off[start], off[end], np.maximum.reduceat(step, start)

    @_per_depth
    def _spans_by_word(self, depth):
        """The span rows (`_spans`) grouped by code word: their order, and
        the t + 1 bounds of each code word's run in it."""
        word = self._spans(depth)[1]
        order = _stable_order(word)
        return order, np.searchsorted(word[order], np.arange(len(self.code) + 1))

    @_per_depth
    def longest_avoiding(self, depth):
        """(word, longest window avoiding it) per depth-`depth` word,
        lexicographically; None where windows of any length avoid the word.

        Cutting a concatenation at the offsets of `exact_depth` gives every
        occurrence to one code word.  A word that some code word's windows
        miss is avoided by that word's periodic orbit.  Otherwise
        consecutive occurrences lie inside one code word or span a junction
        a -> b, at most k + max_b first(b) - min_a last(a) apart (any code
        word may follow any other, itself included); a window between
        occurrences p < p' has at most p' - p + depth - 2 symbols.  All of
        it is read from the span table (`_spans`).
        """
        win, _, first, last, step = self._spans(depth)
        start = np.flatnonzero(np.diff(win, prepend=-1))
        owners = np.diff(np.append(start, len(win))).tolist()
        gap = self.k + np.maximum.reduceat(first, start) - np.minimum.reduceat(last, start)
        longest = (np.maximum(gap, np.maximum.reduceat(step, start)) + depth - 2).tolist()
        t = len(self.code)
        return tuple(
            (w, m if n == t else None)
            for w, m, n in zip(self._words(depth), longest, owners)
        )

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

    def sub_code(self, lo, hi):
        """Code words lo..hi-1, a slice of `code.rows`, read from these
        tables (`SubCode`)."""
        return SubCode(Code._of_rows(self.code.rows[lo:hi]), self.k, self, lo)


@dataclass(frozen=True)
class SubCode(RenewalStructure):
    """Code words lo, lo + 1, ... of `ambient`, a row range of its tables up
    to its `exact_depth`.  They share the ambient's ends, so its attributed
    offsets cut their concatenations too: their window ids are its rows,
    re-ranked and rolled by the offsets their own longer shared prefix
    gives the word before (windows of shared ends, alike for every word);
    their sorted tails are its tails, filtered."""

    ambient: RenewalStructure = None
    lo: int = 0

    @cached_property
    def _letters(self):
        return self.ambient._letters[self.lo : self.lo + len(self.code)]

    @property
    def exact_depth(self):
        return self.ambient.exact_depth

    @_per_depth
    def _tails(self, s):
        tails, words = self.ambient._tails(s)
        keep = (words >= self.lo) & (words < self.lo + len(self.code))
        return tails[keep], words[keep] - self.lo

    @_per_depth
    def _table(self, depth):
        ids, windows = self.ambient._table(depth)
        p, q = self.ambient.shared_ends[0], self.shared_ends[0]
        # the first `late` ambient offsets are, with these ends, the word before's
        late = min(q - p, max(0, depth - p - 1))
        rows = np.roll(ids[self.lo : self.lo + len(self.code)], -late, axis=1)
        used = np.bincount(rows.ravel(), minlength=len(windows)) > 0
        return (used.astype(np.int64).cumsum() - 1)[rows], windows[used]


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

    A block presentation scans its root instead, and `budget` counts root
    words.  Its words of length l stand for the root's words of length
    l + levels in the same lexicographic order, and the verdict reads only
    the first l labels; so its first qualifying word spells the root's
    first qualifying word extended by the least successor `levels` times,
    which an irreducible root always has (`words._block_path`).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if shift._lift is None:
        return _first_low_overlap_word(shift, l, budget)
    root, _, _, levels = shift._lift
    word = list(_first_low_overlap_word(root, l, budget))
    indptr, indices = root.matrix.indptr, root.matrix.indices
    for _ in range(levels):
        word.append(int(indices[indptr[word[-1]]]))
    return _block_path(shift, word)


def _first_low_overlap_word(shift, l, budget):
    """`find_low_overlap_word`'s scan of the graph of `shift` itself."""
    bound = l / 4
    indptr, indices = shift.matrix.indptr.tolist(), shift.matrix.indices.tolist()
    labels = shift.label_array.tolist()
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
        # one step of the KMP prefix function, inline: a call per scanned
        # symbol would cost a fifth of the scan
        k = borders[depth]
        while k >= 0 and lab[k] != lab[depth]:
            k = borders[k]
        depth += 1
        borders[depth] = k + 1
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


def log_orders(multiplicities):
    """Log of the number of distinct orders of a multiset with these
    multiplicities: (their sum)! over the product of their factorials."""
    return math.lgamma(sum(multiplicities) + 1) - sum(math.lgamma(c + 1) for c in multiplicities)


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
    def _counts(self):
        """How often each ambient code word, by index, is in the free multiset."""
        return np.bincount(np.asarray(self.free, np.int64), minlength=len(self.ambient.code))

    @cached_property
    def size(self):
        """Exact number of code words: distinct orders of the free multiset,
        |free|! over the factorials of its multiplicities, in one division."""
        repeats = (math.factorial(c) for c in self._counts.tolist() if c > 1)
        return math.factorial(len(self.free)) // math.prod(repeats)

    @cached_property
    def log_size(self):
        return log_orders(self._counts[self._counts > 0].tolist())

    @property
    def entropy(self):
        """log|code| / k, the entropy of the renewal system it generates."""
        return self.log_size / self.uniform_length

    def spell(self, indices):
        """Labels of the ambient code words at `indices`, one after another."""
        return tuple(self.ambient.code.rows[list(indices)].ravel().tolist())

    def gamma_word(self, order=None):
        """Labels of γ for a given order of the free multiset (default sorted)."""
        return self.spell(self.fixed + (self.free if order is None else tuple(order)))

    def words(self):
        """Every code word, enumerated (small classes only)."""
        glue = self.spell(self.glue)
        cut = len(glue) - self.head
        for order in _multiset_permutations(self.free):
            yield glue[cut:] + self.gamma_word(order) + glue[:cut]

    @cached_property
    def _rows(self):
        """The distinct ambient code words of one code word, in order of
        first appearance from the glue on, and how often each occurs, as
        two arrays."""
        rows = Counter(self.glue + self.fixed + self.free)
        return np.array(list(rows)), np.array(list(rows.values()))

    @_per_depth
    def cylinder_table(self, depth):
        """Cylinder table shared by every invariant measure of the renewal
        system, for depths the ambient's single code words decide."""
        rows, counts = self._rows
        ids = self.ambient._table(depth)[0][rows].ravel()
        weights = np.repeat(counts, self.ambient.k)
        return _cylinder_dict(self.ambient._words(depth), ids, weights, self.uniform_length)

    def window_ids(self, depth):
        """Ids of the depth-`depth` windows of the class in the ambient's
        table (`RenewalStructure._table`), ascending: lexicographically."""
        ids, windows = self.ambient._table(depth)
        return np.flatnonzero(np.bincount(ids[self._rows[0]].ravel(), minlength=len(windows)))

    def language(self, depth):
        """Label words of the given depth, lexicographically ordered."""
        words = self.ambient._words(depth)
        return [words[i] for i in self.window_ids(depth).tolist()]

    def longest_avoiding(self, depth):
        """(word, longest window avoiding it) per depth-`depth` word,
        lexicographically; every window of a class word recurs."""
        ids, longest = self._longest_avoiding(depth)
        words = self.ambient._words(depth)
        return tuple(zip([words[i] for i in ids.tolist()], longest.tolist()))

    @_per_depth
    def _longest_avoiding(self, depth):
        """The ids of the depth-`depth` windows (ascending) and the longest
        window avoiding each, kept per depth.

        Cut a concatenation into ambient code-word slots: slot i of a code
        word (rotated to start at the glue) owns the occurrences starting
        in [i k1 - e, (i + 1) k1 - e), and which ones it owns depends only
        on the ambient word in it, as its row of the ambient's span table
        (`RenewalStructure._spans`) records.  The glue and fixed slots
        come first and never move; the free slots follow in any order.
        Consecutive occurrences are then one of:
        - two in the fixed part, neighbours among the fixed slots' span
          rows ordered by window and then by slot;
        - two inside one free word;
        - the fixed part and the first free hit (hits packed last), or the
          last free hit and the next fixed part (hits packed first);
        - without fixed occurrences, the last hit of one code word and the
          first of the next (hits packed first);
        - two free hits with every blank free word between them: the
          widest pair of distinct hits, from the top two of each window.
        Every code word holds every ambient word of the block, so each of
        their windows recurs.  A window between occurrences p < p' has at
        most p' - p + depth - 2 symbols.  The ambient groups its span rows
        by code word once per depth (`_spans_by_word`); the fixed slots'
        rows are ordered by window, and the free hits by window and then by
        lo descending or hi ascending, each by one stable sort of one key
        (`_stable_order`): offsets lie in [0, k1), so window * k1 + offset
        orders both at once.
        """
        amb, k1 = self.ambient, self.ambient.k
        win, word, lo, hi, step = amb._spans(depth)
        n, slots = len(amb._table(depth)[1]), np.asarray(self.glue + self.fixed, np.int64)
        s0, n_free = len(slots), len(self.free)
        period = (s0 + n_free) * k1
        seen = np.zeros(n, bool)
        fx_lo, fx_hi, gap, hits, top, bottom = (np.zeros(n, np.int64) for _ in range(6))
        # the span rows of the fixed slots, slot after slot, then by window:
        # each window's occurrences in slot order, a stable sort keeping it
        by_word, bounds = amb._spans_by_word(depth)
        size = bounds[slots + 1] - bounds[slots]
        r = by_word[np.repeat(bounds[slots] + size - size.cumsum(), size) + np.arange(size.sum())]
        i = np.repeat(np.arange(s0), size)
        by_win = _stable_order(win[r])
        r, i = r[by_win], i[by_win]
        w, at_lo, at_hi = win[r], i * k1 + lo[r], i * k1 + hi[r]
        g, last = np.flatnonzero(np.diff(w, prepend=-1)), np.flatnonzero(np.diff(w, append=-1))
        across = at_lo - np.roll(at_hi, 1)
        across[g] = 0
        seen[w[g]] = True
        fx_lo[w[g]], fx_hi[w[g]] = at_lo[g], at_hi[last]
        gap[w[g]] = np.maximum.reduceat(np.maximum(step[r], across), g)
        count = self._counts
        f = np.flatnonzero(count[word])
        g = np.flatnonzero(np.diff(win[f], prepend=-1))
        fw, lo_f, hi_f = win[f[g]], lo[f], hi[f]
        hits[fw] = np.add.reduceat(count[word[f]], g)
        top[fw], bottom[fw] = np.maximum.reduceat(lo_f, g), np.minimum.reduceat(hi_f, g)
        # the widest pair of distinct free hits, from the top two lo and the
        # bottom two hi of each window, counted with multiplicity
        nxt = np.minimum(g + 1, len(f) - 1)
        by_lo = _stable_order(win[f] * k1 + (k1 - 1 - lo_f))
        by_hi = _stable_order(win[f] * k1 + hi_f)
        a1, b1 = word[f[by_lo[g]]], word[f[by_hi[g]]]
        lo1, hi1 = top[fw], bottom[fw]
        lo2 = np.where(count[a1] >= 2, lo1, lo_f[by_lo[nxt]])
        hi2 = np.where(count[b1] >= 2, hi1, hi_f[by_hi[nxt]])
        pair = np.where(a1 != b1, lo1 - hi1, np.maximum(lo1 - hi2, lo2 - hi1))
        pair = np.where(hits[fw] >= 2, (n_free - hits[fw] + 1) * k1 + pair, 0)
        gap[fw] = np.maximum.reduce([gap[fw], np.maximum.reduceat(step[f], g), pair])
        first, last = (s0 + n_free - hits) * k1 + top, (s0 + hits - 1) * k1 + bottom
        wrap = np.where(seen, np.maximum(first - fx_hi, period + fx_lo - last), period + first - last)
        wrap = np.where(hits == 0, period + fx_lo - fx_hi, wrap)
        present = np.flatnonzero(seen | (hits > 0))
        return present, np.maximum(gap, wrap)[present] + depth - 2


def _cylinder_dict(words, ids, weights, mass):
    """{words[i]: (summed weight of i in `ids`) / mass}, keyed in order of
    first occurrence in `ids` (each id weighing 1 without `weights`).

    `np.minimum.at` finds each id's first position with no sort; `ids`
    read at the marked positions, in position order, are the keys."""
    n = len(ids)
    first = np.full(len(words), n)
    np.minimum.at(first, ids, np.arange(n))
    at = np.zeros(n, bool)
    at[first[first < n]] = True
    keys = ids[at]
    values = (np.bincount(ids, weights=weights)[keys] / mass).tolist()
    return dict(zip([words[i] for i in keys.tolist()], values))


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
