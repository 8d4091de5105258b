"""Finite words, vertex shifts and graph machinery on their transition matrices.

A vertex shift is presented by a 0/1 transition matrix over internal states
0..n-1.  Every shift additionally carries a labeling of its states into a
fixed base alphabet; for plain shifts the labeling is the identity, while
recodings (higher-block presentations, renewal presentations) label each
state by the base symbol it reads.  Words are tuples of internal states;
label words are their projections to the base alphabet.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ReducibleShiftError, UnreachableStateError

Word = tuple  # tuple of int symbols

DEFAULT_WORD_BUDGET = 2**24


@dataclass(frozen=True)
class WordSet:
    """Immutable ordered collection of distinct words of equal standing.

    Order is whatever the producing operation documents (lexicographic for
    language enumeration).
    """

    words: tuple

    def __iter__(self):
        return iter(self.words)

    def __len__(self):
        return len(self.words)

    def __getitem__(self, i):
        return self.words[i]


class VertexShift:
    """Shift of finite type presented by a 0/1 transition matrix.

    Parameters
    ----------
    matrix : array-like or sparse, square, entries in {0, 1}
    labels : optional sequence mapping each state to a base-alphabet symbol;
        identity when omitted.
    ambient_size : size of the base alphabet the labels map into; inferred
        from the labels (or the state count) when omitted.
    state_words : optional per-state annotation used by higher-block
        recodings (the word of original states each block state stands for).
    """

    def __init__(self, matrix, labels=None, ambient_size=None, state_words=None):
        m = sp.csr_matrix(matrix, dtype=np.int8)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got {m.shape}")
        m.sum_duplicates()
        if m.nnz and (m.data.min() < 0 or m.data.max() > 1):
            raise ValueError("transition matrix entries must be 0 or 1")
        m.eliminate_zeros()
        m.sort_indices()
        self.matrix = m
        self.num_states = m.shape[0]
        if labels is None:
            self.labels = tuple(range(self.num_states))
        else:
            self.labels = tuple(int(x) for x in labels)
            if len(self.labels) != self.num_states:
                raise ValueError("labels length must equal state count")
        if ambient_size is None:
            ambient_size = (
                self.num_states if labels is None else max(self.labels) + 1
            )
        if self.labels and max(self.labels) >= ambient_size:
            raise ValueError("label out of ambient alphabet range")
        self.ambient_size = int(ambient_size)
        self.state_words = state_words
        # adjacency lists, see _adjacency_lists
        self._succ = self._pred = None

    def _adjacency_lists(self):
        """(successors, predecessors) of every state, each a tuple of ints
        in ascending order (enumeration order).

        Built on first use, so a presentation that no graph search walks
        never holds a tuple per edge.  The accessors below test for them
        inline: they sit in the inner loops of every graph search.
        """
        if self._succ is None:
            self._succ = _adjacency(self.matrix)
            self._pred = _adjacency(self.matrix.tocsc())
        return self._succ, self._pred

    def successors(self, state):
        succ = self._succ
        if succ is None:
            succ = self._adjacency_lists()[0]
        return succ[state]

    def predecessors(self, state):
        pred = self._pred
        if pred is None:
            pred = self._adjacency_lists()[1]
        return pred[state]

    def has_edge(self, i, j):
        return j in self.successors(i)

    def dense(self):
        return np.asarray(self.matrix.todense())

    def __eq__(self, other):
        if not isinstance(other, VertexShift):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.labels == other.labels
            and (self.matrix != other.matrix).nnz == 0
        )

    def __hash__(self):
        return hash((self.num_states, self.labels, self.matrix.indices.tobytes()))

    def __repr__(self):
        return (
            f"VertexShift(states={self.num_states}, "
            f"edges={self.matrix.nnz}, ambient={self.ambient_size})"
        )


def _adjacency(m):
    """Per row (CSR) or column (CSC), its sorted indices as a tuple of ints."""
    indptr, indices = m.indptr.tolist(), m.indices.tolist()
    return tuple(tuple(indices[lo:hi]) for lo, hi in zip(indptr, indptr[1:]))


def full_shift(n):
    """Full shift on n symbols: every transition allowed."""
    return VertexShift(np.ones((n, n), dtype=np.int8))


def golden_mean_shift():
    """Two symbols, the word 11 forbidden."""
    return VertexShift([[1, 1], [1, 0]])


def from_forbidden_words(alphabet_size, forbidden, block=None):
    """Vertex shift of the SFT over 0..alphabet_size-1 avoiding the given words.

    Words of length > 2 are handled by recoding on blocks of length
    ``block`` (default: the longest forbidden word).  States of the result
    are the allowed blocks, labeled by their first symbol.
    """
    forbidden = [tuple(w) for w in forbidden]
    for w in forbidden:
        if len(w) < 1:
            raise ValueError("forbidden words must be nonempty")
        if any(s < 0 or s >= alphabet_size for s in w):
            raise ValueError(f"forbidden word {w} outside alphabet")
    if any(len(w) == 1 for w in forbidden):
        raise ValueError("length-1 forbidden words would delete symbols; shrink the alphabet instead")
    m = max((len(w) for w in forbidden), default=2)
    if block is not None:
        if block < m:
            raise ValueError(f"block depth {block} below longest forbidden word {m}")
        m = block
    if m == 2:
        a = np.ones((alphabet_size, alphabet_size), dtype=np.int8)
        for w in forbidden:
            a[w[0], w[1]] = 0
        return VertexShift(a)

    # clean words grown one symbol at a time, only the new suffixes tested:
    # lexicographic at every length
    banned = set(forbidden)
    lengths = sorted({len(f) for f in banned})
    blocks = [()]
    for _ in range(m):
        blocks = [
            v
            for u in blocks
            for v in (u + (s,) for s in range(alphabet_size))
            if not any(v[-n:] in banned for n in lengths if n <= len(v))
        ]
    index = {w: i for i, w in enumerate(blocks)}
    # with m at least the longest forbidden word, u + (s,) is clean when
    # both of its m-blocks are
    rows, cols = [], []
    for i, u in enumerate(blocks):
        for s in range(alphabet_size):
            j = index.get(u[1:] + (s,))
            if j is not None:
                rows.append(i)
                cols.append(j)
    mat = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(len(blocks), len(blocks)),
    )
    return VertexShift(
        mat,
        labels=[w[0] for w in blocks],
        ambient_size=alphabet_size,
        state_words=tuple(blocks),
    )


def word_count(shift, n):
    """Exact number of admissible internal words of length n (big integers)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vec = [1] * shift.num_states
    for _ in range(n - 1):
        vec = [sum(vec[j] for j in shift.successors(i)) for i in range(shift.num_states)]
    return sum(vec)


def language(shift, n, budget=DEFAULT_WORD_BUDGET):
    """All admissible internal words of length n, lexicographically ordered."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = word_count(shift, n)
    if total > budget:
        raise CapacityError(total, budget)
    out = []
    word = []

    def rec(state, depth):
        word.append(state)
        if depth == n:
            out.append(tuple(word))
        else:
            for j in shift.successors(state):
                rec(j, depth + 1)
        word.pop()

    for s in range(shift.num_states):
        rec(s, 1)
    return WordSet(tuple(out))


def is_admissible(shift, word):
    """True iff every adjacent pair of the internal word is an allowed edge."""
    if any(s < 0 or s >= shift.num_states for s in word):
        raise ValueError("symbol outside the shift's state set")
    return all(shift.has_edge(word[i], word[i + 1]) for i in range(len(word) - 1))


def bfs_distances(shift, sources, reverse=False):
    """Edges from the nearest source to each state, None where unreachable.

    Follows edges backwards with `reverse`, giving the distance from each
    state to the nearest source.
    """
    succ, pred = shift._adjacency_lists()
    nbrs = pred if reverse else succ
    dist = [None] * shift.num_states
    frontier = []
    for s in sources:
        if dist[s] is None:
            dist[s] = 0
            frontier.append(s)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if dist[v] is None:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def is_irreducible(shift):
    """True iff the transition graph is strongly connected.

    Every state must reach every state by a path of at least one edge, so a
    single state needs a self loop.  A renewal presentation is irreducible:
    each state lies on its code word's cycle, which passes every word
    start.  Cached on the shift object.
    """
    if getattr(shift, "renewal", None) is not None:
        return True
    cached = getattr(shift, "_irreducible_cache", None)
    if cached is None:
        cached = shift._irreducible_cache = _strongly_connected(shift)
    return cached


def _strongly_connected(shift):
    n = shift.num_states
    if any(len(shift.successors(i)) == 0 for i in range(n)):
        return False
    if None in bfs_distances(shift, (0,)):
        return False
    if None in bfs_distances(shift, (0,), reverse=True):
        return False
    if n == 1:
        return shift.has_edge(0, 0)
    return True


def connecting_word(shift, frm, to):
    """Shortest admissible word from state `frm` to state `to`.

    The word contains at least one edge (a length-2 word for a direct
    transition); among shortest words the lexicographically smallest is
    returned.  Raises UnreachableStateError when no path exists.
    """
    n = shift.num_states
    if not (0 <= frm < n and 0 <= to < n):
        raise ValueError("state out of range")
    dist = bfs_distances(shift, (to,), reverse=True)
    # at least one edge: start from successors of frm
    best = None
    for s in shift.successors(frm):
        if dist[s] is not None:
            d = dist[s] + 1
            if best is None or d < best:
                best = d
    if best is None:
        raise UnreachableStateError(
            f"no admissible path from state {frm} to state {to}"
        )
    word = [frm]
    cur, remaining = frm, best
    while remaining:
        for s in shift.successors(cur):  # ascending: lexicographic choice
            if dist[s] == remaining - 1:
                word.append(s)
                cur = s
                break
        remaining -= 1
    return tuple(word)


def higher_block(shift, m, budget=DEFAULT_WORD_BUDGET):
    """Recode on overlapping blocks of m internal states.

    States of the result are the admissible m-words in lexicographic order,
    with an edge u -> v iff the two blocks overlap in m-1 states and the
    combined (m+1)-word is admissible.  Labels compose: a block is labeled
    by the label of its first state, so label languages are preserved.
    Internal word counts shift by m-1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return VertexShift(
            shift.matrix.copy(),
            labels=shift.labels,
            ambient_size=shift.ambient_size,
            state_words=tuple((s,) for s in range(shift.num_states)),
        )
    blocks = language(shift, m, budget=budget).words
    index = {w: i for i, w in enumerate(blocks)}
    rows, cols = [], []
    for i, u in enumerate(blocks):
        for s in shift.successors(u[-1]):
            j = index.get(u[1:] + (s,))
            if j is not None:
                rows.append(i)
                cols.append(j)
    mat = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(len(blocks), len(blocks)),
    )
    return VertexShift(
        mat,
        labels=[shift.labels[w[0]] for w in blocks],
        ambient_size=shift.ambient_size,
        state_words=blocks,
    )


def induced_subshift(shift, states):
    """Restriction of the shift to a subset of its states.

    The caller is responsible for the subset being strongly connected when
    irreducibility is needed.  State annotations and labels are restricted.
    """
    states = tuple(sorted(set(states)))
    sub = shift.matrix[np.ix_(states, states)]
    return VertexShift(
        sub,
        labels=[shift.labels[s] for s in states],
        ambient_size=shift.ambient_size,
        state_words=(
            tuple(shift.state_words[s] for s in states)
            if shift.state_words is not None
            else tuple((s,) for s in states)
        ),
    )


def label_word(shift, word):
    """Project an internal word to its base-alphabet label word."""
    return tuple(shift.labels[s] for s in word)


def _label_masks(shift):
    masks = []
    lab = np.asarray(shift.labels)
    for a in range(shift.ambient_size):
        masks.append(lab == a)
    return masks


def is_label_admissible(shift, word):
    """True iff some internal path realizes the given label word.

    Positional renewal presentations (carrying a `renewal` structure)
    answer from their code words instead of propagating state sets.
    """
    renewal = getattr(shift, "renewal", None)
    if renewal is not None:
        return renewal.admits(word)
    masks = _label_masks(shift)
    cur = None
    for a in word:
        if a < 0 or a >= shift.ambient_size:
            return False
        if cur is None:
            cur = masks[a].copy()
        else:
            cur = (shift.matrix.T @ cur).astype(bool) & masks[a]
        if not cur.any():
            return False
    return True


def label_language(shift, n, budget=DEFAULT_WORD_BUDGET):
    """Distinct label words of internal n-paths, lexicographically ordered.

    Enumerated by forward propagation of consistent state sets, so the cost
    is bounded by the number of distinct label words, not internal paths.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    masks = _label_masks(shift)
    out = []
    matT = shift.matrix.T.tocsr()

    def rec(prefix, cur):
        if len(prefix) == n:
            out.append(prefix)
            if len(out) > budget:
                raise CapacityError(len(out), budget, what="label words")
            return
        nxt = (matT @ cur).astype(bool)
        for a in range(shift.ambient_size):
            step = nxt & masks[a]
            if step.any():
                rec(prefix + (a,), step)

    for a in range(shift.ambient_size):
        if masks[a].any():
            rec((a,), masks[a].copy())
    return WordSet(tuple(out))


def languages_disjoint(a, b, depth, budget=DEFAULT_WORD_BUDGET):
    """True iff the depth-`depth` label languages of the two shifts are disjoint.

    Enumerates the language of the shift with fewer edges (words of length
    2) and membership-tests against the other; the verdict is symmetric, so
    the choice only affects the cost.
    """
    small, big = (a, b) if a.matrix.nnz <= b.matrix.nnz else (b, a)
    for w in label_language(small, depth, budget=budget):
        if is_label_admissible(big, w):
            return False
    return True


def graph_period(shift):
    """gcd of cycle lengths of the (strongly connected) transition graph.

    A renewal presentation's cycles are runs of whole code words, one word
    alone among them, so its period is the code-word length.  Cached on the
    shift object.
    """
    if not is_irreducible(shift):
        raise ReducibleShiftError("period is defined for irreducible shifts")
    renewal = getattr(shift, "renewal", None)
    if renewal is not None:
        return renewal.k
    cached = getattr(shift, "_period_cache", None)
    if cached is None:
        cached = shift._period_cache = _cycle_gcd(shift)
    return cached


def _cycle_gcd(shift):
    """gcd of level[u] + 1 - level[v] over the edges u -> v, BFS levels."""
    level = bfs_distances(shift, (0,))
    g = 0
    for u, succ in enumerate(shift._adjacency_lists()[0]):
        lu = level[u] + 1
        for v in succ:
            g = math.gcd(g, lu - level[v])
    return g if g > 0 else 1


def _failure_function(pattern):
    fail = [0] * (len(pattern) + 1)
    fail[0] = -1
    k = -1
    for i in range(1, len(pattern) + 1):
        while k >= 0 and pattern[k] != pattern[i - 1]:
            k = fail[k]
        k += 1
        fail[i] = k
    return fail


def longest_window_avoiding(shift, pattern):
    """Length of the longest label window containing no occurrence of `pattern`.

    Returns None when windows of unbounded length avoid the pattern (the
    avoiding product graph contains a cycle).  Computed on the product of
    the transition graph with the pattern's string-matching automaton.
    """
    pattern = tuple(pattern)
    if not pattern:
        raise ValueError("pattern must be nonempty")
    m = len(pattern)
    fail = _failure_function(pattern)

    def advance(k, a):
        while k >= 0 and pattern[k] != a:
            k = fail[k]
        return k + 1

    # product nodes (state, matched prefix length k < m); matched == m is fatal
    n = shift.num_states
    nodes = {}

    def node_id(s, k):
        key = s * m + k
        if key not in nodes:
            nodes[key] = len(nodes)
        return nodes[key]

    edges = []
    starts = []
    for s in range(n):
        k0 = advance(0, shift.labels[s])
        if k0 < m:
            starts.append(node_id(s, k0))
    if not starts:
        return 0
    frontier = list(nodes.keys())
    seen = set(frontier)
    while frontier:
        nxt = []
        for key in frontier:
            s, k = divmod(key, m)
            u = nodes[key]
            for t in shift.successors(s):
                k2 = advance(k, shift.labels[t])
                if k2 < m:
                    key2 = t * m + k2
                    if key2 not in seen:
                        seen.add(key2)
                        nodes.setdefault(key2, len(nodes))
                        nxt.append(key2)
                    edges.append((u, nodes[key2]))
        frontier = nxt
    size = len(nodes)
    if not edges:
        return 1
    rows = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    cols = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    adj = sp.csr_matrix(
        (np.ones(len(edges), dtype=np.int8), (rows, cols)), shape=(size, size)
    )
    ncomp, comp = sp.csgraph.connected_components(adj, directed=True, connection="strong")
    counts = np.bincount(comp, minlength=ncomp)
    # a strong component with >1 node, or a self loop, allows arbitrarily long windows
    if (counts > 1).any() or adj.diagonal().any():
        return None
    # DAG longest path counted in nodes (window length), Kahn order
    indptr, indices = adj.indptr, adj.indices
    indeg = np.zeros(size, dtype=np.int64)
    np.add.at(indeg, indices, 1)
    longest = np.ones(size, dtype=np.int64)
    queue = deque(np.flatnonzero(indeg == 0).tolist())
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u] : indptr[u + 1]]:
            if longest[u] + 1 > longest[v]:
                longest[v] = longest[u] + 1
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return int(longest.max())
