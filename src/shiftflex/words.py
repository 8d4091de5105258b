"""Finite words, vertex shifts and graph machinery on their transition matrices.

A vertex shift is presented by a 0/1 transition matrix over internal states
0..n-1.  Every shift additionally carries a labeling of its states into a
fixed base alphabet; for plain shifts the labeling is the identity, while
recodings (higher-block presentations, renewal presentations) label each
state by the base symbol it reads.  A word is a tuple of internal states
and a set of words one (words × length) state array; label words are
their projections to the base alphabet.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ReducibleShiftError, UnreachableStateError

DEFAULT_WORD_BUDGET = 2**24


def _as_tuples(states):
    """Rows of a 2-D integer array as a tuple of tuples of ints (zipped
    from its columns, which makes no list per row)."""
    return tuple(zip(*states.T.tolist()))


class VertexShift:
    """Shift of finite type presented by a 0/1 transition matrix.

    The CSR arrays of `matrix` (`indptr`, `indices`, columns ascending in
    every row) are the one representation every graph search of the
    generic layer walks: the extension kernel `_grow`, the frontier BFS
    `_bfs_levels`, `longest_window_avoiding` and `find_low_overlap_word`.

    Parameters
    ----------
    matrix : array-like or sparse, square, entries in {0, 1}
    labels : optional sequence mapping each state to a base-alphabet symbol;
        identity when omitted.
    ambient_size : size of the base alphabet the labels map into; inferred
        from the labels (or the state count) when omitted.
    state_words : optional per-state annotation used by higher-block
        recodings (the word of original states each block state stands
        for), given as a (states × length) integer array or as equal-length
        tuples; kept as the array (None when unset).
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
            self.labels = tuple(np.asarray(labels, dtype=np.int64).tolist())
            if len(self.labels) != self.num_states:
                raise ValueError("labels length must equal state count")
        top = max(self.labels, default=-1)
        if ambient_size is None:
            ambient_size = self.num_states if labels is None else top + 1
        if top >= ambient_size:
            raise ValueError("label out of ambient alphabet range")
        self.ambient_size = int(ambient_size)
        self.state_words = None if state_words is None else np.asarray(state_words)
        self._predecessors = None  # see _predecessor_arrays
        # adjacency lists, see _adjacency_lists
        self._succ = self._pred = None
        # the code of a renewal presentation (`codes.renewal_to_sft`), whose
        # words answer the queries below up to its `exact_depth`
        self.renewal = None
        # kept by the first call of `perron`, `is_irreducible`,
        # `_levels_from_zero` and `graph_period`
        self._perron_cache = self._irreducible_cache = None
        self._levels_cache = self._period_cache = None

    def _predecessor_arrays(self):
        """(indptr, indices) of the transposed matrix in CSR form: row j
        lists the predecessors of state j, ascending.  Built on first use
        and kept."""
        if self._predecessors is None:
            m, n = self.matrix, self.num_states
            rows = np.repeat(np.arange(n), np.diff(m.indptr))
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(m.indices, minlength=n), out=indptr[1:])
            self._predecessors = (indptr, rows[np.argsort(m.indices, kind="stable")])
        return self._predecessors

    def _adjacency_lists(self):
        """(successors, predecessors) of every state, each a tuple of ints
        in ascending order (enumeration order).

        Built on first use, for the callers that still step through single
        states: `has_edge`, `connecting_word`,
        `spectral.periodic_orbit_measure`, and the bit masks of
        `construction._neighbour_masks`.
        The searches of the generic layer walk the CSR arrays instead, so a
        presentation that only they search never holds a tuple per edge.
        """
        if self._succ is None:
            self._succ = _adjacency(self.matrix.indptr, self.matrix.indices)
            self._pred = _adjacency(*self._predecessor_arrays())
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

    def language(self, depth):
        """Label words of the given depth, lexicographically ordered.

        Up to `renewal.exact_depth` they come from the code words, elsewhere
        from `label_language` (the module function `language` lists
        internal words instead).
        """
        if self.renewal is not None and depth <= self.renewal.exact_depth:
            return self.renewal.language(depth)
        return label_language(self, depth)

    def longest_avoiding(self, depth, budget=DEFAULT_WORD_BUDGET):
        """(word, longest label window avoiding it) per label word of the
        given depth, lexicographically; None where windows of any length
        avoid the word.

        Up to `renewal.exact_depth` the code words answer.  Elsewhere
        `longest_window_avoiding` answers each word of `label_language`
        lazily, after CapacityError past `budget` words.
        """
        if self.renewal is not None and depth <= self.renewal.exact_depth:
            return self.renewal.longest_avoiding(depth)
        words = label_language(self, depth, budget=budget)
        return ((v, longest_window_avoiding(self, v)) for v in words)

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


def _adjacency(indptr, indices):
    """Per CSR row, its sorted indices as a tuple of ints."""
    indptr, indices = indptr.tolist(), indices.tolist()
    return tuple(tuple(indices[lo:hi]) for lo, hi in zip(indptr, indptr[1:]))


def _out_edges(indptr, rows):
    """(position in `rows`, edge id) of every out-edge of the states `rows`,
    row after row, each row in CSR order."""
    deg, edge = _edge_ids(indptr, rows)
    return np.repeat(np.arange(len(rows)), deg), edge


def _edge_ids(indptr, rows):
    """(out-degree of each of the states `rows`, ids of their out-edges row
    after row, each row in CSR order)."""
    lo = indptr[rows]
    deg = indptr[rows + 1] - lo
    ends = np.cumsum(deg)
    return deg, np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - ends + deg, deg)


def _grow(matrix, n, keep=None):
    """Words of length n of the graph of a CSR matrix, lexicographically
    ordered: the extension kernel of the generic layer.

    Grows every word by the out-edges of its last state, one state at a
    time; a CSR row lists its columns ascending, so every length comes out
    in lexicographic order.  Returns the (words × n) state array and, for
    n > 1, the index among the words of length n - 1 of each word's prefix
    (its first n - 1 states) and of its suffix (its last n - 1 states).
    `keep(parent, state, length)` may drop extensions (a boolean mask over
    them); the words it keeps at each length must include the suffixes of
    the next length's words, as the words avoiding a forbidden list do.
    """
    indptr, indices = matrix.indptr.astype(np.int64), matrix.indices.astype(np.int64)
    size = matrix.shape[0]
    states, parents = [np.arange(size)], []
    parent = suffix = keys = None
    for length in range(2, n + 1):
        parent, edge = _out_edges(indptr, states[-1])
        state = indices[edge]
        if keep is not None:
            kept = keep(parent, state, length)
            parent, state = parent[kept], state[kept]
        # the suffix of a word extends its parent's suffix by the same state;
        # (parent, state) pairs ascend along every length's list
        if length == 2:
            suffix = state
        else:
            suffix = np.searchsorted(keys, suffix[parent] * size + state)
        keys = parent * size + state
        states.append(state)
        parents.append(parent)
    words = np.empty((len(states[-1]), n), dtype=np.int64)
    at = np.arange(len(states[-1]))
    for j in range(n - 1, 0, -1):
        words[:, j] = states[j][at]
        at = parents[j - 1][at]
    words[:, 0] = at
    return words, parent, suffix


def _recoded(words, parent, suffix, labels, ambient_size):
    """Vertex shift on overlapping blocks from `_grow`'s output at length m.

    Block u is followed by the blocks that extend its suffix u[1:], which
    sit side by side in the lexicographic list: the CSR rows are written
    directly.  Each block is labeled by the label of its first state.
    """
    lo = np.searchsorted(parent, suffix, side="left")
    deg = np.searchsorted(parent, suffix, side="right") - lo
    indptr = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], deg)
    mat = sp.csr_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr),
        shape=(len(words), len(words)),
    )
    return VertexShift(
        mat,
        labels=np.asarray(labels)[words[:, 0]].tolist(),
        ambient_size=ambient_size,
        state_words=words,
    )


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

    # clean words grown one symbol at a time over the full shift, only the
    # new suffixes tested; with m at least the longest forbidden word,
    # u + (s,) is clean when both of its m-blocks are
    full = sp.csr_matrix(np.ones((alphabet_size, alphabet_size), dtype=np.int8))
    words, parent, suffix = _grow(full, m, keep=_avoids(alphabet_size, forbidden))
    return _recoded(words, parent, suffix, range(alphabet_size), alphabet_size)


def _avoids(alphabet_size, forbidden):
    """`_grow` filter keeping the words that no forbidden word ends.

    Tracks the base-a code of each word's last L symbols, L the longest
    forbidden length, never of whole words; Python integers past int64.
    """
    a = alphabet_size
    longest = max((len(f) for f in forbidden), default=1)
    dtype = np.int64 if a**longest <= 2**62 else object
    banned = {}  # length -> codes of the forbidden words of that length
    for f in forbidden:
        banned.setdefault(len(f), set()).add(sum(s * a ** (len(f) - 1 - i) for i, s in enumerate(f)))
    banned = {n: np.array(sorted(c), dtype=dtype) for n, c in sorted(banned.items())}
    codes = np.arange(a).astype(dtype)  # codes of the words of length 1

    def keep(parent, state, length):
        nonlocal codes
        code = codes[parent] % a ** (longest - 1) * a + state
        clean = np.ones(len(code), dtype=bool)
        for n, table in banned.items():
            if n <= length:
                clean &= ~np.isin(code % a**n, table)
        codes = code[clean]
        return clean

    return keep


def word_count(shift, n):
    """Exact number of admissible internal words of length n (big integers).

    Counted with sparse products in int64 while no count can overflow, then
    in Python integers along the CSR rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = shift.matrix
    widest = max(1, int(np.diff(m.indptr).max(initial=0)))
    vec = np.ones(shift.num_states, dtype=np.int64)
    steps = n - 1
    while steps and vec.max(initial=0) <= 2**62 // widest:
        vec = m @ vec
        steps -= 1
    vec = vec.tolist()
    if steps:
        indptr, indices = m.indptr.tolist(), m.indices.tolist()
        for _ in range(steps):
            vec = [sum(vec[j] for j in indices[lo:hi]) for lo, hi in zip(indptr, indptr[1:])]
    return sum(vec)


def language(shift, n, budget=DEFAULT_WORD_BUDGET):
    """All admissible internal words of length n, lexicographically ordered,
    as the (words × n) state array of the extension kernel `_grow`: one row
    per word.  CapacityError past `budget` words (`word_count` refuses
    n < 1).
    """
    return _grow_within(shift, n, budget)[0]


def _grow_within(shift, n, budget):
    """`_grow` on the shift, after CapacityError past `budget` words."""
    total = word_count(shift, n)
    if total > budget:
        raise CapacityError(total, budget)
    return _grow(shift.matrix, n)


def is_admissible(shift, words):
    """True iff every adjacent pair of the internal word is an allowed edge;
    for a 2-D array of words, that verdict per row.  All pairs (u, v) are
    looked up at once among the edges u * n + v of the CSR arrays, sorted
    and closed by the sentinel n * n.  ValueError for a state outside 0..n-1.
    """
    words = np.asarray(words, dtype=np.int64)
    n, m = shift.num_states, shift.matrix
    if ((words < 0) | (words >= n)).any():
        raise ValueError("symbol outside the shift's state set")
    edges = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(m.indptr)) + m.indices
    edges = np.append(edges, n * n)
    pairs = words[..., :-1] * n + words[..., 1:]
    ok = (edges[np.searchsorted(edges, pairs)] == pairs).all(axis=-1)
    return bool(ok) if words.ndim == 1 else ok


def bfs_distances(shift, sources, reverse=False):
    """Edges from the nearest source to each state, None where unreachable.

    Follows edges backwards with `reverse`, giving the distance from each
    state to the nearest source.
    """
    m = shift.matrix
    indptr, indices = shift._predecessor_arrays() if reverse else (m.indptr, m.indices)
    levels = _bfs_levels(indptr, indices, list(sources))
    return [None if d < 0 else d for d in levels.tolist()]


def _bfs_levels(indptr, indices, sources):
    """Frontier BFS on CSR arrays: per state, the fewest edges from the
    nearest source, -1 where unreachable.  Each level costs the out-edges
    of its frontier, which is deduplicated without sorting."""
    # one integer type throughout: on small graphs, mixed int32/int64
    # steps cost more than the copies
    indptr, indices = indptr.astype(np.int64), indices.astype(np.int64)
    levels = np.full(len(indptr) - 1, -1, dtype=np.int64)
    slot = np.empty(len(levels), dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    levels[frontier] = 0
    d = 0
    while frontier.size:
        d += 1
        reached = indices[_edge_ids(indptr, frontier)[1]]
        reached = reached[levels[reached] < 0]
        # keep one copy of each state: the one whose slot write stuck
        order = np.arange(len(reached))
        slot[reached] = order
        frontier = reached[slot[reached] == order]
        levels[frontier] = d
    return levels


def is_irreducible(shift):
    """True iff the transition graph is strongly connected.

    Every state must reach every state by a path of at least one edge, so a
    single state needs a self loop.  A renewal presentation is irreducible:
    each state lies on its code word's cycle, which passes every word
    start.  Cached on the shift object.
    """
    if shift.renewal is not None:
        return True
    cached = shift._irreducible_cache
    if cached is None:
        cached = shift._irreducible_cache = _strongly_connected(shift)
    return cached


def _strongly_connected(shift):
    """No dead end, and state 0 reaches and is reached by every state.

    Without dead ends a single state has an edge, its own loop.
    """
    if (np.diff(shift.matrix.indptr) == 0).any():
        return False
    if (_levels_from_zero(shift) < 0).any():
        return False
    return bool((_bfs_levels(*shift._predecessor_arrays(), [0]) >= 0).all())


def _levels_from_zero(shift):
    """BFS levels from state 0, kept on the shift: the irreducibility test
    and the period both read them."""
    levels = shift._levels_cache
    if levels is None:
        m = shift.matrix
        levels = shift._levels_cache = _bfs_levels(m.indptr, m.indices, [0])
    return levels


def connecting_word(shift, frm, to):
    """Shortest admissible word from state `frm` to state `to`.

    The word contains at least one edge (a length-2 word for a direct
    transition); among shortest words the lexicographically smallest is
    returned.  On a renewal presentation it is the unique shortest path
    `renewal.path`.  Raises UnreachableStateError when no path exists.
    """
    n = shift.num_states
    if not (0 <= frm < n and 0 <= to < n):
        raise ValueError("state out of range")
    if shift.renewal is not None:
        return shift.renewal.path(frm, to)
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
            state_words=np.arange(shift.num_states)[:, None],
        )
    words, parent, suffix = _grow_within(shift, m, budget)
    return _recoded(words, parent, suffix, shift.labels, shift.ambient_size)


def induced_subshift(shift, states):
    """Restriction of the shift to a subset of its states.

    The caller is responsible for the subset being strongly connected when
    irreducibility is needed.  State annotations and labels are restricted.
    """
    states = tuple(sorted(set(states)))
    sub = shift.matrix[np.ix_(states, states)]
    words = shift.state_words
    return VertexShift(
        sub,
        labels=[shift.labels[s] for s in states],
        ambient_size=shift.ambient_size,
        state_words=(
            np.array(states, dtype=np.int64)[:, None]
            if words is None
            else words[list(states)]
        ),
    )


def label_word(shift, word):
    """Project an internal word to its base-alphabet label word."""
    return tuple(shift.labels[s] for s in word)


def _label_masks(shift):
    lab = np.asarray(shift.labels)
    return [lab == a for a in range(shift.ambient_size)]


def is_label_admissible(shift, word):
    """True iff some internal path realizes the given label word.

    Positional renewal presentations (carrying a `renewal` structure)
    answer from their code words instead of propagating state sets.
    """
    if shift.renewal is not None:
        return shift.renewal.admits(word)
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
    """Distinct label words of internal n-paths, lexicographically ordered,
    as a tuple of tuples.

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
    return tuple(out)


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
    if shift.renewal is not None:
        return shift.renewal.k
    cached = shift._period_cache
    if cached is None:
        cached = shift._period_cache = _cycle_gcd(shift)
    return cached


def _cycle_gcd(shift):
    """gcd of level[u] + 1 - level[v] over the edges u -> v, BFS levels."""
    m = shift.matrix
    level = _levels_from_zero(shift)
    g = int(np.gcd.reduce(np.repeat(level + 1, np.diff(m.indptr)) - level[m.indices]))
    return g if g > 0 else 1


def _extend_borders(borders, word, i):
    """Set borders[i], the longest proper border of word[:i], from
    borders[:i] and word[:i]: one step of the KMP prefix function
    (borders[0] = -1), so a caller growing a word extends its table one
    symbol at a time."""
    k = borders[i - 1]
    while k >= 0 and word[k] != word[i - 1]:
        k = borders[k]
    borders[i] = k + 1


def _failure_function(pattern):
    """The KMP prefix function: entry i is the longest proper border of
    pattern[:i] (-1 for the empty prefix)."""
    borders = [-1] + [0] * len(pattern)
    for i in range(1, len(pattern) + 1):
        _extend_borders(borders, pattern, i)
    return borders


def longest_window_avoiding(shift, pattern):
    """Length of the longest label window containing no occurrence of `pattern`.

    Returns None when windows of unbounded length avoid the pattern (the
    avoiding product graph contains a cycle).  Computed on the product of
    the transition graph with the pattern's string-matching automaton,
    restricted to the nodes reachable from the starts and built as arrays
    by a frontier search.  Level-synchronous Kahn peeling then either peels
    every node, and the number of rounds is the longest path in nodes, or
    stops at a cycle.
    """
    pattern = tuple(pattern)
    if not pattern:
        raise ValueError("pattern must be nonempty")
    m = len(pattern)
    fail = _failure_function(pattern)
    # automaton: matched prefix length after reading symbol a with k matched
    delta = np.empty((m, shift.ambient_size), dtype=np.int64)
    for k in range(m):
        for a in range(shift.ambient_size):
            j = k
            while j >= 0 and pattern[j] != a:
                j = fail[j]
            delta[k, a] = j + 1

    # product nodes (state, matched prefix length k < m), keyed s * m + k;
    # matched == m is fatal
    labels = np.asarray(shift.labels, dtype=np.int64)
    indptr = shift.matrix.indptr.astype(np.int64)
    indices = shift.matrix.indices.astype(np.int64)
    first = delta[0, labels]
    starts = np.flatnonzero(first < m)
    if not starts.size:
        return 0
    node = np.full(shift.num_states * m, -1, dtype=np.int64)
    frontier = starts * m + first[starts]
    node[frontier] = np.arange(len(frontier))
    size = len(frontier)
    heads, tails = [], []  # edges by key; heads come out in node order
    while frontier.size:
        pos, edge = _out_edges(indptr, frontier // m)
        t = indices[edge]
        k = delta[frontier[pos] % m, labels[t]]
        alive = k < m
        key = t[alive] * m + k[alive]
        heads.append(frontier[pos[alive]])
        tails.append(key)
        frontier = np.unique(key[node[key] < 0])
        node[frontier] = np.arange(size, size + len(frontier))
        size += len(frontier)
    head, tail = node[np.concatenate(heads)], node[np.concatenate(tails)]
    out = np.searchsorted(head, np.arange(size + 1))  # CSR rows of the product
    indeg = np.bincount(tail, minlength=size)
    layer = np.flatnonzero(indeg == 0)
    rounds = peeled = 0
    while layer.size:
        rounds += 1
        peeled += layer.size
        hit, count = np.unique(tail[_edge_ids(out, layer)[1]], return_counts=True)
        indeg[hit] -= count
        layer = hit[indeg[hit] == 0]
    # an unpeeled node lies on or behind a cycle: windows of any length
    return rounds if peeled == size else None
