"""Finite words, vertex shifts and graph machinery on their transition matrices.

A vertex shift is presented by a 0/1 transition matrix over internal states
0..n-1.  Every shift additionally carries a labeling of its states into a
fixed base alphabet; for plain shifts the labeling is the identity, while
recodings (higher-block presentations, renewal presentations) label each
state by the base symbol it reads.  A word is a tuple of internal states
and a set of words one (words × length) state array; label words are
their projections to the base alphabet.

Every query here searches the graph.  A coded stage answers from its code
(`codes.RenewalStructure`, `codes.PermutationCode`), never from a
presentation of it.
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

    A shift made by `deferred` has its state count, alphabet size and state
    words at once, and builds and checks its matrix and labels here when
    one of them is first read.
    """

    # the code of a renewal presentation (`codes.renewal_to_sft`): the
    # `space` of its stage; no query of the shift reads it
    renewal = None
    # kept by `_predecessor_arrays`, `_adjacency_lists` and the first call
    # of `perron`, `is_irreducible`, `_levels_from_zero` and `graph_period`
    _predecessors = _succ = _pred = None
    _perron_cache = _irreducible_cache = _levels_cache = _period_cache = None

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

    @classmethod
    def deferred(cls, build, num_states, ambient_size):
        """A shift of `num_states` states whose (matrix, labels) `build()`
        returns when either is first read.  `__init__` checks them then and
        keeps the state words set before, so a shift that nothing searches
        never holds its edges."""
        shift = object.__new__(cls)
        shift._build, shift.num_states, shift.ambient_size = build, num_states, int(ambient_size)
        shift.state_words = None
        return shift

    def __getattr__(self, name):
        # reached only for attributes never set: before their first read,
        # the matrix and labels of a `deferred` shift
        build = self.__dict__.get("_build")
        if build is None or name not in ("matrix", "labels"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        matrix, labels = build()
        VertexShift.__init__(self, matrix, labels, self.ambient_size, self.state_words)
        del self._build
        return self.__dict__[name]

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
        states: `connecting_word` and the bit masks of
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

    def language(self, depth):
        """Label words of the given depth, lexicographically ordered
        (`label_language`; the module function `language` lists internal
        words instead)."""
        return label_language(self, depth)

    def longest_avoiding(self, depth):
        """(word, longest label window avoiding it) per label word of the
        given depth, lexicographically; None where windows of any length
        avoid the word.  `longest_window_avoiding` answers each word of
        `label_language` lazily."""
        return ((v, longest_window_avoiding(self, v)) for v in label_language(self, depth))

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
    return _parent_walk(states, parents), parent, suffix


def _parent_walk(columns, parents):
    """The (nodes × levels) array of the last level of a tree grown level by
    level: `columns[j]` holds a value per node of level j and `parents[j]`
    the index among level j of each node of level j + 1; rows in the order
    of the last level."""
    at = np.arange(len(columns[-1]))
    words = np.empty((len(at), len(columns)), dtype=np.int64)
    for j in range(len(columns) - 1, 0, -1):
        words[:, j] = columns[j][at]
        at = parents[j - 1][at]
    words[:, 0] = columns[0][at]
    return words


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
    single state needs a self loop.  Cached on the shift object.
    """
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


class _LabelSets:
    """The subset construction on a shift's labels (Lind & Marcus, 1995,
    §3.3) on boolean state vectors: `start[a]` is the set of states
    labelled a, and `read(states, a)` the set of states labelled a that end
    an edge from the set `states`, or every symbol's set as the rows of a
    (symbols × states) array when `a` is omitted."""

    def __init__(self, shift):
        m = shift.matrix
        labels = np.asarray(shift.labels, dtype=np.int64)
        self.start = labels == np.arange(shift.ambient_size)[:, None]
        # the CSR arrays read as CSC are the transpose; boolean entries, so
        # a state with many predecessors in the set cannot sum past int8
        self._into = sp.csc_matrix((np.ones(m.nnz, dtype=bool), m.indices, m.indptr), shape=m.shape)

    def read(self, states, a=slice(None)):
        return (self._into @ states) & self.start[a]


def is_label_admissible(shift, word):
    """True iff some internal path realizes the given label word."""
    sets = _LabelSets(shift)
    cur = None
    for a in word:
        if a < 0 or a >= shift.ambient_size:
            return False
        cur = sets.start[a] if cur is None else sets.read(cur, a)
        if not cur.any():
            return False
    return True


def label_language(shift, n, budget=DEFAULT_WORD_BUDGET):
    """Distinct label words of internal n-paths, lexicographically ordered,
    as a tuple of tuples.

    A subset construction memoised on the state set.  The states that end
    the paths reading a label prefix form a set; each distinct set gets an
    id, keyed by its packed bits, and is expanded once, by one sparse
    product and one mask per symbol (`_LabelSets.read`), into its row of an
    (ids × symbols) child table, -1 where no path reads the symbol.  Sets
    are expanded in the order they are found, the ones first found within
    n - 1 symbols.  The words are counted on the table, then grow level by
    level as (parent, symbol, id) arrays, one gather of the table per level,
    keeping only the prefixes whose set reaches length n, so no level
    outgrows the output.  The cost is one sparse product per distinct set,
    not per prefix, plus the output.  CapacityError with the exact count
    past `budget` words, before any word is built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sets = _LabelSets(shift)
    size, symbols = shift.num_states, shift.ambient_size
    ids, keys, first = {}, [], []  # key -> id; per id its key and first level

    def intern(rows, level):
        """Ids of the boolean sets `rows`, -1 for an empty one; a set not
        seen before gets the next id."""
        out = np.full(len(rows), -1, dtype=np.int64)
        for a in np.flatnonzero(rows.any(axis=1)):
            key = np.packbits(rows[a]).tobytes()
            out[a] = i = ids.setdefault(key, len(keys))
            if i == len(keys):
                keys.append(key)
                first.append(level)
        return out

    roots = intern(sets.start, 1)
    child = []
    while len(child) < len(keys) and first[len(child)] < n:
        # a set is kept as its key only; its vector is unpacked to expand it
        states = np.unpackbits(np.frombuffer(keys[len(child)], dtype=np.uint8), count=size)
        child.append(intern(sets.read(states.view(bool)), first[len(child)] + 1))
    # ids first found at level n are never expanded: no row, so no child
    child = np.vstack(child + [np.full((len(keys) - len(child), symbols), -1, dtype=np.int64)])

    # ways[i]: label words of k more symbols from id i, k = 0..n-1, with a
    # zero past the last id for the -1 entries; Python integers past int64
    ways = np.append(np.ones(len(keys), dtype=np.int64), 0)
    alive = [ways > 0]
    for _ in range(n - 1):
        if ways.dtype != object and ways.max() > 2**62 // max(symbols, 1):
            ways = ways.astype(object)
        ways = np.append(ways[child].sum(axis=1), 0)
        alive.append(ways > 0)
    total = int(ways[roots].sum())
    if total > budget:
        raise CapacityError(total, budget, what="label words")

    # nonzero walks the (prefix, symbol) pairs row by row: lexicographic
    sym = np.flatnonzero(alive[n - 1][roots])
    cur, parents, syms = roots[sym], [], [sym]
    for k in range(n - 2, -1, -1):
        kids = child[cur]
        parent, sym = np.nonzero(alive[k][kids])
        cur = kids[parent, sym]
        parents.append(parent)
        syms.append(sym)
    return _as_tuples(_parent_walk(syms, parents))


def label_rows(shift, n):
    """Distinct label words of internal n-paths, lexicographically, as a
    (words × n) array: the labelled rows of `language`, deduplicated."""
    return np.unique(np.asarray(shift.labels, dtype=np.int64)[language(shift, n)], axis=0)


def languages_disjoint(a, b, depth):
    """True iff the depth-`depth` label languages of the two sides are disjoint.

    A side is a shift or a renewal code (`codes.RenewalStructure`); the
    verdict is symmetric, so the order only affects the cost.  Against a
    code the shift's words are one array (`label_rows`), tested in one call
    (`RenewalStructure.admitted`).  Between two shifts the language of the
    one with fewer edges is enumerated and each word membership-tested
    against the other.
    """
    if not isinstance(a, VertexShift):
        a, b = b, a
    if not isinstance(b, VertexShift):
        return not (b.admitted(label_rows(a, depth)) == depth).any()
    small, big = sorted((a, b), key=lambda s: s.matrix.nnz)
    return not any(is_label_admissible(big, w) for w in label_language(small, depth))


def graph_period(shift):
    """gcd of cycle lengths of the (strongly connected) transition graph.
    Cached on the shift object."""
    if not is_irreducible(shift):
        raise ReducibleShiftError("period is defined for irreducible shifts")
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
