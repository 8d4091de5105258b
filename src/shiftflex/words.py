"""Finite words, vertex shifts and graph machinery on their transition matrices.

A vertex shift is presented by a 0/1 transition matrix over internal states
0..n-1.  Every shift additionally carries a labeling of its states into a
fixed base alphabet; for plain shifts the labeling is the identity, while
recodings (higher-block presentations, renewal presentations) label each
state by the base symbol it reads.  A word is a tuple of internal states
and a set of words one (words × length) state array; label words are
their projections to the base alphabet.

Every query here searches a graph: a block presentation's label queries
search its root's (`_label_root`).  A coded stage answers from its code
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

    A shift is its CSR `matrix` (`indptr`, `indices`, columns ascending in
    every row) and one read-only int64 `label_array`, plus the caches of
    the queries below.  Every graph search of the generic layer walks the
    CSR arrays: the edge graphs of the recodings, the extension kernel
    `_grow`, the frontier BFS `_bfs_levels`, `connecting_word`,
    `longest_window_avoiding` and `find_low_overlap_word`.

    Parameters
    ----------
    matrix : array-like or sparse, square, entries in {0, 1}
    labels : optional sequence mapping each state to a base-alphabet symbol;
        identity when omitted.  Kept as `label_array`.
    ambient_size : size of the base alphabet the labels map into; inferred
        from the labels (or the state count) when omitted.

    A shift made by `deferred` has its state count and alphabet size at
    once, and builds and checks its matrix and labels here when one of
    them is first read.
    """

    # the code of a renewal presentation (`codes.renewal_to_sft`): the
    # `space` of its stage; no query of the shift reads it
    renewal = None
    # kept by `_predecessor_arrays` and the first call of `perron`,
    # `is_irreducible`, `_levels_from_zero` and `graph_period`
    _predecessors = None
    _perron_cache = _irreducible_cache = _levels_cache = _period_cache = None
    # (root, first, last, levels) of a block presentation, set by `_block_shift`
    _lift = None

    def __init__(self, matrix, labels=None, ambient_size=None):
        m = sp.csr_matrix(matrix, dtype=np.int8)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got {m.shape}")
        m.sum_duplicates()
        if m.nnz and (m.data.min() < 0 or m.data.max() > 1):
            raise ValueError("transition matrix entries must be 0 or 1")
        m.eliminate_zeros()
        m.sort_indices()
        self.matrix = m
        n = self.num_states = m.shape[0]
        if labels is None:
            label_array = np.arange(n, dtype=np.int64)
        else:
            label_array = np.array(labels, dtype=np.int64)
            if label_array.shape != (n,):
                raise ValueError("labels length must equal state count")
        label_array.flags.writeable = False
        self.label_array = label_array
        top = int(label_array.max(initial=-1))
        if ambient_size is None:
            ambient_size = n if labels is None else top + 1
        if top >= ambient_size:
            raise ValueError("label out of ambient alphabet range")
        self.ambient_size = int(ambient_size)

    @classmethod
    def deferred(cls, build, num_states, ambient_size):
        """A shift of `num_states` states whose (matrix, labels) `build()`
        returns when either is first read.  `__init__` checks them then, so
        a shift that nothing searches never holds its edges."""
        shift = object.__new__(cls)
        shift._build, shift.num_states, shift.ambient_size = build, num_states, int(ambient_size)
        return shift

    def __getattr__(self, name):
        # reached only for attributes never set: before their first read,
        # the matrix and labels of a `deferred` shift
        build = self.__dict__.get("_build")
        if build is None or name not in ("matrix", "label_array"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        matrix, labels = build()
        VertexShift.__init__(self, matrix, labels, self.ambient_size)
        del self._build
        return self.__dict__[name]

    def _predecessor_arrays(self):
        """(indptr, indices) of the transposed matrix in CSR form: row j
        lists the predecessors of state j, ascending.  Built on first use
        and kept."""
        if self._predecessors is None:
            transposed = self.matrix.tocsc()  # the CSC arrays of the matrix
            self._predecessors = (transposed.indptr, transposed.indices)
        return self._predecessors

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
            and np.array_equal(self.label_array, other.label_array)
            and (self.matrix != other.matrix).nnz == 0
        )

    def __hash__(self):
        return hash((self.num_states, self.label_array.tobytes(), self.matrix.indices.tobytes()))

    def __repr__(self):
        return (
            f"VertexShift(states={self.num_states}, "
            f"edges={self.matrix.nnz}, ambient={self.ambient_size})"
        )


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


def _grow(matrix, n):
    """Words of length n of the graph of a CSR matrix as a (words × n) state
    array, grown by the out-edges of each word's last state one state at a
    time: CSR rows list their columns ascending, so in lexicographic order."""
    indptr, indices = matrix.indptr.astype(np.int64), matrix.indices.astype(np.int64)
    last = np.arange(matrix.shape[0])
    states, parents = [], []
    for _ in range(n - 1):
        parent, edge = _out_edges(indptr, last)
        last = indices[edge]
        states.append(last)
        parents.append(parent)
    return _parent_walk(np.arange(matrix.shape[0])[:, None], states, parents)


def _parent_walk(first, columns, parents):
    """The words of the last level of a tree grown level by level, one row
    per node in that level's order: `first` holds a row of values per node
    of level 0, `columns[j]` a value per node of level j + 1 and
    `parents[j]` the index among level j of each node of level j + 1.
    Filled one level per contiguous row, then transposed."""
    at = np.arange(len(columns[-1]) if columns else len(first))
    width = first.shape[1]
    words = np.empty((width + len(columns), len(at)), dtype=np.int64)
    for j in range(len(columns) - 1, -1, -1):
        words[width + j] = columns[j][at]
        at = parents[j][at]
    words[:width] = first[at].T
    return words.T


def _edge_graph(indptr, indices):
    """The CSR arrays of the edge graph of (indptr, indices) (Lind & Marcus
    1995, §2.3: the m-block presentation is the edge graph of the
    (m-1)-block one).

    Its states are the edges below in CSR order; edge u -> v is followed by
    the out-edges of v, one contiguous id range, so the rows are written
    directly.  Where the states below stand for lexicographically ordered
    words, edge u -> v stands for u's word and the last state of v's, in
    lexicographic order too.
    """
    lo = indptr[indices]
    deg = indptr[indices + 1] - lo
    indptr = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return indptr, np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], deg)


def _graph(indptr, indices, **kwargs):
    """Vertex shift on the CSR arrays of a 0/1 matrix."""
    n = len(indptr) - 1
    matrix = sp.csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    return VertexShift(matrix, **kwargs)


def _block_shift(base, levels):
    """Vertex shift on the edge graph of `base`'s CSR arrays, taken
    `levels` times, each block labeled by the label of its first state: an
    edge takes the label of its tail, one `np.repeat` per level.  An edge
    graph of a strongly connected graph is strongly connected, and its
    cycles are the closed walks of the graph below, of the same lengths; so
    when `base` is irreducible the result is, with the same period, and both
    are set without a search.  With them goes `_lift = (root, first, last,
    levels)`: the root is `base`, or the root `base` was lifted from, so it
    is never lifted itself, and each state stands for the root path of
    `levels + 1` states that is its row of `language(root, levels + 1)`; an
    edge takes its tail's first and its head's last root state, so
    `spectral.perron` answers from the root's data, the label queries from
    the root itself, and nothing between root and result is kept."""
    indptr, indices = base.matrix.indptr.astype(np.int64), base.matrix.indices.astype(np.int64)
    labels = base.label_array
    root, first, last, below = base._lift or (base, np.arange(base.num_states), np.arange(base.num_states), 0)
    for _ in range(levels):
        deg = np.diff(indptr)
        labels, first, last = np.repeat(labels, deg), np.repeat(first, deg), last[indices]
        indptr, indices = _edge_graph(indptr, indices)
    shift = _graph(indptr, indices, labels=labels, ambient_size=base.ambient_size)
    if is_irreducible(base):
        shift._irreducible_cache = True
        shift._period_cache = graph_period(base)
        shift._lift = root, first, last, below + levels
    return shift


def _label_root(shift):
    """The shift whose label words are `shift`'s: the root of a block
    presentation, else `shift` itself.  A state of the presentation reads
    the label of the first state of its root path of levels + 1 states, and
    every root path extends that far, as an irreducible root has no dead
    end; so both have the same label words of every length (Lind & Marcus
    1995, §2.3)."""
    return shift if shift._lift is None else shift._lift[0]


def _block_path(shift, path):
    """The path of the block presentation `shift` whose states stand for the
    windows of levels + 1 states of the root path `path`.  The states are
    the root's paths of levels + 1 states in lexicographic order, so the
    first is the rank of the first window, counted from the root's paths
    from each state; state b's row lists the windows that extend b's by
    each successor of its last root state, ascending, so the next state is
    b's successor at the next root state's place in that root row."""
    root, _, _, levels = shift._lift
    root_indptr, root_indices = root.matrix.indptr.tolist(), root.matrix.indices.tolist()
    indptr, indices = shift.matrix.indptr, shift.matrix.indices
    # paths[k][s]: root paths of k + 1 states from s
    paths = [np.ones(root.num_states, dtype=np.int64)]
    for _ in range(levels):
        paths.append(root.matrix @ paths[-1])
    out = [int(paths[levels][: path[0]].sum())]
    for j in range(1, len(path)):
        row = root_indices[root_indptr[path[j - 1]] : root_indptr[path[j - 1] + 1]]
        at = row.index(path[j])
        if j <= levels:  # within the first window: the paths it passes
            out[0] += int(paths[levels - j][row[:at]].sum())
        else:
            out.append(int(indices[indptr[out[-1]] + at]))
    return tuple(out)


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
    are the allowed blocks on a bi-infinite path of allowed blocks (the
    essential part), labeled by their first symbol.
    """
    forbidden = [tuple(w) for w in forbidden]
    for w in forbidden:
        if len(w) < 1:
            raise ValueError("forbidden words must be nonempty")
        if any(s < 0 or s >= alphabet_size for s in w):
            raise ValueError(f"forbidden word {w} outside alphabet")
    if any(len(w) == 1 for w in forbidden):
        raise ValueError("length-1 forbidden words would delete symbols; shrink the alphabet instead")
    longest = max((len(w) for w in forbidden), default=2)
    if block is not None and block < longest:
        raise ValueError(f"block depth {block} below longest forbidden word {longest}")
    m = longest if block is None else block
    a = np.ones((alphabet_size, alphabet_size), dtype=np.int8)
    for w in forbidden:
        if len(w) == 2:
            a[w] = 0
    mat = sp.csr_matrix(a)
    indptr, indices = mat.indptr.astype(np.int64), mat.indices.astype(np.int64)
    if m == 2:
        kept, indptr, indices = _essential_part(indptr, indices)
        return _graph(indptr, indices, labels=kept, ambient_size=alphabet_size)

    # the seed: from the graph on symbols whose edges are the allowed
    # 2-words, each level is the edge graph of the one below, less the
    # edges that spell a forbidden word of their length (their two windows
    # are clean), up to the graph on clean (L-1)-words whose edges are the
    # clean L-words, L the longest forbidden word
    words = np.arange(alphabet_size)[:, None]
    for length in range(3, longest + 1):
        # edge u -> v spells u's word and the last symbol of v's
        words = np.hstack([np.repeat(words, np.diff(indptr), axis=0), words[indices, -1:]])
        indptr, indices = _edge_graph(indptr, indices)
        keep = np.ones(len(indices), dtype=bool)
        for w in (w for w in forbidden if len(w) == length):
            u, v = _row_of(words, w[:-1]), _row_of(words, w[1:])
            if u is not None and v is not None:
                keep[indptr[u] + np.searchsorted(indices[indptr[u] : indptr[u + 1]], v)] = False
        indptr, indices = np.append(0, np.cumsum(keep))[indptr], indices[keep]
    # a word of at least L symbols is clean iff all its L-windows are: the
    # rest are edge graphs of the seed, of its essential part alone
    kept, indptr, indices = _essential_part(indptr, indices)
    seed = _graph(indptr, indices, labels=words[kept, 0], ambient_size=alphabet_size)
    return _block_shift(seed, m - longest + 1)


def _essential_part(indptr, indices):
    """The essential part of the graph of (indptr, indices), the states on
    a bi-infinite path: found by dropping every state with no in-edge or no
    out-edge until none is left (Lind & Marcus 1995, §2.2).  Returns the
    old ids of its states, ascending, and its CSR arrays, the arrays given
    when no state is dropped."""
    n = len(indptr) - 1
    tails = np.repeat(np.arange(n), np.diff(indptr))
    keep = np.ones(n, dtype=bool)
    while True:
        live = keep[tails] & keep[indices]
        now = keep & (np.bincount(tails[live], minlength=n) > 0)
        now &= np.bincount(indices[live], minlength=n) > 0
        if (now == keep).all():
            break
        keep = now
    kept = np.flatnonzero(keep)
    if len(kept) == n:
        return kept, indptr, indices
    new = np.cumsum(keep) - 1
    indptr = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(np.bincount(new[tails[live]], minlength=len(kept)), out=indptr[1:])
    return kept, indptr, new[indices[live]]


def _row_of(rows, word):
    """Index of `word` among the lexicographically ordered rows of the
    state array `rows`, None when it is not one, narrowed column by
    column."""
    lo, hi = 0, len(rows)
    for j, x in enumerate(word):
        col = rows[lo:hi, j]
        lo, hi = lo + np.searchsorted(col, x), lo + np.searchsorted(col, x, side="right")
    return lo if lo < hi else None


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

    Without dead ends a single state has an edge, its own loop.  A shift
    with no states is not irreducible.
    """
    if shift.num_states == 0 or (np.diff(shift.matrix.indptr) == 0).any():
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
    returned: from each state the first CSR column one edge nearer `to`.
    Raises UnreachableStateError when no path exists.
    """
    n = shift.num_states
    if not (0 <= frm < n and 0 <= to < n):
        raise ValueError("state out of range")
    dist = _bfs_levels(*shift._predecessor_arrays(), [to])  # edges to `to`
    indptr, indices = shift.matrix.indptr, shift.matrix.indices
    first = dist[indices[indptr[frm] : indptr[frm + 1]]]
    if not (first >= 0).any():
        raise UnreachableStateError(
            f"no admissible path from state {frm} to state {to}"
        )
    word = [frm]
    for remaining in range(int(first[first >= 0].min()), -1, -1):
        row = indices[indptr[word[-1]] : indptr[word[-1] + 1]]
        word.append(int(row[np.argmax(dist[row] == remaining)]))
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
    if m > 1:
        total = word_count(shift, m)
        if total > budget:
            raise CapacityError(total, budget)
    return _block_shift(shift, m - 1)


def induced_subshift(shift, states):
    """Restriction of the shift to a subset of its states.

    The caller is responsible for the subset being strongly connected when
    irreducibility is needed.  Labels are restricted.
    """
    states = sorted(set(states))
    return VertexShift(
        shift.matrix[np.ix_(states, states)],
        labels=shift.label_array[states],
        ambient_size=shift.ambient_size,
    )


def label_word(shift, word):
    """Project an internal word to its base-alphabet label word."""
    return tuple(shift.label_array[list(word)].tolist())


class _LabelSets:
    """The subset construction on a shift's labels (Lind & Marcus, 1995,
    §3.3) on boolean state vectors: `start[a]` is the set of states
    labelled a, and `read(states, a)` the set of states labelled a that end
    an edge from the set `states`, or every symbol's set as the rows of a
    (symbols × states) array when `a` is omitted."""

    def __init__(self, shift):
        m = shift.matrix
        self.start = shift.label_array == np.arange(shift.ambient_size)[:, None]
        # the CSR arrays read as CSC are the transpose; boolean entries, so
        # a state with many predecessors in the set cannot sum past int8
        self._into = sp.csc_matrix((np.ones(m.nnz, dtype=bool), m.indices, m.indptr), shape=m.shape)

    def read(self, states, a=slice(None)):
        return (self._into @ states) & self.start[a]


def is_label_admissible(shift, word):
    """True iff some internal path realizes the given label word."""
    shift = _label_root(shift)
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
    past `budget` words, before any word is built.  A block presentation
    answers from its root (`_label_root`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    shift = _label_root(shift)
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
    return _as_tuples(_parent_walk(syms[0][:, None], syms[1:], parents))


def label_rows(shift, n):
    """Distinct label words of internal n-paths, lexicographically, as a
    (words × n) array: the labelled rows of `language`, deduplicated; of
    the root's for a block presentation (`_label_root`)."""
    shift = _label_root(shift)
    return np.unique(shift.label_array[language(shift, n)], axis=0)


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


def _failure_function(pattern):
    """The KMP prefix function: entry i is the longest proper border of
    pattern[:i] (-1 for the empty prefix)."""
    borders = [-1] + [0] * len(pattern)
    for i in range(1, len(pattern) + 1):
        k = borders[i - 1]
        while k >= 0 and pattern[k] != pattern[i - 1]:
            k = borders[k]
        borders[i] = k + 1
    return borders


def longest_window_avoiding(shift, pattern):
    """Length of the longest label window containing no occurrence of `pattern`.

    Returns None when windows of unbounded length avoid the pattern (the
    avoiding product graph contains a cycle).  Computed on the product of
    the transition graph with the pattern's string-matching automaton,
    restricted to the nodes reachable from the starts and built as arrays
    by a frontier search.  Level-synchronous Kahn peeling then either peels
    every node, and the number of rounds is the longest path in nodes, or
    stops at a cycle.  A block presentation answers from its root, which
    has the same label windows (`_label_root`).
    """
    shift = _label_root(shift)
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
    labels = shift.label_array
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
