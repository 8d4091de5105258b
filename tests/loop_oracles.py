"""Per-edge loop implementations of the generic SFT layer, kept as oracles.

Each function is the plain-Python version that the array kernels of
`shiftflex.words`, `shiftflex.measures` and `shiftflex.codes`, or the set
operations of `shiftflex.construction`, replaced; the differential tests in
`test_generic_kernels.py`, `test_measures.py`,
`test_renewal_fast_paths.py`, `test_spectral.py`, `test_window_tables.py`
and `test_word_arrays.py` require them to give the same answers.  The graph
searches walk the tuple adjacency of `VertexShift.successors` and
`predecessors`, one state and one edge at a time; the code-word windows of
renewal and permutation-class stages are one (offset, window) tuple per
attributed window; the stage-1 assembly checks and labels one word tuple at
a time; a renewal code admits a label word one piece at a time, found by
bisection in its sorted tails; the depth at which two codes stop sharing
words grows the shared words one symbol at a time; a permutation class is
chosen from one class built per number of fixed slots and counted one
multiplicity at a time; window tables rank one more symbol per depth; the
language checks of a permutation class compare sets of word tuples; a label
language recurses over label prefixes, one state-set product per prefix;
the Katok scorer counts the windows of all words in one int64 table per
depth; and the Parry measure is built through COO arrays and a diagonal
product.
"""

import bisect
import math
from collections import Counter, deque

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph  # noqa: F401  (sp.csgraph below)

from shiftflex.codes import Code, PermutationCode
from shiftflex.errors import (
    CapacityError,
    NoLowOverlapWordError,
    StageVerificationError,
    StructureDepthError,
)
from shiftflex.measures import cyclic_windows, dense_table
from shiftflex.spectral import MarkovMeasure, perron
from shiftflex.words import (
    DEFAULT_WORD_BUDGET,
    VertexShift,
    is_label_admissible,
    label_word,
)


def word_count(shift, n):
    vec = [1] * shift.num_states
    for _ in range(n - 1):
        vec = [sum(vec[j] for j in shift.successors(i)) for i in range(shift.num_states)]
    return sum(vec)


def language(shift, n, budget=DEFAULT_WORD_BUDGET):
    """Depth-first recursion over successors, lexicographic."""
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
    return tuple(out)


def label_language(shift, n, budget=DEFAULT_WORD_BUDGET):
    """Depth-first recursion over label prefixes, one sparse product of the
    state set per prefix, lexicographic; every word is enumerated before
    the budget is checked, so a refusal names the exact count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lab = np.asarray(shift.labels)
    masks = [lab == a for a in range(shift.ambient_size)]
    out = []
    matT = shift.matrix.T.tocsr()

    def rec(prefix, cur):
        if len(prefix) == n:
            out.append(prefix)
            return
        nxt = (matT @ cur).astype(bool)
        for a in range(shift.ambient_size):
            step = nxt & masks[a]
            if step.any():
                rec(prefix + (a,), step)

    for a in range(shift.ambient_size):
        if masks[a].any():
            rec((a,), masks[a].copy())
    if len(out) > budget:
        raise CapacityError(len(out), budget, what="label words")
    return tuple(out)


def higher_block(shift, m, budget=DEFAULT_WORD_BUDGET):
    """Blocks from `language`, edges looked up in a dict of tuples."""
    if m == 1:
        return VertexShift(
            shift.matrix.copy(),
            labels=shift.labels,
            ambient_size=shift.ambient_size,
            state_words=tuple((s,) for s in range(shift.num_states)),
        )
    blocks = language(shift, m, budget=budget)
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


def from_forbidden_words(alphabet_size, forbidden, block):
    """Clean words grown one symbol at a time, suffixes tested as tuples
    (block >= 3)."""
    banned = {tuple(f) for f in forbidden}
    lengths = sorted({len(f) for f in banned})
    blocks = [()]
    for _ in range(block):
        blocks = [
            v
            for u in blocks
            for v in (u + (s,) for s in range(alphabet_size))
            if not any(v[-n:] in banned for n in lengths if n <= len(v))
        ]
    index = {w: i for i, w in enumerate(blocks)}
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


def bfs_distances(shift, sources, reverse=False):
    nbrs = shift.predecessors if reverse else shift.successors
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
            for v in nbrs(u):
                if dist[v] is None:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def strongly_connected(shift):
    n = shift.num_states
    if any(len(shift.successors(i)) == 0 for i in range(n)):
        return False
    if None in bfs_distances(shift, (0,)):
        return False
    if None in bfs_distances(shift, (0,), reverse=True):
        return False
    if n == 1:
        return 0 in shift.successors(0)
    return True


def cycle_gcd(shift):
    level = bfs_distances(shift, (0,))
    g = 0
    for u in range(shift.num_states):
        for v in shift.successors(u):
            g = math.gcd(g, level[u] + 1 - level[v])
    return g if g > 0 else 1


def failure_function(pattern):
    fail = [0] * (len(pattern) + 1)
    fail[0] = -1
    k = -1
    for i in range(1, len(pattern) + 1):
        while k >= 0 and pattern[k] != pattern[i - 1]:
            k = fail[k]
        k += 1
        fail[i] = k
    return fail


def max_self_overlap(word):
    return failure_function(tuple(word))[len(word)]


def longest_window_avoiding(shift, pattern):
    """Product graph built node by node in dicts, strong components from
    scipy.sparse.csgraph, longest path by a Kahn queue."""
    pattern = tuple(pattern)
    m = len(pattern)
    fail = failure_function(pattern)

    def advance(k, a):
        while k >= 0 and pattern[k] != a:
            k = fail[k]
        return k + 1

    nodes = {}

    def node_id(s, k):
        key = s * m + k
        if key not in nodes:
            nodes[key] = len(nodes)
        return nodes[key]

    edges = []
    for s in range(shift.num_states):
        k0 = advance(0, shift.labels[s])
        if k0 < m:
            node_id(s, k0)
    if not nodes:
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
    rows = [e[0] for e in edges]
    cols = [e[1] for e in edges]
    adj = sp.csr_matrix((np.ones(len(edges), dtype=np.int8), (rows, cols)), shape=(size, size))
    ncomp, comp = sp.csgraph.connected_components(adj, directed=True, connection="strong")
    if (np.bincount(comp, minlength=ncomp) > 1).any() or adj.diagonal().any():
        return None
    indptr, indices = adj.indptr, adj.indices
    indeg = np.zeros(size, dtype=np.int64)
    np.add.at(indeg, indices, 1)
    longest = np.ones(size, dtype=np.int64)
    queue = deque(np.flatnonzero(indeg == 0).tolist())
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u] : indptr[u + 1]]:
            longest[v] = max(longest[v], longest[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return int(longest.max())


def find_low_overlap_word(shift, l, budget=DEFAULT_WORD_BUDGET):
    """Stack of word tuples, each leaf's border computed from scratch."""
    bound = l / 4
    scanned = 0
    stack = [(s,) for s in reversed(range(shift.num_states))]
    while stack:
        w = stack.pop()
        if len(w) == l:
            scanned += 1
            if max_self_overlap(tuple(shift.labels[s] for s in w)) < bound:
                return w
            if scanned > budget:
                raise CapacityError(scanned, budget, what="scanned words")
            continue
        for s in reversed(shift.successors(w[-1])):
            stack.append(w + (s,))
    raise NoLowOverlapWordError(
        f"no admissible word of length {l} has self-overlap below {bound:g}"
    )


def is_admissible(shift, word):
    """True iff every adjacent pair of the word is an edge, one pair at a
    time."""
    if any(s < 0 or s >= shift.num_states for s in word):
        raise ValueError("symbol outside the shift's state set")
    return all(word[i + 1] in shift.successors(word[i]) for i in range(len(word) - 1))


def pigeonhole_refine(gamma, shift):
    """Cells of word tuples in a dict keyed by (first, last); the largest
    cell, ties to the smallest key, sorted."""
    words = list(gamma)
    if not words:
        raise ValueError("gamma must be nonempty")
    cells = {}
    for w in words:
        cells.setdefault((w[0], w[-1]), []).append(w)
    (start, end), cell = min(cells.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return tuple(sorted(cell)), start, end


def prev_word(sub, word, with_tail):
    """States of the ambient a word of a recoded subsystem runs through."""
    sw = [tuple(w) for w in sub.state_words.tolist()]
    out = [sw[s][0] for s in word]
    if with_tail:
        out.extend(sw[word[-1]][1:])
    return tuple(out)


def enumerated_code(prev, Y, gamma, glue_in, glue_out, w_prev):
    """The stage-1 code assembled, checked and labelled word by word."""
    label_words = {}
    for g in gamma:
        internal = glue_out + prev_word(Y, g, with_tail=True) + glue_in + w_prev
        if not is_admissible(prev.shift, internal):
            raise StageVerificationError(
                f"assembled word is not admissible in stage {prev.index}"
            )
        label_words.setdefault(label_word(prev.shift, internal), internal)
    first_internal = next(iter(label_words.values()))
    if not is_admissible(prev.shift, (w_prev[-1],) + first_internal[:1]):
        raise StageVerificationError("cyclic splice is not admissible")
    return Code(tuple(label_words))


def nests(space, upstream, depth):
    """Language nesting word by word: each label word of `space` of the
    given depth, from the graph search, is tested against `upstream` by
    state-set propagation (or its code words)."""
    return all(is_label_admissible(upstream, w) for w in label_language(space, depth))


def renewal_windows(renewal, depth):
    """Per code word, its attributed (offset, window) pairs, offsets
    ascending in [-e, k - e), each window sliced from shared suffix + word +
    shared prefix."""
    if not 1 <= depth <= renewal.exact_depth:
        raise StructureDepthError(
            f"depth {depth} outside 1..{renewal.exact_depth}, the depths "
            "single code words decide"
        )
    p, s = renewal.shared_ends
    k = renewal.k
    e = max(0, depth - p - 1)
    suffix, prefix = renewal.code.words[0][k - s :], renewal.code.words[0][:p]
    out = []
    for w in renewal.code.words:
        ctx = suffix + w + prefix
        out.append(tuple((o, ctx[s + o : s + o + depth]) for o in range(-e, k - e)))
    return tuple(out)


def renewal_occurrences(renewal, depth, indices=None):
    """window -> {code word a -> ascending offsets of a's windows reading it}."""
    profile = renewal_windows(renewal, depth)
    occ = {}
    for a in range(len(profile)) if indices is None else indices:
        for o, w in profile[a]:
            occ.setdefault(w, {}).setdefault(a, []).append(o)
    return occ


def renewal_language(renewal, depth):
    return sorted({w for ws in renewal_windows(renewal, depth) for _, w in ws})


def renewal_mixture(renewal, depth):
    counts = Counter(w for ws in renewal_windows(renewal, depth) for _, w in ws)
    mass = len(renewal.code) * renewal.k
    return {w: c / mass for w, c in counts.items()}


def renewal_longest_avoiding(renewal, depth):
    """Per window: None if some code word misses it, else the widest gap
    between consecutive occurrences, inside one code word or across a
    junction, plus depth - 2."""
    t, k = len(renewal.code), renewal.k
    out = {}
    for w, by_word in renewal_occurrences(renewal, depth).items():
        if len(by_word) < t:
            out[w] = None
            continue
        offsets = by_word.values()
        gaps = [k + max(o[0] for o in offsets) - min(o[-1] for o in offsets)]
        for o in offsets:
            gaps.extend(y - x for x, y in zip(o, o[1:]))
        out[w] = max(gaps) + depth - 2
    return tuple(sorted(out.items()))


def _block(code):
    return code.glue + code.fixed + code.free


def permutation_size(code):
    """Distinct orders of the free multiset: |free|! divided by the
    factorial of one multiplicity at a time."""
    total = math.factorial(len(code.free))
    for c in Counter(code.free).values():
        total //= math.factorial(c)
    return total


def permutation_cylinder_table(code, depth):
    table = {}
    profile = renewal_windows(code.ambient, depth)
    for a, count in Counter(_block(code)).items():
        for _, w in profile[a]:
            table[w] = table.get(w, 0) + count
    k = code.uniform_length
    return {w: c / k for w, c in table.items()}


def permutation_language(code, depth):
    profile = renewal_windows(code.ambient, depth)
    return sorted({w for a in set(_block(code)) for _, w in profile[a]})


def permutation_longest_avoiding(code, depth):
    """Occurrence lists per window, merged over the fixed slots in order;
    the free multiset contributes its extreme hits and its widest pair."""
    k1 = code.ambient.k
    fixed_slots = code.glue + code.fixed
    s0, n_free = len(fixed_slots), len(code.free)
    period = (s0 + n_free) * k1
    free_count = Counter(code.free)
    slots_of = {}
    for i, a in enumerate(fixed_slots):
        slots_of.setdefault(a, []).append(i)
    occ = renewal_occurrences(code.ambient, depth, set(fixed_slots) | set(free_count))
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
                gaps.append((n_free - n_hits + 1) * k1 + widest_pair(hits))
        out[w] = max(gaps) + depth - 2
    return tuple(sorted(out.items()))


def widest_pair(hits):
    """max lo(b) - hi(a) over two distinct instances a, b of (lo, hi, count)."""
    by_lo = sorted(range(len(hits)), key=lambda i: -hits[i][0])[:2]
    by_hi = sorted(range(len(hits)), key=lambda i: hits[i][1])[:2]
    return max(
        hits[i][0] - hits[j][1]
        for i in by_lo
        for j in by_hi
        if i != j or hits[i][2] >= 2
    )


def renewal_admits(renewal, word):
    """True iff the label word occurs in a concatenation of the code words.

    Tries every offset at which the word may start inside a code word: the
    first piece must continue some code word from that offset, the
    full-length middle pieces must be code words and the last piece must
    begin one.
    """
    word, k, words = tuple(word), renewal.k, renewal.code.words
    tails = [sorted(w[s:] for w in words) for s in range(k)]

    def starts_a_tail(s, piece):
        i = bisect.bisect_left(tails[s], piece)
        return i < len(tails[s]) and tails[s][i][: len(piece)] == piece

    for s in range(k):
        first = word[: k - s]
        if not starts_a_tail(s, first):
            continue
        pos = len(first)
        while pos + k <= len(word) and word[pos : pos + k] in words:
            pos += k
        if pos + k <= len(word):
            continue
        if pos == len(word) or starts_a_tail(0, word[pos:]):
            return True
    return False


def disjoint_depth(y, z, ambient_size, cap):
    """Least depth at which the shifts y and z share no label word, or None
    when they still share one at depth `cap`: the shared words grow one
    symbol at a time, each tested with `is_label_admissible`."""
    shared = [()]
    for depth in range(1, cap + 1):
        shared = [
            v
            for u in shared
            for v in (u + (x,) for x in range(ambient_size))
            if is_label_admissible(z, v) and is_label_admissible(y, v)
        ]
        if not shared:
            return depth
    return None


def permutation_code(renewal, glue, head, order, c1):
    """The permutation class of `order` whose entropy is nearest c1, from
    one class per number f >= 2 of fixed slots, each counted afresh."""
    best = None
    for f in range(min(2, len(order)), len(order) + 1):
        code = PermutationCode(renewal, glue, head, order[:f], order[f:])
        miss = abs(code.entropy - c1)
        if best is not None and miss >= best[0] and code.entropy < c1:
            break
        if best is None or miss < best[0]:
            best = (miss, code)
    return best[1]


def one_step_ranks(renewal, depth):
    """Context window ranks by one symbol per step: the rank of the pair
    (rank of the first depth - 1 symbols, last symbol)."""
    ctx = renewal._contexts
    ranks = np.unique(ctx, return_inverse=True)[1].reshape(ctx.shape)
    for d in range(2, depth + 1):
        key = ranks[:, :-1] * (int(ctx.max()) + 1) + ctx[:, d - 1 :]
        ranks = np.unique(key, return_inverse=True)[1].reshape(key.shape)
    return ranks


def one_step_table(renewal, depth):
    """(ids, windows) of the attributed depth-`depth` windows, from
    `one_step_ranks`."""
    if not 1 <= depth <= renewal.exact_depth:
        raise StructureDepthError(f"depth {depth} outside 1..{renewal.exact_depth}")
    p, s = renewal.shared_ends
    col = s - max(0, depth - p - 1)
    attributed = one_step_ranks(renewal, depth)[:, col : col + renewal.k]
    _, first, ids = np.unique(attributed, return_index=True, return_inverse=True)
    a, c = np.divmod(first, renewal.k)
    windows = renewal._contexts[a[:, None], (c + col)[:, None] + np.arange(depth)]
    return ids.reshape(attributed.shape), windows


def set_nests(space, upstream, depth):
    """Language nesting on Python sets of word tuples."""
    try:
        if set(space.language(depth)) <= set(upstream.language(depth)):
            return True, "language containment"
    except StructureDepthError:
        return False, f"depth {depth} beyond the depths the coded stage decides"
    return False, f"word of stage language missing upstream at depth {depth}"


def set_languages_agree(space, upstream, depth):
    """Language equality on Python sets of word tuples."""
    try:
        ours = set(space.language(depth))
        theirs = set(upstream.language(depth))
    except CapacityError:
        return False, f"depth {depth} beyond enumeration budget"
    except StructureDepthError:
        return False, f"depth {depth} beyond the depths the coded stage decides"
    if not ours <= theirs:
        return False, f"word of stage language missing upstream at depth {depth}"
    if ours != theirs:
        return False, "upstream language strictly larger"
    return True, f"languages agree at depth {depth}"


def empirical_distances(words, m, depth, alphabet_size, cyclic=False):
    """The whole-array Katok scorer: an int64 copy of every row, then, per
    depth, the window codes and count table of all rows at once."""
    words = np.asarray(words, dtype=np.int64)
    total = np.zeros(words.shape[0])
    for d in range(1, depth + 1):
        target = dense_table(m.cylinder_table(d), d, alphabet_size)
        rows = cyclic_windows(words, d) if cyclic else words
        span = rows.shape[1] - d + 1
        codes = rows[:, :span].copy()
        for i in range(1, d):
            codes *= alphabet_size
            codes += rows[:, i : i + span]
        cols = alphabet_size**d
        codes += (np.arange(len(rows), dtype=np.int64) * cols)[:, None]
        counts = np.bincount(codes.ravel(), minlength=len(rows) * cols).reshape(-1, cols)
        freq = counts / span
        total += 0.5 * np.abs(freq - target).sum(axis=1) / (1 << d)
    return total


def parry_measure(shift):
    """The Parry measure through COO arrays, a CSR rebuild and a sparse
    diagonal product."""
    pd = perron(shift)
    lam, v, u = pd.value, pd.right, pd.left
    coo = shift.matrix.tocoo()
    data = v[coo.col] / (lam * v[coo.row])
    P = sp.csr_matrix((data, (coo.row, coo.col)), shape=shift.matrix.shape)
    rows = np.asarray(P.sum(axis=1)).ravel()
    P = sp.diags(1.0 / rows) @ P
    pi = u * v
    return MarkovMeasure(shift, pi / pi.sum(), P)
