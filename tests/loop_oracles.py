"""Per-edge loop implementations of the generic SFT layer, kept as oracles.

Each function is the plain-Python version that the array kernels of
`shiftflex.words`, `shiftflex.measures` and `shiftflex.codes`, or the set
operations of `shiftflex.construction`, replaced; the differential tests in
`test_generic_kernels.py`, `test_measures.py`,
`test_renewal_fast_paths.py`, `test_spectral.py`, `test_stage_two_paths.py`,
`test_window_tables.py` and `test_word_arrays.py` require them to give the same answers.  The graph
searches walk per-state successor and predecessor lists (`successors`,
`predecessors`), one state and one edge at a time; the code-word windows of
renewal and permutation-class stages are one (offset, window) tuple per
attributed window; the stage-1 assembly checks and labels one word tuple at
a time; a renewal code admits a label word one piece at a time, found by
bisection in its sorted tails, or a batch of them matched at every
position; the ends every code word shares are common prefixes of tuples;
saturation reads one avoiding length at a time; the depth at which two
codes stop sharing words grows the shared words one symbol at a time; a permutation class is
chosen from one class built per number of fixed slots and counted one
multiplicity at a time; window tables rank one more symbol per depth, or
rank, order and key their windows by numpy's mergesort (`np.unique`,
stable `np.argsort`, `np.lexsort`), or by one packed sort at every depth;
the language checks of a permutation
class compare sets of word tuples; a label language recurses over label
prefixes, one state-set product per prefix; the Katok scorer counts the
windows of all words in one int64 table per depth; the Parry measure is built through COO arrays and a diagonal
product; a Markov measure is checked with scipy's row sums and product,
and its cylinders take scipy's sparse product at every prefix; and the Perron iteration runs twice, one sparse power
iteration per vector, the left one on the transpose rebuilt by scipy.
"""

import bisect
import functools
import math
import os
from collections import Counter, deque

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph  # noqa: F401  (sp.csgraph below)

from shiftflex.codes import Code, PermutationCode, _stable_order
from shiftflex.errors import (
    CapacityError,
    ConvergenceError,
    NoLowOverlapWordError,
    StageVerificationError,
    StructureDepthError,
    UnreachableStateError,
)
from shiftflex.measures import cyclic_windows, dense_table
from shiftflex import spectral
from shiftflex.spectral import PERRON_MAX_ITER, PERRON_TOL, MarkovMeasure, PerronData
from shiftflex.words import (
    DEFAULT_WORD_BUDGET,
    VertexShift,
    graph_period,
    is_label_admissible,
    label_word,
)


def successors(shift, state):
    """The successors of a state, ascending, as a list of ints."""
    m = shift.matrix
    return m.indices[m.indptr[state] : m.indptr[state + 1]].tolist()


def predecessors(shift, state):
    """The predecessors of a state, ascending, as a list of ints."""
    return np.flatnonzero(shift.dense()[:, state]).tolist()


def word_count(shift, n):
    vec = [1] * shift.num_states
    for _ in range(n - 1):
        vec = [sum(vec[j] for j in successors(shift, i)) for i in range(shift.num_states)]
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
            for j in successors(shift, state):
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
    lab = shift.label_array
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
        return VertexShift(shift.matrix.copy(), labels=shift.label_array, ambient_size=shift.ambient_size)
    blocks = language(shift, m, budget=budget)
    index = {w: i for i, w in enumerate(blocks)}
    rows, cols = [], []
    for i, u in enumerate(blocks):
        for s in successors(shift, u[-1]):
            j = index.get(u[1:] + (s,))
            if j is not None:
                rows.append(i)
                cols.append(j)
    mat = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(len(blocks), len(blocks)),
    )
    return VertexShift(mat, labels=[shift.label_array[w[0]] for w in blocks], ambient_size=shift.ambient_size)


def essential_blocks(blocks, alphabet_size):
    """The blocks, in order, that lie on a bi-infinite path of blocks
    overlapping in all but one symbol: those with no successor or no
    predecessor among the rest dropped until none is left."""
    while True:
        present = set(blocks)
        kept = [
            u
            for u in blocks
            if any(u[1:] + (s,) in present for s in range(alphabet_size))
            and any((s,) + u[:-1] in present for s in range(alphabet_size))
        ]
        if len(kept) == len(blocks):
            return blocks
        blocks = kept


def from_forbidden_words(alphabet_size, forbidden, block):
    """Clean words grown one symbol at a time, suffixes tested as tuples,
    and their essential part (block >= 3)."""
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
    blocks = essential_blocks(blocks, alphabet_size)
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
    return VertexShift(mat, labels=[w[0] for w in blocks], ambient_size=alphabet_size)


def bfs_distances(shift, sources, reverse=False):
    """Edges from the nearest source to each state (to it, with
    `reverse`), None where unreachable."""
    nbrs = functools.partial(predecessors if reverse else successors, shift)
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


def connecting_word(shift, frm, to):
    """Shortest word of at least one edge from `frm` to `to`, the
    lexicographically least: the distances to `to`, then from each state
    its first successor one edge nearer."""
    n = shift.num_states
    if not (0 <= frm < n and 0 <= to < n):
        raise ValueError("state out of range")
    dist = bfs_distances(shift, (to,), reverse=True)
    best = None
    for s in successors(shift, frm):
        if dist[s] is not None and (best is None or dist[s] + 1 < best):
            best = dist[s] + 1
    if best is None:
        raise UnreachableStateError(f"no admissible path from state {frm} to state {to}")
    word = [frm]
    for remaining in range(best - 1, -1, -1):
        word.append(next(s for s in successors(shift, word[-1]) if dist[s] == remaining))
    return tuple(word)


def strongly_connected(shift):
    n = shift.num_states
    if any(len(successors(shift, i)) == 0 for i in range(n)):
        return False
    if None in bfs_distances(shift, (0,)):
        return False
    if None in bfs_distances(shift, (0,), reverse=True):
        return False
    if n == 1:
        return 0 in successors(shift, 0)
    return True


def cycle_gcd(shift):
    level = bfs_distances(shift, (0,))
    g = 0
    for u in range(shift.num_states):
        for v in successors(shift, u):
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
    lab = shift.label_array.tolist()
    for s in range(shift.num_states):
        k0 = advance(0, lab[s])
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
            for t in successors(shift, s):
                k2 = advance(k, lab[t])
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
    lab = shift.label_array.tolist()
    stack = [(s,) for s in reversed(range(shift.num_states))]
    while stack:
        w = stack.pop()
        if len(w) == l:
            scanned += 1
            if max_self_overlap(tuple(lab[s] for s in w)) < bound:
                return w
            if scanned > budget:
                raise CapacityError(scanned, budget, what="scanned words")
            continue
        for s in reversed(successors(shift, w[-1])):
            stack.append(w + (s,))
    raise NoLowOverlapWordError(
        f"no admissible word of length {l} has self-overlap below {bound:g}"
    )


def is_admissible(shift, word):
    """True iff every adjacent pair of the word is an edge, one pair at a
    time."""
    if any(s < 0 or s >= shift.num_states for s in word):
        raise ValueError("symbol outside the shift's state set")
    return all(word[i + 1] in successors(shift, word[i]) for i in range(len(word) - 1))


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


def prev_word(words, word, with_tail):
    """States of the ambient a word of a recoded subsystem runs through,
    `words` giving per state of the subsystem its word of ambient states."""
    sw = [tuple(w) for w in words.tolist()]
    out = [sw[s][0] for s in word]
    if with_tail:
        out.extend(sw[word[-1]][1:])
    return tuple(out)


def enumerated_code(prev, words, gamma, glue_in, glue_out, w_prev):
    """The stage-1 code assembled, checked and labelled word by word."""
    label_words = {}
    for g in gamma:
        internal = glue_out + prev_word(words, g, with_tail=True) + glue_in + w_prev
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


def every_position_admitted(renewal, words):
    """`RenewalStructure.admitted` matching the k symbols at every one of
    the d + 1 positions of every row against the code words, then handing
    each whole code word on to the position k further, right to left."""
    words = np.asarray(words, dtype=np.int64)
    (rows, d), k, letters = words.shape, renewal.k, renewal._letters
    text = np.zeros((rows, d + k), letters.dtype)
    text[:, :d] = np.where((words >= 0) & (words < letters.max()), words + 1, 0)
    lcp = renewal._matched(0, text[:, np.arange(d + 1)[:, None] + np.arange(k)].reshape(-1, k))
    lcp = lcp.reshape(rows, d + 1)
    reach = np.arange(d + 1) + lcp
    for hi in range(d + 1 - k, 0, -k):
        lo = max(hi - k, 0)
        reach[:, lo:hi] = np.where(lcp[:, lo:hi] == k, reach[:, lo + k : hi + k], reach[:, lo:hi])
    best = reach[:, 0]
    for s in range(1, k):
        head = renewal._matched(s, text[:, : k - s])
        best = np.maximum(best, np.where(head == k - s, reach[:, min(k - s, d)], head))
    return best


def common_prefix_ends(renewal):
    """(P, S) of `RenewalStructure.shared_ends`, from `os.path.commonprefix`
    of the code words and of the reversed code words."""
    words = renewal.code.words
    p = len(os.path.commonprefix(words))
    s = len(os.path.commonprefix([w[::-1] for w in words]))
    return min(p, renewal.k), min(s, renewal.k)


def saturated(space, depth_from, depth_to):
    """`construction._saturated`, one avoiding length at a time."""
    try:
        for _, m in space.longest_avoiding(depth_from):
            if m is None or m >= depth_to:
                return False, f"window of length {m} avoids a depth-{depth_from} word"
    except StructureDepthError:
        return False, f"depth {depth_from} beyond the depths the coded stage decides"
    return True, f"all depth-{depth_from} words occur in every depth-{depth_to} word"


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
    return unique_table(renewal, depth, one_step_ranks(renewal, depth))


def unique_ranks(renewal, depth):
    """Context window ranks by prefix doubling, each pair key ranked by
    `np.unique` (a mergesort)."""
    if depth == 1:
        return renewal._contexts.astype(np.int64)
    h = 1 << (depth - 1).bit_length() - 1
    head, rest = unique_ranks(renewal, h)[:, : h - depth], unique_ranks(renewal, depth - h)[:, h:]
    span = int(rest.max()) + 1
    return np.unique(head * span + rest, return_inverse=True)[1].reshape(head.shape)


def packed_sort_ranks(renewal, depth):
    """`RenewalStructure._ranks` as it was before the counting branch: one
    packed sort of the pair keys (`_stable_order`) at every depth."""
    if depth == 1:
        return renewal._contexts.astype(np.int64)
    h = 1 << (depth - 1).bit_length() - 1
    head, rest = packed_sort_ranks(renewal, h)[:, : h - depth], packed_sort_ranks(renewal, depth - h)[:, h:]
    span = int(rest.max()) + 1
    # the pair key with the index bits `_stable_order` packs below it;
    # dense ranks: only past about 2e6 context windows
    if (int(head.max()) + 1) * span << (head.size - 1).bit_length() > 2**63:
        raise OverflowError(f"depth-{depth} window pairs overflow an int64 key")
    keys = (head * span + rest).ravel()
    order = _stable_order(keys)
    new = np.diff(keys[order], prepend=-1) != 0
    ranks = np.empty(len(keys), np.int64)
    ranks[order] = new.astype(np.int64).cumsum() - 1
    return ranks.reshape(head.shape)


def packed_sort_table(renewal, depth):
    """`RenewalStructure._table` as it was before the counting branch, on
    `packed_sort_ranks`."""
    if not 1 <= depth <= renewal.exact_depth:
        raise StructureDepthError(
            f"depth {depth} outside 1..{renewal.exact_depth}, the depths "
            "single code words decide"
        )
    p, s = renewal.shared_ends
    col = s - max(0, depth - p - 1)  # attributed offset 0, as in `exact_depth`
    attributed = packed_sort_ranks(renewal, depth)[:, col : col + renewal.k]
    used = np.bincount(attributed.ravel()) > 0
    ids = (used.astype(np.int64).cumsum() - 1)[attributed]
    where = np.zeros(int(used.sum()), np.int64)
    where[ids.ravel()] = np.arange(ids.size)
    a, c = np.divmod(where, renewal.k)
    ctx = renewal._contexts  # one flat gather: a 2-D one costs twice as much
    windows = ctx.ravel()[(a * ctx.shape[1] + c + col)[:, None] + np.arange(depth)]
    return ids, windows


def unique_table(renewal, depth, ranks=None):
    """(ids, windows) of the attributed depth-`depth` windows, their ids and
    first occurrences from `np.unique` of the context ranks (by default
    `unique_ranks`)."""
    if not 1 <= depth <= renewal.exact_depth:
        raise StructureDepthError(f"depth {depth} outside 1..{renewal.exact_depth}")
    if ranks is None:
        ranks = unique_ranks(renewal, depth)
    p, s = renewal.shared_ends
    col = s - max(0, depth - p - 1)
    attributed = ranks[:, col : col + renewal.k]
    _, first, ids = np.unique(attributed, return_index=True, return_inverse=True)
    a, c = np.divmod(first, renewal.k)
    windows = renewal._contexts[a[:, None], (c + col)[:, None] + np.arange(depth)]
    return ids.reshape(attributed.shape), windows


def argsort_spans(ids):
    """The span table of a (code words × k) id table, its occurrences
    ordered by `np.argsort(kind="stable")`."""
    order = np.argsort(ids, axis=None, kind="stable")
    win, (word, off) = ids.ravel()[order], np.divmod(order, ids.shape[1])
    start = np.flatnonzero(np.diff(win, prepend=-1) | np.diff(word, prepend=-1))
    step = np.diff(off, prepend=0)
    step[start] = 0
    end = np.append(start[1:], len(off)) - 1
    return win[start], word[start], off[start], off[end], np.maximum.reduceat(step, start)


def unique_cylinder_dict(words, ids, weights, mass):
    """{words[i]: summed weight / mass}, keyed in order of first occurrence
    by `np.unique(return_index=True)` and an argsort of the first indices."""
    keys, first = np.unique(ids, return_index=True)
    keys = keys[np.argsort(first)]
    values = (np.bincount(ids, weights=weights)[keys] / mass).tolist()
    return dict(zip([words[i] for i in keys.tolist()], values))


def lexsort_longest_avoiding(code, depth, ids):
    """`PermutationCode._longest_avoiding` on the span table of the
    ambient's id table `ids` (`argsort_spans`), its occurrences ordered by
    `np.argsort(kind="stable")` and its free hits by two `np.lexsort`s."""
    amb, k1 = code.ambient, code.ambient.k
    win, word, lo, hi, step = argsort_spans(ids)
    n, slots = int(ids.max()) + 1, code.glue + code.fixed
    s0, n_free = len(slots), len(code.free)
    period = (s0 + n_free) * k1
    seen = np.zeros(n, bool)
    fx_lo, fx_hi, gap, hits, top, bottom = (np.zeros(n, np.int64) for _ in range(6))
    by_word = np.argsort(word, kind="stable")
    bounds = np.searchsorted(word[by_word], np.arange(len(amb.code) + 1))
    for i, a in enumerate(slots):
        r = by_word[bounds[a] : bounds[a + 1]]
        w = win[r]
        old = seen[w]
        across = np.where(old, i * k1 + lo[r] - fx_hi[w], 0)
        gap[w] = np.maximum.reduce([gap[w], step[r], across])
        fx_lo[w] = np.where(old, fx_lo[w], i * k1 + lo[r])
        fx_hi[w] = i * k1 + hi[r]
        seen[w] = True
    count = np.bincount(np.asarray(code.free, np.int64), minlength=len(amb.code))
    f = np.flatnonzero(count[word])
    g = np.flatnonzero(np.diff(win[f], prepend=-1))
    fw, lo_f, hi_f = win[f[g]], lo[f], hi[f]
    hits[fw] = np.add.reduceat(count[word[f]], g)
    top[fw], bottom[fw] = np.maximum.reduceat(lo_f, g), np.minimum.reduceat(hi_f, g)
    nxt = np.minimum(g + 1, len(f) - 1)
    by_lo, by_hi = np.lexsort((-lo_f, win[f])), np.lexsort((hi_f, win[f]))
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


def markov_measure_refusal(shift, pi, P):
    """The message `MarkovMeasure` refuses (pi, P) with, or None, from the
    checks as they were with scipy's row sums and product `pi @ P`."""
    pi = np.asarray(pi, dtype=np.float64)
    P = sp.csr_matrix(P, dtype=np.float64)
    n = shift.num_states
    if pi.shape != (n,) or P.shape != (n, n):
        return "measure dimensions do not match the shift"
    if pi.min() < -spectral.MEASURE_TOL or abs(pi.sum() - 1.0) > spectral.MEASURE_TOL:
        return "pi must be a probability vector"
    rows = np.asarray(P.sum(axis=1)).ravel()
    if np.abs(rows - 1.0).max() > spectral.MEASURE_TOL:
        return "P must be row-stochastic"
    dense = shift.dense()
    for i, j, v in zip(*sp.find(P)):
        if not dense[i, j] and abs(v) > spectral.MEASURE_TOL:
            return "P supported outside the shift's edges"
    drift = np.abs(pi @ P - pi).max()
    if drift > spectral.MEASURE_TOL:
        return f"pi is not stationary for P (drift {drift:.2e})"
    return None


def parry_measure(shift):
    """The Parry measure through COO arrays, a CSR rebuild and a sparse
    diagonal product."""
    pd = spectral.perron(shift)
    lam, v, u = pd.value, pd.right, pd.left
    coo = shift.matrix.tocoo()
    data = v[coo.col] / (lam * v[coo.row])
    P = sp.csr_matrix((data, (coo.row, coo.col)), shape=shift.matrix.shape)
    rows = np.asarray(P.sum(axis=1)).ravel()
    P = sp.diags(1.0 / rows) @ P
    pi = u * v
    return MarkovMeasure(shift, pi / pi.sum(), P)


def markov_cylinder_table(m, depth):
    """A Markov measure's cylinder table by the recursion over label
    prefixes that forms `x @ P` with scipy's sparse product at every node."""
    lab = m.shift.label_array
    masks = [lab == a for a in range(m.shift.ambient_size)]
    out = {}

    def rec(prefix, x):
        if len(prefix) == depth:
            out[prefix] = float(x.sum())
            return
        y = x @ m.P
        for a in range(m.shift.ambient_size):
            z = np.where(masks[a], y, 0.0)
            if z.any():
                rec(prefix + (a,), z)

    for a in range(m.shift.ambient_size):
        x0 = np.where(masks[a], m.pi, 0.0)
        if x0.any():
            rec((a,), x0)
    return out


def _power_vector(mat, period):
    """Positive eigenvector of an irreducible 0/1 matrix.

    For aperiodic matrices iterates mat + I, which is primitive whenever mat
    is irreducible.  For period p > 1 the spectrum carries a full ring of
    eigenvalues of top modulus, so plain iteration cannot converge; instead
    mat^p is iterated (block-primitive) and the eigenvector of mat itself is
    reconstructed as sum_j mat^j w / lambda^j.
    """
    n = mat.shape[0]
    v = np.full(n, 1.0 / n)
    if period == 1:
        mv = mat @ v
        for it in range(1, PERRON_MAX_ITER + 1):
            w = mv + v
            s = w.sum()
            w /= s
            lam = s - 1.0
            mv = mat @ w  # the residual's product, and the next step's
            resid = np.abs(mv - lam * w).max()
            v = w
            if resid <= PERRON_TOL and it >= 2:
                return lam, w, resid, it
        raise ConvergenceError(
            f"power iteration did not reach tol={PERRON_TOL} in {PERRON_MAX_ITER} iterations"
        )
    for it in range(1, PERRON_MAX_ITER + 1):
        w = v
        for _ in range(period):
            w = mat @ w
        s = w.sum()
        if s <= 0:
            raise ConvergenceError("iteration collapsed to zero vector")
        w /= s
        lam = s ** (1.0 / period)  # v is sum-normalized
        # reconstruct the eigenvector of mat from the mat^p eigenvector
        r = w.copy()
        acc = w.copy()
        for _ in range(period - 1):
            acc = (mat @ acc) / lam
            r += acc
        r /= r.sum()
        resid = np.abs(mat @ r - lam * r).max()
        v = w
        if resid <= PERRON_TOL:
            return lam, r, resid, it
    raise ConvergenceError(
        f"power iteration (period {period}) did not reach tol={PERRON_TOL}"
    )


def perron(shift):
    """Perron data from two separate sparse power iterations: the right
    one on the matrix, the left one on the transpose rebuilt as
    `mat.T.tocsr()`, each reporting its own last residual (irreducible
    shifts only)."""
    p = graph_period(shift)
    mat = shift.matrix.astype(np.float64)
    _, right, res_r, it_r = _power_vector(mat, p)
    matT = mat.T.tocsr()
    _, left, res_l, it_l = _power_vector(matT, p)
    left = left / (left @ right)
    lam = float((left @ (mat @ right)) / (left @ right))
    return PerronData(
        value=lam,
        right=right,
        left=left,
        residual_right=float(res_r),
        residual_left=float(res_l),
        iterations=it_r + it_l,
    )
