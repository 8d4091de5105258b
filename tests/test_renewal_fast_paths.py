"""Differential tests: each answer a renewal code gives without a graph
search against the graph search of its presentation, on seeded random
codes."""

import functools
import importlib
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import tests.loop_oracles as oracle
from shiftflex import (
    Code,
    StructureDepthError,
    VertexShift,
    from_forbidden_words,
    parry_measure,
    renewal_to_sft,
    topological_entropy,
)
from shiftflex.codes import RenewalStructure, log_orders
from shiftflex.construction import (
    NESTING_DEPTHS,
    _connection_time,
    _disjoint_depth,
    _languages_agree,
    _nests,
    _neighbour_masks,
    _permutation_class,
    _permutation_code,
)
from shiftflex.words import (
    _cycle_gcd,
    _strongly_connected,
    connecting_word,
    graph_period,
    is_irreducible,
    is_label_admissible,
    label_language,
    label_rows,
    language,
    languages_disjoint,
    longest_window_avoiding,
)
from tests.test_permutation import (
    AMBIENT_SYNCED,
    AMBIENT_UNSYNCED,
    ONE_PASS_DELTA,
    build,
    params,
    renewal_stage,
    target,
)

ROOT = Path(__file__).resolve().parent.parent


def random_codes(seed, count):
    """Uniform-length codes over 2-3 symbols whose words share a random
    prefix and suffix; one code word is allowed."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = rng.randint(2, 3)
        head = tuple(rng.randrange(a) for _ in range(rng.randrange(3)))
        tail = tuple(rng.randrange(a) for _ in range(rng.randrange(3)))
        middle = rng.randint(1, 3)
        words = {
            head + tuple(rng.randrange(a) for _ in range(middle)) + tail
            for _ in range(rng.randint(1, 5))
        }
        out.append((a, Code(tuple(words))))
    return out


def presentation(renewal, lo, hi):
    """The presentation of code words lo..hi-1 of `renewal` alone, as the
    build makes Z's."""
    return renewal_to_sft(renewal.sub_code(lo, hi).code)


def graph_twin(code, a):
    """The renewal presentation of `code`: a shift, whose every query is a
    graph search."""
    return renewal_to_sft(code, ambient_size=a)


def test_code_word_windows_match_graph_search():
    pairs = 0
    for a, code in random_codes(5, 120):
        plain = graph_twin(code, a)
        renewal = plain.renewal
        for depth in range(1, renewal.exact_depth + 1):
            language = list(label_language(plain, depth))
            expected = [(w, longest_window_avoiding(plain, w)) for w in language]
            assert list(renewal.longest_avoiding(depth)) == expected
            assert list(plain.longest_avoiding(depth)) == expected
            assert renewal.language(depth) == language == list(plain.language(depth))
            pairs += 1
    assert pairs > 500


def test_code_word_window_examples():
    # 00 and 01 share the prefix 0: every window of 0^inf avoids 1
    renewal = renewal_to_sft(Code(((0, 0), (0, 1)))).renewal
    assert renewal.longest_avoiding(1) == (((0,), 1), ((1,), None))
    # one code word: its windows recur with period k
    renewal = renewal_to_sft(Code(((0, 1, 1),))).renewal
    assert renewal.exact_depth == 7  # P = S = k
    assert renewal.longest_avoiding(2) == (((0, 1), 3), ((1, 0), 3), ((1, 1), 3))


def test_renewal_graph_invariants_match_graph_search():
    """A renewal system of one word length k is irreducible with period k:
    the closed forms a coded stage rests on, against the graph searches of
    its presentations and of those of its code-word ranges."""
    checked = 0
    for a, code in random_codes(9, 80):
        full = renewal_to_sft(code, ambient_size=a)
        t = len(code)
        shifts = [full] + [
            presentation(full.renewal, lo, hi)
            for lo in range(t)
            for hi in range(lo + 1, t + 1)
        ]
        for shift in shifts:
            assert is_irreducible(shift) and _strongly_connected(shift)
            assert graph_period(shift) == shift.renewal.k == _cycle_gcd(shift)
            checked += 1
    assert checked > 200


def loop_renewal_matrix(code):
    """The positional presentation built edge by edge."""
    k, t = code.uniform_length, len(code)
    dense = np.zeros((t * k, t * k), dtype=np.int8)
    labels = []
    for a, w in enumerate(code.words):
        for p in range(k):
            labels.append(w[p])
            if p < k - 1:
                dense[a * k + p, a * k + p + 1] = 1
        for b in range(t):
            dense[a * k + k - 1, b * k] = 1
    return dense, tuple(labels)


def test_renewal_matrix_matches_loop_build():
    """The presentation knows its sizes at once and builds at its first
    graph read the matrix and labels of the edge-by-edge build."""
    edge_cases = [
        (3, Code(((0, 1, 1),))),  # t = 1
        (3, Code(((0,), (2,)))),  # k = 1
        (301, Code(((300, 1, 7), (5, 299, 300), (0, 0, 256)))),  # 2-byte letters
    ]
    for a, code in edge_cases + random_codes(13, 60):
        shift = renewal_to_sft(code, ambient_size=a)
        dense, labels = loop_renewal_matrix(code)
        assert not {"matrix", "label_array"} & set(vars(shift))
        assert (shift.num_states, shift.ambient_size) == (len(labels), a)
        assert shift.label_array.tolist() == list(labels)
        assert (shift.dense() == dense).all()
        assert shift.matrix.dtype == np.int8 and shift.matrix.has_canonical_format
        assert (shift.num_states, shift.ambient_size) == (len(labels), a)
        assert renewal_to_sft(code).ambient_size == code.alphabet_size


def test_presentation_runs_init_on_first_read(monkeypatch):
    """The checked construction runs once, at the first graph read, so a
    wrapper around `VertexShift.__init__` sees the edges only when they
    exist."""
    built, init = [], VertexShift.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.matrix.nnz)

    monkeypatch.setattr(VertexShift, "__init__", spy)
    shift = renewal_to_sft(Code(((0, 1), (1, 0), (1, 1))))
    assert built == [] and shift.num_states == 6 and shift.renewal.k == 2
    assert shift.label_array.tolist() == [0, 1, 1, 0, 1, 1]
    assert built == [3 + 9]
    shift.matrix, shift.label_array
    assert built == [12]


def test_deferred_shift_checks_on_first_read():
    """A deferred matrix or labels that `__init__` refuses are refused at
    every read, and no other missing attribute builds anything."""
    bad = VertexShift.deferred(lambda: (np.array([[2]]), [0]), 1, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            bad.matrix
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        bad.label_array
    wide = VertexShift.deferred(lambda: (np.array([[1]]), [3]), 1, 2)
    with pytest.raises(ValueError, match="label out of ambient alphabet range"):
        wide.label_array
    calls = []
    lazy = VertexShift.deferred(lambda: calls.append(1) or (np.array([[1]]), [0]), 1, 1)
    assert getattr(lazy, "ambient", None) is None and lazy.renewal is None and not calls
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        lazy.missing
    assert not calls and lazy.matrix.nnz == 1 and calls == [1]


def loop_adjacency(m):
    return tuple(
        tuple(int(j) for j in m.indices[m.indptr[i] : m.indptr[i + 1]])
        for i in range(m.shape[0])
    )


def test_neighbour_masks_match_int_loop():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        dense = (rng.random((n, n)) < rng.uniform(0.0, 0.3)).astype(np.int8)
        dense[rng.integers(n)] = 0  # an empty row
        dense[:, rng.integers(n)] = 0  # an empty column
        shift = VertexShift(sp.csr_matrix(dense))
        succ, pred = _neighbour_masks(shift)
        assert succ == [sum(1 << j for j in row) for row in loop_adjacency(shift.matrix)]
        assert pred == [sum(1 << j for j in row) for row in loop_adjacency(shift.matrix.tocsc())]
        assert all(type(mask) is int for mask in succ + pred)


def scan_forbidden_words(alphabet_size, forbidden, block):
    """Every word of the block length tested against every forbidden word,
    and the essential part of the clean ones."""
    forbidden = [tuple(w) for w in forbidden]

    def clean(w):
        return not any(
            w[i : i + len(f)] == f for f in forbidden for i in range(len(w) - len(f) + 1)
        )

    words = [()]
    for _ in range(block):
        words = [w + (s,) for w in words for s in range(alphabet_size)]
    blocks = oracle.essential_blocks([w for w in words if clean(w)], alphabet_size)
    index = {w: i for i, w in enumerate(blocks)}
    dense = np.zeros((len(blocks), len(blocks)), dtype=np.int8)
    for i, u in enumerate(blocks):
        for s in range(alphabet_size):
            j = index.get(u[1:] + (s,))
            if j is not None and clean(u + (s,)):
                dense[i, j] = 1
    return blocks, dense


def test_forbidden_words_match_full_scan():
    rng = random.Random(21)
    for _ in range(60):
        a = rng.randint(2, 4)
        forbidden = {
            tuple(rng.randrange(a) for _ in range(rng.randint(2, 4)))
            for _ in range(rng.randint(1, 5))
        }
        m = max(len(w) for w in forbidden)
        block = rng.choice([None, m, m + 1]) if m > 2 else rng.choice([3, 4])
        shift = from_forbidden_words(a, forbidden, block=block)
        blocks, dense = scan_forbidden_words(a, forbidden, block or m)
        assert shift.label_array.tolist() == [w[0] for w in blocks]
        assert (shift.dense() == dense).all()
        # a path of block length from state i reads block i
        paths = language(shift, block or m)
        assert shift.label_array[paths].tolist() == [list(blocks[i]) for i in paths[:, 0]]


def test_language_agreement_matches_admissibility_path():
    seen = set()
    for a, code in random_codes(25, 80):
        words = code.words
        if len(words) < 2:
            continue
        half = Code(words[: len(words) // 2])
        for mine, theirs in ((code, half), (half, code), (code, code)):
            ours = renewal_to_sft(mine, ambient_size=a)
            upstream = renewal_to_sft(theirs, ambient_size=a)
            plain_ours, plain = graph_twin(mine, a), graph_twin(theirs, a)
            for depth in range(1, upstream.renewal.exact_depth + 1):
                verdict = _languages_agree(ours, upstream, depth)
                assert verdict == _languages_agree(plain_ours, plain, depth)
                seen.add(verdict[1].split(" at ")[0])
    assert len(seen) == 3  # missing, strictly larger and agreeing all occur


def test_set_nesting_matches_per_word_loop():
    """Renewal codes over generic bases: most code words are base words,
    some not, and junctions may still leave the base language."""
    rng = random.Random(43)
    verdicts = []
    for _ in range(60):
        a = rng.randint(2, 3)
        forbidden = {
            tuple(rng.randrange(a) for _ in range(rng.randint(2, 3)))
            for _ in range(rng.randint(0, 2))
        }
        base = from_forbidden_words(a, sorted(forbidden))
        k = rng.randint(2, 4)
        pool = list(label_language(base, k))
        if not pool:
            continue
        words = set(rng.sample(pool, min(len(pool), rng.randint(1, 4))))
        if rng.random() < 0.3:
            words.add(tuple(rng.randrange(a) for _ in range(k)))
        shift = renewal_to_sft(Code(tuple(words)), ambient_size=a)
        for depth in NESTING_DEPTHS:
            verdict, _ = _nests(shift, base, depth)
            assert verdict == oracle.nests(shift, base, depth)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_parry_tables_match_power_iteration():
    checked = 0
    for a, code in random_codes(31, 80):
        shift, explicit = (renewal_to_sft(code, ambient_size=a) for _ in range(2))
        closed, iterated = shift.renewal, parry_measure(explicit)
        assert abs(closed.entropy - topological_entropy(explicit)) < 1e-12
        for depth in range(1, closed.exact_depth + 1):
            table, reference = closed.cylinder_table(depth), iterated.cylinder_table(depth)
            assert set(table) == set(reference)
            assert max(abs(table[w] - reference[w]) for w in table) < 1e-12
            checked += 1
        with pytest.raises(StructureDepthError, match=f"depth {closed.exact_depth + 1} outside"):
            closed.cylinder_table(closed.exact_depth + 1)
    assert checked > 400


def test_renewal_paths_match_graph_search():
    for a, code in random_codes(37, 40):
        shift, plain = renewal_to_sft(code, ambient_size=a), graph_twin(code, a)
        renewal, k, n = shift.renewal, code.uniform_length, shift.num_states
        ends, starts = range(k - 1, n, k), range(0, n, k)
        for end in ends:
            out = oracle.bfs_distances(plain, oracle.successors(plain, end))
            for z in range(n):
                path = connecting_word(shift, end, z)
                assert path == renewal.path(end, z) == connecting_word(plain, end, z)
                assert len(path) == out[z] + 2
        for start in starts:
            back = oracle.bfs_distances(plain, oracle.predecessors(plain, start), reverse=True)
            for z in range(n):
                path = connecting_word(shift, z, start)
                assert path == renewal.path(z, start) == connecting_word(plain, z, start)
                assert len(path) == back[z] + 2
        graph_path = functools.partial(connecting_word, plain)
        for end in ends:
            for start in starts:
                for states in ([z] for z in range(n)):
                    assert _connection_time(renewal.path, states, start, end) == (
                        _connection_time(graph_path, states, start, end)
                    )


def test_state_slice_is_the_checked_restriction():
    """The presentation of a range of code words, built from the code
    alone, is the slice of the full presentation on their states: its
    state a k + p is the full one's state (lo + a) k + p."""
    for a, code in random_codes(31, 40):
        full, k, t = renewal_to_sft(code, ambient_size=a), code.uniform_length, len(code)
        for lo in range(t):
            for hi in range(lo + 1, t + 1):
                part = slice(lo * k, hi * k)
                sub = presentation(full.renewal, lo, hi)
                assert "matrix" not in vars(sub) and sub.num_states == (hi - lo) * k
                checked = VertexShift(full.matrix[part, part], labels=full.label_array[part])
                assert sub == checked
                assert sub.ambient_size == Code(code.words[lo:hi]).alphabet_size
                assert sub.matrix.dtype == np.int8 and sub.matrix.has_canonical_format
                assert sub.renewal.code.words == code.words[lo:hi]


def test_permutation_code_choice_matches_per_class_loop():
    """The class the build picks, q passes through the first t code words
    in canonical order, is the one the per-class loop picks."""
    rng, chosen = random.Random(29), set()
    for a, code in random_codes(37, 60):
        renewal, t_all = renewal_to_sft(code, ambient_size=a).renewal, len(code)
        k = renewal.k
        for _ in range(4):
            t, q = rng.randint(1, t_all), rng.randint(1, 6)  # t = 1: classes of equal size
            order = tuple(range(t)) * q
            glue = tuple(rng.randrange(t_all) for _ in range(rng.randint(1, 3)))
            glue_internal = tuple(g * k + p for g in glue for p in range(k))
            head = rng.randrange(len(glue_internal))
            top = math.lgamma(len(order) + 1) / ((len(glue) + len(order)) * k)
            for c1 in (0.0, rng.uniform(0, 1.2 * top), top):
                got = _permutation_code(renewal, t, q * t * k, glue_internal, head, c1)
                assert got == oracle.permutation_code(renewal, glue, head, order, c1)
                chosen.add(len(got.fixed))
    assert len(chosen) > 5


def test_permutation_class_log_size_matches_counted_multiset():
    """At every fixed-slot count f, the closed form is log_orders of the
    free multiset: c1 set to that class's entropy picks f back, unless
    several classes hold one free word (log 1 = 0), with the same size."""
    for t in range(1, 7):
        for q in range(1, 6):
            n = q * t
            for glue in (0, 7):
                k = n * 3 + glue
                for f in range(min(2, n), n + 1):
                    counted = log_orders(Counter((tuple(range(t)) * q)[f:]).values())
                    got_f, got = _permutation_class(t, q, 3, glue, counted / k)
                    assert got == pytest.approx(counted, rel=1e-12, abs=1e-12)
                    assert got_f == f or counted == got == 0


def disjoint_depth_loop(y, z, cap):
    return next((kk for kk in range(1, cap + 1) if languages_disjoint(y, z, kk)), None)


def graph_prefix(plain, row):
    """Longest prefix of `row` the graph search admits; admitted words are
    closed under prefixes, so bisect on the length."""
    lo, hi = 0, len(row)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if is_label_admissible(plain, tuple(row[:mid])):
            lo = mid
        else:
            hi = mid - 1
    return lo


def check_admitted(code, a, rows):
    """`admitted` of the code against its graph twin and the per-word
    loop, on the label rows given."""
    renewal, plain = renewal_to_sft(code, ambient_size=a).renewal, graph_twin(code, a)
    rows = [list(r) for r in rows]
    got = renewal.admitted(np.array(rows, dtype=np.int64).reshape(len(rows), -1)).tolist()
    assert got == [graph_prefix(plain, r) for r in rows]
    for r, m in zip(rows, got):
        assert (m == len(r)) == oracle.renewal_admits(renewal, r)
    return sum(m == len(r) for r, m in zip(rows, got))


def sampled_rows(code, a, depth, rng, count=10):
    """Label words of the code's renewal system at `depth`, each also with
    one symbol redrawn from -1..a (symbols outside the alphabet too)."""
    if depth == 0:
        return [[]]
    words = label_rows(renewal_to_sft(code, ambient_size=a), depth).tolist()
    out = []
    for w in rng.sample(words, min(count, len(words))):
        out.append(w)
        bent = list(w)
        bent[rng.randrange(depth)] = rng.randint(-1, a)
        out.append(bent)
    return out


def test_admitted_prefixes_match_graph_twin():
    rng, admitted, rows = random.Random(17), 0, 0
    long3 = Code(tuple(tuple(rng.randrange(3) for _ in range(43)) for _ in range(4)))
    cases = random_codes(23, 40) + [
        (1, Code(((0, 0, 0),))),  # one symbol
        (2, Code(((0, 1, 1),))),  # t = 1
        (2, Code(((0,), (1,)))),  # k = 1: the full shift
        (3, long3),  # 3^43 > 2^63: no piece fits one integer
        (300, Code(((0, 299, 256, 1), (255, 1, 299, 299), (299, 299, 0, 256)))),  # 2-byte letters
    ]
    for a, code in cases:
        k, exact = code.uniform_length, renewal_to_sft(code, ambient_size=a).renewal.exact_depth
        for depth in sorted({0, 1, exact - 1, exact, exact + 1, 2 * exact + k}):
            batch = sampled_rows(code, a, depth, rng)
            admitted += check_admitted(code, a, batch)
            rows += len(batch)
    assert rows > 2000 and 0.3 < admitted / rows < 0.9


@st.composite
def codes_and_rows(draw):
    """A code over 1-3 symbols of 1-5 words of length 1-6, and label rows
    of one depth: windows of concatenations of its words, some with one
    symbol redrawn from -1..a."""
    a, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    word = st.tuples(*[st.integers(0, a - 1)] * k)
    words = draw(st.lists(word, min_size=1, max_size=5, unique=True))
    depth = draw(st.integers(0, 4 * k + 3))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        chain = draw(st.lists(st.sampled_from(words), min_size=depth // k + 2, max_size=depth // k + 2))
        start = draw(st.integers(0, k - 1))
        row = [x for w in chain for x in w][start : start + depth]
        if depth and draw(st.booleans()):
            row[draw(st.integers(0, depth - 1))] = draw(st.integers(-1, a))
        rows.append(row)
    return a, Code(tuple(words)), rows


@given(codes_and_rows())
def test_admitted_prefixes_match_graph_twin_hypothesis(case):
    a, code, rows = case
    check_admitted(code, a, rows)


def test_one_pass_k1_matches_disjointness_loop():
    depths, beyond_exact, never = 0, 0, 0
    for a, code in random_codes(41, 150):
        t = len(code)
        if t < 2:
            continue
        full = renewal_to_sft(code, ambient_size=a)
        cut = random.Random(t).randint(1, t - 1)
        y, z = full.renewal.sub_code(0, cut), presentation(full.renewal, cut, t)
        cap = 4 * code.uniform_length
        k1 = _disjoint_depth(y, z, cap)
        words, k = code.words, code.uniform_length
        twin_y, twin_z = graph_twin(Code(words[:cut]), a), graph_twin(Code(words[cut:]), a)
        assert k1 == oracle.disjoint_depth(twin_y, twin_z, a, cap)
        depths += 1
        own = (RenewalStructure(Code(part), k).exact_depth for part in (words[:cut], words[cut:]))
        if k1 is None:
            never += 1
        elif k1 > min(own):
            beyond_exact += 1
    assert depths > 60 and beyond_exact > 5 and never > 0


def test_renewal_pairs_disjointness_matches_graph_twin():
    verdicts = Counter()
    for a, code in random_codes(43, 80):
        t = len(code)
        if t < 2:
            continue
        full, k = renewal_to_sft(code, ambient_size=a), code.uniform_length
        cut = random.Random(t).randint(1, t - 1)
        y, z = presentation(full.renewal, 0, cut), presentation(full.renewal, cut, t)
        words = code.words
        twin_y, twin_z = graph_twin(Code(words[:cut]), a), graph_twin(Code(words[cut:]), a)
        for depth in range(1, 3 * k + 2):
            verdict = languages_disjoint(y, z, depth)
            assert verdict == languages_disjoint(twin_y, twin_z, depth)
            assert verdict == languages_disjoint(z, y, depth)
            # either side given by its code alone, without a presentation
            assert verdict == languages_disjoint(y.renewal, z, depth)
            assert verdict == languages_disjoint(y, z.renewal, depth)
            assert verdict == languages_disjoint(z.renewal, twin_y, depth)
            verdicts[verdict] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


@pytest.mark.parametrize(
    "words, c, t", [(AMBIENT_SYNCED, 0.01, 6), (AMBIENT_UNSYNCED, 0.01, 8)]
)
def test_structured_stage_glue_matches_graph_search(words, c, t):
    prev = renewal_stage(words)
    stage, report = build(prev, target(c), params(t * 10, ONE_PASS_DELTA[t]))
    art, renewal, k = report.artifacts, prev.shift.renewal, prev.shift.renewal.k
    plain = graph_twin(prev.code, 3)
    y_words = art.Y.code.words
    assert y_words == renewal.code.words[: len(y_words)]  # Y is the first t ambient words
    start, end = 0, len(y_words) * k - 1  # γ starts on Y's first word, ends on its last
    # Z is the two ambient code words after Y's
    z_states = list(range(len(y_words) * k, (len(y_words) + 2) * k))
    assert art.Z.renewal.code.words == renewal.code.words[len(y_words) : len(y_words) + 2]
    graph_path = functools.partial(connecting_word, plain)
    assert report.overlap["M"] == _connection_time(graph_path, z_states, start, end)
    y_twin = graph_twin(art.Y.code, 3)
    z_twin = graph_twin(art.Z.renewal.code, 3)
    assert report.overlap["K1"] == disjoint_depth_loop(y_twin, z_twin, 6 * k)
    w = art.low_overlap_word
    assert art.connector_in == connecting_word(plain, end, w[0])[1:-1]
    assert art.connector_out == connecting_word(plain, w[-1], start)[1:-1]


def test_unwalked_presentations_hold_no_adjacency():
    prev = renewal_stage(AMBIENT_SYNCED)
    _, report = build(prev, target(0.01), params(60, ONE_PASS_DELTA[6]))
    # Y has no presentation to walk: it is a row range of the ambient
    assert not isinstance(report.artifacts.Y, VertexShift)
    assert report.artifacts.Y.ambient is prev.shift.renewal
    # the low-overlap search walks Z's CSR arrays: no shift holds a tuple
    # per state
    assert report.artifacts.low_overlap_word
    for shift in (prev.shift, report.artifacts.Z):
        assert not any(isinstance(v, tuple) and v and isinstance(v[0], tuple) for v in vars(shift).values())


def test_stage_two_reads_its_ambients_tables(monkeypatch):
    """A stage-2 build on the acceptance stage 1 builds one presentation,
    Z's two code words, and no window table but the ambient's: Y is a row
    range of it."""
    import dataclasses
    from pathlib import Path

    from shiftflex.config import parse_config
    from shiftflex.construction import base_stage, build_stage, verify_stage

    cfg = Path(__file__).resolve().parent.parent / "configs" / "full3_acceptance.cfg"
    rc = parse_config(cfg.read_text())
    tgt = rc.build_target()
    first, second = rc.build_schedule(tgt)[:2]
    prev, _ = build_stage(base_stage(tgt), tgt, first)
    ambient = prev.shift.renewal
    shifts, tables = [], []
    init, table = VertexShift.__init__, RenewalStructure._table

    def spy_init(self, matrix, *args, **kwargs):
        init(self, matrix, *args, **kwargs)
        shifts.append(self.num_states)

    def spy_table(self, depth):
        tables.append(self)
        return table(self, depth)

    monkeypatch.setattr(VertexShift, "__init__", spy_init)
    monkeypatch.setattr(RenewalStructure, "_table", spy_table)
    stage, report = build_stage(prev, tgt, second)
    assert shifts == [2 * ambient.k]
    assert tables and all(owner is ambient for owner in tables)
    y = report.artifacts.Y
    assert not isinstance(y, VertexShift) and y.ambient is ambient
    assert y.code.words == ambient.code.words[: len(y.code)]
    # the report's own overlap dict verifies the stage again
    again = verify_stage(prev, stage, tgt, second, overlap_data=report.overlap)
    assert again == dataclasses.replace(report, artifacts=None)


@pytest.mark.parametrize("config", ["full3_acceptance", "full2_tower"])
def test_tower_never_builds_stage_ones_presentation(config, tmp_path, monkeypatch):
    """A two-stage tower, its written outputs and the benchmark's stage
    checks read stage 1 through its code: the matrix and labels of its
    presentation are never built, while those of Z's presentation are."""
    from shiftflex.cli import _write_outputs
    from shiftflex.config import parse_config
    from shiftflex.construction import iterate

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks = importlib.import_module("checks")
    rc = parse_config((ROOT / "configs" / f"{config}.cfg").read_text())
    tgt = rc.build_target()
    schedule = rc.build_schedule(tgt)
    tower = iterate(tgt, 2, schedule)
    assert tower.ok
    _write_outputs(tgt, tower, str(tmp_path))
    stages, reports = tower.stages, tower.reports
    # the benchmark counts a class only with distinct free words, as on the
    # acceptance tower; full2_tower's stage 2 repeats them
    free = stages[2].code.free
    for i in (1, 2) if len(set(free)) == len(free) else (1,):
        checks.check_stage(stages[i - 1], stages[i], reports[i], tgt.c, schedule[i - 1].delta, tgt.rho.values)
    first = stages[1].shift
    assert first.num_states == len(first.renewal.code) * first.renewal.k
    assert not {"matrix", "label_array"} & set(vars(first))
    z = reports[2].artifacts.Z
    assert {"matrix", "label_array"} <= set(vars(z)) and z.num_states == 2 * first.renewal.k


class SealedPresentation:
    """Stands in for a stage's renewal presentation: its `renewal` link is
    all that can be read; any other attribute (`matrix`, `label_array`,
    ...) fails the test."""

    def __init__(self, renewal):
        self.renewal = renewal

    def __getattr__(self, name):
        raise AssertionError(f"the build read the presentation's {name!r}")


@pytest.mark.parametrize("config", ["full3_acceptance", "full2_tower"])
def test_stage_two_builds_without_stage_ones_presentation(config):
    """Stage 2 of a tower, built on a stage 1 whose presentation cannot be
    read, is the stage built on the full stage 1, report and code alike."""
    import dataclasses
    from pathlib import Path

    from shiftflex.config import parse_config
    from shiftflex.construction import base_stage, build_stage

    cfg = Path(__file__).resolve().parent.parent / "configs" / f"{config}.cfg"
    rc = parse_config(cfg.read_text())
    tgt = rc.build_target()
    first, second = rc.build_schedule(tgt)[:2]
    prev, _ = build_stage(base_stage(tgt), tgt, first)
    sealed = dataclasses.replace(prev, shift=SealedPresentation(prev.shift.renewal))
    blind, blind_report = build_stage(sealed, tgt, second)
    stage, report = build_stage(prev, tgt, second)
    assert dataclasses.replace(blind_report, artifacts=None) == (
        dataclasses.replace(report, artifacts=None)
    )
    assert blind.code == stage.code and blind.sync_depths == stage.sync_depths
    seen, want = blind_report.artifacts, report.artifacts
    for name in ("low_overlap_word", "connector_in", "connector_out"):
        assert getattr(seen, name) == getattr(want, name)
