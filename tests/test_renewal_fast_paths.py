"""Differential tests: each answer a renewal code gives without a graph
search against the graph search it replaces, on seeded random codes."""

import random

import numpy as np
import pytest
import scipy.sparse as sp

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
from shiftflex.construction import (
    NESTING_DEPTHS,
    _canonical_order,
    _connection_time,
    _disjoint_depth,
    _languages_agree,
    _nests,
    sub_code,
)
from shiftflex.words import (
    _cycle_gcd,
    _strongly_connected,
    bfs_distances,
    connecting_word,
    graph_period,
    is_irreducible,
    label_language,
    languages_disjoint,
    longest_window_avoiding,
)
from tests.test_permutation import (
    AMBIENT_SYNCED,
    AMBIENT_UNSYNCED,
    build,
    params,
    renewal_stage,
    target,
)


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


def graph_twin(code, a):
    """The renewal presentation of `code` without its code: every query
    falls back to the graph search."""
    plain = renewal_to_sft(code, ambient_size=a)
    plain.renewal = None
    return plain


def test_code_word_windows_match_graph_search():
    pairs = 0
    for a, code in random_codes(5, 120):
        shift, plain = renewal_to_sft(code, ambient_size=a), graph_twin(code, a)
        for depth in range(1, shift.renewal.exact_depth + 1):
            language = list(label_language(plain, depth))
            expected = [(w, longest_window_avoiding(plain, w)) for w in language]
            assert list(shift.renewal.longest_avoiding(depth)) == expected
            assert list(shift.longest_avoiding(depth)) == expected
            assert list(plain.longest_avoiding(depth)) == expected
            assert list(shift.language(depth)) == language
            assert list(plain.language(depth)) == language
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
    checked = 0
    for a, code in random_codes(9, 80):
        full = renewal_to_sft(code, ambient_size=a)
        t = len(code)
        shifts = [full] + [
            sub_code(full, full.renewal, lo, hi)
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
    for a, code in random_codes(13, 60):
        shift = renewal_to_sft(code, ambient_size=a)
        dense, labels = loop_renewal_matrix(code)
        assert (shift.dense() == dense).all()
        assert shift.labels == labels
        assert shift.ambient_size == a


def loop_adjacency(m):
    return tuple(
        tuple(int(j) for j in m.indices[m.indptr[i] : m.indptr[i + 1]])
        for i in range(m.shape[0])
    )


def test_adjacency_matches_int_loop():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        dense = (rng.random((n, n)) < rng.uniform(0.0, 0.3)).astype(np.int8)
        dense[rng.integers(n)] = 0  # an empty row
        dense[:, rng.integers(n)] = 0  # an empty column
        shift = VertexShift(sp.csr_matrix(dense))
        succ, pred = shift._adjacency_lists()
        assert succ == loop_adjacency(shift.matrix)
        assert pred == loop_adjacency(shift.matrix.tocsc())
        assert all(type(j) is int for row in succ + pred for j in row)


def scan_forbidden_words(alphabet_size, forbidden, block):
    """Every word of the block length tested against every forbidden word."""
    forbidden = [tuple(w) for w in forbidden]

    def clean(w):
        return not any(
            w[i : i + len(f)] == f for f in forbidden for i in range(len(w) - len(f) + 1)
        )

    words = [()]
    for _ in range(block):
        words = [w + (s,) for w in words for s in range(alphabet_size)]
    blocks = [w for w in words if clean(w)]
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
        assert shift.state_words.tolist() == [list(w) for w in blocks]
        assert shift.labels == tuple(w[0] for w in blocks)
        assert (shift.dense() == dense).all()


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
            out = bfs_distances(plain, plain.successors(end))
            for z in range(n):
                path = connecting_word(shift, end, z)
                assert path == renewal.path(end, z) == connecting_word(plain, end, z)
                assert len(path) == out[z] + 2
        for start in starts:
            back = bfs_distances(plain, plain.predecessors(start), reverse=True)
            for z in range(n):
                path = connecting_word(shift, z, start)
                assert path == renewal.path(z, start) == connecting_word(plain, z, start)
                assert len(path) == back[z] + 2
        for end in ends:
            for start in starts:
                for states in ([z] for z in range(n)):
                    assert _connection_time(shift, states, start, end) == (
                        _connection_time(plain, states, start, end)
                    )


def disjoint_depth_loop(y, z, cap):
    return next((kk for kk in range(1, cap + 1) if languages_disjoint(y, z, kk)), None)


def test_one_pass_k1_matches_disjointness_loop():
    depths, beyond_exact, never = 0, 0, 0
    for a, code in random_codes(41, 150):
        t = len(code)
        if t < 2:
            continue
        full = renewal_to_sft(code, ambient_size=a)
        cut = random.Random(t).randint(1, t - 1)
        y, z = sub_code(full, full.renewal, 0, cut), sub_code(full, full.renewal, cut, t)
        cap = 4 * code.uniform_length
        k1 = _disjoint_depth(y.renewal, z.renewal, a, cap)
        assert k1 == disjoint_depth_loop(y, z, cap)
        depths += 1
        if k1 is None:
            never += 1
        elif k1 > min(y.renewal.exact_depth, z.renewal.exact_depth):
            beyond_exact += 1
    assert depths > 60 and beyond_exact > 5 and never > 0


@pytest.mark.parametrize(
    "words, c, t", [(AMBIENT_SYNCED, 0.05, 6), (AMBIENT_UNSYNCED, 0.03, 5)]
)
def test_structured_stage_glue_matches_graph_search(words, c, t):
    prev = renewal_stage(words)
    stage, report = build(prev, target(c), params(t, t * 10))
    art, renewal, k = report.artifacts, prev.shift.renewal, prev.shift.renewal.k
    plain = graph_twin(prev.code, 3)
    y_words = art.Y.renewal.code.words
    assert y_words == renewal.code.words[: len(y_words)]  # Y is the first t ambient words
    order = _canonical_order(len(y_words), k, t * 10)
    start, end = order[0] * k, order[-1] * k + k - 1
    z_states = sorted(set(art.Z.state_words[:, 0].tolist()))
    assert report.overlap["M"] == _connection_time(plain, z_states, start, end)
    assert report.overlap["K1"] == disjoint_depth_loop(art.Y, art.Z, 6 * k)
    w = art.low_overlap_word
    assert art.connector_in == connecting_word(plain, end, w[0])[1:-1]
    assert art.connector_out == connecting_word(plain, w[-1], start)[1:-1]


def test_unwalked_presentations_hold_no_adjacency():
    prev = renewal_stage(AMBIENT_SYNCED)
    _, report = build(prev, target(0.05), params(6, 60))
    assert report.artifacts.Y._succ is None and report.artifacts.Y._pred is None
    assert prev.shift._succ is None and prev.shift._pred is None
    # the low-overlap search walks Z's CSR arrays, not tuples
    assert report.artifacts.low_overlap_word
    assert report.artifacts.Z._succ is None and report.artifacts.Z._pred is None
