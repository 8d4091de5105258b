import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftflex import (
    CapacityError,
    UnreachableStateError,
    VertexShift,
    connecting_word,
    full_shift,
    golden_mean_shift,
    higher_block,
    is_admissible,
    is_irreducible,
    language,
    topological_entropy,
    word_count,
)
from shiftflex.words import (
    bfs_distances,
    graph_period,
    induced_subshift,
    is_label_admissible,
    label_language,
    languages_disjoint,
    longest_window_avoiding,
)


def brute_words(matrix, n):
    """Independent recursive enumeration straight off a dense matrix."""
    words = [(s,) for s in range(len(matrix))]
    for _ in range(n - 1):
        words = [w + (t,) for w in words for t in range(len(matrix)) if matrix[w[-1]][t]]
    return sorted(words)


GOLDEN_DENSE = [[1, 1], [1, 0]]


def test_language_full_shift_n3():
    assert len(language(full_shift(2), 3)) == 8


def test_language_golden_matches_bruteforce():
    g = golden_mean_shift()
    for n in range(1, 9):
        ws = [tuple(w) for w in language(g, n).tolist()]
        assert ws == brute_words(GOLDEN_DENSE, n)
        assert all(is_admissible(g, w) for w in ws)


def test_language_golden_n3_count():
    assert len(language(golden_mean_shift(), 3)) == 5


def test_language_single_state():
    one = VertexShift([[1]])
    assert language(one, 7).tolist() == [[0] * 7]


def test_word_counts_follow_fibonacci():
    g = golden_mean_shift()
    counts = [word_count(g, n) for n in range(1, 20)]
    for a, b, c in zip(counts, counts[1:], counts[2:]):
        assert c == a + b


def test_language_budget():
    with pytest.raises(CapacityError):
        language(full_shift(2), 30, budget=1000)


@given(st.integers(1, 5), st.integers(1, 5))
def test_submultiplicative_counts(n, m):
    g = golden_mean_shift()
    assert word_count(g, n + m) <= word_count(g, n) * word_count(g, m)


def test_is_admissible_examples():
    g = golden_mean_shift()
    assert is_admissible(g, (0, 1, 0))
    assert not is_admissible(g, (0, 1, 1, 0))
    assert is_admissible(full_shift(2), (1, 1, 0, 1))


def reachability_oracle(matrix):
    """Strong connectivity by boolean matrix powers."""
    a = np.array(matrix, dtype=bool)
    n = len(matrix)
    reach = a.copy()
    for _ in range(n):
        reach = reach | (reach @ a)
    return bool(reach.all())


def test_irreducibility_examples():
    assert is_irreducible(full_shift(2))
    assert not is_irreducible(VertexShift([[1, 1], [0, 1]]))
    assert is_irreducible(golden_mean_shift())


@given(st.integers(0, 2**16 - 1))
def test_irreducibility_matches_reachability_oracle(bits):
    m = [[bits >> (4 * i + j) & 1 for j in range(4)] for i in range(4)]
    assert is_irreducible(VertexShift(m)) == reachability_oracle(m)


def test_connecting_word_examples():
    g = golden_mean_shift()
    assert connecting_word(g, 1, 1) == (1, 0, 1)
    assert connecting_word(full_shift(2), 0, 1) == (0, 1)
    with pytest.raises(UnreachableStateError):
        connecting_word(VertexShift([[1, 1], [0, 1]]), 1, 0)


def test_connecting_word_is_shortest_and_admissible():
    g = golden_mean_shift()
    for a in range(2):
        for b in range(2):
            w = connecting_word(g, a, b)
            assert w[0] == a and w[-1] == b and is_admissible(g, w)
            shorter = [
                u
                for n in range(2, len(w))
                for u in brute_words(GOLDEN_DENSE, n)
                if u[0] == a and u[-1] == b
            ]
            assert not shorter


def test_higher_block_identity():
    f = full_shift(2)
    h = higher_block(f, 1)
    assert h.num_states == 2 and (h.matrix != f.matrix).nnz == 0


def test_higher_block_golden():
    h = higher_block(golden_mean_shift(), 2)
    assert h.state_words.tolist() == [[0, 0], [0, 1], [1, 0]]
    assert abs(topological_entropy(h) - math.log((1 + 5**0.5) / 2)) < 1e-12


def test_higher_block_single_state():
    one = VertexShift([[1]])
    assert higher_block(one, 5).num_states == 1


@given(st.integers(1, 4), st.integers(1, 5))
def test_higher_block_count_preservation(m, n):
    g = golden_mean_shift()
    assert word_count(higher_block(g, m), n) == word_count(g, n + m - 1)


def test_higher_block_label_language():
    h = higher_block(golden_mean_shift(), 3)
    for n in range(1, 6):
        assert list(label_language(h, n)) == brute_words(GOLDEN_DENSE, n)


def test_induced_subshift_labels():
    f = full_shift(3)
    sub = induced_subshift(f, [0, 2])
    assert sub.labels == (0, 2)
    assert is_label_admissible(sub, (0, 2, 0))
    assert not is_label_admissible(sub, (0, 1))


def test_languages_disjoint():
    f = full_shift(3)
    a = induced_subshift(f, [0])
    b = induced_subshift(f, [1, 2])
    assert languages_disjoint(a, b, 1)
    g = induced_subshift(f, [0, 1])
    assert not languages_disjoint(g, b, 1)
    assert languages_disjoint(g, induced_subshift(f, [2]), 1)


def test_graph_period():
    assert graph_period(full_shift(2)) == 1
    assert graph_period(VertexShift([[0, 1], [1, 0]])) == 2
    cyc3 = VertexShift([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert graph_period(cyc3) == 3


def test_longest_window_avoiding():
    g = golden_mean_shift()
    # after one 1 the next symbol is forced to 0, so 1-runs stop at length 1
    assert longest_window_avoiding(g, (0,)) == 1
    assert longest_window_avoiding(g, (1,)) is None
    f = full_shift(2)
    assert longest_window_avoiding(f, (0, 1)) is None
    cyc = VertexShift([[0, 1], [1, 0]])  # ...010101...
    assert longest_window_avoiding(cyc, (0,)) == 1
    assert longest_window_avoiding(cyc, (0, 1)) == 2


def test_from_forbidden_words_depth2():
    from shiftflex import from_forbidden_words

    s = from_forbidden_words(2, [(1, 1)])
    assert (s.matrix != golden_mean_shift().matrix).nnz == 0


def test_from_forbidden_words_block_recoding():
    from shiftflex import from_forbidden_words

    s = from_forbidden_words(2, [(0, 0, 0)])
    # counts of words avoiding 000 follow the tribonacci recurrence
    counts = [word_count(s, n) for n in range(1, 16)]
    expect = [2, 4, 7]
    while len(expect) < 15 + 2:
        expect.append(expect[-1] + expect[-2] + expect[-3])
    # the block presentation counts words of length n + block - 1
    assert counts == expect[2:]
    lam = math.exp(topological_entropy(s))
    assert abs(lam**3 - lam**2 - lam - 1) < 1e-9


def test_bfs_distances_and_period_match_matrix_powers():
    rng = np.random.default_rng(5)
    periods = set()
    for draw in range(600):
        p = draw % 3 + 1
        # edges only from class i to class i + 1 (mod p), so periods p occur often
        allowed = (np.arange(5)[None, :] - np.arange(5)[:, None]) % p == 1 % p
        m = ((rng.random((5, 5)) < 0.7) & allowed).astype(int)
        shift = VertexShift(m)
        sources = [s for s in range(5) if rng.random() < 0.4] or [0]
        for reverse in (False, True):
            expected = [0 if s in sources else None for s in range(5)]
            walk_ends = np.isin(np.arange(5), sources).astype(int)
            for n in range(1, 5):
                walk_ends = (walk_ends @ (m.T if reverse else m) > 0).astype(int)
                for v in np.flatnonzero(walk_ends):
                    if expected[v] is None:
                        expected[v] = n
            assert bfs_distances(shift, sources, reverse=reverse) == expected
        if is_irreducible(shift):
            # every cycle is a sum of simple cycles, of length at most 5
            power, cycle_lengths = np.eye(5, dtype=int), []
            for n in range(1, 6):
                power = np.minimum(power @ m, 1)
                if np.trace(power):
                    cycle_lengths.append(n)
            periods.add(graph_period(shift))
            assert graph_period(shift) == math.gcd(*cycle_lengths)
    assert periods == {1, 2, 3}
