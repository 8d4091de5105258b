"""Differential tests: the array kernels of the generic SFT layer against
the per-edge loops they replaced (`tests/loop_oracles.py`), on small
labelled graphs with dead ends, reducible graphs and single states with
and without a loop."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.loop_oracles as oracle
from shiftflex import (
    CapacityError,
    Code,
    ConvergenceError,
    MarkovMeasure,
    NoLowOverlapWordError,
    ReducibleShiftError,
    UnreachableStateError,
    VertexShift,
    find_low_overlap_word,
    from_forbidden_words,
    full_shift,
    golden_mean_shift,
    higher_block,
    label_language,
    language,
    max_self_overlap,
    parry_measure,
    perron,
    renewal_to_sft,
    topological_entropy,
    word_count,
)
import shiftflex.words as wordlib
from shiftflex import codes, spectral
from shiftflex.construction import _mask_subshift, _subset_scores
from shiftflex.measures import MetricConfig
from shiftflex.words import (
    DEFAULT_WORD_BUDGET,
    _bfs_levels,
    _cycle_gcd,
    _strongly_connected,
    connecting_word,
    graph_period,
    induced_subshift,
    is_irreducible,
    is_label_admissible,
    label_rows,
    longest_window_avoiding,
)
from tests.conftest import dense_perron


@st.composite
def labelled_graphs(draw, max_states=8):
    """A 0/1 matrix on 1-8 states labelled into an alphabet of 1-3 symbols.

    The density ranges from empty to full, so dead ends, reducible graphs
    and lone states with and without a loop all occur; some states may be
    forced to be dead ends, and edges may be restricted to run from one
    class of states to the next of `period` classes.
    """
    n = draw(st.integers(1, max_states))
    density = draw(st.sampled_from([0.0, 0.2, 0.35, 0.5, 0.7, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    period = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    dense = cyclic_graph(rng, n, density, period)
    if draw(st.booleans()):
        dense[rng.integers(n)] = 0  # a dead end
    alphabet = draw(st.integers(1, 3))
    labels = rng.integers(0, alphabet, size=n).tolist()
    return VertexShift(dense, labels=labels, ambient_size=alphabet)


def cyclic_graph(rng, n, density, period):
    """Random 0/1 matrix whose edges run from class c to class c + 1 mod
    `period` (states assigned to classes at random): every cycle length is
    a multiple of the period."""
    cls = rng.integers(0, period, size=n)
    allowed = (cls[None, :] - cls[:, None]) % period == 1 % period
    return ((rng.random((n, n)) < density) & allowed).astype(np.int8)


def same_shift(got, want):
    assert got.num_states == want.num_states
    assert got.matrix.indptr.tolist() == want.matrix.indptr.tolist()
    assert got.matrix.indices.tolist() == want.matrix.indices.tolist()
    assert got.label_array.tolist() == want.label_array.tolist()
    assert got.ambient_size == want.ambient_size


def same_blocks(got, base, m):
    """`got` is the m-block presentation of `base` on the rows of
    `language(base, m)`, edge by edge: state i is row i, labelled by the
    label of its first state, every edge i -> j joins rows that overlap in
    m - 1 states into an admissible (m + 1)-word, and there is one edge
    per admissible (m + 1)-word."""
    rows = language(base, m)
    assert got.num_states == len(rows)
    assert got.label_array.tolist() == base.label_array[rows[:, 0]].tolist()
    i, j = got.matrix.nonzero()
    assert (rows[i, 1:] == rows[j, :-1]).all()
    walks = np.hstack([rows[i], rows[j, -1:]])
    assert base.dense()[walks[:, :-1], walks[:, 1:]].all()
    assert len(i) == oracle.word_count(base, m + 1)


def outcome(fn, *args, **kwargs):
    """The value, or the error type with its attributes."""
    try:
        return fn(*args, **kwargs)
    except CapacityError as exc:
        return ("CapacityError", exc.requested, exc.budget, str(exc))
    except NoLowOverlapWordError as exc:
        return ("NoLowOverlapWordError", str(exc))


@settings(max_examples=300)
@given(labelled_graphs(), st.integers(1, 4), st.sampled_from([None, 3, 20]))
def test_higher_block_and_language_match_loops(shift, m, budget):
    kwargs = {} if budget is None else {"budget": budget}
    got, want = outcome(higher_block, shift, m, **kwargs), outcome(oracle.higher_block, shift, m, **kwargs)
    if isinstance(want, tuple):
        assert got == want
    else:
        same_shift(got, want)
        same_blocks(got, shift, m)
    words = outcome(language, shift, m, **kwargs)
    reference = outcome(oracle.language, shift, m, **kwargs)
    if isinstance(words, tuple):
        assert words == reference
    else:
        assert words.tolist() == [list(w) for w in reference]
        assert words.shape == (len(reference), m)
    assert word_count(shift, m) == oracle.word_count(shift, m)


@settings(max_examples=300)
@given(labelled_graphs(), st.integers(1, 6), st.sampled_from([None, 3, 20]))
def test_label_language_matches_loop(shift, n, budget):
    kwargs = {} if budget is None else {"budget": budget}
    assert outcome(label_language, shift, n, **kwargs) == outcome(oracle.label_language, shift, n, **kwargs)


@settings(max_examples=300)
@given(labelled_graphs(), st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_label_admissible_matches_label_language(shift, word):
    word = tuple(word)
    assert is_label_admissible(shift, word) == (word in oracle.label_language(shift, len(word)))


def test_label_language_where_prefixes_share_state_sets():
    # on a 3-block recoding most prefixes end in the same few state sets
    shift = higher_block(from_forbidden_words(2, [(1, 1, 1)]), 3)
    clean = [w for w in itertools.product(range(2), repeat=10) if (1, 1, 1) not in zip(w, w[1:], w[2:])]
    got = label_language(shift, 10)
    assert len(got) == len(clean) == 504
    assert got == tuple(clean) == oracle.label_language(shift, 10)


def test_label_language_refusal_names_the_exact_count():
    with pytest.raises(CapacityError) as err:
        label_language(full_shift(2), 12, budget=1000)
    assert (err.value.requested, err.value.budget) == (4096, 1000)
    assert str(err.value) == "enumeration of 4096 label words exceeds budget 1000"
    assert len(label_language(full_shift(2), 12, budget=4096)) == 4096
    with pytest.raises(CapacityError) as err:  # counted past int64
        label_language(full_shift(3), 50)
    assert err.value.requested == 3**50


def test_label_sets_do_not_overflow_with_many_predecessors():
    # 256 states labelled 0 all lead to state 256, labelled 1: a sum of the
    # 256 edges in int8 would wrap to 0 and lose the word (0, 1)
    dense = np.zeros((257, 257), dtype=np.int8)
    dense[:256, 256] = 1
    shift = VertexShift(dense, labels=[0] * 256 + [1])
    assert label_language(shift, 2) == ((0, 1),)
    assert is_label_admissible(shift, (0, 1))


@settings(max_examples=300)
@given(labelled_graphs())
def test_irreducibility_period_and_distances_match_loops(shift):
    verdict = oracle.strongly_connected(shift)
    assert _strongly_connected(shift) == verdict
    assert is_irreducible(shift) == verdict
    if verdict:
        assert _cycle_gcd(shift) == graph_period(shift) == oracle.cycle_gcd(shift)
    n, m = shift.num_states, shift.matrix
    for sources in ([0], [n - 1], list(range(0, n, 2)), []):
        for reverse in (False, True):
            arrays = shift._predecessor_arrays() if reverse else (m.indptr, m.indices)
            want = oracle.bfs_distances(shift, sources, reverse)
            assert _bfs_levels(*arrays, sources).tolist() == [-1 if d is None else d for d in want]


def path_or_refusal(fn, shift, frm, to):
    try:
        return fn(shift, frm, to)
    except UnreachableStateError as exc:
        return ("UnreachableStateError", str(exc))


@settings(max_examples=300)
@given(labelled_graphs())
def test_connecting_word_matches_loop(shift):
    n = shift.num_states
    for frm in range(n):
        for to in range(n):
            got = path_or_refusal(connecting_word, shift, frm, to)
            assert got == path_or_refusal(oracle.connecting_word, shift, frm, to)
            if got[0] != "UnreachableStateError":
                assert all(type(s) is int for s in got)


def test_connecting_word_is_the_least_shortest_walk():
    # against every walk of up to n edges: the shortest of at least one
    # edge from frm to to, the lexicographically least among those, and a
    # refusal exactly where there is none
    rng = np.random.default_rng(23)
    kinds = set()
    for _ in range(150):
        n = int(rng.integers(1, 6))
        shift = VertexShift(cyclic_graph(rng, n, rng.uniform(0.1, 0.8), int(rng.integers(1, 4))))
        walks = [w for length in range(2, n + 2) for w in oracle.language(shift, length)]
        for frm in range(n):
            for to in range(n):
                ends = [w for w in walks if w[0] == frm and w[-1] == to]
                got = path_or_refusal(connecting_word, shift, frm, to)
                if not ends:
                    assert got == ("UnreachableStateError", f"no admissible path from state {frm} to state {to}")
                    kinds.add("refused")
                    continue
                assert got == min(ends, key=lambda w: (len(w), w))
                kinds.add("loop" if frm == to else min(len(got), 4))
    assert kinds == {"refused", "loop", 2, 3, 4}


def test_irreducibility_and_period_cover_periodic_graphs():
    rng = np.random.default_rng(11)
    periods = set()
    for _ in range(400):
        n, period = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        shift = VertexShift(cyclic_graph(rng, n, rng.uniform(0.3, 1.0), period))
        verdict = oracle.strongly_connected(shift)
        assert _strongly_connected(shift) == verdict
        if verdict:
            periods.add(graph_period(shift))
            assert _cycle_gcd(shift) == oracle.cycle_gcd(shift)
    assert periods >= {1, 2, 3, 4}


@settings(max_examples=500)
@given(labelled_graphs(), st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_longest_window_matches_loop(shift, pattern):
    pattern = [a % shift.ambient_size for a in pattern]
    assert longest_window_avoiding(shift, pattern) == oracle.longest_window_avoiding(shift, pattern)


def test_longest_window_covers_every_kind_of_answer():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(600):
        n = int(rng.integers(1, 7))
        dense = (rng.random((n, n)) < rng.uniform(0, 0.6)).astype(np.int8)
        alphabet = int(rng.integers(1, 4))
        shift = VertexShift(dense, labels=rng.integers(0, alphabet, size=n), ambient_size=alphabet)
        pattern = rng.integers(0, alphabet, size=int(rng.integers(1, 5))).tolist()
        got = longest_window_avoiding(shift, pattern)
        assert got == oracle.longest_window_avoiding(shift, pattern)
        seen.add(got if got is None or got <= 1 else "longer")
    assert seen == {None, 0, 1, "longer"}


@settings(max_examples=300)
@given(labelled_graphs(), st.integers(1, 12), st.sampled_from([0, 5, 300]))
def test_low_overlap_word_matches_loop(shift, length, budget):
    got = outcome(find_low_overlap_word, shift, length, budget=budget)
    assert got == outcome(oracle.find_low_overlap_word, shift, length, budget=budget)


def test_low_overlap_word_covers_every_outcome():
    rng = np.random.default_rng(9)
    kinds = set()
    for _ in range(300):
        n = int(rng.integers(1, 6))
        dense = (rng.random((n, n)) < rng.uniform(0.2, 0.9)).astype(np.int8)
        shift = VertexShift(dense, labels=rng.integers(0, 2, size=n), ambient_size=2)
        length, budget = int(rng.integers(1, 13)), int(rng.choice([2, 40, 10**6]))
        got = outcome(find_low_overlap_word, shift, length, budget=budget)
        assert got == outcome(oracle.find_low_overlap_word, shift, length, budget=budget)
        kinds.add(got[0] if isinstance(got[0], str) else "word")
    assert kinds == {"word", "CapacityError", "NoLowOverlapWordError"}


@settings(max_examples=200)
@given(
    st.integers(1, 3),
    st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=4), min_size=0, max_size=6),
    st.integers(0, 2),
)
def test_forbidden_words_match_loop(alphabet, forbidden, extra):
    forbidden = [tuple(s % alphabet for s in w) for w in forbidden]
    block = max((len(w) for w in forbidden), default=2) + extra
    if block < 3:
        block = 3
    same_shift(
        from_forbidden_words(alphabet, forbidden, block=block),
        oracle.from_forbidden_words(alphabet, forbidden, block),
    )


def test_forbidden_words_at_a_block_past_int64():
    # 3**50 > 2**63: a design encoding whole blocks as int64 would overflow
    allowed = {(0, 1), (1, 2), (2, 0)}
    pairs = [(a, b) for a in range(3) for b in range(3) if (a, b) not in allowed]
    shift = from_forbidden_words(3, pairs, block=50)
    assert shift.num_states == 3
    assert shift.dense().tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert shift.label_array.tolist() == [0, 1, 2]
    # each state's 50-block starts as its path of four states reads
    assert label_language(shift, 4) == ((0, 1, 2, 0), (1, 2, 0, 1), (2, 0, 1, 2))


def test_forbidden_words_longer_than_int64_codes():
    # a forbidden word of length 41 over 3 symbols: 3**41 > 2**62, so a
    # design encoding forbidden words as int64 codes would overflow
    cycle = [(a, b) for a in range(3) for b in range(3) if (a, b) not in {(0, 1), (1, 2), (2, 0)}]
    for long_word in ((0, 1, 2) * 13 + (0, 1), (1, 2, 0) * 13 + (1, 2), (2, 1) * 20 + (0,)):
        for block in (None, 42):
            got = from_forbidden_words(3, cycle + [long_word], block=block)
            same_shift(got, oracle.from_forbidden_words(3, cycle + [long_word], block or 41))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=30))
def test_one_prefix_function_for_borders(word):
    assert max_self_overlap(word) == oracle.max_self_overlap(word)


def test_subset_search_masks_are_strongly_connected():
    # the subshift of a subset-search mask carries the verdict "irreducible"
    # without a search; the loop oracle must agree on every mask
    rng = np.random.default_rng(13)
    shifts = [higher_block(from_forbidden_words(2, []), 3), higher_block(from_forbidden_words(3, []), 2)]
    for _ in range(20):
        n = int(rng.integers(2, 8))
        shifts.append(VertexShift((rng.random((n, n)) < 0.45).astype(np.int8)))
    checked = 0
    for shift in shifts:
        scores = _subset_scores(shift, parry_measure(full_shift(shift.ambient_size)), MetricConfig(1))
        for mask in scores.masks.tolist():
            sub = _mask_subshift(shift, mask)
            assert is_irreducible(sub) and oracle.strongly_connected(sub)
            checked += 1
    assert checked > 300


def test_perron_matches_the_transpose_path(monkeypatch):
    # the lockstep iteration of both vectors on the shift's edge arrays
    # gives the values, residuals and iteration counts of two separate
    # sparse power iterations, the left one on the transpose, bit for bit;
    # rows of out- and in-degree >= 8 are where pairwise and sequential
    # summation part ways, and the two halves may stop at different steps
    halves = []

    def spy(*args):
        found = power_vectors(*args)
        halves.append((found[0][2], found[1][2]))
        return found

    power_vectors = spectral._power_vectors
    monkeypatch.setattr(spectral, "_power_vectors", spy)
    rng = np.random.default_rng(17)
    shifts = [full_shift(10)]
    for _ in range(300):
        n, period = int(rng.integers(1, 81)), int(rng.integers(1, 5))
        shifts.append(VertexShift(cyclic_graph(rng, n, rng.uniform(0.05, 1.0), period)))
    periods, degrees = set(), set()
    for shift in shifts:
        if not oracle.strongly_connected(shift):
            continue
        want = oracle.perron(VertexShift(shift.matrix))
        got = perron(shift)
        assert np.array_equal(got.right, want.right) and np.array_equal(got.left, want.left)
        assert (got.value, got.residual_right, got.residual_left, got.iterations) == (
            want.value, want.residual_right, want.residual_left, want.iterations
        )
        assert max(got.residual_right, got.residual_left) <= 1e-12
        periods.add(graph_period(shift))
        dense = shift.dense()
        degrees.add(min(dense.sum(axis=0).max(), dense.sum(axis=1).max()) >= 8)
    assert periods == {1, 2, 3, 4} and True in degrees
    assert any(right != left for right, left in halves)


def test_perron_raises_past_the_iteration_cap(monkeypatch):
    # two steps are not enough for either branch: each raises the message
    # of the separate sparse iteration
    monkeypatch.setattr(spectral, "PERRON_MAX_ITER", 2)
    monkeypatch.setattr(oracle, "PERRON_MAX_ITER", 2)
    period3 = [
        [0, 0, 0, 1, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1, 1], [1, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
    ]
    cases = [
        (VertexShift([[1, 1], [1, 0]]), 1, "power iteration did not reach tol=1e-12 in 2 iterations"),
        (VertexShift(period3), 3, "power iteration (period 3) did not reach tol=1e-12"),
    ]
    for shift, period, message in cases:
        assert graph_period(shift) == period
        with pytest.raises(ConvergenceError) as got:
            perron(shift)
        assert str(got.value) == message
        with pytest.raises(ConvergenceError) as want:
            oracle._power_vector(shift.matrix.astype(np.float64), period)
        assert str(want.value) == message


def test_recodings_inherit_irreducibility_and_period():
    # a block presentation of an irreducible base carries its verdict and
    # period without a search; they must equal a fresh computation, and a
    # reducible base leaves both to be computed
    rng = np.random.default_rng(19)
    kinds = set()
    for _ in range(150):
        n, period = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        base = VertexShift(cyclic_graph(rng, n, rng.uniform(0.2, 0.9), period))
        a = int(rng.integers(2, 5))
        pairs = [(x, y) for x in range(a) for y in range(a) if rng.random() < 0.3]
        if rng.random() < 0.5:  # two symbol classes that must alternate
            pairs = [(x, y) for x in range(a) for y in range(a) if (x < a // 2) == (y < a // 2)]
        longer = [tuple(rng.integers(0, a, size=int(rng.integers(3, 5))).tolist()) for _ in range(3)]
        forbidden = pairs + longer
        recoded = [
            ("higher", base, higher_block(base, int(rng.integers(1, 4)))),
            ("forbidden", None, from_forbidden_words(a, forbidden, block=5)),
        ]
        for how, source, h in recoded:
            inherited, cached_period = h._irreducible_cache, h._period_cache
            fresh = VertexShift(h.matrix)
            verdict = is_irreducible(fresh)
            if source is not None:
                assert inherited == (True if is_irreducible(source) else None)
            assert inherited in (None, verdict) and is_irreducible(h) == verdict
            if inherited:
                assert cached_period == graph_period(fresh)
            if verdict:
                assert graph_period(h) == graph_period(fresh)
            kinds.add((how, inherited, cached_period))
    assert {(how, True, p) for how in ("higher", "forbidden") for p in (1, 2)} < kinds
    assert {("higher", None, None), ("forbidden", None, None)} < kinds


def test_lifted_perron_matches_the_power_iteration():
    # a block presentation of an irreducible base takes its Perron data from
    # the root's; it must agree with the power iteration on the same matrix
    # in a shift that carries no lift
    rng = np.random.default_rng(23)
    kinds, cases = set(), 0
    while cases < 160:
        if rng.random() < 0.5:
            n, period = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            base = VertexShift(cyclic_graph(rng, n, rng.uniform(0.3, 0.9), period))
            if not is_irreducible(base):
                continue
            shift = higher_block(base, int(rng.integers(2, 5)))
            how = "higher"
        else:
            a = int(rng.integers(2, 4))
            forbidden = [tuple(rng.integers(0, a, size=int(rng.integers(2, 5))).tolist()) for _ in range(3)]
            base = from_forbidden_words(a, forbidden)
            if not is_irreducible(base):
                continue
            block = max(map(len, forbidden)) + int(rng.integers(1, 4))
            shift = from_forbidden_words(a, forbidden, block=block)
            # the seed is cut to its essential part, so an irreducible shift
            # always has an irreducible seed to lift from
            assert shift._lift is not None
            how = "forbidden"
        m = int(rng.integers(1, 4))
        assert topological_entropy(higher_block(base, m)) == topological_entropy(base)
        got = perron(shift)
        want = perron(VertexShift(shift.matrix, shift.label_array, shift.ambient_size))
        assert got.iterations == 0 and want.iterations > 0
        assert abs(got.value - want.value) <= 1e-12 * want.value
        assert (np.abs(got.right - want.right) <= 1e-8 * want.right).all()
        assert (np.abs(got.left - want.left) <= 1e-8 * want.left).all()
        assert max(got.residual_right, got.residual_left) <= spectral.PERRON_TOL
        assert abs((got.left * got.right).sum() - 1.0) <= 1e-12
        parry_measure(shift)  # MarkovMeasure checks pi and P
        kinds.add((how, graph_period(base)))
        cases += 1
    assert {(how, p) for how in ("higher", "forbidden") for p in (1, 2)} <= kinds
    assert ("higher", 3) in kinds


def test_lifted_perron_is_within_1e10_of_dense_eig():
    # the root's vectors are accurate to its tolerance relative to entries
    # of about 1/26; the power iteration on the 1519 states only to 1e-12
    # absolute on entries of about 1e-3
    shift = from_forbidden_words(3, [(0, 1, 2, 0), (2, 2, 1), (1, 1, 1, 1), (0, 2, 0, 2)], block=7)
    assert shift.num_states == 1519
    got = perron(shift)
    value, right, left = dense_perron(shift)
    assert abs(got.value - value) <= 1e-12 * value
    assert (np.abs(got.right - right) <= 1e-10 * right).all()
    assert (np.abs(got.left - left) <= 1e-10 * left).all()


def test_only_irreducible_bases_lift():
    # a reducible base, a reducible seed, or a seed with no states leaves
    # the presentation without a lift, and perron refuses it as before
    reducible = [
        higher_block(VertexShift([[1, 1], [0, 1]]), 3),
        from_forbidden_words(2, [(1, 0), (0, 0, 1)], block=4),  # essential part: two loops
        from_forbidden_words(2, list(itertools.product(range(2), repeat=2)) + [(0, 0, 0)], block=4),
    ]
    assert reducible[2].num_states == 0
    for shift in reducible:
        assert shift._lift is None
        with pytest.raises(ReducibleShiftError):
            perron(shift)


def test_forbidden_words_keep_only_the_essential_part():
    # 11 can never occur once 011 and 111 are forbidden: the golden-mean
    # shift on its 3-blocks, irreducible and lifted like any other
    shift = from_forbidden_words(2, [(0, 1, 1), (1, 1, 1)])
    same_blocks(shift, golden_mean_shift(), 3)
    assert shift._lift is not None and is_irreducible(shift)
    assert topological_entropy(shift) == pytest.approx(np.log((1 + 5**0.5) / 2), abs=1e-12)
    # a dead end 01 in the seed on 2-words: one state is left, 11111
    shift = from_forbidden_words(2, [(1, 0), (0, 1, 1), (0, 0)], block=5)
    assert shift.dense().tolist() == [[1]] and shift.label_array.tolist() == [1]
    assert shift._lift is not None and is_irreducible(shift)
    # on symbols, a dropped symbol keeps the labels of the others
    shift = from_forbidden_words(3, [(0, 1), (1, 1), (2, 1)])
    assert shift.dense().tolist() == [[1, 1], [1, 1]]
    assert shift.label_array.tolist() == [0, 2] and shift.ambient_size == 3
    same_shift(from_forbidden_words(2, [(1, 1)]), golden_mean_shift())
    empty = from_forbidden_words(2, list(itertools.product(range(2), repeat=2)))
    assert empty.num_states == 0 and empty.ambient_size == 2 and not is_irreducible(empty)


def test_perron_iterates_only_the_root(monkeypatch):
    # the 3-block presentation of a 4-block presentation lifts from the
    # seed below both: no power iteration runs on a larger matrix
    sizes = []

    def spy(tails, heads, n, period):
        sizes.append(n)
        return power_vectors(tails, heads, n, period)

    power_vectors = spectral._power_vectors
    monkeypatch.setattr(spectral, "_power_vectors", spy)
    forbidden = [(0, 1, 2, 0), (2, 2, 1), (1, 1, 1, 1), (0, 2, 0, 2)]
    base = from_forbidden_words(3, forbidden)
    shift = higher_block(base, 3)
    root = shift._lift[0]
    assert root._lift is None and root.num_states < base.num_states < shift.num_states
    perron(shift)
    assert sizes == [root.num_states]


def raised(fn, *args, **kwargs):
    """The value, or the type and message of the error raised."""
    try:
        return fn(*args, **kwargs)
    except (CapacityError, NoLowOverlapWordError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def lifted_presentations(rng, count):
    """`count` seeded (kind, period, shift) block presentations with a lift:
    `higher_block` (m = 2-4) of labelled irreducible graphs of periods 1-3,
    and `from_forbidden_words(block=...)` of lists whose forbidden 2-words
    make 1-3 classes of symbols cycle, some of zero entropy."""
    while count:
        if rng.random() < 0.5:
            n, period, a = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            dense = cyclic_graph(rng, n, rng.uniform(0.3, 0.9), period)
            base = VertexShift(dense, labels=rng.integers(0, a, size=n), ambient_size=a)
            if not is_irreducible(base):
                continue
            shift = higher_block(base, int(rng.integers(2, 5)))
            how = "higher"
        else:
            a, period = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            cls = rng.integers(0, period, size=a)
            forbidden = [(x, y) for x in range(a) for y in range(a)
                         if (cls[y] - cls[x]) % period != 1 % period or rng.random() < 0.15]
            forbidden += [tuple(rng.integers(0, a, size=int(rng.integers(3, 5))).tolist())
                          for _ in range(int(rng.integers(0, 3)))]
            block = max(3, max(map(len, forbidden), default=2) + int(rng.integers(0, 3)))
            shift = from_forbidden_words(a, forbidden, block=block)
            if not is_irreducible(shift):
                continue
            how = "forbidden"
        assert shift._lift is not None
        yield how, graph_period(shift), shift
        count -= 1


def test_lifted_label_queries_match_the_presentation():
    # a block presentation answers its label queries from its root; each
    # must give what the same graph gives in a shift that carries no lift
    rng = np.random.default_rng(29)
    kinds = set()
    for how, period, shift in lifted_presentations(rng, 160):
        fresh = VertexShift(shift.matrix, shift.label_array, shift.ambient_size)
        root, first, _, levels = shift._lift
        assert fresh._lift is None and root._lift is None
        assert np.array_equal(shift.label_array, root.label_array[first])
        assert shift.ambient_size == root.ambient_size
        assert shift.num_states == word_count(root, levels + 1)
        a = shift.ambient_size
        for n in range(5):
            for budget in (DEFAULT_WORD_BUDGET, 3):
                got = raised(label_language, shift, n, budget)
                assert got == raised(label_language, fresh, n, budget)
                kinds.add(("language", got[0] if got and isinstance(got[0], str) else "words"))
            if n:
                assert label_rows(shift, n).tolist() == label_rows(fresh, n).tolist()
        for _ in range(6):
            word = rng.integers(-1 if rng.random() < 0.1 else 0, a + (rng.random() < 0.1),
                                size=int(rng.integers(0, 8))).tolist()
            got = is_label_admissible(shift, word)
            assert got == is_label_admissible(fresh, word)
            kinds.add(("admissible", got))
        for _ in range(4):
            pattern = rng.integers(0, a, size=int(rng.integers(0, 5))).tolist()
            got = raised(longest_window_avoiding, shift, pattern)
            assert got == raised(longest_window_avoiding, fresh, pattern)
            kinds.add(("window", got if got is None or isinstance(got, tuple) else "length"))
        for length in (0, *rng.integers(1, 11, size=3).tolist()):
            got = raised(find_low_overlap_word, shift, length)
            assert got == raised(find_low_overlap_word, fresh, length)
            kinds.add(("word", got[0] if isinstance(got[0], str) else "found"))
        kinds.add((how, period))
    assert {(how, p) for how in ("higher", "forbidden") for p in (1, 2, 3)} <= kinds
    assert {("language", "words"), ("language", "CapacityError"), ("language", "ValueError"),
            ("admissible", True), ("admissible", False), ("window", None), ("window", "length"),
            ("word", "found"), ("word", "NoLowOverlapWordError"), ("word", "ValueError")} <= kinds
    assert ("window", ("ValueError", "pattern must be nonempty")) in kinds


def test_lifted_low_overlap_budget_counts_root_words():
    # the 3-block presentation of the full 2-shift scans four 10-symbol
    # words before 0000000100; its root scans one 8-symbol word, 00000000
    shift = higher_block(full_shift(2), 3)
    fresh = VertexShift(shift.matrix, shift.label_array, shift.ambient_size)
    want = find_low_overlap_word(fresh, 8)
    assert find_low_overlap_word(shift, 8, budget=1) == want == (0, 0, 0, 0, 0, 1, 2, 4)
    with pytest.raises(CapacityError):
        find_low_overlap_word(fresh, 8, budget=1)
    with pytest.raises(CapacityError):
        find_low_overlap_word(shift, 8, budget=0)


def test_label_queries_walk_only_the_root(monkeypatch):
    # every kernel the label queries run on a block presentation is handed
    # the root's graph, never the presentation's
    seen = []

    def spy(module, name, size):
        real = getattr(module, name)

        def wrapper(*args):
            seen.append((name, size(*args)))
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    forbidden = [(0, 1, 2, 0), (2, 2, 1), (1, 1, 1, 1), (0, 2, 0, 2)]
    shift = higher_block(from_forbidden_words(3, forbidden), 3)
    root = shift._lift[0]
    spy(wordlib, "_LabelSets", lambda shift: shift.num_states)
    spy(wordlib, "_out_edges", lambda indptr, rows: len(indptr) - 1)
    spy(wordlib, "_grow", lambda matrix, n: matrix.shape[0])
    spy(codes, "_first_low_overlap_word", lambda shift, l, budget: shift.num_states)
    label_language(shift, 4)
    is_label_admissible(shift, (0, 1, 0))
    longest_window_avoiding(shift, (0, 1, 2))
    label_rows(shift, 3)
    find_low_overlap_word(shift, 12)
    assert {name for name, _ in seen} == {"_LabelSets", "_out_edges", "_grow", "_first_low_overlap_word"}
    assert {size for _, size in seen} == {root.num_states} and root.num_states < shift.num_states


def test_an_empty_shift_is_not_irreducible():
    empty = VertexShift(np.zeros((0, 0), dtype=np.int8))
    assert not _strongly_connected(empty) and not is_irreducible(empty)
    # no 3-word allowed: the 3-block presentation has no states
    shift = from_forbidden_words(2, list(itertools.product(range(2), repeat=3)))
    assert shift.num_states == 0 and not is_irreducible(shift)
    # no 2-word allowed: the seed on 2-words has no states either
    shift = from_forbidden_words(2, list(itertools.product(range(2), repeat=2)) + [(0, 0, 0)], block=4)
    assert shift.num_states == 0 and not is_irreducible(shift)


def test_labels_are_one_read_only_array():
    full = from_forbidden_words(3, [(0, 0, 1), (2, 1)], block=4)
    shifts = [
        full,
        higher_block(full, 2),
        induced_subshift(full, range(0, full.num_states, 2)),
        VertexShift([[1, 1], [1, 0]], labels=np.array([1, 0], dtype=np.int8)),
        renewal_to_sft(Code([(0, 1), (1, 1), (2, 0)])),
    ]
    for shift in shifts:
        array = shift.label_array  # first read of a deferred shift's labels
        assert array.dtype == np.int64 and not array.flags.writeable
        assert not hasattr(shift, "labels")
        with pytest.raises(ValueError):
            array[0] = 0
    assert shifts[-1].label_array.tolist() == [0, 1, 1, 1, 2, 0]


@pytest.mark.parametrize("case", ["own arrays", "one entry off the edges", "other columns"])
def test_parry_support_shortcut_agrees_with_the_general_check(case):
    # a P on the shift's own CSR arrays skips the per-entry support check;
    # any other P takes it, and is refused with the same message
    shift = from_forbidden_words(2, [(1, 1, 1), (0, 1, 0)], block=3)
    n, m = shift.num_states, shift.matrix
    parry = parry_measure(shift)
    P = parry.P.toarray()
    if case == "one entry off the edges":
        j = next(j for j in range(n) if j not in oracle.successors(shift, 0))
        P[0, j], P[0, m.indices[0]] = P[0, m.indices[0]], 0.0
    elif case == "other columns":
        P = np.roll(P, 1, axis=1)  # every row keeps its number of entries
    P = sp.csr_matrix(P)
    on_edges = all(oracle.is_admissible(shift, (i, j)) for i, j in zip(*P.nonzero()))
    assert on_edges == (case == "own arrays")
    # every row keeps its number of entries: only the columns tell them apart
    assert np.array_equal(P.indptr, m.indptr)
    assert np.array_equal(P.indices, m.indices) == on_edges
    if on_edges:
        MarkovMeasure(shift, parry.pi, P)
    else:
        with pytest.raises(ValueError, match="P supported outside the shift's edges"):
            MarkovMeasure(shift, np.full(n, 1 / n), P)
