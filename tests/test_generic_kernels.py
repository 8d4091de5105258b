"""Differential tests: the array kernels of the generic SFT layer against
the per-edge loops they replaced (`tests/loop_oracles.py`), on small
labelled graphs with dead ends, reducible graphs and single states with
and without a loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.loop_oracles as oracle
from shiftflex import (
    CapacityError,
    NoLowOverlapWordError,
    VertexShift,
    find_low_overlap_word,
    from_forbidden_words,
    full_shift,
    higher_block,
    language,
    max_self_overlap,
    parry_measure,
    word_count,
)
from shiftflex.construction import _mask_subshift, _subset_scores
from shiftflex.measures import MetricConfig
from shiftflex.words import (
    _cycle_gcd,
    _strongly_connected,
    bfs_distances,
    graph_period,
    is_irreducible,
    longest_window_avoiding,
)


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
    assert got.labels == want.labels
    assert got.ambient_size == want.ambient_size
    assert got.state_words.tolist() == want.state_words.tolist()


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
    words = outcome(language, shift, m, **kwargs)
    reference = outcome(oracle.language, shift, m, **kwargs)
    if isinstance(words, tuple):
        assert words == reference
    else:
        assert words.tolist() == [list(w) for w in reference]
        assert words.shape == (len(reference), m)
    assert word_count(shift, m) == oracle.word_count(shift, m)


@settings(max_examples=300)
@given(labelled_graphs())
def test_irreducibility_period_and_distances_match_loops(shift):
    verdict = oracle.strongly_connected(shift)
    assert _strongly_connected(shift) == verdict
    assert is_irreducible(shift) == verdict
    if verdict:
        assert _cycle_gcd(shift) == graph_period(shift) == oracle.cycle_gcd(shift)
    n = shift.num_states
    for sources in ([0], [n - 1], list(range(0, n, 2)), []):
        for reverse in (False, True):
            assert bfs_distances(shift, sources, reverse) == oracle.bfs_distances(
                shift, sources, reverse
            )


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
    assert shift.labels == (0, 1, 2)
    assert shift.state_words[:, :4].tolist() == [[0, 1, 2, 0], [1, 2, 0, 1], [2, 0, 1, 2]]
    assert shift.state_words.shape == (3, 50)


def test_forbidden_words_longer_than_int64_codes():
    # a forbidden word of length 41 over 3 symbols: 3**41 > 2**62, so the
    # suffix codes are Python integers
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
