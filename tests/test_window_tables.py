"""The code-word window tables of renewal and permutation-class stages
against the tuple-per-window code they replaced (`tests/loop_oracles.py`),
at every depth from 1 to `exact_depth`: languages, cylinder tables (values
and key order) and longest avoiding windows; the tables built by prefix
doubling against one symbol per depth; a sub-code's row range against a
structure built from its words; and the language checks of a permutation
class on window ids against sets of word tuples."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tests.loop_oracles as oracle
from shiftflex.codes import (
    Code,
    PermutationCode,
    RenewalStructure,
    _stable_order,
    renewal_to_sft,
)
from shiftflex.construction import _languages_agree, _nests
from shiftflex.errors import StructureDepthError
from shiftflex.words import label_rows


def shared_end_code(words, prefix, suffix):
    """The words with their first `prefix` and last `suffix` symbols forced
    to those of the first word."""
    first = words[0]
    k = len(first)
    forced = [
        tuple(first[i] if i < prefix or i >= k - suffix else w[i] for i in range(k))
        for w in words
    ]
    return RenewalStructure(Code(tuple(forced)), k)


@st.composite
def renewal_structures(draw):
    """Uniform-length codes over 1-4 symbols, 1-12 words of length 1-8,
    whose words share a forced prefix and suffix of 0..k symbols together;
    forcing all k symbols leaves one word, of exact depth 2k + 1."""
    a = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    word = st.tuples(*[st.integers(0, a - 1)] * k)
    words = draw(st.lists(word, min_size=1, max_size=12))
    prefix = draw(st.integers(0, k))
    return shared_end_code(words, prefix, draw(st.integers(0, k - prefix)))


@st.composite
def permutation_codes(draw):
    """A renewal ambient with drawn glue, fixed and free parts; the free
    multiset repeats words, may hold one word, and the glue and fixed parts
    may both be empty, so windows with no fixed occurrence occur."""
    ambient = draw(renewal_structures())
    index = st.integers(0, len(ambient.code) - 1)
    glue = draw(st.lists(index, max_size=3))
    fixed = draw(st.lists(index, max_size=3))
    pool = draw(st.lists(index, min_size=1, max_size=3))
    free = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    return PermutationCode(ambient, tuple(glue), 0, tuple(fixed), tuple(free))


def assert_renewal_matches(renewal):
    for depth in range(1, renewal.exact_depth + 1):
        ids, windows = renewal._table(depth)
        want_ids, want_windows = oracle.one_step_table(renewal, depth)
        assert (ids == want_ids).all() and (windows == want_windows).all()
        dense = np.unique(renewal._ranks(depth), return_inverse=True)[1]
        assert (dense.reshape(-1) == oracle.one_step_ranks(renewal, depth).reshape(-1)).all()
        assert renewal.language(depth) == oracle.renewal_language(renewal, depth)
        table, expected = renewal.cylinder_table(depth), oracle.renewal_mixture(renewal, depth)
        assert table == expected and list(table) == list(expected)
        assert renewal.longest_avoiding(depth) == oracle.renewal_longest_avoiding(renewal, depth)


@given(renewal_structures())
def test_renewal_tables_match_tuple_windows(renewal):
    assert_renewal_matches(renewal)


@given(permutation_codes())
def test_permutation_tables_match_tuple_windows(code):
    for depth in range(1, code.ambient.exact_depth + 1):
        assert code.language(depth) == oracle.permutation_language(code, depth)
        table = code.cylinder_table(depth)
        expected = oracle.permutation_cylinder_table(code, depth)
        assert table == expected and list(table) == list(expected)
        assert code.longest_avoiding(depth) == oracle.permutation_longest_avoiding(code, depth)


@pytest.mark.parametrize(
    "free_words, longest",
    [
        # symbol 1 at offsets 3-4 of free word 0, which holds both the latest
        # first and the earliest last hit; the other pair, 0 then 4, is wider
        (((0, 0, 0, 1, 1, 0, 0, 0), (1, 0, 1, 0, 1, 0, 1, 1)), 8 + 0 - 4 - 1),
        # symbol 1 only at offset 6 of one free word and 1 of the other: the
        # widest gap runs from the second to the first, over no blank word
        (((0, 0, 0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0, 0, 0)), 8 + 6 - 1 - 1),
    ],
)
def test_widest_pair_of_free_hits(free_words, longest):
    # the fixed word reads symbol 1 at every offset
    renewal = RenewalStructure(Code(free_words + ((1,) * 8,)), 8)
    fixed = renewal.code.words.index((1,) * 8)
    code = PermutationCode(renewal, (), 0, (fixed,), tuple({0, 1, 2} - {fixed}))
    assert dict(code.longest_avoiding(1))[(1,)] == longest
    assert code.longest_avoiding(1) == oracle.permutation_longest_avoiding(code, 1)


def test_tables_are_kept_per_depth():
    renewal = shared_end_code([(0, 1, 1, 0), (0, 0, 1, 0), (0, 1, 0, 0)], 1, 1)
    code = PermutationCode(renewal, (0,), 0, (1,), (2, 2, 0))
    for depth in range(1, renewal.exact_depth + 1):
        assert renewal.cylinder_table(depth) is renewal.cylinder_table(depth)
        assert renewal.longest_avoiding(depth) is renewal.longest_avoiding(depth)
        assert code.cylinder_table(depth) is code.cylinder_table(depth)
        assert code._longest_avoiding(depth) is code._longest_avoiding(depth)


def test_single_code_word_reaches_twice_its_length():
    renewal = RenewalStructure(Code(((0, 1, 1),)), 3)
    assert renewal.exact_depth == 7
    assert_renewal_matches(renewal)


@given(permutation_codes())
def test_depths_outside_the_exact_range_raise(code):
    renewal = code.ambient
    for depth in (0, renewal.exact_depth + 1):
        for query in (
            renewal.language, renewal.cylinder_table, renewal.longest_avoiding,
            code.language, code.cylinder_table, code.longest_avoiding,
        ):
            with pytest.raises(StructureDepthError):
                query(depth)


def test_ranks_do_not_overflow_past_int64():
    # six words of length 48 over 3 symbols sharing 20 leading and 21
    # trailing symbols: exact depth 42, and 3**41 > 2**63
    rng = random.Random(13)
    words = [tuple(rng.randrange(3) for _ in range(48)) for _ in range(6)]
    renewal = shared_end_code(words, 20, 21)
    assert renewal.exact_depth == 42 and 3**41 > 2**63
    assert_renewal_matches(renewal)
    code = PermutationCode(renewal, (5,), 0, (0, 1), (2, 3, 3, 4))
    depth = renewal.exact_depth
    assert code.longest_avoiding(depth) == oracle.permutation_longest_avoiding(code, depth)
    assert code.cylinder_table(depth) == oracle.permutation_cylinder_table(code, depth)


def assert_sub_code_matches(renewal, lo, hi, rng):
    """The row range lo..hi-1 against a structure built from its words, at
    every depth the ambient decides; True when the range's own shared
    prefix is longer than the ambient's, which rolls its rows."""
    view = renewal.sub_code(lo, hi)
    fresh = RenewalStructure(Code(renewal.code.words[lo:hi]), renewal.k)
    assert view.code.words == fresh.code.words and view.entropy == fresh.entropy
    for depth in range(1, renewal.exact_depth + 1):
        assert view.language(depth) == fresh.language(depth)
        table, expected = view.cylinder_table(depth), fresh.cylinder_table(depth)
        assert table == expected and list(table) == list(expected)
        assert view.longest_avoiding(depth) == fresh.longest_avoiding(depth)
    a = int(renewal._letters.max())  # symbols 0..a - 1, and a stands outside
    for depth in sorted({1, renewal.exact_depth, 2 * renewal.exact_depth + renewal.k}):
        rows = label_rows(renewal_to_sft(renewal.code, ambient_size=a + 1), depth)
        rows = rows[rng.sample(range(len(rows)), min(len(rows), 12))]
        bent = rows.copy()
        bent[np.arange(len(rows)), rng.randrange(depth)] = rng.randint(0, a)
        for batch in (rows, bent):
            assert (view.admitted(batch) == fresh.admitted(batch)).all()
    return fresh.shared_ends[0] > renewal.shared_ends[0]


@given(renewal_structures(), st.data())
def test_sub_code_rows_match_a_built_structure(renewal, data):
    t = len(renewal.code)
    lo = data.draw(st.integers(0, t - 1))
    assert_sub_code_matches(renewal, lo, data.draw(st.integers(lo + 1, t)), random.Random(lo))


def test_sub_code_rows_match_a_built_structure_seeded():
    rng, rolled, ranges = random.Random(7), 0, 0
    # the first two words share 0 1 1, the ambient only 0: rows roll at depth 3
    cases = [shared_end_code([(0, 1, 1, 0, 0), (0, 1, 1, 1, 0), (0, 2, 0, 1, 0)], 1, 1)]
    for _ in range(40):
        a, k = rng.randint(2, 3), rng.randint(2, 6)
        words = [tuple(rng.randrange(a) for _ in range(k)) for _ in range(rng.randint(2, 8))]
        prefix = rng.randint(0, k - 1)
        cases.append(shared_end_code(words, prefix, rng.randint(0, k - 1 - prefix)))
    for renewal in cases:
        t = len(renewal.code)
        for lo in range(t):
            for hi in range(lo + 1, t + 1):
                rolled += assert_sub_code_matches(renewal, lo, hi, rng)
                ranges += 1
    assert ranges > 200 and rolled > 100


@given(permutation_codes())
def test_class_language_checks_on_ids_match_word_sets(code):
    """Nesting and language sync of a class against its ambient, at every
    depth and one beyond."""
    upstream = code.ambient  # the space of the class's ambient stage
    for depth in range(1, code.ambient.exact_depth + 2):
        assert _nests(code, upstream, depth) == oracle.set_nests(code, upstream, depth)
        agree = _languages_agree(code, upstream, depth)
        assert agree == oracle.set_languages_agree(code, upstream, depth)


def test_class_language_checks_name_the_failure():
    # the class spells only word 0, so the ambient's window 1 1 is missing
    renewal = shared_end_code([(0, 0, 1, 0), (0, 1, 1, 0)], 1, 1)
    code = PermutationCode(renewal, (), 0, (0,), (0, 0))
    verdicts = set()
    for depth in range(1, renewal.exact_depth + 2):
        got = _languages_agree(code, renewal, depth)
        assert got == oracle.set_languages_agree(code, renewal, depth)
        assert _nests(code, renewal, depth) == oracle.set_nests(code, renewal, depth)
        verdicts.add(got[1].split(" at ")[0])
    assert verdicts == {
        "languages agree", "upstream language strictly larger",
        f"depth {renewal.exact_depth + 1} beyond the depths the coded stage decides",
    }


def test_rank_pairs_refuse_an_overflowing_key():
    renewal = shared_end_code([(0, 1), (1, 1)], 0, 0)
    ranks = np.full((2, 2), 2**40, dtype=np.int64)
    renewal.__dict__["_cache__ranks"] = {1: ranks}  # ranks no table this small has
    with pytest.raises(OverflowError, match="depth-2 window pairs"):
        renewal._ranks(2)


def test_rank_pairs_refuse_a_key_that_overflows_once_packed():
    renewal = shared_end_code([(0, 1, 1, 0), (1, 1, 0, 0)], 0, 0)
    ranks = np.full((2, 4), 2**30, dtype=np.int64)
    renewal.__dict__["_cache__ranks"] = {1: ranks}
    # six pairs: the pair key fits in int64, shifted past 3 index bits it does not
    assert (2**30 + 1) ** 2 < 2**63 < (2**30 + 1) ** 2 << 3
    with pytest.raises(OverflowError, match="depth-2 window pairs overflow an int64 key"):
        renewal._ranks(2)


@st.composite
def packable_keys(draw):
    """Up to 70 int64 keys inside `_stable_order`'s packed range, with ties
    and keys at both ends of it."""
    n = draw(st.integers(0, 70))
    bound = 1 << 63 - max(n - 1, 0).bit_length()
    value = st.one_of(
        st.integers(-3, 3), st.sampled_from([-bound, bound - 1]), st.integers(-bound, bound - 1)
    )
    return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.int64)


@given(packable_keys())
def test_stable_order_matches_a_stable_argsort(keys):
    assert (_stable_order(keys) == np.argsort(keys, kind="stable")).all()


@pytest.mark.parametrize(
    "keys",
    [
        np.zeros(0, np.int64),
        np.array([2**63 - 1]),
        np.array([-(2**63)]),
        np.zeros(2**15 + 1, np.int64),  # all tied, 16 index bits
        np.full(3, 2**61 - 1),
        np.array([-(2**61), 2**61 - 1, -(2**61), 0]),
        np.random.default_rng(5).integers(0, 7, 50_000),
    ],
    ids=["empty", "one-top", "one-bottom", "all-tied", "top", "both-ends", "ties-at-size"],
)
def test_stable_order_examples(keys):
    order = _stable_order(keys)
    assert order.dtype == np.int64 and (order == np.argsort(keys, kind="stable")).all()


@pytest.mark.parametrize("keys", [[2**61, 0, 0], [0, -(2**61) - 1, 0], [2**62, 2**62]])
def test_stable_order_refuses_keys_past_the_packed_range(keys):
    with pytest.raises(OverflowError):
        _stable_order(np.array(keys, np.int64))


# (seed, alphabet, k, code words, shared prefix, shared suffix): more than
# 2**15 context windows each, so every packed key carries 16 index bits
REAL_SIZE = [(31, 3, 24, 1400, 3, 3), (32, 2, 20, 2000, 4, 3)]


@pytest.mark.parametrize("seed, a, k, t, prefix, suffix", REAL_SIZE)
def test_window_tables_match_the_mergesort_versions_at_real_size(seed, a, k, t, prefix, suffix):
    """Ranks, tables, span tables, cylinder tables (values and key order)
    and a class's longest avoiding windows, bit for bit, against the
    `np.unique`, stable `np.argsort` and `np.lexsort` versions."""
    rng = random.Random(seed)
    renewal = shared_end_code(
        [tuple(rng.randrange(a) for _ in range(k)) for _ in range(t)], prefix, suffix
    )
    t = len(renewal.code)
    assert renewal._contexts.size > 2**15
    pick = lambda n: tuple(rng.randrange(t) for _ in range(n))  # noqa: E731
    pool = pick(6)
    codes = [
        PermutationCode(renewal, pick(2), 0, pick(3), tuple(rng.choice(pool) for _ in range(40))),
        PermutationCode(renewal, (), 0, (), tuple(rng.choice(pool[:2]) for _ in range(9))),
    ]
    sub = renewal.sub_code(t // 5, t)
    for depth in range(1, renewal.exact_depth + 1):
        ranks = renewal._ranks(depth)
        assert (ranks == oracle.unique_ranks(renewal, depth)).all()
        ids, windows = renewal._table(depth)
        want_ids, want_windows = oracle.unique_table(renewal, depth)
        assert ids.dtype == want_ids.dtype and (ids == want_ids).all()
        assert (windows == want_windows).all()
        for structure, table in ((renewal, want_ids), (sub, sub._table(depth)[0])):
            for got, want in zip(structure._spans(depth), oracle.argsort_spans(table)):
                assert got.dtype == want.dtype and (got == want).all()
            got = structure.cylinder_table(depth)
            want = oracle.unique_cylinder_dict(
                structure._words(depth), table.ravel(), None, table.size
            )
            assert got == want and list(got) == list(want)
        for code in codes:
            present, longest = code._longest_avoiding(depth)
            want = oracle.lexsort_longest_avoiding(code, depth, want_ids)
            assert (present == want[0]).all() and (longest == want[1]).all()
            rows = Counter(code.glue + code.fixed + code.free)
            weights = np.repeat(list(rows.values()), k)
            got = code.cylinder_table(depth)
            want = oracle.unique_cylinder_dict(
                renewal._words(depth), want_ids[list(rows)].ravel(), weights, code.uniform_length
            )
            assert got == want and list(got) == list(want)
