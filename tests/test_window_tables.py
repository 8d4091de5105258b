"""The code-word window tables of renewal and permutation-class stages
against the tuple-per-window code they replaced (`tests/loop_oracles.py`),
at every depth from 1 to `exact_depth`: languages, cylinder tables (values
and key order) and longest avoiding windows."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tests.loop_oracles as oracle
from shiftflex.codes import Code, PermutationCode, RenewalStructure
from shiftflex.errors import StructureDepthError


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
        assert code.longest_avoiding(depth) is code.longest_avoiding(depth)


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
