import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftflex import (
    Code,
    NoLowOverlapWordError,
    NonUniformLengthError,
    VertexShift,
    find_low_overlap_word,
    full_shift,
    golden_mean_shift,
    language,
    max_self_overlap,
    renewal_to_sft,
    topological_entropy,
    ud_witness,
)
from shiftflex.words import label_language, label_word


def factorization_collision_oracle(words, max_len=12):
    """Breadth-first search over concatenation strings up to max_len.

    Two different codeword sequences reaching the same string witness
    non-unique decipherability; independent of the dangling-suffix test.
    """
    seen = {}
    frontier = {(): ()}
    strings = {(): ()}
    current = [()]
    while current:
        nxt = []
        for s in current:
            for w in words:
                t = s + w
                if len(t) > max_len:
                    continue
                if t in strings:
                    return False  # same string, two factorizations
                strings[t] = w
                nxt.append(t)
        current = nxt
    return True


def test_ud_examples():
    assert ud_witness(Code(((0,), (0, 1), (1, 1)))) is None
    assert ud_witness(Code(((0,), (0, 1), (1, 0)))) is not None
    assert ud_witness(Code(((0, 0), (0, 1), (1, 0), (1, 1)))) is None


def test_ud_witness_example():
    string, fa, fb = ud_witness(Code(((0,), (0, 1), (1, 0))))
    assert string == (0, 1, 0)
    assert sum(fa, ()) == sum(fb, ()) == string
    assert fa != fb


def test_ud_matches_bruteforce_sample():
    words_pool = [
        tuple(w)
        for n in range(1, 5)
        for w in itertools.product((0, 1), repeat=n)
    ]
    # spot sample here; the exhaustive sweep is an acceptance criterion
    for combo in itertools.islice(itertools.combinations(words_pool, 2), 0, 200, 7):
        code = Code(combo)
        assert (ud_witness(code) is None) == factorization_collision_oracle(
            code.words
        )


def test_renewal_full_shift():
    s = renewal_to_sft(Code(((0,), (1,))))
    assert abs(topological_entropy(s) - math.log(2)) < 1e-12
    assert sorted(label_language(s, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_renewal_two_words():
    s = renewal_to_sft(Code(((0, 1), (1, 0))))
    assert s.num_states == 4
    assert abs(topological_entropy(s) - 0.5 * math.log(2)) < 1e-12


def test_renewal_uniform_binary():
    s = renewal_to_sft(Code(((0, 0), (0, 1), (1, 0), (1, 1))))
    assert abs(topological_entropy(s) - math.log(2)) < 1e-12


def test_renewal_rejects_bad_codes():
    with pytest.raises(NonUniformLengthError):
        renewal_to_sft(Code(((0,), (0, 1))))
    # distinct uniform-length words are always uniquely decipherable, so the
    # length check is the whole gate


@pytest.mark.parametrize(
    "words, message",
    [
        ((), "code must be nonempty"),
        (np.zeros((0, 3), np.int64), "code must be nonempty"),
        (((),), "code words must be nonempty"),
        (np.zeros((2, 0), np.int64), "code words must be nonempty"),
        (((0,), ()), "code words must be nonempty"),
        (np.zeros(3, np.int64), "code rows must form a 2-D array, not 1-D"),
    ],
    ids=["no-words", "no-rows", "empty-word", "empty-rows", "ragged-with-empty", "flat-array"],
)
def test_code_refuses_empty_codes_and_words(words, message):
    with pytest.raises(ValueError, match=message):
        Code(words)


def test_ragged_code_has_words_but_no_rows():
    code = Code([(0, 0, 1), (0, 1), (0, 1)])
    assert code.rows is None and code.uniform_length is None
    assert code.words == ((0, 0, 1), (0, 1)) and len(code) == code.size == 2
    assert code.alphabet_size == 2 and code == Code(((0, 1), (0, 0, 1)))
    assert ud_witness(code) is None
    with pytest.raises(NonUniformLengthError):
        renewal_to_sft(code)


def test_code_rows_are_the_sorted_set_of_label_rows():
    """An array of label words, with repeats from labels that are not
    injective, gives the rows `sorted(set(tuples))` would: the same code
    as its tuples, read-only, with the tuples made only when read."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        labels = rng.integers(-2, 3, size=n)  # few symbols: label rows collide
        states = rng.integers(0, n, size=(int(rng.integers(1, 40)), k))
        rows = labels[states]
        want = sorted(set(map(tuple, rows.tolist())))
        code = Code(rows)
        assert "words" not in vars(code)
        assert code.rows.dtype == np.int64 and not code.rows.flags.writeable
        assert code.rows.tolist() == [list(w) for w in want]
        assert code.words == tuple(want) and code == Code(want)
        assert (len(code), code.uniform_length) == (len(want), k)
        assert code.alphabet_size == max(map(max, want)) + 1
    rows[...] = 7  # the code keeps its own rows
    assert code.rows.tolist() == [list(w) for w in want]


def phase_decompositions(word, code_words, k):
    """Alignments 0 <= i < k at which the word parses into code pieces."""
    hits = []
    for i in range(k):
        ok = True
        # segment [start, start+k) for starts at i - k, i, i + k, ...
        start = i - k if i > 0 else 0
        pos = start
        while pos < len(word):
            seg = word[max(pos, 0) : min(pos + k, len(word))]
            lo = max(pos, 0) - pos
            if not any(w[lo : lo + len(seg)] == seg for w in code_words):
                ok = False
                break
            pos += k
        if ok:
            hits.append(i)
    return hits


def test_renewal_label_words_decompose():
    code = Code(((0, 1, 1), (1, 0, 0)))
    s = renewal_to_sft(code)
    k = 3
    for n in range(1, 3 * k + 1):
        for w in label_language(s, n):
            assert phase_decompositions(w, code.words, k), w


def brute_border(word):
    n = len(word)
    return max((k for k in range(n) if word[:k] == word[n - k :]), default=0)


def test_border_examples():
    assert max_self_overlap((0, 0, 0, 1)) == 0
    assert max_self_overlap((0, 1, 0, 1)) == 2
    assert max_self_overlap((0, 0, 1, 0, 0)) == 2


@given(st.lists(st.integers(0, 2), min_size=1, max_size=24))
def test_border_matches_bruteforce(symbols):
    w = tuple(symbols)
    b = max_self_overlap(w)
    assert b == brute_border(w)
    assert b < len(w)
    assert max_self_overlap(w + w) >= len(w)


@given(st.integers(8, 40), st.data())
def test_low_overlap_forbids_long_shifted_matches(l, data):
    shift = full_shift(2)
    w = find_low_overlap_word(shift, l)
    assert max_self_overlap(w) < l / 4
    # occurrences overlapping in >= l/4 symbols must be identical
    for r in range(1, l):
        if l - r >= l / 4:
            assert w[r:] != w[: l - r]


def test_find_low_overlap_examples():
    assert find_low_overlap_word(full_shift(2), 8) == (0, 0, 0, 0, 0, 0, 0, 1)
    g = golden_mean_shift()
    w = find_low_overlap_word(g, 8)
    # oracle: first admissible golden word with border < 2
    expected = next(
        tuple(u) for u in language(g, 8).tolist() if brute_border(u) < 2
    )
    assert w == expected == (0, 0, 0, 0, 0, 0, 0, 1)
    with pytest.raises(NoLowOverlapWordError):
        find_low_overlap_word(VertexShift([[1]]), 8)


def test_low_overlap_checks_labels():
    # two states reading the same symbol: the label word carries the border
    shift = VertexShift(
        [[0, 1, 0], [0, 0, 1], [1, 1, 0]], labels=[0, 0, 1], ambient_size=2
    )
    w = find_low_overlap_word(shift, 6)
    assert max_self_overlap(label_word(shift, w)) < 6 / 4
