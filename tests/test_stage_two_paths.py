"""The array paths a stage-2 build on a renewal ambient runs, against the
versions they replaced (`tests/loop_oracles.py`), on seeded random codes:
prefixes admitted at reachable alignments only, the label words of a
presentation read from its code words, the ends a row range shares, and
the fixed slots of a permutation class met in one pass."""

import random

import numpy as np
import pytest

import tests.loop_oracles as oracle
from shiftflex.codes import Code, PermutationCode, RenewalStructure, renewal_to_sft
from shiftflex.construction import _saturated, _sync_depth
from shiftflex.errors import CapacityError
from shiftflex.words import label_rows, language, word_count


def random_code(rng, t, k, a, shared):
    """t distinct words of length k over a symbols (fewer when the draws
    repeat); with `shared`, all of them share a drawn prefix and suffix."""
    head = tuple(rng.randrange(a) for _ in range(rng.randint(1, 2))) if shared else ()
    tail = tuple(rng.randrange(a) for _ in range(rng.randint(1, 2))) if shared else ()
    middle = max(1, k - len(head) - len(tail))
    words = {head + tuple(rng.randrange(a) for _ in range(middle)) + tail for _ in range(t)}
    return Code(tuple(words))


def chain_rows(rng, code, depth, count):
    """Windows of `depth` symbols of random concatenations of the code
    words, from a random offset, each also with one symbol redrawn."""
    k, words = code.uniform_length, code.words
    rows = []
    for _ in range(count):
        chain = [x for _ in range(depth // k + 2) for x in rng.choice(words)]
        start = rng.randrange(k)
        row = chain[start : start + depth]
        bent = list(row)
        bent[rng.randrange(depth)] = rng.randint(-1, 3)
        rows += [row, bent]
    return np.array(rows, dtype=np.int64)


def test_reachable_alignments_admit_what_every_position_admits():
    rng, rows, admitted = random.Random(61), 0, 0
    for _ in range(60):
        t, k = rng.randint(2, 8), rng.randint(2, 7)
        code = random_code(rng, t, k, rng.randint(2, 3), rng.random() < 0.5)
        renewal = renewal_to_sft(code).renewal
        k = renewal.k
        sub = renewal.sub_code(0, max(1, len(code) - 2))
        for depth in (3 * k, 3 * k + 1, 4 * k + rng.randrange(k)):
            batch = chain_rows(rng, code, depth, 4)
            for structure in (renewal, sub):
                got = structure.admitted(batch)
                assert (got == oracle.every_position_admitted(structure, batch)).all()
                for row, m in zip(batch.tolist(), got.tolist()):
                    assert (m == depth) == oracle.renewal_admits(structure, row)
                rows += len(batch)
                admitted += int((got == depth).sum())
    assert rows > 1000 and 0.3 < admitted / rows < 0.9


def test_path_labels_are_the_presentations_label_rows():
    rng, shared, checked = random.Random(62), 0, 0
    for _ in range(40):
        t, k = rng.randint(2, 6), rng.randint(2, 6)
        code = random_code(rng, t, k, rng.randint(2, 3), rng.random() < 0.5)
        renewal, shift = RenewalStructure(code, code.uniform_length), renewal_to_sft(code)
        k = renewal.k
        shared += renewal.shared_ends != (0, 0)
        for depth in sorted({1, k - 1, k, 2 * k, 3 * k + 1} - {0}):
            rows = renewal.path_labels(depth)
            assert len(rows) == word_count(shift, depth)
            assert (np.unique(rows, axis=0) == label_rows(shift, depth)).all()
            checked += 1
    assert checked > 150 and shared > 10


def test_path_labels_refuse_what_the_presentation_refuses():
    code = Code(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    renewal, shift = RenewalStructure(code, 3), renewal_to_sft(code)
    for depth in (4, 7, 10):
        total = word_count(shift, depth)
        assert len(renewal.path_labels(depth, budget=total)) == total
        with pytest.raises(CapacityError) as got:
            renewal.path_labels(depth, budget=total - 1)
        with pytest.raises(CapacityError) as want:
            language(shift, depth, budget=total - 1)
        assert str(got.value) == str(want.value)


def test_shared_ends_of_row_ranges_are_common_prefixes():
    rng, ranges, ends = random.Random(63), 0, 0
    for _ in range(60):
        code = random_code(rng, rng.randint(1, 10), rng.randint(1, 7), rng.randint(2, 3),
                           rng.random() < 0.5)
        renewal = RenewalStructure(code, code.uniform_length)
        assert renewal.shared_ends == oracle.common_prefix_ends(renewal)
        for _ in range(4):
            lo = rng.randrange(len(code))
            sub = renewal.sub_code(lo, rng.randint(lo + 1, len(code)))
            assert sub.shared_ends == oracle.common_prefix_ends(sub)
            ranges += 1
            ends += sub.shared_ends > renewal.shared_ends
    assert ranges == 240 and ends > 30


def test_fixed_slots_in_one_pass_match_the_occurrence_lists():
    rng, classes = random.Random(64), 0
    for _ in range(30):
        t, k = rng.randint(2, 5), rng.randint(2, 6)
        code = random_code(rng, t, k, rng.randint(2, 3), rng.random() < 0.5)
        renewal = RenewalStructure(code, code.uniform_length)
        t = len(code)
        q = rng.randint(2, 3)
        order = tuple(range(t)) * q
        f = rng.randint(2, len(order))
        glue = tuple(rng.randrange(t) for _ in range(rng.randint(1, 3)))
        pc = PermutationCode(renewal, glue, 0, order[:f], order[f:])
        for depth in range(1, renewal.exact_depth + 1):
            assert pc.longest_avoiding(depth) == oracle.permutation_longest_avoiding(pc, depth)
            longest = max(m for _, m in pc.longest_avoiding(depth))
            for to in (longest, longest + 1):
                assert _saturated(pc, depth, to) == oracle.saturated(pc, depth, to)
        classes += 1
    assert classes == 30


def test_saturation_names_a_window_every_length_avoids():
    # 00 and 01 share the prefix 0: every window of 0^inf avoids 1
    renewal = RenewalStructure(Code(((0, 0), (0, 1))), 2)
    assert _saturated(renewal, 1, 5) == oracle.saturated(renewal, 1, 5)
    assert _saturated(renewal, 1, 5)[1] == "window of length None avoids a depth-1 word"
    assert _sync_depth(renewal, 1) == (None, "windows of every length avoid the depth-1 word 1")
