"""Word sets as state arrays against the tuple code they replaced.

`is_admissible` on 2-D arrays, the array `pigeonhole_refine` and the
stage-1 assembly `_enumerated_code` are compared with the per-word loops
of `tests/loop_oracles.py` on seeded block presentations: the same
verdicts, the same cell and the same code, or the same
StageVerificationError message.
"""

import numpy as np
import pytest

import tests.loop_oracles as oracle
from shiftflex import VertexShift, full_shift, golden_mean_shift
from shiftflex.construction import Stage, _enumerated_code
from shiftflex.errors import StageVerificationError
from shiftflex.measures import pigeonhole_refine
from shiftflex.words import connecting_word, higher_block, is_admissible, language
from tests.conftest import random_irreducible_shift


def tuples(rows):
    return [tuple(r) for r in np.asarray(rows).tolist()]


def test_is_admissible_rows_match_the_per_word_loop():
    rng = np.random.default_rng(21)
    kinds = set()
    for _ in range(150):
        n = int(rng.integers(1, 7))
        density = float(rng.choice([0.0, 0.3, 0.6, 1.0]))
        shift = VertexShift((rng.random((n, n)) < density).astype(int))
        length = int(rng.integers(1, 6))
        rows = rng.integers(0, n, size=(int(rng.integers(1, 12)), length))
        if shift.matrix.nnz and length > 1:
            paths = language(shift, length)
            if len(paths):  # some admissible rows among the random ones
                rows = np.vstack([rows, paths[: int(rng.integers(1, 4))]])
        got = is_admissible(shift, rows)
        want = [oracle.is_admissible(shift, w) for w in tuples(rows)]
        assert got.dtype == bool and got.tolist() == want
        for w in tuples(rows[:3]):
            assert is_admissible(shift, w) is oracle.is_admissible(shift, w)
        kinds.update(want)
    assert kinds == {True, False}


def test_is_admissible_refuses_states_outside_the_shift():
    g = golden_mean_shift()
    assert is_admissible(g, ()) and is_admissible(g, (1,))
    assert not is_admissible(g, (0, 1, 1))
    for bad in [(0, 2), (-1, 0)]:
        for check in (is_admissible, oracle.is_admissible):
            with pytest.raises(ValueError, match="outside the shift's state set"):
                check(g, bad)
    for bad in [((0, 1), (1, 2)), ((0, 1), (-1, 0))]:
        with pytest.raises(ValueError, match="outside the shift's state set"):
            is_admissible(g, np.array(bad))


@pytest.mark.parametrize(
    "rows, cell, ends",
    [
        # equal cells: the smallest (first, last) pair wins, not the first seen
        (((0, 0, 2), (0, 1, 1), (0, 1, 2), (0, 2, 1)), ((0, 1, 1), (0, 2, 1)), (0, 1)),
        (((1, 0, 0), (1, 2, 0), (2, 0, 1), (2, 1, 1)), ((1, 0, 0), (1, 2, 0)), (1, 0)),
        (((0, 0), (1, 1), (2, 2)), ((0, 0),), (0, 0)),
        # the larger cell wins over a smaller pair
        (((0, 0, 0), (1, 0, 2), (1, 1, 2)), ((1, 0, 2), (1, 1, 2)), (1, 2)),
    ],
)
def test_pigeonhole_cells_and_ties(rows, cell, ends, full3):
    got, *got_ends = pigeonhole_refine(np.array(rows), full3)
    assert (tuples(got), tuple(got_ends)) == (list(cell), ends)
    want, *want_ends = oracle.pigeonhole_refine(rows, full3)
    assert (tuples(got), tuple(got_ends)) == (list(want), tuple(want_ends))


def test_pigeonhole_refuses_an_empty_set(full2):
    with pytest.raises(ValueError):
        pigeonhole_refine(np.zeros((0, 3), dtype=np.int64), full2)


def labelled_base(rng):
    """A seeded irreducible shift, its states folded onto two labels half
    of the time, so distinct paths can spell one label word."""
    base = random_irreducible_shift(rng, max_states=4)
    if rng.random() < 0.5:
        return base
    labels = rng.integers(0, 2, size=base.num_states).tolist()
    return VertexShift(base.matrix, labels=labels, ambient_size=2)


def some_words(rng, Y):
    """A random nonempty subset of Y's words of a random length, in
    lexicographic order, as the Katok separated set keeps them."""
    words = language(Y, int(rng.integers(1, 6)))
    size = int(rng.integers(1, len(words) + 1))
    return words[np.sort(rng.choice(len(words), size=size, replace=False))]


def test_pigeonhole_matches_the_tuple_cells_on_block_presentations():
    rng = np.random.default_rng(5)
    for _ in range(80):
        Y = higher_block(labelled_base(rng), int(rng.integers(1, 4)))
        rows = some_words(rng, Y)
        got, start, end = pigeonhole_refine(rows, Y)
        want, w_start, w_end = oracle.pigeonhole_refine(tuples(rows), Y)
        assert (tuples(got), start, end) == (list(want), w_start, w_end)


def oracle_rows(base, words, gamma):
    """Per Γ row, whether its ambient path is admissible, word by word."""
    paths = [oracle.prev_word(words, g, with_tail=True) for g in tuples(gamma)]
    return np.array([oracle.is_admissible(base, p) for p in paths])


def outcome(fn, *args):
    try:
        return fn(*args)
    except StageVerificationError as exc:
        return str(exc)


def test_enumerated_code_matches_the_per_word_assembly():
    """Seeded assemblies as build_stage makes them (Γ a pigeonhole cell of
    a block presentation Y, w_prev a path of the ambient, the glues its
    connecting words), and three kinds of broken ones: Γ words of a Y that
    allows every transition, so only some rows run along ambient edges; a
    random glue into w_prev; and no glue out of w_prev whose last state
    has no edge into the first state of Γ."""
    rng = np.random.default_rng(11)
    seen, partial = set(), False
    for i in range(240):
        base = labelled_base(rng)
        prev = Stage(index=int(rng.integers(0, 3)), shift=base, measure=None)
        kind = ("valid", "rows", "glue", "splice")[i % 4]
        if kind == "rows":
            n = base.num_states
            Y, words = VertexShift(np.ones((n, n))), np.arange(n)[:, None]
        else:
            depth = int(rng.integers(1, 4))
            Y, words = higher_block(base, depth), language(base, depth)
        gamma, start, end = pigeonhole_refine(some_words(rng, Y), Y)
        start_prev, end_prev = int(words[start, 0]), int(words[end, -1])
        paths = language(base, int(rng.integers(1, 4)))
        if kind == "splice":
            paths = paths[~base.dense()[paths[:, -1], start_prev].astype(bool)]
            if not len(paths):
                continue
        w_prev = tuple(paths[int(rng.integers(len(paths)))].tolist())
        glue_in = connecting_word(base, end_prev, w_prev[0])[1:-1]
        glue_out = connecting_word(base, w_prev[-1], start_prev)[1:-1]
        if kind == "glue":
            size = int(rng.integers(1, 3))
            glue_in = tuple(rng.integers(0, base.num_states, size=size).tolist())
        elif kind == "splice":
            glue_out = ()
        args = (prev, words, gamma, glue_in, glue_out, w_prev)
        got = outcome(_enumerated_code, *args)
        want = outcome(oracle.enumerated_code, prev, words, tuples(gamma), *args[3:])
        assert got == want, args
        if isinstance(want, str):
            seen.add(want)
            if kind == "rows":  # some rows run along ambient edges, some do not
                partial |= 0 < oracle_rows(base, words, gamma).sum() < len(gamma)
        else:
            seen.add(kind)
    assert {"valid", "rows", "glue", "cyclic splice is not admissible"} <= seen
    assert any(s.startswith("assembled word is not admissible in stage ") for s in seen)
    assert partial


def test_enumerated_code_folds_paths_with_one_label_word():
    # both states of the full 2-shift labelled 0: the Γ paths 00 and 01
    # spell one label word, and the code keeps one word per label word
    folded = VertexShift(full_shift(2).matrix, labels=[0, 0], ambient_size=1)
    prev = Stage(index=0, shift=folded, measure=None)
    words = language(folded, 1)
    gamma = np.array([[0, 0], [0, 1]])
    code = _enumerated_code(prev, words, gamma, (), (), (1,))
    assert code.words == ((0, 0, 0),)
    assert code == oracle.enumerated_code(prev, words, tuples(gamma), (), (), (1,))
