import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tests.loop_oracles as oracle
from shiftflex import (
    EmpiricalMeasure,
    InsufficientWordLengthError,
    MetricConfig,
    VertexShift,
    WordTooShortError,
    bernoulli_measure,
    empirical_from_windows,
    full_shift,
    golden_mean_shift,
    is_irreducible,
    katok_separated_set,
    label_word,
    language,
    markov_entropy,
    parry_measure,
    pigeonhole_refine,
    random_markov_measure,
    weak_star_distance,
)
from shiftflex.measures import empirical_distances, window_counts

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

D2 = MetricConfig(2)


def test_empirical_examples():
    assert EmpiricalMeasure((0, 1, 0, 1), 1).cylinder_table(1) == {(0,): 1 / 2, (1,): 1 / 2}
    assert EmpiricalMeasure((0, 0, 0, 0), 2).cylinder_table(2) == {(0, 0): 1.0}
    assert EmpiricalMeasure((0, 0, 1, 0), 2).cylinder_table(2) == {
        (0, 0): 1 / 3,
        (0, 1): 1 / 3,
        (1, 0): 1 / 3,
    }


def test_empirical_refuses_depths_below_one():
    e = EmpiricalMeasure((0, 1, 0), 2)
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            e.cylinder_table(depth)


def test_empirical_word_too_short():
    with pytest.raises(WordTooShortError):
        EmpiricalMeasure((0, 1), 3)


def test_weak_star_identity(uniform2):
    assert weak_star_distance(uniform2, uniform2, MetricConfig(3)) == 0.0


def test_weak_star_point_mass(full2, uniform2):
    point = bernoulli_measure(full2, [1.0, 0.0])
    assert weak_star_distance(uniform2, point, MetricConfig(1)) == pytest.approx(0.25)


def test_weak_star_empirical_vs_bernoulli(uniform2):
    e = EmpiricalMeasure((0, 1), 1, ambient_size=2)
    assert weak_star_distance(e, uniform2, MetricConfig(1)) == 0.0


def test_weak_star_metric_axioms():
    rng = np.random.default_rng(3)
    g = golden_mean_shift()
    ms = [random_markov_measure(g, rng) for _ in range(4)] + [parry_measure(g)]
    for a in ms:
        assert weak_star_distance(a, a, D2) == pytest.approx(0.0, abs=1e-12)
        for b in ms:
            dab = weak_star_distance(a, b, D2)
            assert dab == pytest.approx(weak_star_distance(b, a, D2))
            for c in ms:
                assert dab <= (
                    weak_star_distance(a, c, D2) + weak_star_distance(c, b, D2) + 1e-12
                )


@given(st.lists(st.integers(0, 1), min_size=8, max_size=24), st.data())
def test_window_difference_bound(symbols, data):
    """Words differing in at most k of N windows are at distance <= k/N."""
    w1 = tuple(symbols)
    flip_at = data.draw(st.integers(0, len(w1) - 1))
    w2 = w1[:flip_at] + (1 - w1[flip_at],) + w1[flip_at + 1 :]
    depth = data.draw(st.integers(1, 3))
    cfg = MetricConfig(depth)
    a = EmpiricalMeasure(w1, depth, ambient_size=2)
    b = EmpiricalMeasure(w2, depth, ambient_size=2)
    # one symbol flip touches at most `depth` windows at each depth m <= depth,
    # and the window count is N - m + 1 >= N - depth + 1
    n_windows = len(w1) - depth + 1
    assert weak_star_distance(a, b, cfg) <= depth / n_windows + 1e-12


def test_agreeing_windows_zero_distance():
    # distinct words tracing the same depth-2 window multiset
    a = EmpiricalMeasure((0, 0, 1, 1, 0, 1, 0), 2, ambient_size=2)
    b = EmpiricalMeasure((0, 1, 0, 1, 1, 0, 0), 2, ambient_size=2)
    assert a.word != b.word
    assert a.cylinder_table(2) == b.cylinder_table(2)
    assert weak_star_distance(a, b, D2) == 0.0


def test_convex_combination_bound(uniform2, full2):
    """Mixtures of measures epsilon-close to mu stay epsilon-close."""
    rng = np.random.default_rng(5)
    mus = [random_markov_measure(full2, rng) for _ in range(3)]
    eps = max(weak_star_distance(m, uniform2, D2) for m in mus) + 1e-9

    class Mixture:
        def __init__(self, parts, weights):
            self.parts, self.weights = parts, weights
            self.ambient_size = 2

        def cylinder_table(self, depth):
            out = {}
            for part, wt in zip(self.parts, self.weights):
                for k, v in part.cylinder_table(depth).items():
                    out[k] = out.get(k, 0.0) + wt * v
            return out

    for weights in ([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], [1, 0, 0]):
        mix = Mixture(mus, [float(w) for w in weights])
        assert weak_star_distance(mix, uniform2, D2) <= eps


@given(st.data())
def test_window_index_set_bound(data):
    """Window-averaged empirical measures obey the index-set inequality."""
    n = data.draw(st.integers(8, 20))
    word = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    max_pos = n - 2
    a = tuple(sorted(data.draw(
        st.sets(st.integers(0, max_pos), min_size=1, max_size=max_pos + 1))))
    b = tuple(sorted(data.draw(
        st.sets(st.integers(0, max_pos), min_size=1, max_size=max_pos + 1))))
    cfg = MetricConfig(2)
    ma = empirical_from_windows(word, a, 2, ambient_size=2)
    mb = empirical_from_windows(word, b, 2, ambient_size=2)
    sa, sb = set(a), set(b)
    sym = len(sa ^ sb)
    inter = len(sa & sb)
    bound = (len(a) + len(b)) / (len(a) * len(b)) * sym + abs(
        len(a) - len(b)
    ) / (len(a) * len(b)) * inter
    assert weak_star_distance(ma, mb, cfg) <= bound + 1e-12


def test_katok_full_shift(uniform2, full2):
    res = katok_separated_set(full2, uniform2, 10, 0.2, 0.2, D2)
    assert abs(math.log(len(res.words)) / 10 - math.log(2)) < 0.2
    assert res.deviation < 0.2
    for w in res.words:
        e = EmpiricalMeasure(w, 2, ambient_size=2)
        assert weak_star_distance(e, uniform2, D2) < 0.2


def test_katok_single_state():
    one = VertexShift([[1]])
    res = katok_separated_set(one, parry_measure(one), 5, 0.5, 0.5, MetricConfig(1))
    assert res.words.tolist() == [[0] * 5]
    assert res.deviation == 0.0


def golden_katok_oracle(n, radius, depth):
    """Brute-force filter used to freeze the golden-mean separated count."""
    g = golden_mean_shift()
    m = parry_measure(g)
    count = 0
    for w in map(tuple, language(g, n).tolist()):
        d = 0.0
        for mm in range(1, depth + 1):
            table = {}
            for i in range(n - mm + 1):
                key = w[i : i + mm]
                table[key] = table.get(key, 0) + 1
            nw = n - mm + 1
            keys = set(table) | set(m.cylinder_table(mm))
            l1 = sum(
                abs(table.get(k, 0) / nw - m.cylinder_table(mm).get(k, 0.0))
                for k in keys
            )
            d += 0.5 * l1 / (1 << mm)
        if d < radius:
            count += 1
    return count


def test_katok_golden_mean_frozen_count(golden, golden_parry):
    res = katok_separated_set(golden, golden_parry, 12, 0.15, 0.25, D2)
    assert res.qualifying == golden_katok_oracle(12, 0.25, 2) == 376
    assert len(res.words) == 376
    assert res.deviation < 0.15


def test_katok_trims_to_entropy_target(golden, golden_parry):
    res = katok_separated_set(golden, golden_parry, 12, 0.01, 0.25, D2)
    assert len(res.words) == math.floor(math.exp(12 * markov_entropy(golden_parry)))
    assert res.deviation < 0.01
    assert res.qualifying == 376


def test_katok_insufficient_radius(golden, golden_parry):
    with pytest.raises(InsufficientWordLengthError):
        katok_separated_set(golden, golden_parry, 12, 0.15, 1e-4, D2)


def test_katok_trimmed_golden_mean_set_frozen(golden, golden_parry):
    """The trimmed set of test_katok_trims_to_entropy_target, word by word."""
    res = katok_separated_set(golden, golden_parry, 12, 0.01, 0.25, D2)
    frozen = (GOLDEN / "katok_golden_mean_n12_trimmed.txt").read_text().split()
    assert ["".join(map(str, w)) for w in res.words] == frozen


def test_window_counts_match_cylinder_tables():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = int(rng.integers(1, 5))
        rows, length = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        words = rng.integers(0, a, size=(rows, length))
        for depth in range(1, min(length, 4) + 1):
            counts = window_counts(words, depth, a)
            assert counts.shape == (rows, a**depth)
            for r in range(rows):
                table = EmpiricalMeasure(tuple(words[r]), depth).cylinder_table(depth)
                got = {
                    np.unravel_index(c, (a,) * depth): v / (length - depth + 1)
                    for c, v in enumerate(counts[r])
                    if v
                }
                assert {tuple(map(int, w)): v for w, v in got.items()} == table
    with pytest.raises(WordTooShortError):
        window_counts(np.zeros((2, 3), dtype=int), 4, 2)


def _per_word_distance(shift, m, word, depth):
    """The per-word score the array pass replaces."""
    return weak_star_distance(
        EmpiricalMeasure(label_word(shift, word), depth, ambient_size=shift.ambient_size),
        m,
        MetricConfig(depth),
    )


def katok_per_word(shift, m, n, kappa, radius, cfg):
    """katok_separated_set scored one word at a time: the differential oracle."""
    h = markov_entropy(m)
    depth = min(cfg.max_depth, n)
    scored = []
    for w in map(tuple, language(shift, n).tolist()):
        d = _per_word_distance(shift, m, w, depth)
        if d < radius:
            scored.append((d, w))
    if not scored:
        raise InsufficientWordLengthError("none")
    count = len(scored)
    deviation = abs(math.log(count) / n - h)
    if deviation < kappa:
        return sorted(w for _, w in scored), deviation, count
    if math.log(count) / n < h:
        raise InsufficientWordLengthError("few", deviation=deviation)
    target = max(1, math.floor(math.exp(n * h)))
    scored.sort()
    chosen = sorted(w for _, w in scored[:target])
    deviation = abs(math.log(len(chosen)) / n - h)
    if deviation >= kappa:
        raise InsufficientWordLengthError("trimmed too far", deviation=deviation)
    return chosen, deviation, count


def _seeded_labelled_shift(rng):
    while True:
        states = int(rng.integers(2, 5))
        shift = VertexShift((rng.random((states, states)) < 0.6).astype(int))
        if is_irreducible(shift):
            break
    if rng.random() < 0.5:
        return shift
    labels = [int(x) for x in rng.integers(0, 2, size=states)]
    labels[int(rng.integers(states))] = 1 - labels[0]  # both symbols occur
    return VertexShift(shift.matrix, labels=labels, ambient_size=2)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientWordLengthError as exc:
        return exc


def test_katok_array_pass_matches_per_word_scores():
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(100):
        shift = _seeded_labelled_shift(rng)
        m = parry_measure(shift) if rng.random() < 0.5 else random_markov_measure(shift, rng)
        n = int(rng.integers(4, 9))
        cfg = MetricConfig(int(rng.integers(1, 4)))
        kappa = float(rng.choice([0.005, 0.02, 0.1, 0.5]))
        radius = float(rng.choice([1e-3, 0.05, 0.15, 0.3, 1.0]))
        args = (shift, m, n, kappa, radius, cfg)
        want, got = _outcome(katok_per_word, *args), _outcome(katok_separated_set, *args)
        if isinstance(want, Exception):
            assert isinstance(got, InsufficientWordLengthError), args
            assert got.deviation == want.deviation
            seen.add(str(want))
            continue
        assert not isinstance(got, Exception), (args, got)
        words, deviation, count = want
        assert (got.qualifying, got.deviation) == (count, deviation)
        if len(words) == count:
            assert got.words.tolist() == [list(w) for w in words]
            seen.add("all")
        else:
            depth = min(cfg.max_depth, n)
            ours = sorted(_per_word_distance(shift, m, tuple(w), depth) for w in got.words.tolist())
            theirs = sorted(_per_word_distance(shift, m, w, depth) for w in words)
            assert len(ours) == len(theirs)
            assert np.allclose(ours, theirs, rtol=0, atol=1e-12)
            assert got.words.tolist() == sorted(got.words.tolist())
            seen.add("trimmed")
    assert {"all", "trimmed", "few", "none"} <= seen


def test_empirical_distances_match_weak_star_distance():
    rng = np.random.default_rng(4)
    for _ in range(30):
        shift = _seeded_labelled_shift(rng)
        m = random_markov_measure(shift, rng)
        n = int(rng.integers(3, 9))
        words = [tuple(w) for w in language(shift, n).tolist()]
        labels = np.array([label_word(shift, w) for w in words])
        for depth in range(1, 4):
            got = empirical_distances(labels, m, depth, shift.ambient_size)
            want = [_per_word_distance(shift, m, w, depth) for w in words]
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_window_counts_refuse_symbols_outside_the_alphabet():
    """A symbol past the alphabet would count into the next row's table."""
    with pytest.raises(ValueError, match="symbol 2 outside the alphabet of size 2"):
        window_counts(np.array([[0, 2], [0, 0]]), 1, 2)
    with pytest.raises(ValueError, match="symbol -1 outside the alphabet of size 3"):
        window_counts(np.array([[0, -1, 2]]), 2, 3)


def _block(length, depth, a):
    """Rows per block at one depth: window codes and count table of about
    2^16 entries together, at least one row."""
    return max(1, (1 << 16) // (length + depth - 1 + a**depth))


def test_empirical_distances_match_whole_array_scorer():
    """Bit for bit the whole-array scorer, on int64 and uint8 rows, with
    row counts at and across the block edges of the deepest and the
    shallowest depth."""
    rng = np.random.default_rng(12)
    for a, length in ((2, 9), (3, 14)):
        m = random_markov_measure(full_shift(a), rng)
        for depth in range(1, 5):
            edge, first = _block(length, depth, a), _block(length, 1, a)
            for rows in (1, edge, edge + 1, first + 1):
                words = rng.integers(0, a, size=(rows, length))
                for cyclic in (False, True):
                    want = oracle.empirical_distances(words, m, depth, a, cyclic)
                    for dtype in (np.int64, np.uint8):
                        got = empirical_distances(words.astype(dtype), m, depth, a, cyclic)
                        assert np.array_equal(got, want), (a, depth, rows, cyclic, dtype)


def test_katok_scores_in_bounded_memory():
    """Scoring adds little beside the language and the kept rows: with
    every word kept, the peak stays within 2.5 times the language's bytes
    (the whole-array scorer peaked at 4.06 times)."""
    shift = full_shift(2)
    m = parry_measure(shift)
    size = language(shift, 16).nbytes
    tracemalloc.start()
    try:
        res = katok_separated_set(shift, m, 16, 0.5, 1.0, MetricConfig(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.words) == 1 << 16
    assert peak <= 2.5 * size


def test_empirical_distances_count_deep_tables_in_blocks():
    """At depth 20 over two symbols a block holds one row; 9 rows take 9."""
    rng = np.random.default_rng(6)
    words = rng.integers(0, 2, size=(9, 26))
    m = EmpiricalMeasure(tuple(int(x) for x in rng.integers(0, 2, size=40)), 20)
    got = empirical_distances(words, m, 20, 2)
    want = [
        weak_star_distance(EmpiricalMeasure(tuple(w), 20), m, MetricConfig(20))
        for w in words
    ]
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_pigeonhole_examples(full2):
    ws, i, j = pigeonhole_refine(np.array(((0, 0), (0, 1), (1, 0))), full2)
    assert (ws.tolist(), i, j) == ([[0, 0]], 0, 0)
    ws, i, j = pigeonhole_refine(np.array(((0, 1, 0), (0, 1, 1), (0, 0, 0))), full2)
    assert (ws.tolist(), i, j) == ([[0, 1, 0], [0, 0, 0]], 0, 0)  # the rows' own order
    ws, i, j = pigeonhole_refine(np.array(((1, 0, 1),)), full2)
    assert (ws.tolist(), i, j) == ([[1, 0, 1]], 1, 1)


@given(st.sets(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=40))
def test_pigeonhole_size_bound(words):
    shift = full_shift(3)
    gamma = np.array(sorted(words))
    refined, i, j = pigeonhole_refine(gamma, shift)
    assert len(refined) * 9 >= len(gamma)
    assert all(w[0] == i and w[-1] == j for w in refined.tolist())
