"""Permutation-class stages on renewal ambients, checked against the
explicit renewal presentation of the same code words."""

import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tests.loop_oracles as oracle

from shiftflex import (
    Code,
    EmpiricalMeasure,
    InsufficientWordLengthError,
    MetricConfig,
    RoofFunction,
    StageParams,
    StageVerificationError,
    SubsystemSearchError,
    Target,
    UnsupportedAmbientError,
    build_stage,
    full_shift,
    parry_measure,
    renewal_to_sft,
    verify_stage,
    weak_star_distance,
)
from shiftflex.codes import PermutationCode, RenewalStructure
from shiftflex.construction import (
    Stage,
    _check_separated,
    _permutation_class,
    _sync_depth,
    derive_c1,
)
from shiftflex.words import is_label_admissible, label_language, longest_window_avoiding

# Two small renewal ambients over {0, 1, 2}: code words of length 10 that
# share a 2-symbol prefix and a 5-symbol suffix (exact depth 8).
AMBIENT_SYNCED = (
    (1, 1, 0, 0, 0, 0, 2, 1, 2, 0), (1, 1, 1, 1, 1, 0, 2, 1, 2, 0),
    (1, 1, 1, 1, 2, 0, 2, 1, 2, 0), (1, 1, 1, 2, 0, 0, 2, 1, 2, 0),
    (1, 1, 1, 2, 2, 0, 2, 1, 2, 0), (1, 1, 2, 0, 1, 0, 2, 1, 2, 0),
    (1, 1, 2, 1, 1, 0, 2, 1, 2, 0), (1, 1, 2, 2, 0, 0, 2, 1, 2, 0),
)
AMBIENT_UNSYNCED = (
    (0, 2, 0, 1, 0, 1, 0, 2, 2, 1), (0, 2, 0, 1, 1, 1, 0, 2, 2, 1),
    (0, 2, 1, 0, 1, 1, 0, 2, 2, 1), (0, 2, 1, 0, 2, 1, 0, 2, 2, 1),
    (0, 2, 1, 1, 2, 1, 0, 2, 2, 1), (0, 2, 2, 0, 1, 1, 0, 2, 2, 1),
    (0, 2, 2, 1, 1, 1, 0, 2, 2, 1), (0, 2, 2, 1, 2, 1, 0, 2, 2, 1),
    (0, 2, 2, 2, 1, 1, 0, 2, 2, 1), (0, 2, 2, 2, 2, 1, 0, 2, 2, 1),
)


def renewal_stage(words):
    code = Code(words)
    shift = renewal_to_sft(code, ambient_size=3)
    sync = _sync_depth(shift, 1)[0]
    return Stage(
        index=1, shift=shift, measure=parry_measure(shift), code=code,
        sync_depth=sync, sync_depths=(1, sync),
    )


def target(c):
    f3 = full_shift(3)
    return Target(
        c=c, rho=RoofFunction(1, {(0,): 1.0, (1,): 1.5, (2,): 2.0}),
        base=f3, base_measure=parry_measure(f3),
    )


def params(word_length, delta=0.05):
    return StageParams(
        delta=delta, kappa=0.6, word_length=word_length, metric=MetricConfig(2), radius=0.6,
    )


# per t, a delta at which c = 0.01 and one pass through Y's t code words
# land in the entropy window (at 0.05 both classes of 4! words overshoot)
ONE_PASS_DELTA = {6: 0.15, 8: 0.07}


def build(prev, tgt, p):
    try:
        return build_stage(prev, tgt, p)
    except StageVerificationError as exc:
        return exc.stage, exc.report


# Y holds every code word but Z's two: t = 6 and t = 8 words of length 10
@pytest.mark.parametrize(
    "words, c, t, size",
    [(AMBIENT_SYNCED, 0.01, 6, 24), (AMBIENT_UNSYNCED, 0.01, 8, 24)],
)
def test_structured_stage_matches_explicit_presentation(words, c, t, size):
    prev, tgt = renewal_stage(words), target(c)
    p = params(t * 10, ONE_PASS_DELTA[t])
    stage, report = build(prev, tgt, p)
    assert stage.shift is None and report.gamma_size == size
    code = Code(tuple(stage.code.words()))
    assert len(code) == size and code.uniform_length == report.k
    shift = renewal_to_sft(code, ambient_size=3)
    explicit = Stage(
        index=2, shift=shift, measure=parry_measure(shift), code=code,
        sync_depth=_sync_depth(shift, prev.sync_depth)[0], params=p,
        sync_depths=prev.sync_depths + (_sync_depth(shift, prev.sync_depth)[0],),
    )
    assert explicit.sync_depth == stage.sync_depth
    overlap = {key: v for key, v in report.overlap.items() if key != "ok"}
    slow = verify_stage(prev, explicit, tgt, p, overlap_data=overlap)
    assert slow.gamma_size == report.gamma_size and slow.k == report.k
    for fast_v, slow_v in [
        (report.h_top, slow.h_top),
        (report.entropy_identity[1], slow.entropy_identity[1]),
        (report.normalized_entropy, slow.normalized_entropy),
        *zip(report.entropy_window, slow.entropy_window),
        *zip(report.roof_window, slow.roof_window),
        *zip(report.measure_distance, slow.measure_distance),
    ]:
        assert fast_v == pytest.approx(slow_v, abs=1e-9)
    assert report.nesting == slow.nesting
    assert report.language_sync == slow.language_sync
    assert report.saturation == slow.saturation
    assert [i.ok for i in report.items()] == [i.ok for i in slow.items()]


@pytest.mark.parametrize(
    "c, n, least, message",
    [
        # n = 12 is no whole pass through Y's t = 6 code words of length 10;
        # at three passes the class nearest c1 overshoots the upper edge
        # (0.069760 against 0.069575), at four it lands
        (0.04, 12, 240, "least admissible word_length is 240"),
        # it overshoots at four and five passes and lands at six
        (0.05, 12, 360, "least admissible word_length is 360"),
        # below five passes the class nearest c1 stays under the lower edge
        (0.065, 60, 300, "least admissible word_length is 300"),
        # the lower edge lies above h(Y) = log(6)/10: no word length reaches it
        (0.2, 12, None, "least word_length of the form q\\*60 is 60"),
    ],
)
def test_renewal_ambient_refuses_word_length(c, n, least, message):
    prev, tgt = renewal_stage(AMBIENT_SYNCED), target(c)
    with pytest.raises(InsufficientWordLengthError, match=message) as exc:
        build_stage(prev, tgt, params(n))
    assert exc.value.least_word_length == least


def test_a_whole_pass_that_overshoots_is_refused_before_assembly():
    """At four passes the class nearest c1 lies above the upper edge: the
    refusal says so instead of building a stage that fails entropy_window."""
    prev, tgt = renewal_stage(AMBIENT_SYNCED), target(0.05)
    with pytest.raises(InsufficientWordLengthError, match=(
        r"log\|Γ\|/k of the class nearest c1 = 0.0873105 > \(1\+3delta\) c int\(rho\) = "
        r"0.0869687 with k = 330; the least admissible word_length is 360$"
    )):
        build_stage(prev, tgt, params(240))


@pytest.mark.parametrize("c", [0.04, 0.05])
def test_the_named_word_length_lands_in_the_entropy_window(c):
    """Whatever n the refusal names, the build at n passes every check."""
    prev, tgt = renewal_stage(AMBIENT_SYNCED), target(c)
    with pytest.raises(InsufficientWordLengthError) as exc:
        build_stage(prev, tgt, params(12))
    _, report = build(prev, tgt, params(exc.value.least_word_length))
    lo, h, hi = report.entropy_window
    assert lo <= h <= hi and report.all_pass


def random_ambient(rng):
    """5-9 code words over {0, 1, 2} of length 9-11 with AMBIENT_SYNCED's
    shared prefix and suffix."""
    middle, size = rng.randint(2, 4), rng.randint(5, 9)
    words = set()
    while len(words) < size:
        words.add((1, 1) + tuple(rng.randrange(3) for _ in range(middle)) + (0, 2, 1, 2, 0))
    return tuple(sorted(words))


def test_every_admitted_word_length_lands_in_the_entropy_window():
    """On seeded random renewal ambients and targets, the n the refusal
    names and every whole-pass n it admits build a stage in the window."""
    rng, seen = random.Random(31), Counter()
    for _ in range(16):
        words = random_ambient(rng)
        prev, t, k1 = renewal_stage(words), len(words) - 2, len(words[0])
        for _ in range(2):
            tgt = target(rng.uniform(0.1, 0.8) * math.log(t) / (1.6 * k1))
            with pytest.raises(InsufficientWordLengthError) as exc:
                build_stage(prev, tgt, params(1))
            least = exc.value.least_word_length
            for n in {least, *(q * t * k1 for q in range(1, 6))} - {None}:
                try:
                    _, report = build(prev, tgt, params(n))
                except InsufficientWordLengthError:
                    assert n != least
                    seen["refused"] += 1
                    continue
                lo, h, hi = report.entropy_window
                assert lo <= h <= hi
                seen["admitted"] += 1
    assert seen["admitted"] > 20 and seen["refused"] > 20


def test_renewal_ambient_builds_the_named_word_length():
    """The refusal reads the class the build picks, so the n it names is
    built with that class, and here it verifies."""
    prev, tgt = renewal_stage(AMBIENT_SYNCED), target(0.065)
    stage, report = build_stage(prev, tgt, params(300))
    assert report.all_pass and len(stage.code.fixed) == 2
    c1 = derive_c1(tgt, params(300), prev.measure)
    f, log_size = _permutation_class(6, 5, 10, report.k - 300, c1)
    assert f == 2 and log_size / report.k == pytest.approx(report.h_top, rel=1e-12)


def test_renewal_ambient_takes_y_by_rule():
    """Y is every code word but Z's two, with no search and no knob: a kappa
    below its entropy gap and its distance to the measure names both, and
    an entropy_target is refused."""
    prev, tgt = renewal_stage(AMBIENT_SYNCED), target(0.01)
    with pytest.raises(SubsystemSearchError, match=(
        r"^Y of t = 6 code words, all but Z's two: log t/k1 = 0.179176 is not within "
        r"kappa = 0.001 of c1 = 0.0170345; its measure lies at distance 0.015625 > kappa"
    )):
        build_stage(prev, tgt, replace(params(60), kappa=1e-3))
    with pytest.raises(ValueError, match="entropy_target steers only the subset search"):
        build_stage(prev, tgt, replace(params(60), entropy_target=math.log(6) / 10))


def test_structured_stage_is_no_ambient():
    tgt, p = target(0.01), params(80, ONE_PASS_DELTA[8])
    stage, _ = build(renewal_stage(AMBIENT_UNSYNCED), tgt, p)
    with pytest.raises(UnsupportedAmbientError):
        build_stage(stage, tgt, p)


def test_renewal_admits_matches_matrix_path():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(1, 4)
        pool = list(itertools.product(range(3), repeat=k))
        code = Code(tuple(rng.sample(pool, rng.randint(1, min(6, len(pool))))))
        shift = renewal_to_sft(code, ambient_size=3)
        renewal = shift.renewal
        for n in range(1, 3 * k + 2):
            ws = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(40)]
            for w, m in zip(ws, renewal.admitted(ws).tolist()):
                assert (m == n) == is_label_admissible(shift, w)


@given(st.lists(st.integers(0, 7), max_size=300), st.integers(0, 7))
def test_permutation_code_size_matches_loop(free, repeated):
    """The class size in one division is the per-multiplicity quotient."""
    free = free + [repeated] * len(free)  # multiplicities above 1
    code = PermutationCode(RenewalStructure(Code(AMBIENT_SYNCED), 10), (0,), 0, (), tuple(free))
    assert code.size == oracle.permutation_size(code)


def test_permutation_code_windows_match_enumeration():
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        k, pre, suf = rng.randint(3, 5), (rng.randrange(3),), (rng.randrange(3),)
        words = sorted({pre + tuple(rng.randrange(3) for _ in range(k - 2)) + suf
                        for _ in range(5)})
        if len(words) < 2:
            continue
        ambient = RenewalStructure(Code(tuple(words)), k)
        multiset = [a for a in range(len(words)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(multiset)
        glue = tuple(rng.randrange(len(words)) for _ in range(rng.randint(1, 2)))
        f = rng.randint(0, min(2, len(multiset)))
        pc = PermutationCode(ambient, glue, rng.randint(0, k), tuple(multiset[:f]), tuple(multiset[f:]))
        if not multiset or pc.size > 30:
            continue
        code = Code(tuple(pc.words()))
        assert len(code) == pc.size and pc.log_size == pytest.approx(math.log(pc.size))
        shift = renewal_to_sft(code, ambient_size=3)
        parry = parry_measure(shift)
        for depth in range(1, ambient.exact_depth + 1):
            language = list(label_language(shift, depth))
            assert pc.language(depth) == language == list(shift.language(depth))
            expected = [(w, longest_window_avoiding(shift, w)) for w in language]
            assert list(pc.longest_avoiding(depth)) == expected
            assert list(shift.longest_avoiding(depth)) == expected
            table, exact = parry.cylinder_table(depth), pc.cylinder_table(depth)
            assert set(table) == set(exact)
            assert all(table[w] == pytest.approx(exact[w], abs=1e-9) for w in table)
        checked += 1


def test_separated_check_refuses_at_the_distance_of_gamma():
    """The radius refusal sits at the per-word distance of the canonical γ."""
    shift = renewal_to_sft(Code(AMBIENT_SYNCED), ambient_size=3)
    parry = shift.renewal
    order = (0, 0, 0) + tuple(range(1, len(AMBIENT_SYNCED)))  # not the mixture
    code = PermutationCode(shift.renewal, (0,), 1, order[:2], order[2:])
    for depth in (1, 2, 3):
        dist = weak_star_distance(
            EmpiricalMeasure(code.gamma_word(), depth, ambient_size=3),
            parry,
            MetricConfig(depth),
        )
        assert dist > 1e-3
        p = StageParams(
            delta=0.05, kappa=10.0, word_length=code.word_length,
            metric=MetricConfig(depth), radius=dist + 1e-12,
        )
        _check_separated(code, parry, p, 3)
        with pytest.raises(InsufficientWordLengthError, match="within radius"):
            _check_separated(code, parry, replace(p, radius=dist - 1e-12), 3)
