import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shiftflex import (
    Code,
    InfeasibleTargetError,
    InsufficientWordLengthError,
    MetricConfig,
    RoofFunction,
    StageParams,
    StageVerificationError,
    StructureDepthError,
    SubsystemSearchError,
    Target,
    bernoulli_measure,
    build_stage,
    from_forbidden_words,
    derive_c1,
    full_shift,
    golden_mean_shift,
    iterate,
    markov_entropy,
    next_params,
    normalized_entropy,
    parry_measure,
    roof_integral,
    plan_initial_params,
    random_markov_measure,
    renewal_to_sft,
    select_disjoint_subsystems,
    topological_entropy,
    ud_witness,
    validate_schedule,
    verify_stage,
    weak_star_distance,
)
from shiftflex.config import parse_config
from shiftflex.construction import (
    Stage,
    _log_path_counter,
    _sync_depth,
    _neighbour_masks,
    _strongly_connected_mask,
    base_stage,
)
from shiftflex.words import (
    VertexShift,
    _strongly_connected,
    induced_subshift,
    is_admissible,
    is_irreducible,
    languages_disjoint,
    word_count,
)
from tests.conftest import PHI, random_irreducible_shift

UNIT2 = RoofFunction.constant(1.0, 2)
UNIT3 = RoofFunction.constant(1.0, 3)


def full2_target(c_frac=0.1):
    f2 = full_shift(2)
    return Target(
        c=c_frac * math.log(2), rho=UNIT2, base=f2, base_measure=parry_measure(f2)
    )


GREEN = StageParams(
    delta=0.11,
    kappa=0.5,
    word_length=10,
    overlap_length=1,
    metric=MetricConfig(2),
    radius=0.5,
    entropy_target=0.38,
    block_depth=2,
)


def test_plan_cap_at_c_zero():
    f3 = full_shift(3)
    t = Target(c=0.0, rho=UNIT3, base=f3, base_measure=parry_measure(f3))
    p = plan_initial_params(t)
    assert p.delta == 0.5
    assert p.kappa > 0


def test_plan_full3_half_log3():
    f3 = full_shift(3)
    t = Target(
        c=0.5 * math.log(3), rho=UNIT3, base=f3, base_measure=parry_measure(f3)
    )
    p = plan_initial_params(t)
    assert p.delta == pytest.approx(1 / 6)
    d = p.delta
    expected_kappa = (1 / 4) * min(
        t.c * abs((1 + d) ** 2 - (1 + 3 * d)), d / 2
    )
    assert p.kappa == pytest.approx(expected_kappa)


def test_plan_tight_target_closed_form():
    f3 = full_shift(3)
    mu = parry_measure(f3)
    c = 0.95 * math.log(3)
    t = Target(c=c, rho=UNIT3, base=f3, base_measure=mu)
    p = plan_initial_params(t)
    assert p.delta == pytest.approx((math.log(3) / c - 1) / 6)
    assert 0 < p.delta < 0.5


def test_plan_infeasible():
    f3 = full_shift(3)
    with pytest.raises(InfeasibleTargetError):
        Target(c=1.2 * math.log(3), rho=UNIT3, base=f3, base_measure=parry_measure(f3))


def test_derive_c1_examples():
    t = full2_target(0.3)
    mu = t.base_measure
    tiny = StageParams(delta=1e-9, kappa=0.1, word_length=4)
    assert derive_c1(t, tiny, mu) == pytest.approx(t.c * 1.0, rel=1e-6)
    f3 = full_shift(3)
    mu3 = parry_measure(f3)
    rho3 = RoofFunction(1, {(0,): 1.0, (1,): 1.5, (2,): 2.0})
    t3 = Target(c=0.2, rho=rho3, base=f3, base_measure=mu3)
    p = StageParams(delta=0.1, kappa=0.1, word_length=4)
    assert derive_c1(t3, p, mu3) == pytest.approx(0.3765)


def test_select_contract_full2():
    f2 = full_shift(2)
    b = bernoulli_measure(f2, [0.5, 0.5])
    c1 = 0.7 * math.log(2)
    cfg = MetricConfig(1)
    pair = select_disjoint_subsystems(f2, b, c1, 0.2, cfg)
    assert abs(topological_entropy(pair.Y) - c1) <= 0.2
    assert weak_star_distance(parry_measure(pair.Y), b, cfg) <= 0.2
    assert topological_entropy(pair.Z) > 0
    assert languages_disjoint(pair.Y, pair.Z, pair.K1)
    # deterministic: the recorded pair
    assert pair.Y_words.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert pair.Z_words.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
    assert pair.K1 == 3
    again = select_disjoint_subsystems(f2, b, c1, 0.2, cfg)
    assert (again.Y_words == pair.Y_words).all()
    assert (again.Z_words == pair.Z_words).all()


def pair_bases(rng):
    """Seeded irreducible bases of at most 16 states: a random matrix or
    the presentation of a random forbidden-word list (blocks of symbols)."""
    while True:
        if rng.random() < 0.5:
            return "matrix", random_irreducible_shift(rng, max_states=5)
        a = int(rng.integers(2, 4))
        forbidden = [
            tuple(rng.integers(0, a, size=int(rng.integers(2, 5))).tolist())
            for _ in range(int(rng.integers(1, 5)))
        ]
        base = from_forbidden_words(a, forbidden)
        if 0 < base.num_states <= 16 and is_irreducible(base):
            return "forbidden", base


def test_pair_words_are_base_words_carrying_the_labels():
    """Per state of Y and of Z, the pair's word of base states is an
    admissible base word that starts with a state of that state's label,
    and the words follow the edges: i -> j joins words overlapping in all
    but one state into a longer admissible word.  On a forbidden-word base
    at block depth 1 the states are the base's own."""
    rng = np.random.default_rng(29)
    found = set()
    for _ in range(40):
        kind, base = pair_bases(rng)
        depth = int(rng.integers(1, 4))
        c1 = float(rng.uniform(0.2, 0.8)) * topological_entropy(base)
        try:
            pair = select_disjoint_subsystems(
                base, parry_measure(base), c1, 1.0, MetricConfig(1), block_depth=depth
            )
        except SubsystemSearchError:
            continue
        for sub, words in ((pair.Y, pair.Y_words), (pair.Z, pair.Z_words)):
            assert words.shape[0] == sub.num_states and depth <= words.shape[1] <= 3
            assert is_admissible(base, words).all()
            assert (base.label_array[words[:, 0]] == sub.label_array).all()
            i, j = sub.matrix.nonzero()
            assert (words[i, 1:] == words[j, :-1]).all()
            assert is_admissible(base, np.hstack([words[i], words[j, -1:]])).all()
        assert not set(map(tuple, pair.Y_words.tolist())) & set(map(tuple, pair.Z_words.tolist()))
        found.add((kind, pair.Y_words.shape[1]))
    assert found == {(kind, d) for kind in ("matrix", "forbidden") for d in (1, 2, 3)}


FORBIDDEN_0000 = """[shift]
alphabet = 2
forbidden = 0000

[roof]
constant = 1.0

[target]
c_fraction = {c}

[run]
stages = 1

[stage 1]
word_length = 6
delta = 0.11
kappa = 0.5
radius = 0.5
block_depth = 1
"""


def test_block_depth_one_on_a_forbidden_base_reads_base_states():
    """At block depth 1 the subsystems of a forbidden-word base are induced
    on its own states, which stand for 3-blocks of symbols: the assembly
    glues base states, and the refusal counts k with blocks of one state."""
    outcomes = {}
    for c in (0.05, 0.1):
        rc = parse_config(FORBIDDEN_0000.format(c=c))
        tgt = rc.build_target()
        tower = iterate(tgt, 1, rc.build_schedule(tgt))
        outcomes[c] = tower.error
    assert isinstance(outcomes[0.05], StageVerificationError)
    assert str(outcomes[0.05]) == "stage 1 failed verification: entropy_window, bracket"
    assert isinstance(outcomes[0.1], InsufficientWordLengthError)
    assert "log|L_n(Y)|/k = 0.05965 < (1+delta)^2 c int(rho) = 0.0808573 with k = 43;" in str(outcomes[0.1])


def test_select_failure_when_entropy_too_high():
    f2 = full_shift(2)
    b = bernoulli_measure(f2, [0.5, 0.5])
    with pytest.raises(SubsystemSearchError):
        select_disjoint_subsystems(f2, b, 0.8, 0.05, MetricConfig(1))


def test_select_failure_at_tight_kappa():
    # no induced-subgraph pair on two symbols satisfies kappa = 0.15 at
    # block depths <= 3 (exhaustively checked by the search itself)
    f2 = full_shift(2)
    b = bernoulli_measure(f2, [0.5, 0.5])
    with pytest.raises(SubsystemSearchError):
        select_disjoint_subsystems(f2, b, 0.7 * math.log(2), 0.15, MetricConfig(2))


def test_build_stage_green_path():
    t = full2_target()
    stage, report = build_stage(base_stage(t), t, GREEN)
    assert report.all_pass, [i.name for i in report.failing()]
    assert report.k == 29
    assert report.gamma_size == 13
    assert stage.sync_depth == 18
    assert report.entropy_identity[2] < 1e-9
    lo, v, hi = report.entropy_window
    assert lo <= v <= hi
    assert report.measure_distance[0] <= 2 * GREEN.kappa
    assert ud_witness(stage.code) is None
    # claim-style invariants on the built stage
    assert abs(report.h_top - math.log(13) / 29) < 1e-9
    d = weak_star_distance(stage.measure, t.base_measure, GREEN.metric)
    assert d <= 2 * GREEN.kappa


def test_build_stage_insufficient_word_length():
    # a radius no finite word can meet starves the separated set
    t = full2_target()
    p = StageParams(
        delta=0.11,
        kappa=0.5,
        word_length=10,
        metric=MetricConfig(2),
        radius=1e-6,
        entropy_target=0.38,
    )
    with pytest.raises(InsufficientWordLengthError):
        build_stage(base_stage(t), t, p)


def test_coded_stage_takes_ud_and_h_top_from_its_code(monkeypatch):
    """Neither the build nor the verification of an enumerated stage runs
    Sardinas-Patterson or power-iterates the stage's presentation."""
    import shiftflex.codes

    def refuse(code):
        raise AssertionError("ud_witness ran")

    monkeypatch.setattr(shiftflex.codes, "ud_witness", refuse)
    root = Path(__file__).resolve().parent.parent
    rc = parse_config((root / "configs" / "full2_small.cfg").read_text())
    t = rc.build_target()
    params = rc.build_schedule(t)[0]
    stage, report = build_stage(base_stage(t), t, params)
    assert stage.shift._perron_cache is None
    items = {i.name: i for i in report.items()}
    assert items["unique_decipherability"].ok
    assert items["unique_decipherability"].detail == "uniform length"
    assert report.entropy_identity[2] == 0
    assert report.h_top == math.log(report.gamma_size) / report.k


def test_verify_stage_roof_window_on_identical_stage():
    t = full2_target()
    stage = renewal_code_stage(((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)))
    p = StageParams(delta=0.3, kappa=0.5, word_length=4)
    report = verify_stage(stage, stage, t, p)
    items = {i.name: i for i in report.items()}
    assert items["roof_window"].ok  # unit roof integrates to 1 for every eta
    assert report.roof_window[1:3] == pytest.approx((1.0, 1.0), abs=1e-12)


def test_verify_stage_detects_non_nested():
    g = golden_mean_shift()
    t = Target(c=0.1, rho=UNIT2, base=g, base_measure=parry_measure(g))
    prev = Stage(
        index=0, shift=g, measure=parry_measure(g), sync_depth=1, sync_depths=(1,)
    )
    nxt = renewal_code_stage(((0, 1), (1, 1)))
    p = StageParams(delta=0.3, kappa=0.5, word_length=4)
    report = verify_stage(prev, nxt, t, p)
    nesting = {d: ok for d, ok, _ in report.nesting}
    assert nesting[1]
    assert not nesting[2]  # the word 11 is not admissible upstream


def test_verify_stage_says_why_sync_depth_and_nesting_fail():
    g = golden_mean_shift()
    t = Target(c=0.1, rho=UNIT2, base=g, base_measure=parry_measure(g))
    prev = Stage(
        index=0, shift=g, measure=parry_measure(g), sync_depth=1, sync_depths=(1,)
    )
    p = StageParams(delta=0.3, kappa=0.5, word_length=4)
    # 0^∞ concatenates the code word 00, so windows of every length avoid 1
    avoid = renewal_code_stage(((0, 0), (0, 1)))
    why = "windows of every length avoid the depth-1 word 1"
    assert _sync_depth(avoid.shift, 1) == (None, why)
    avoid.sync_depth = None
    avoid.sync_depths = (1, None)
    items = {i.name: i for i in verify_stage(prev, avoid, t, p).items()}
    assert not items["saturation_1_in_0"].ok
    assert items["saturation_1_in_0"].detail == why
    # 0110 and 1001 reach 11 and 00, but every window of length 3 has both
    assert _sync_depth(renewal_code_stage(((0, 1), (1, 0))).shift, 1) == (3, None)
    # {01, 11} spells 11, which the golden mean forbids
    nested = renewal_code_stage(((0, 1), (1, 1)))
    items = {i.name: i for i in verify_stage(prev, nested, t, p).items()}
    assert (items["nesting_depth_1"].ok, items["nesting_depth_1"].detail) == (
        True, "language containment"
    )
    assert (items["nesting_depth_2"].ok, items["nesting_depth_2"].detail) == (
        False, "word of stage language missing upstream at depth 2"
    )


def test_iterate_zero_stages():
    t = full2_target()
    tower = iterate(t, 0, [])
    assert tower.error is None
    assert len(tower.stages) == 1
    assert tower.stages[0].shift is t.base


def test_iterate_c_zero_trajectory():
    f2 = full_shift(2)
    t = Target(c=0.0, rho=UNIT2, base=f2, base_measure=parry_measure(f2))
    p = StageParams(
        delta=0.5, kappa=0.3, word_length=6, metric=MetricConfig(2), radius=0.4
    )
    tower = iterate(t, 1, [p])
    assert tower.error is None
    rep = tower.reports[1]
    assert rep.all_pass
    assert rep.gamma_size == 1
    assert rep.h_top == 0.0
    assert normalized_entropy(tower.stages[1], t.rho) == 0.0
    assert topological_entropy(tower.stages[1].shift) <= topological_entropy(f2)


def test_iterate_partial_tower_on_stage_failure():
    t = full2_target()
    p2 = replace(next_params(GREEN), word_length=10, radius=0.25)
    tower = iterate(t, 2, [GREEN, p2])
    assert tower.error is not None
    assert tower.reports[1].all_pass
    assert len(tower.stages) >= 2  # base + passing stage, plus any failed stage


def test_validate_schedule_decay():
    good = [GREEN, next_params(GREEN)]
    validate_schedule(good)
    bad_delta = [GREEN, StageParams(delta=0.11, kappa=0.1, word_length=8)]
    with pytest.raises(ValueError):
        validate_schedule(bad_delta)
    bad_kappa = [GREEN, StageParams(delta=0.04, kappa=0.4, word_length=8)]
    with pytest.raises(ValueError):
        validate_schedule(bad_kappa)


def test_normalized_entropy_unit_roof():
    f2 = full_shift(2)
    st = base_stage(full2_target())
    assert normalized_entropy(st, UNIT2) == pytest.approx(math.log(2))


def test_normalized_entropy_golden_roof():
    g = golden_mean_shift()
    m = parry_measure(g)
    rho = RoofFunction(1, {(0,): 1.0, (1,): 2.0})
    st = Stage(index=0, shift=g, measure=m, sync_depth=1, sync_depths=(1,))
    pi0 = PHI**2 / (1 + PHI**2)
    expected = math.log(PHI) / (pi0 + 2 * (1 - pi0))
    assert normalized_entropy(st, rho) == pytest.approx(expected, abs=1e-9)


def test_select_acceptance_pair_golden():
    f3 = full_shift(3)
    mu = parry_measure(f3)
    rho3 = RoofFunction(1, {(0,): 1.0, (1,): 1.5, (2,): 2.0})
    hstar = markov_entropy(mu) / roof_integral(mu, rho3)
    t = Target(c=0.2 * hstar, rho=rho3, base=f3, base_measure=mu)
    p = StageParams(
        delta=0.12, kappa=0.55, word_length=12, metric=MetricConfig(2),
        radius=0.18, entropy_target=0.81,
    )
    c1 = derive_c1(t, p, mu)
    pair = select_disjoint_subsystems(
        f3, mu, c1, p.kappa, p.metric, entropy_target=0.81, roof=rho3, roof_target=1.5
    )
    assert pair.Y_words.tolist() == [[0, 0], [0, 2], [1, 2], [2, 0], [2, 1], [2, 2]]
    assert pair.Z_words.tolist() == [[0, 1], [1, 0], [1, 1]]
    assert pair.K1 == 2
    assert abs(topological_entropy(pair.Y) - 0.8095869160446497) < 1e-9
    # the planned default kappa is far too tight for any candidate here
    planned = plan_initial_params(t)
    with pytest.raises(SubsystemSearchError):
        select_disjoint_subsystems(f3, mu, c1, planned.kappa, p.metric)


def cyclic_table(word, depth):
    """Cylinder table of the periodic orbit of one word."""
    n = len(word)
    ext = word + word[: depth - 1]
    counts = {}
    for i in range(n):
        counts[ext[i : i + depth]] = counts.get(ext[i : i + depth], 0) + 1
    return {w: c / n for w, c in counts.items()}


def code_word_mixture(measure, renewal, depth):
    """sum_a f_a * (table of code word a's periodic orbit), f_a = sum_p pi(a, p)."""
    k = renewal.k
    mixed = {}
    for a, word in enumerate(renewal.code.words):
        f_a = float(measure.pi[a * k : (a + 1) * k].sum())
        for w, p in cyclic_table(word, depth).items():
            mixed[w] = mixed.get(w, 0.0) + f_a * p
    return mixed


def table_gap(a, b):
    return max(abs(a.get(w, 0.0) - b.get(w, 0.0)) for w in set(a) | set(b))


def random_uniform_codes(seed, count):
    """Uniform-length binary codes whose words share a random prefix and suffix."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        head = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
        tail = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
        middle = rng.randrange(2, 4)
        words = {
            head + tuple(rng.randrange(2) for _ in range(middle)) + tail
            for _ in range(rng.randrange(2, 6))
        }
        if len(words) >= 2:
            out.append(Code(tuple(words)))
    return out


def test_invariant_tables_are_code_word_mixtures_up_to_exact_depth():
    t = full2_target()
    green, _ = build_stage(base_stage(t), t, GREEN)
    shifts = [green.shift] + [
        renewal_to_sft(code, ambient_size=2) for code in random_uniform_codes(3, 12)
    ]
    rng = np.random.default_rng(11)
    for shift in shifts:
        renewal = shift.renewal
        for _ in range(3):
            eta = random_markov_measure(shift, rng)
            for depth in range(1, renewal.exact_depth + 1):
                mixed = code_word_mixture(eta, renewal, depth)
                assert table_gap(eta.cylinder_table(depth), mixed) < 1e-9


def test_code_word_mixture_fails_beyond_exact_depth():
    # the words share the prefix 0 and no suffix: exact depth 2
    shift = renewal_to_sft(Code(((0, 0), (0, 1))), ambient_size=2)
    renewal = shift.renewal
    assert renewal.exact_depth == 2
    eta = random_markov_measure(shift, np.random.default_rng(0))
    depth = renewal.exact_depth + 1
    assert table_gap(eta.cylinder_table(depth), code_word_mixture(eta, renewal, depth)) > 1e-3


def renewal_code_stage(words):
    code = Code(words)
    shift = renewal_to_sft(code, ambient_size=2)
    return Stage(
        index=1, shift=shift, measure=shift.renewal, code=code,
        sync_depth=1, sync_depths=(1, 1),
    )


def test_verify_stage_refuses_what_code_words_do_not_bound():
    t = full2_target()
    stage = renewal_code_stage(((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)))
    exact = stage.shift.renewal.exact_depth
    assert exact == 3
    within = StageParams(delta=0.3, kappa=0.5, word_length=4, metric=MetricConfig(exact))
    assert verify_stage(base_stage(t), stage, t, within).eta_count == 1 + 3
    both_depths = f"depth {exact + 1} exceeds the exact depth {exact}"
    beyond = replace(within, metric=MetricConfig(exact + 1))
    with pytest.raises(StructureDepthError, match=both_depths):
        verify_stage(base_stage(t), stage, t, beyond)
    words = itertools.product(range(2), repeat=exact + 1)
    deep_roof = replace(t, rho=RoofFunction(exact + 1, {w: 1.0 for w in words}))
    with pytest.raises(StructureDepthError, match=both_depths):
        verify_stage(base_stage(t), stage, deep_roof, within)
    codeless = Stage(
        index=1, shift=full_shift(2), measure=t.base_measure, sync_depth=1, sync_depths=(1, 1)
    )
    with pytest.raises(ValueError, match="no code"):
        verify_stage(base_stage(t), codeless, t, within)
    mixed = replace(stage, code=Code(((0, 1), (0, 0, 1))))
    with pytest.raises(ValueError, match="stage 1 has code words of several lengths"):
        verify_stage(base_stage(t), mixed, t, within)


def test_built_renewal_stage_checks_only_code_words():
    t = full2_target()
    stage, report = build_stage(base_stage(t), t, GREEN)
    assert stage.shift.renewal.exact_depth >= GREEN.metric.max_depth
    assert report.eta_count == 1 + report.gamma_size


def test_subset_connectivity_masks_match_induced_subshifts():
    rng = np.random.default_rng(19)
    passed = singles = 0
    for _ in range(60):
        n = int(rng.integers(1, 8))
        shift = VertexShift((rng.random((n, n)) < rng.uniform(0.2, 0.6)).astype(np.int8))
        succ, pred = _neighbour_masks(shift)
        for mask in range(1, 1 << n):
            states = [i for i in range(n) if mask >> i & 1]
            expected = _strongly_connected(induced_subshift(shift, states))
            assert _strongly_connected_mask(succ, pred, mask) == expected
            passed += expected
            singles += expected and len(states) == 1
    assert passed > 100 and singles > 10


def _seeded_first_stage_configs(count, seed=13):
    """Config texts of small one-stage constructs over a seeded grid."""
    bases = (
        "[shift]\nalphabet = 2\nmatrix = 11 11\n\n[roof]\nconstant = 1.0\n",
        "[shift]\nalphabet = 3\nmatrix = 111 111 111\n\n"
        "[roof]\ndepth = 1\n0 = 1.0\n1 = 1.5\n2 = 2.0\n",
    )
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (
            bases[int(rng.integers(2))]
            + f"\n[target]\nc_fraction = {rng.choice([0.05, 0.07, 0.1, 0.13])}\n"
            + "\n[run]\nstages = 1\nmetric_depth = 2\n\n[stage 1]\n"
            + f"word_length = {rng.choice([6, 8, 10, 12])}\noverlap_length = 1\n"
            + f"delta = {rng.choice([0.11, 0.13, 0.16, 0.19, 0.22])}\n"
            + "kappa = 0.5\nradius = 0.5\nblock_depth = 2\n"
        )


def test_fresh_verification_reproduces_the_build_report():
    """verify_stage on a built stage gives the report the build gave.

    Seeded stages that assemble but fail a window count too: the error
    carries the stage and its report.
    """
    root = Path(__file__).resolve().parent.parent
    texts = [(root / "configs" / "full2_small.cfg").read_text()]
    texts += list(_seeded_first_stage_configs(6))
    checked = passing = 0
    for text in texts:
        rc = parse_config(text)
        t = rc.build_target()
        params = rc.build_schedule(t)[0]
        prev = base_stage(t)
        try:
            stage, report = build_stage(prev, t, params)
        except StageVerificationError as exc:
            if exc.report is None:
                continue
            stage, report = exc.stage, exc.report
        except (InsufficientWordLengthError, SubsystemSearchError):
            continue
        overlap = {k: v for k, v in report.overlap.items() if k != "ok"}
        fresh = verify_stage(prev, stage, t, params, overlap_data=overlap)
        assert fresh.items() == report.items()
        checked += 1
        passing += report.all_pass
    assert checked >= 4 and passing >= 1


def test_verify_stage_takes_a_reports_own_overlap():
    """The `overlap` dict of a report, `ok` included, verifies its stage
    again to an equal report."""
    root = Path(__file__).resolve().parent.parent
    rc = parse_config((root / "configs" / "full2_small.cfg").read_text())
    t = rc.build_target()
    params = rc.build_schedule(t)[0]
    prev = base_stage(t)
    stage, report = build_stage(prev, t, params)
    again = verify_stage(prev, stage, t, params, overlap_data=report.overlap)
    assert again == replace(report, artifacts=None)
    assert list(again.overlap) == ["ok", "l", "border", "M", "K1", "disjoint"]


def test_log_path_counter_extends_on_demand():
    """Queried in any order, the iterated counts are the exact word counts."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        shift = random_irreducible_shift(rng)
        log_count = _log_path_counter(shift)
        for n in rng.permutation(np.arange(1, 30)):
            exact = math.log(word_count(shift, int(n)))
            assert log_count(int(n)) == pytest.approx(exact, rel=1e-12, abs=1e-12)


class CyclicOrbit:
    """The periodic-orbit measure of one word, as cylinder tables."""

    def __init__(self, word):
        self.word = word

    def cylinder_table(self, depth):
        return cyclic_table(self.word, depth)


def test_orbit_scores_match_per_word_cyclic_tables():
    import itertools

    from shiftflex.construction import _score_orbits

    rng = np.random.default_rng(23)
    for _ in range(40):
        alph = int(rng.integers(2, 4))
        r = int(rng.integers(1, 3))
        rho = RoofFunction(
            r, {w: float(rng.uniform(1, 2)) for w in itertools.product(range(alph), repeat=r)}
        )
        metric = MetricConfig(int(rng.integers(1, 4)))
        measure = bernoulli_measure(full_shift(alph), rng.dirichlet(np.ones(alph)))
        length = int(rng.integers(3, 9))  # a stage code has one word length
        words = [
            tuple(int(x) for x in rng.integers(0, alph, length))
            for _ in range(int(rng.integers(1, 12)))
        ]
        roof_vals, dists = [0.5], [0.25]
        _score_orbits(words, rho, measure, metric, alph, roof_vals, dists)
        want_roof = [0.5] + [roof_integral(CyclicOrbit(w), rho) for w in words]
        want_dist = [0.25] + [weak_star_distance(CyclicOrbit(w), measure, metric) for w in words]
        assert np.allclose(roof_vals, want_roof, rtol=0, atol=1e-12)
        assert np.allclose(dists, want_dist, rtol=0, atol=1e-12)
