"""The batched scores of the exhaustive subsystem search against the
per-subset path.

`oracle_subset_candidates` and `oracle_zed_candidates` are the search as it
was before its scores were batched: every strongly connected subset gets
its own induced subshift, power-iterated entropy, Parry measure and weak*
distance, and the candidates are sorted by the exact key.  The batched
search must give the same candidates in the same order, and its array
scores (entropy, distance) must agree with `_exact_candidate` to 1e-10.
The roof score orders candidates only inside a run of tied entropies,
where `_exact_candidate` scores it, so the random roofs below decide
orders the batched search must reproduce.
"""

import itertools
import math

import numpy as np
import pytest

from shiftflex import (
    MetricConfig,
    RoofFunction,
    VertexShift,
    bernoulli_measure,
    full_shift,
    higher_block,
    is_irreducible,
    parry_measure,
    random_markov_measure,
    roof_integral,
    topological_entropy,
    weak_star_distance,
)
from shiftflex.construction import (
    TIE_EPS,
    _exact_candidate,
    _mask_subshift,
    _neighbour_masks,
    _strongly_connected_mask,
    _subset_candidates,
    _subset_scores,
    _zed_candidates,
)
from shiftflex.words import graph_period, induced_subshift, languages_disjoint


def oracle_subset_candidates(shift, m, c1, kappa, cfg, target_h, roof_score, positive_h):
    """Exhaustively scored strongly connected induced subgraphs."""
    n = shift.num_states
    succ, pred = _neighbour_masks(shift)
    out = []
    for mask in range(1, 1 << n):
        if not _strongly_connected_mask(succ, pred, mask):
            continue
        sub = induced_subshift(shift, [i for i in range(n) if mask >> i & 1])
        h = topological_entropy(sub)
        if positive_h and h <= 1e-9:
            continue  # a positive-entropy target needs carrier subsystems
        if abs(h - c1) > kappa:
            continue
        pm = parry_measure(sub)
        d = weak_star_distance(pm, m, cfg)
        if d > kappa:
            continue
        out.append((abs(h - target_h), abs(h - c1), roof_score(pm), d, mask, sub, pm))
    out.sort(key=lambda t: t[:5])
    return out


def oracle_zed_candidates(shift, y_mask, k1_cap, y_shift):
    """Positive-entropy subsystems language-disjoint from Y, smallest K1 first."""
    n = shift.num_states
    succ, pred = _neighbour_masks(shift)
    rest = [i for i in range(n) if not (y_mask >> i & 1)]
    found = []
    for mask in range(1, 1 << len(rest)):
        states = [rest[i] for i in range(len(rest)) if mask >> i & 1]
        if not _strongly_connected_mask(succ, pred, sum(1 << i for i in states)):
            continue
        sub = induced_subshift(shift, states)
        if topological_entropy(sub) <= 1e-9:
            continue
        for k in range(1, k1_cap + 1):
            if languages_disjoint(y_shift, sub, k):
                found.append((k, -topological_entropy(sub), mask, sub))
                break
    found.sort(key=lambda t: t[:3])
    # compressed masks over `rest` as masks over all states
    return [
        (k, sum(1 << rest[i] for i in range(len(rest)) if mask >> i & 1))
        for k, _, mask, _ in found
    ]


def random_graph(rng):
    """A strongly connected graph of 2-8 states (5 on average), identity or
    random labels."""
    n = 2 + int(rng.binomial(6, 0.5))
    while True:
        mat = (rng.random((n, n)) < rng.uniform(0.2, 0.45)).astype(np.int8)
        if is_irreducible(VertexShift(mat)):
            break
    if rng.random() < 0.4:
        return VertexShift(mat)
    alph = int(rng.integers(2, 4))
    return VertexShift(mat, labels=rng.integers(0, alph, n), ambient_size=alph)


def periodic_graphs():
    """Graphs whose strongly connected subsets include periodic ones that
    are not single cycles."""
    bipartite = np.zeros((6, 6), dtype=np.int8)
    bipartite[:3, 3:] = bipartite[3:, :3] = 1
    three = np.zeros((6, 6), dtype=np.int8)  # period 3: 0,1 -> 2,3 -> 4,5 -> 0,1
    for a, b in [(0, 2), (0, 3), (1, 2), (2, 4), (3, 5), (3, 4), (4, 0), (5, 1), (5, 0)]:
        three[a, b] = 1
    return [VertexShift(bipartite), VertexShift(three, labels=[0, 1, 1, 0, 0, 1], ambient_size=2)]


def block_presentations():
    return [higher_block(full_shift(2), 2), higher_block(full_shift(2), 3),
            higher_block(full_shift(3), 2)]


def random_measure(shift, rng):
    """Parry, Bernoulli or random Markov measure on the ambient alphabet."""
    alph = shift.ambient_size
    kind = int(rng.integers(4))
    if kind == 0:
        return parry_measure(shift)
    if kind == 1:
        return bernoulli_measure(full_shift(alph), rng.dirichlet(np.ones(alph)))
    if kind == 2:
        return random_markov_measure(full_shift(alph), rng)
    return parry_measure(full_shift(alph))


def exact_values(shift, mask, m, cfg):
    """(h, distance) of one subset from the per-subset path."""
    key = _exact_candidate(shift, mask, m, 0.0, math.inf, cfg, 0.0, None, False)[0]
    return key[0], key[3]


def cases():
    """(shift, seed) of every differential case."""
    rng = np.random.default_rng(2024)
    out = [(random_graph(rng), seed) for seed in range(96)]
    out += [(g, 100 + i) for i, g in enumerate(periodic_graphs())]
    return out + [(g, 200 + i) for i, g in enumerate(block_presentations() * 2)]


def test_batched_search_matches_per_subset_path():
    seen = dict(tie_runs=0, edges=0, disagreements=0, periodic=0, loops=0, zed_ties=0)
    for shift, seed in cases():
        rng = np.random.default_rng(seed)
        m = random_measure(shift, rng)
        cfg = MetricConfig(int(rng.integers(1, 4)))
        alph = shift.ambient_size
        roof = None
        if rng.random() < 0.7:
            r = int(rng.integers(1, 3))
            rho = RoofFunction(
                r, {w: float(rng.uniform(1, 2)) for w in itertools.product(range(alph), repeat=r)}
            )
            roof = (rho, roof_integral(m, rho))
        scores = _subset_scores(shift, m, cfg)

        # array scores against the per-subset path, on a sample of subsets
        # (and below, on every candidate)
        masks = scores.masks.tolist()
        sample = np.sort(rng.choice(len(masks), min(len(masks), 6), replace=False))
        exact = np.array([exact_values(shift, masks[i], m, cfg) for i in sample])
        assert np.abs(scores.h[sample] - exact[:, 0]).max() < 1e-10
        assert np.abs(scores.d[sample] - exact[:, 1]).max() < 1e-10
        for i, h in zip(sample, exact[:, 0]):
            sub = _mask_subshift(shift, masks[i])
            seen["loops"] += sub.num_states == 1
            seen["periodic"] += h > 1e-9 and graph_period(sub) > 1

        # filters: random, or set on one subset's exact value (a filter edge)
        h_max = float(scores.h.max())
        c1 = float(rng.uniform(0, h_max))
        kappa = float(rng.uniform(0.05, 1.0))
        pick = int(rng.integers(len(sample)))
        kind = seed % 3 if seed < 96 else 0
        if kind == 1:
            c1, kappa = exact[pick, 0], exact[pick, 1]  # d = kappa exactly
        elif kind == 2:
            c1 = exact[pick, 0] + kappa  # |h - c1| = kappa up to rounding
        target_h = c1 if rng.random() < 0.5 else float(rng.uniform(0, h_max))
        positive_h = c1 > 1e-12
        gap = np.abs(scores.h - c1)
        near = (np.abs(gap - kappa) < TIE_EPS) | (np.abs(scores.d - kappa) < TIE_EPS)
        seen["edges"] += int(near.any())
        dense_in = (gap <= kappa) & (scores.d <= kappa) & ((not positive_h) | (scores.h > 1e-9))
        exact_in = (
            (np.abs(exact[:, 0] - c1) <= kappa) & (exact[:, 1] <= kappa)
            & ((not positive_h) | (exact[:, 0] > 1e-9))
        )
        seen["disagreements"] += int((dense_in[sample] != exact_in).any())
        lead = np.sort(np.abs(scores.h[dense_in] - target_h))
        seen["tie_runs"] += int((np.diff(lead) < TIE_EPS).any())

        if roof is None:
            def roof_score(pm):
                return 0.0
        else:
            def roof_score(pm, rho=roof[0], target=roof[1]):
                return abs(roof_integral(pm, rho) - target)
        want = oracle_subset_candidates(shift, m, c1, kappa, cfg, target_h, roof_score, positive_h)
        got = list(_subset_candidates(shift, scores, m, c1, kappa, cfg, target_h, roof, positive_h))
        assert [mask for mask, _, _ in got] == [t[4] for t in want], seed
        row = {mask: i for i, mask in enumerate(masks)}
        for (mask, sub, pm), t in zip(got, want):
            assert sub == t[5]
            assert np.array_equal(pm.pi, t[6].pi) and (pm.P != t[6].P).nnz == 0
            i = row[mask]
            assert abs(scores.h[i] - topological_entropy(sub)) < 1e-10
            assert abs(scores.d[i] - t[3]) < 1e-10

        cap = int(rng.integers(1, 7))
        # the first Y, and the first two whose Z search finds a candidate
        with_z = [y for y in got[1:] if next(_zed_candidates(shift, scores, y[0], cap), None)]
        ys = got[:1] + with_z[:2]
        for y_mask, y_sub, _ in ys:
            want_z = oracle_zed_candidates(shift, y_mask, cap, y_sub)
            got_z = [(k, mask) for k, mask, _ in _zed_candidates(shift, scores, y_mask, cap)]
            assert got_z == want_z, seed
            hz = {mask: h for mask, h in zip(masks, scores.h.tolist())}
            seen["zed_ties"] += any(
                a[0] == b[0] and abs(hz[a[1]] - hz[b[1]]) < TIE_EPS
                for a, b in zip(got_z, got_z[1:])
            )
    assert seen["tie_runs"] and seen["edges"] and seen["disagreements"], seen
    assert seen["periodic"] and seen["loops"] and seen["zed_ties"], seen


@pytest.mark.parametrize("base,depth", [(2, 2), (2, 3), (3, 2)])
def test_block_presentations_open_with_mirror_image_ties(base, depth):
    """On the block presentations the search uses, the best candidates
    come in runs that tie in exact arithmetic, so the exact path orders
    them; the batched search still returns the per-subset path's first."""
    shift = higher_block(full_shift(base), depth)
    m = parry_measure(full_shift(base))
    cfg = MetricConfig(2)
    c1 = 0.5 * math.log(base)
    scores = _subset_scores(shift, m, cfg)
    keep = (np.abs(scores.h - c1) <= 1.0) & (scores.d <= 1.0) & (scores.h > 1e-9)
    lead = np.sort(np.abs(scores.h[keep] - c1))
    assert lead[1] - lead[0] < TIE_EPS
    want = oracle_subset_candidates(shift, m, c1, 1.0, cfg, c1, lambda pm: 0.0, True)
    first = next(_subset_candidates(shift, scores, m, c1, 1.0, cfg, c1, None, True))
    assert first[0] == want[0][4]
