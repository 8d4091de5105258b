"""The nested-subshift tower: stage planning, assembly and verification.

Each stage replaces the ambient shift X_n by a renewal subshift X_{n+1}
built from a separated word set of a measure-targeted subsystem Y, glued
through connecting words and a low-self-overlap word from a disjoint
subsystem Z.  Every inequality the construction relies on is evaluated
numerically and reported; a stage that fails verification raises with the
failing window identified.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .codes import (
    Code,
    PermutationCode,
    RenewalStructure,
    find_low_overlap_word,
    max_self_overlap,
    renewal_to_sft,
)
from .errors import (
    CapacityError,
    InfeasibleTargetError,
    InsufficientWordLengthError,
    ShiftflexError,
    StageVerificationError,
    StructureDepthError,
    SubsystemSearchError,
    UnreachableStateError,
    UnsupportedAmbientError,
)
from .measures import (
    MetricConfig,
    cyclic_windows,
    dense_table,
    empirical_distances,
    katok_separated_set,
    pigeonhole_refine,
    weak_star_distance,
    window_counts,
)
from .spectral import (
    MarkovMeasure,
    RoofFunction,
    abramov,
    markov_entropy,
    parry_measure,
    roof_integral,
    topological_entropy,
)
from .words import (
    VertexShift,
    connecting_word,
    higher_block,
    induced_subshift,
    is_admissible,
    is_irreducible,
    label_word,
    language,
    languages_disjoint,
)

# block depths the exhaustive subsystem search escalates through, and the
# most states a presentation it searches may have
MAX_BLOCK_DEPTH = 3
SUBSET_CAP = 16
# array scores of the subset search within this of each other, or of a
# filter edge, are decided by the per-subset path; they differ from its
# values by at most about 1e-12
TIE_EPS = 1e-9


def require_irreducible(base):
    """Raise InfeasibleTargetError unless the base shift is irreducible."""
    if not is_irreducible(base):
        raise InfeasibleTargetError("base shift must be irreducible")


@dataclass(frozen=True)
class Target:
    """Construction goal: normalized entropy c for the suspension of `base`."""

    c: float
    rho: RoofFunction
    base: VertexShift
    base_measure: MarkovMeasure

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise InfeasibleTargetError(f"target entropy must be finite and >= 0, got {self.c}")
        require_irreducible(self.base)
        hstar = self.normalized_base_entropy
        if self.c >= hstar:
            raise InfeasibleTargetError(
                f"target c={self.c:.6g} is not below h*={hstar:.6g}"
            )

    @property
    def base_entropy(self):
        return markov_entropy(self.base_measure)

    @property
    def base_roof_integral(self):
        return roof_integral(self.base_measure, self.rho)

    @property
    def normalized_base_entropy(self):
        return abramov(self.base_entropy, self.base_roof_integral)


DELTA_CAP = 0.5


@dataclass(frozen=True)
class StageParams:
    """Per-stage knobs: window slack delta, proximity kappa, word lengths.

    radius defaults to kappa.  block_depth and entropy_target steer only
    the subset search of stage 1: entropy_target redirects it away from
    the naive midpoint (finite word lengths inflate the code length k
    relative to n, so the subsystem carrying the separated set must run
    hotter than the midpoint by roughly k/n).  Later stages take Y by rule.
    """

    delta: float
    kappa: float
    word_length: int
    overlap_length: int = 1
    metric: MetricConfig = MetricConfig(2)
    radius: float = None
    block_depth: int = 2
    entropy_target: float = None

    def __post_init__(self):
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be finite and positive")
        if self.word_length < 1 or self.overlap_length < 1:
            raise ValueError("word lengths must be >= 1")
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be finite and positive")
        if self.entropy_target is not None and not math.isfinite(self.entropy_target):
            raise ValueError("entropy_target must be finite")
        if self.block_depth < 1:
            raise ValueError("block depth must be >= 1")

    @property
    def effective_radius(self):
        return self.kappa if self.radius is None else self.radius


def validate_schedule(schedule):
    """Hard decay constraints between consecutive stage parameters; the
    ValueError names the stage (schedule[0] is stage 1) and the key."""
    for i, (a, b) in enumerate(zip(schedule, schedule[1:]), start=2):
        if not (1 + b.delta) ** 2 < (1 + a.delta):
            raise ValueError(f"stage {i} delta: (1+{b.delta})^2 must stay below 1+{a.delta}")
        if not b.kappa < a.kappa / 2:
            raise ValueError(f"stage {i} kappa: must at least halve, {b.kappa} vs {a.kappa}")


def next_params(prev):
    """Default decayed parameters for the following stage.

    delta and kappa shrink inside the hard decay constraints; radius and
    entropy_target, which only stage 1 reads, reset to their defaults.
    """
    delta = 0.9 * (math.sqrt(1 + prev.delta) - 1)
    kappa = 0.49 * prev.kappa
    return replace(prev, delta=delta, kappa=kappa, radius=None, entropy_target=None)


def plan_initial_params(target, metric=None):
    """First-stage parameters from the feasibility gap.

    delta_1 is half the supremum of admissible slacks (the largest delta
    with (1+3 delta) c integral(rho) < h), capped at 1/2 so the window
    stays ordered; kappa_1 follows the displayed quarter-integral bound.
    """
    h = target.base_entropy
    ri = target.base_roof_integral
    c = target.c
    if metric is None:
        metric = MetricConfig(max(target.rho.depth, 2))
    if c > 0:
        sup = (h / (c * ri) - 1.0) / 3.0
        if sup <= 0:
            raise InfeasibleTargetError("no positive delta satisfies the window")
        delta = min(sup / 2.0, DELTA_CAP)
    else:
        delta = DELTA_CAP
    terms = [delta / 2.0]
    if c > 0:
        terms.append(c * abs((1 + delta) ** 2 - (1 + 3 * delta)))
    kappa = (ri / 4.0) * min(terms)
    return StageParams(
        delta=delta,
        kappa=kappa,
        word_length=12,
        overlap_length=1,
        metric=metric,
    )


def derive_c1(target, params, stage_measure):
    """Midpoint entropy target between the two window edges."""
    ri = roof_integral(stage_measure, target.rho)
    d = params.delta
    return target.c * ri * (((1 + d) ** 2) + (1 + 3 * d)) / 2.0


@dataclass(frozen=True)
class SubsystemPair:
    """Y, Z, their disjointness depth K1 and Y's maximal measure, and per
    state of Y and of Z the word of ambient states it stands for, a
    (states × length) array.  On a renewal ambient Y is a
    `RenewalStructure.sub_code`, its own measure, and `Y_words` is None."""

    Y: object
    Z: VertexShift
    K1: int
    Y_measure: object
    Y_words: np.ndarray
    Z_words: np.ndarray


def _neighbour_masks(shift):
    """Per state, the bit masks of its successors and of its predecessors,
    as Python ints (fewer than 63 states)."""
    dense = shift.dense().astype(np.int64)
    bits = 1 << np.arange(shift.num_states, dtype=np.int64)
    return (dense @ bits).tolist(), (dense.T @ bits).tolist()


def _strongly_connected_mask(succ, pred, mask):
    """`_strongly_connected` of the subgraph induced on the states of `mask`.

    Every state must reach every state by a path of at least one edge
    inside the subset, so a single state needs a self loop.
    """
    low = mask & -mask
    for nbrs in (succ, pred):
        seen = frontier = low
        while frontier:
            reach = 0
            while frontier:
                bit = frontier & -frontier
                reach |= nbrs[bit.bit_length() - 1]
                frontier ^= bit
            frontier = reach & mask & ~seen
            seen |= frontier
        if seen != mask:
            return False
    return mask != low or bool(succ[low.bit_length() - 1] & low)


def _mask_states(mask, n):
    """The states of a subset mask over n states, ascending."""
    return [i for i in range(n) if mask >> i & 1]


def _mask_subshift(shift, mask):
    """The subshift on a mask of the subset search, which only yields
    strongly connected masks (`_strongly_connected_mask`): the subshift
    carries that verdict, so `is_irreducible` does not search it again."""
    sub = induced_subshift(shift, _mask_states(mask, shift.num_states))
    sub._irreducible_cache = True
    return sub


def _exact_candidate(shift, mask, m, c1, kappa, cfg, target_h, roof, positive_h):
    """One subset scored on its own: its sort key (|h - target_h|,
    |h - c1|, roof score, distance to m, mask), its subshift and its Parry
    measure, or None when a filter drops it.  `roof` is (rho,
    roof_target) or None."""
    sub = _mask_subshift(shift, mask)
    h = topological_entropy(sub)
    if positive_h and h <= 1e-9:
        return None  # a positive-entropy target needs carrier subsystems
    if abs(h - c1) > kappa:
        return None
    pm = parry_measure(sub)
    d = weak_star_distance(pm, m, cfg)
    if d > kappa:
        return None
    score = abs(roof_integral(pm, roof[0]) - roof[1]) if roof else 0.0
    return (abs(h - target_h), abs(h - c1), score, d, mask), sub, pm


@dataclass
class _SubsetScores:
    """Every strongly connected induced subgraph of a small presentation,
    scored in arrays: its state mask, its entropy and the distance from its
    Parry measure to m.  The roof score orders candidates only inside a run
    of tied entropies, which the exact path scores, so it is not kept."""

    masks: np.ndarray
    h: np.ndarray
    d: np.ndarray


def _perron_batch(mats):
    """Perron value, right and left vector of each matrix of a (B, s, s)
    stack of irreducible 0/1 matrices, from one batched eigen-solve of the
    matrices and their transposes.

    The Perron root has the largest real part: a periodic matrix has a ring
    of eigenvalues of equal modulus, but only the root itself is real and
    positive.  Each vector is scaled to sum 1.
    """
    count = len(mats)
    vals, vecs = np.linalg.eig(np.concatenate([mats, mats.transpose(0, 2, 1)]))
    top = vals.real.argmax(axis=1)
    rows = np.arange(2 * count)
    v = vecs[rows, :, top]
    v = (v / v.sum(axis=1, keepdims=True)).real
    return vals.real[rows[:count], top[:count]], v[:count], v[count:]


def _subset_scores(shift, m, cfg):
    """`_SubsetScores` of every strongly connected subset of `shift`'s
    states, with one batched eigen-solve per subset size.

    The Parry measure of a subgraph with Perron value lam, right vector v
    and left vector u gives the path s_0 .. s_{n-1} the mass
    u[s_0] v[s_{n-1}] / (lam^(n-1) u.v), so its label-cylinder tables come
    from products of the stacked matrices.
    """
    n, alph = shift.num_states, shift.ambient_size
    succ, pred = _neighbour_masks(shift)
    dense = shift.dense().astype(np.float64)
    labels = shift.label_array
    depth = cfg.max_depth
    targets = [dense_table(m.cylinder_table(d), d, alph) for d in range(1, depth + 1)]
    by_size = {}
    for mask in range(1, 1 << n):
        if _strongly_connected_mask(succ, pred, mask):
            by_size.setdefault(mask.bit_count(), []).append(mask)
    parts = [(np.zeros(0, np.int64), np.zeros(0), np.zeros(0))]
    for size, masks in sorted(by_size.items()):
        # blocks of subsets small enough that no table exceeds 2^21 entries
        block = max(1, (1 << 21) // (alph**depth * size))
        for lo in range(0, len(masks), block):
            chunk = masks[lo : lo + block]
            parts.append(_score_block(dense, labels, chunk, size, targets, alph))
    return _SubsetScores(*(np.concatenate(col) for col in zip(*parts)))


def _score_block(dense, labels, masks, size, targets, alph):
    """Masks, entropies and distances of subsets of one size."""
    n = len(labels)
    states = np.array([_mask_states(mask, n) for mask in masks])
    mats = dense[states[:, :, None], states[:, None, :]]
    lam, right, left = _perron_batch(mats)
    onehot = (labels[states][:, None, :] == np.arange(alph)[:, None]).astype(np.float64)
    x = left[:, None, :] * onehot  # per label word, the masses u[s_0] of its paths
    norm = (left * right).sum(axis=1)[:, None]
    dist = np.zeros(len(masks))
    for d, target in enumerate(targets, 1):
        if d > 1:
            x = (x @ mats / lam[:, None, None])[:, :, None, :] * onehot[:, None]
            x = x.reshape(len(masks), alph**d, size)
        table = (x @ right[:, :, None])[:, :, 0] / norm
        dist += 0.5 * np.abs(table - target).sum(axis=1) / (1 << d)
    return np.array(masks, dtype=np.int64), np.log(lam), dist


def _in_runs(items, lead, settled, fast, exact):
    """Results for `items` in the order of their array-scored leading keys
    `lead`, lazily, one run at a time.

    A run is a chain of neighbours whose leading keys lie within TIE_EPS;
    the later keys of the exact order matter only inside a run.  A run of
    one `settled` item yields fast(item).  Any other run is re-scored by
    exact(item), which gives (key, result) or None for an item a filter
    drops, and yields its results sorted by key.
    """
    order = np.argsort(lead, kind="stable")
    cuts = np.flatnonzero(np.diff(lead[order]) >= TIE_EPS) + 1
    for run, ok in zip(np.split(items[order], cuts), np.split(settled[order], cuts)):
        run = run.tolist()
        if len(run) == 1 and ok[0]:
            yield fast(run[0])
            continue
        scored = [e for e in map(exact, run) if e is not None]
        yield from (result for _, result in sorted(scored, key=lambda e: e[0]))


def _subset_candidates(shift, scores, m, c1, kappa, cfg, target_h, roof, positive_h):
    """Y candidates of `shift` as (mask, sub, pm), in the order of the exact
    key of `_exact_candidate`, lazily.

    Candidates are ranked by their array scores.  The exact path decides
    only where those cannot: it re-scores and sorts every run of candidates
    whose leading keys lie within TIE_EPS of each other, and every
    candidate within TIE_EPS of a filter edge (|h - c1| = kappa, d = kappa,
    h = 1e-9).  Any other candidate keeps its place; when the caller
    reaches it, only its subshift and Parry measure are built.
    """
    h, d = scores.h, scores.d
    gap = np.abs(h - c1)
    edge = (np.abs(gap - kappa) < TIE_EPS) | (np.abs(d - kappa) < TIE_EPS)
    keep = (gap <= kappa) & (d <= kappa)
    if positive_h:
        edge |= np.abs(h - 1e-9) < TIE_EPS
        keep &= h > 1e-9
    idx = np.flatnonzero(keep | edge)

    def fast(mask):
        sub = _mask_subshift(shift, mask)
        return mask, sub, parry_measure(sub)

    def exact(mask):
        e = _exact_candidate(shift, mask, m, c1, kappa, cfg, target_h, roof, positive_h)
        return e and (e[0], (mask, e[1], e[2]))

    return _in_runs(scores.masks[idx], np.abs(h[idx] - target_h), ~edge[idx], fast, exact)


def _disjoint_depths(shift, y_mask, masks, cap):
    """Per subset mask, the least depth <= cap at which the label languages
    of the subgraphs on `y_mask` and on the mask are disjoint, 0 where they
    still meet at depth cap.

    A label word of length k lies in both iff a walk of k pairs (y, z) of
    equally labelled states spells it, with y in Y and z in the mask, so
    all masks advance together on one pair graph.
    """
    n = shift.num_states
    dense = shift.dense().astype(bool)
    labels = shift.label_array.tolist()
    pairs = [
        (y, z) for y in range(n) if y_mask >> y & 1 for z in range(n) if labels[y] == labels[z]
    ]
    py, pz = np.array(pairs).reshape(len(pairs), 2).T
    step = (dense[np.ix_(py, py)] & dense[np.ix_(pz, pz)]).astype(np.float64)
    inside = (masks[:, None] >> pz & 1).astype(np.float64)
    reach = inside
    depths = np.zeros(len(masks), dtype=np.int64)
    for k in range(1, cap + 1):
        depths[(depths == 0) & ~reach.any(axis=1)] = k
        reach = (reach @ step > 0) * inside
    return depths


def _zed_candidates(shift, scores, y_mask, cap):
    """Positive-entropy subsystems language-disjoint from Y, as (K1, mask,
    sub): smallest K1 first, then largest entropy, then mask; lazily.

    Entropies within TIE_EPS of each other or of the 1e-9 floor are
    re-scored on the subshift itself (`topological_entropy`).
    """
    h = scores.h
    edge = np.abs(h - 1e-9) < TIE_EPS
    idx = np.flatnonzero((scores.masks & y_mask == 0) & ((h > 1e-9) | edge))
    depths = _disjoint_depths(shift, y_mask, scores.masks[idx], cap)
    for k in range(1, cap + 1):
        group = idx[depths == k]

        def fast(mask, k=k):
            return k, mask, _mask_subshift(shift, mask)

        def exact(mask, k=k):
            sub = _mask_subshift(shift, mask)
            hh = topological_entropy(sub)
            return None if hh <= 1e-9 else ((-hh, mask), (k, mask, sub))

        yield from _in_runs(scores.masks[group], -h[group], ~edge[group], fast, exact)


def select_disjoint_subsystems(
    shift,
    m,
    c1,
    kappa,
    cfg,
    block_depth=2,
    entropy_target=None,
    roof=None,
    roof_target=None,
):
    """Irreducible sub-SFT pair (Y, Z) with disjoint depth-K1 languages.

    Y tracks the entropy midpoint c1 within kappa and its maximal measure
    stays kappa-close to m in the surrogate metric; Z only needs positive
    entropy.  The presentation is searched exhaustively over induced
    subgraphs of higher-block recodings (block depth escalating on
    failure, up to MAX_BLOCK_DEPTH, while a recoding has at most SUBSET_CAP
    states).  A renewal ambient is no presentation to search: there
    `build_stage` takes the pair from the code (`_select_in_renewal`).
    The states of a depth-m recoding are the m-words of `shift` in
    lexicographic order, the rows of `language(shift, m)`, which give
    `Y_words` and `Z_words`.

    Ranking among admissible candidates prefers entropy closest to
    `entropy_target` (default c1) and, as a tiebreak, a maximal measure
    whose roof integral is closest to `roof_target`: the following stage
    must squeeze every invariant measure's roof integral into a window
    around the previous one, so subsystems with matching roof statistics
    are the useful ones.

    The exhaustive search scores all subsets of one size together, from a
    batched eigen-solve (`_subset_scores`).  Each subshift and Parry
    measure the search returns comes from the per-subset path
    (`_exact_candidate`), which also decides the order within every run of
    candidates whose leading keys lie within TIE_EPS, and every candidate
    within TIE_EPS of a filter edge.  Mirror-image subsets tie in exact
    arithmetic, and there the power-iteration rounding of that path orders
    them, not the roof or distance tiebreak.
    """
    target_h = c1 if entropy_target is None else entropy_target
    roof = (roof, roof_target) if roof is not None and roof_target is not None else None
    diagnostics = {}
    depth = block_depth
    while depth <= MAX_BLOCK_DEPTH:
        h = higher_block(shift, depth) if depth > 1 else shift
        if h.num_states > SUBSET_CAP:
            diagnostics[f"block_{depth}"] = (
                f"{h.num_states} block states exceed the exhaustive-search cap"
            )
            break
        cap = max(2 * depth, 6)
        scores = _subset_scores(h, m, cfg)
        count = 0
        for y_mask, y_sub, y_pm in _subset_candidates(
            h, scores, m, c1, kappa, cfg, target_h, roof, c1 > 1e-12
        ):
            count += 1
            z = next(_zed_candidates(h, scores, y_mask, cap), None)
            if z is not None:
                k1, z_mask, z_sub = z
                words = language(shift, depth)
                y_words, z_words = (words[_mask_states(s, h.num_states)] for s in (y_mask, z_mask))
                return SubsystemPair(Y=y_sub, Z=z_sub, K1=k1, Y_measure=y_pm,
                                     Y_words=y_words, Z_words=z_words)
        diagnostics[f"block_{depth}_y_candidates"] = count
        depth += 1
    raise SubsystemSearchError(
        "no (Y, Z) pair met the entropy/measure/disjointness constraints; "
        "raise the block depth or relax kappa",
        diagnostics=diagnostics,
    )


def _select_in_renewal(renewal, m, c1, kappa, cfg):
    """(Y, Z) on a renewal ambient, by rule: Y its first t = t_total - 2
    code words, a row range of its tables (`RenewalStructure.sub_code`),
    and Z the presentation of the other two alone (`renewal_to_sft`),
    whose state a k + p is the ambient's state (t + a) k + p.  Raises
    SubsystemSearchError, with the numbers, when log t / k or Y's measure
    is farther than kappa from c1 or m, or when K1 would exceed 6 k."""
    t, k = len(renewal.code) - 2, renewal.k
    if t < 1:
        raise SubsystemSearchError(f"{t + 2} code words are too few for a disjoint pair")
    y = renewal.sub_code(0, t)
    h, d = math.log(t) / k, weak_star_distance(y, m, cfg)
    z_sub = renewal_to_sft(renewal.sub_code(t, t + 2).code)
    k1 = _disjoint_depth(y, z_sub.renewal, 6 * k)
    why = []
    if abs(h - c1) > kappa:
        why.append(f"log t/k1 = {h:.6g} is not within kappa = {kappa:.6g} of c1 = {c1:.6g}")
    if d > kappa:
        why.append(f"its measure lies at distance {d:.6g} > kappa = {kappa:.6g} from m")
    if k1 is None:
        why.append(f"its language still meets Z's at depth {6 * k}")
    if why:
        raise SubsystemSearchError(f"Y of t = {t} code words, all but Z's two: " + "; ".join(why))
    z_words = np.arange(t * k, (t + 2) * k)[:, None]
    return SubsystemPair(Y=y, Z=z_sub, K1=k1, Y_measure=y, Y_words=None, Z_words=z_words)


def _disjoint_depth(y, z, cap):
    """Least depth at which the renewal codes y and z share no label word,
    or None when they still share one at depth `cap`.

    The shared words are closed under prefixes, and every word of z
    extends to any depth.  So when the longest prefix y admits
    (`RenewalStructure.admitted`) of any depth-D label word of z's
    presentation, read from z's code words (`RenewalStructure.path_labels`),
    is m < D, the least depth is m + 1; D starts at 2 k and doubles up to
    `cap`.  No word is sorted or deduplicated: only the maximum is read.
    """
    depth = min(2 * y.k, cap)
    while True:
        m = int(y.admitted(z.path_labels(depth)).max())
        if m < depth or depth == cap:
            return m + 1 if m < depth else None
        depth = min(2 * depth, cap)


@dataclass
class Stage:
    """One level of the tower: the shift, its maximal measure, provenance.

    A stage built from an enumerated code keeps its renewal presentation
    as `shift`, deferred: its matrix and labels are built only if a graph
    query reads them (`renewal_to_sft`), which no build or check does.
    Its maximal measure is the presentation's `RenewalStructure`.  A
    structured stage has no explicit presentation: `shift` is None and
    `code` (a PermutationCode) also serves as `measure`, the cylinder
    table every invariant measure of the stage shares.

    `space` is the object that answers the stage's language queries,
    `language(depth)` and `longest_avoiding(depth)`, and that the next
    stage is built on.  A coded stage answers from its code: the
    `RenewalStructure` of an enumerated stage, the `PermutationCode` of a
    structured one.  Only the code-less base stage answers from its shift.
    """

    index: int
    shift: VertexShift
    measure: MarkovMeasure
    code: Code = None
    sync_depth: int = 1
    sync_depths: tuple = (1,)
    params: StageParams = None

    @property
    def space(self):
        if self.code is None:
            return self.shift
        return self.code if self.shift is None else self.shift.renewal

    @property
    def entropy(self):
        """Topological entropy: log|Γ|/k from the code of a coded stage (its
        presentation, built from |Γ| and k alone, has Perron value |Γ|^(1/k)
        for any code); only the code-less base stage takes a Perron value."""
        if self.code is None:
            return topological_entropy(self.shift)
        return self.space.entropy


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    detail: str


@dataclass
class StageReport:
    """Verified inequality values for one built stage."""

    index: int
    k: int
    gamma_size: int
    h_top: float
    entropy_identity: tuple  # (value, k-th root target, abs diff)
    entropy_window: tuple  # (lower, value, upper)
    roof_window: tuple  # (lower, min over eta, max over eta, upper)
    roof_integral_next: float
    measure_distance: tuple  # (max over eta, threshold)
    distance_to_prev: float  # parry(next) vs prev measure
    ud_ok: bool
    overlap: dict  # l, border, M, K1
    nesting: tuple  # ((depth, ok, note), ...)
    language_sync: tuple  # ((depth, ok, note), ...)
    saturation: tuple  # ((depth_from, depth_to, ok, note), ...)
    normalized_entropy: float
    bracket: tuple  # (lower, upper)
    eta_count: int
    artifacts: object = None  # BuildArtifacts, attached by build_stage

    def items(self):
        lo, v, hi = self.entropy_window
        rlo, rmin, rmax, rhi = self.roof_window
        dmax, thr = self.measure_distance
        out = [
            CheckItem(
                "entropy_identity",
                self.entropy_identity[2] < 1e-9,
                f"|h_top - log(gamma)/k| = {self.entropy_identity[2]:.3e}",
            ),
            CheckItem(
                "entropy_window",
                lo <= v <= hi,
                f"{lo:.6g} <= {v:.6g} <= {hi:.6g}",
            ),
            CheckItem(
                "roof_window",
                rlo < rmin and rmax < rhi,
                f"{rlo:.6g} < [{rmin:.6g}, {rmax:.6g}] < {rhi:.6g}",
            ),
            CheckItem(
                "measure_distance",
                dmax <= thr,
                f"max eta distance {dmax:.6g} <= {thr:.6g}",
            ),
            CheckItem("unique_decipherability", self.ud_ok, "uniform length"),
            CheckItem(
                "overlap_structure",
                self.overlap["ok"],
                f"l={self.overlap['l']} > 4(M+K1)={4 * (self.overlap['M'] + self.overlap['K1'])}, "
                f"border={self.overlap['border']} < l/4",
            ),
            CheckItem(
                "bracket",
                self.bracket[0] <= self.normalized_entropy <= self.bracket[1],
                f"{self.bracket[0]:.6g} <= {self.normalized_entropy:.6g} <= {self.bracket[1]:.6g}",
            ),
        ]
        for depth, ok, note in self.nesting:
            out.append(CheckItem(f"nesting_depth_{depth}", ok, note))
        for depth, ok, note in self.language_sync:
            out.append(CheckItem(f"language_sync_{depth}", ok, note))
        for d_from, d_to, ok, note in self.saturation:
            out.append(CheckItem(f"saturation_{d_from}_in_{d_to}", ok, note))
        return out

    @property
    def all_pass(self):
        return all(item.ok for item in self.items())

    def failing(self):
        return [item for item in self.items() if not item.ok]


@dataclass(frozen=True)
class RunSettings:
    """A seed and a sample size that nothing reads: verification bounds
    every invariant measure exactly, from the code words."""

    # only perfbench still builds one and passes it to the stage functions
    seed: int = 0
    samples: int = 32


# depths of the language nesting check
NESTING_DEPTHS = (1, 2, 3, 4)


@dataclass
class BuildArtifacts:
    """Intermediate objects kept for inspection and tests."""

    Y: object = None  # a shift, or a sub-code on a renewal ambient
    Z: VertexShift = None
    low_overlap_word: tuple = ()
    connector_in: tuple = ()
    connector_out: tuple = ()


def build_stage(prev, target, params, settings=None):
    """Assemble stage prev.index + 1 and verify every inequality.

    On a renewal ambient (`prev.space` a `RenewalStructure`) the build
    reads only the code and searches nothing: Y, Z (`_select_in_renewal`),
    the connecting paths and Γ, the permutation class of Y's code words
    nearest c1 (`_permutation_class`), come from it by rule, so
    `params.entropy_target` must be None (ValueError); the stage has no
    explicit presentation (`shift` is None).  On the base shift Γ is an
    enumerated Katok separated set refined by pigeonholing.  Either way Γ
    has distinct words of one length k, so it is uniquely decipherable
    with entropy log|Γ|/k (`Stage.entropy`).  Raises
    InsufficientWordLengthError before assembly when word_length cannot
    reach the entropy window (`_refuse_word_length`: on a renewal ambient,
    that class misses it), StageVerificationError (with the report
    attached) when any verified window fails; sub-operation errors
    propagate.  `settings` is not read; only perfbench still passes it.
    """
    if isinstance(prev.space, PermutationCode):
        raise UnsupportedAmbientError(
            f"stage {prev.index} is a structured permutation-class stage; "
            "it cannot serve as the ambient of a further stage"
        )
    art = BuildArtifacts()
    c1 = derive_c1(target, params, prev.measure)
    renewal = prev.space if isinstance(prev.space, RenewalStructure) else None
    if renewal is not None:
        if params.entropy_target is not None:
            raise ValueError(
                f"stage {prev.index + 1}: entropy_target steers only the subset "
                "search of stage 1; on a renewal ambient Y is set by rule"
            )
        pair = _select_in_renewal(renewal, prev.measure, c1, params.kappa, params.metric)
    else:
        pair = select_disjoint_subsystems(
            prev.shift,
            prev.measure,
            c1,
            params.kappa,
            params.metric,
            block_depth=params.block_depth,
            entropy_target=params.entropy_target,
            roof=target.rho,
            roof_target=roof_integral(prev.measure, target.rho),
        )
    art.Y, art.Z = pair.Y, pair.Z
    n = params.word_length
    if renewal is None:
        katok = katok_separated_set(
            pair.Y,
            pair.Y_measure,
            n,
            params.kappa,
            params.effective_radius,
            params.metric,
        )
        gamma, start_state, end_state = pigeonhole_refine(katok.words, pair.Y)
        start_prev = int(pair.Y_words[start_state, 0])
        end_prev = int(pair.Y_words[end_state, -1])
        path = functools.partial(connecting_word, prev.shift)
    else:
        # γ starts on Y's first code word; every last state (a, k1 - 1) has
        # the same successors, so the glue out of Y's last word serves each γ
        start_prev, end_prev = 0, len(pair.Y.code) * renewal.k - 1
        path = renewal.path

    # connection-time bound over every state the low-overlap word may touch
    z_prev_states = np.unique(pair.Z_words[:, 0]).tolist()
    M = _connection_time(path, z_prev_states, start_prev, end_prev)

    l_eff = max(params.overlap_length, 4 * (M + pair.K1) + 1)
    w_internal = find_low_overlap_word(pair.Z, l_eff)
    w_prev = tuple(pair.Z_words[list(w_internal), 0].tolist())
    art.low_overlap_word = w_prev

    glue_in = path(end_prev, w_prev[0])[1:-1]
    glue_out = path(w_prev[-1], start_prev)[1:-1]
    art.connector_in, art.connector_out = glue_in, glue_out
    # label length of every code word beyond the n symbols of Y it spends
    block = 1 if renewal is not None else pair.Y_words.shape[1]
    extra = len(glue_out) + len(glue_in) + len(w_prev) + block - 1
    _refuse_word_length(target, params, prev, pair.Y, renewal, extra, c1)

    if renewal is None:
        code = _enumerated_code(prev, pair.Y_words, gamma, glue_in, glue_out, w_prev)
        next_shift = renewal_to_sft(code, ambient_size=target.base.ambient_size)
        next_measure = next_shift.renewal
    else:
        code = _permutation_code(
            renewal, len(pair.Y.code), n, glue_in + w_prev + glue_out, len(glue_out), c1
        )
        _check_separated(code, pair.Y_measure, params, target.base.ambient_size)
        next_shift, next_measure = None, code
    stage = Stage(
        index=prev.index + 1, shift=next_shift, measure=next_measure, code=code, params=params
    )
    stage.sync_depth = _sync_depth(stage.space, prev.sync_depth)[0]
    stage.sync_depths = prev.sync_depths + (stage.sync_depth,)
    report = verify_stage(
        prev,
        stage,
        target,
        params,
        overlap_data={
            "l": l_eff,
            "border": max_self_overlap(label_word(pair.Z, w_internal)),
            "M": M,
            "K1": pair.K1,
            "disjoint": languages_disjoint(pair.Y, pair.Z, pair.K1),
        },
    )
    report.artifacts = art
    if not report.all_pass:
        names = ", ".join(i.name for i in report.failing())
        raise StageVerificationError(
            f"stage {stage.index} failed verification: {names}",
            stage=stage,
            report=report,
        )
    return stage, report


def _connection_time(path, states, start, end):
    """Most edges on a shortest path (of at least one edge) from `end` to
    one of `states` or from one of them to `start`; `path(frm, to)` gives
    each (`connecting_word` on a shift, `RenewalStructure.path`)."""
    M = 1
    for z in states:
        try:
            paths = path(end, z), path(z, start)
        except UnreachableStateError:
            raise SubsystemSearchError(
                f"state {z} of Z is not connected to the separated set"
            ) from None
        M = max(M, *(len(p) - 1 for p in paths))
    return M


def _enumerated_code(prev, words, gamma, glue_in, glue_out, w_prev):
    """The code of Γ, a (words × n) state array of Y: each row's ambient
    path, read off `words` (per state of Y, its word of ambient states),
    glued to w_prev.  Every assembled word and the cyclic splice must be
    admissible in the ambient."""
    rows = len(gamma)

    def repeated(word):
        return np.repeat(np.asarray(word, dtype=np.int64).reshape(1, -1), rows, axis=0)

    internal = np.hstack(
        [repeated(glue_out), words[gamma, 0], words[gamma[:, -1], 1:], repeated(glue_in + w_prev)]
    )
    if not is_admissible(prev.shift, internal).all():
        raise StageVerificationError(
            f"assembled word is not admissible in stage {prev.index}"
        )
    # cyclic splice: end of the low-overlap word back into the next block
    if not is_admissible(prev.shift, (w_prev[-1], internal[0, 0])):
        raise StageVerificationError("cyclic splice is not admissible")
    # Code keeps one copy of each label word, sorted, as rows of one array
    return Code(prev.shift.label_array[internal])


# candidates the least-word-length search of a refusal examines
LEAST_N_SEARCH = 4096


def _permutation_class(t, q, k1, glue, c1):
    """(f, log|Γ|) of the class built from q passes through Y's t code words
    of length k1 and `glue` more symbols: the first f >= 2 slots of the
    canonical order fixed (pinning the state every code word starts from),
    f the first count whose log|Γ|/k is nearest c1.  With f = p t + r,
    log|Γ| = lgamma(qt - f + 1) - r lgamma(q - p) - (t - r) lgamma(q - p + 1)
    falls with f, strictly until one word is left free, so the nearest f
    is the first at or below c1, found by bisection, or the one before.
    """
    n, k = q * t, q * t * k1 + glue

    def log_size(f):
        p, r = divmod(f, t)
        held = r * math.lgamma(q - p) if r else 0.0
        return math.lgamma(n - f + 1) - held - (t - r) * math.lgamma(q - p + 1)

    first = min(2, n)
    f = first + bisect.bisect_left(range(first, n + 1), True, key=lambda f: log_size(f) / k <= c1)
    f = min(range(max(first, f - 1), f + 1), key=lambda f: abs(log_size(f) / k - c1))
    return f, log_size(f)


def _log_path_counter(Y):
    """n -> log of the number of internal words of length n in the shift Y,
    iterating its transition matrix in floating point, only as far as the
    largest n asked for."""
    mat = Y.matrix.astype(np.float64)
    vec, scale, logs = np.ones(Y.num_states), 0.0, []

    def iterated(n):
        nonlocal vec, scale
        while len(logs) < n:
            logs.append(scale + math.log(vec.sum()))
            vec = mat @ vec
            top = vec.max()
            vec /= top
            scale += math.log(top)
        return logs[n - 1]

    return iterated


def _refuse_word_length(target, params, prev, Y, renewal, extra, c1):
    """Refuse a word length n that cannot reach the entropy window.

    Every code word has k = n + extra symbols.  On a renewal ambient γ
    runs q times through Y's t code words, so n must be q t k1, and the
    class the build picks there (`_permutation_class`) must land in the
    window, so the n it admits passes entropy_window.  On the base shift
    log|L_n(Y)|/k, which overcounts Γ, must reach the lower edge.  The
    error names the least n admitted, searching LEAST_N_SEARCH candidates.
    """
    ri = roof_integral(prev.measure, target.rho)
    edge = (1 + params.delta) ** 2 * target.c * ri
    n = params.word_length
    if renewal is not None:
        t, top = len(Y.code), (1 + 3 * params.delta) * target.c * ri
        step = t * renewal.k

        def log_size(m):
            return _permutation_class(t, m // step, renewal.k, extra, c1)[1]

        counted = "log|Γ|/k of the class nearest c1"
    else:
        step, top, log_size, counted = 1, math.inf, _log_path_counter(Y), "log|L_n(Y)|/k"

    def admissible(m):
        return m % step == 0 and edge <= log_size(m) / (m + extra) <= top

    if admissible(n):
        return
    if n % step:
        reason = (
            f"γ must run whole passes through the t = {t} "
            f"code words of Y (length k1 = {renewal.k}), so n = q*{step}"
        )
    else:
        h = log_size(n) / (n + extra)
        bound = f"< (1+delta)^2 c int(rho) = {edge:.6g}" if h < edge else (
            f"> (1+3delta) c int(rho) = {top:.6g}")
        reason = f"{counted} = {h:.6g} {bound} with k = {n + extra}"
    # log|Γ|/k stays below log t/k1: with fewer code words no n can reach the edge
    few = renewal is not None and math.log(t) / renewal.k < edge
    candidates = range(step, step * LEAST_N_SEARCH + 1, step) if not few else ()
    least = next((m for m in candidates if admissible(m)), None)
    if least is not None:
        fix = f"the least admissible word_length is {least}"
        if renewal is None:
            fix += "; log|L_n(Y)|/k overcounts Γ, so only a build can tell if it reaches the edge"
    elif renewal is None:
        fix = (
            f"no word_length up to {LEAST_N_SEARCH} reaches the lower edge "
            "(raise entropy_target for a Y with more entropy)"
        )
    elif not few:
        fix = f"no word_length up to {step * LEAST_N_SEARCH} puts {counted} in the window"
    else:
        fix = (
            f"no word_length up to {step * LEAST_N_SEARCH} reaches the lower edge "
            f"(stage {prev.index} has too few code words: Y holds t = {t}, all but "
            f"Z's two, and log t/k1 = {math.log(t) / renewal.k:.6g} against the "
            f"edge {edge:.6g}); the least word_length of the form q*{step} is {step}"
        )
    raise InsufficientWordLengthError(
        f"word_length {n} cannot reach the entropy window: {reason}; {fix}",
        least_word_length=least,
    )


def _permutation_code(renewal, t, n, glue_internal, head, c1):
    """The class `_permutation_class` picks for word length n = q t k1,
    the only one built."""
    k1, order = renewal.k, tuple(range(t)) * (n // (t * renewal.k))
    glue = tuple(glue_internal[j] // k1 for j in range(0, len(glue_internal), k1))
    if glue_internal != tuple(a * k1 + p for a in glue for p in range(k1)):
        raise StageVerificationError("glue is not a run of whole ambient code words")
    f, _ = _permutation_class(t, len(order) // t, k1, len(glue_internal), c1)
    return PermutationCode(renewal, glue, head, order[:f], order[f:])


def _check_separated(code, parry, params, alphabet_size):
    """Katok conditions for the permutation class, exact from one word.

    Every γ spells the same multiset of code words with shared ends, so
    its empirical statistics up to the ambient's exact depth are those of
    the canonical order.  `parry` is Y's maximal measure, its
    `RenewalStructure`, over `alphabet_size` symbols.
    """
    n = code.word_length
    depth = min(params.metric.max_depth, n)
    if depth > code.ambient.exact_depth:
        raise StructureDepthError(
            f"metric depth {depth} exceeds the exact depth "
            f"{code.ambient.exact_depth} of the permutation class"
        )
    word = code.ambient.code.rows[list(code.fixed + code.free)].reshape(1, -1)
    dist = empirical_distances(word, parry, depth, alphabet_size)[0]
    if dist >= params.effective_radius:
        raise InsufficientWordLengthError(
            f"no word of length {n} is within radius {params.effective_radius} "
            f"of the measure (distance {dist:.6g})"
        )
    deviation = abs(code.log_size / n - parry.entropy)
    if deviation >= params.kappa:
        raise InsufficientWordLengthError(
            f"deviation {deviation:.6f} >= kappa {params.kappa} for the "
            f"permutation class of {len(code.fixed) + len(code.free)} slots",
            deviation=deviation,
        )


def _sync_depth(space, prev_depth):
    """(depth, None) with the smallest depth whose words contain every
    prev-depth word of the stage space `space`, or (None, why not).

    There is no depth when windows of any length avoid some prev-depth
    word, and none is certified beyond the depths a coded stage decides.
    A depth computed exactly is returned as it is, however large.
    """
    try:
        lengths = _lengths(space, prev_depth)
    except StructureDepthError:
        return None, f"depth {prev_depth} beyond the depths the coded stage decides"
    if np.isinf(lengths).any():
        pairs = space.longest_avoiding(prev_depth)
        avoided = "".join(map(str, next(w for w, m in pairs if m is None)))
        return None, f"windows of every length avoid the depth-{prev_depth} word {avoided}"
    return int(lengths.max(initial=0)) + 1, None


def _lengths(space, depth):
    """The longest window avoiding each depth-`depth` word of `space`, in
    the order of `longest_avoiding`, as an array, inf where windows of any
    length avoid the word; a permutation class builds no word."""
    if isinstance(space, PermutationCode):
        return space._longest_avoiding(depth)[1]
    return np.array([math.inf if m is None else m for _, m in space.longest_avoiding(depth)])


def verify_stage(prev, stage, target, params, settings=None, overlap_data=None):
    """Evaluate every stage inequality; failures are data, not exceptions.

    The language checks (nesting, language synchronization, saturation)
    ask the spaces of the two stages (`Stage.space`); a coded stage fails
    those deeper than the depths its code words decide, with a note.

    The roof window and the measure distance range over every invariant
    measure of the stage.  The roof integral is linear in the measure and
    the distance convex, so both reach their extremes at extreme points.
    On a renewal system of a uniform-length code, at every depth a single
    code word decides (`exact_depth`), an invariant measure's cylinder
    table is sum_a f_a * (table of code word a's periodic orbit), f_a the
    mass it puts on code word a, so the maximal measure and the
    single-code-word orbits (`_score_orbits`) bound every invariant
    measure.  A structured stage spells every code word from one multiset
    of ambient words, so all its orbits, and all its invariant measures,
    share one table: its maximal measure.  A roof or metric deeper than
    `exact_depth` raises StructureDepthError, and a stage without a code,
    or with code words of several lengths, raises ValueError: neither has
    such a bound.  Distinct words of one length k are uniquely decipherable
    with entropy log|Γ|/k (`Stage.entropy`), where Sardinas-Patterson or a
    power iteration of the presentation could not fail.  `settings` is not
    read; only perfbench still passes it.
    """
    c, rho = target.c, target.rho
    d = params.delta
    structured = stage.shift is None
    space, code = stage.space, stage.code
    if code is None:
        raise ValueError(f"stage {stage.index} has no code to bound its invariant measures")
    k = code.uniform_length
    if k is None:
        raise ValueError(f"stage {stage.index} has code words of several lengths")
    depth = max(rho.depth, params.metric.max_depth)
    exact = (code.ambient if structured else space).exact_depth
    if depth > exact:
        raise StructureDepthError(
            f"roof or metric depth {depth} exceeds the exact depth {exact} "
            f"of the code words of stage {stage.index}"
        )
    ri_prev = roof_integral(prev.measure, rho)
    lo_e, hi_e = (1 + d) ** 2 * c * ri_prev, (1 + 3 * d) * c * ri_prev

    h_top = stage.entropy
    gamma_size = code.size
    ident_target = math.log(gamma_size) / k

    ri_next = roof_integral(stage.measure, rho)
    dist_prev = weak_star_distance(stage.measure, prev.measure, params.metric)
    roof_vals, dists = [ri_next], [dist_prev]
    if not structured:
        _score_orbits(code.rows, rho, prev.measure, params.metric,
                      target.base.ambient_size, roof_vals, dists)

    nesting = [(depth, *_nests(space, prev.space, depth)) for depth in NESTING_DEPTHS]

    sync_checks = []
    for j, s_j in enumerate(prev.sync_depths):
        if s_j is None:
            sync_checks.append((0, False, f"stage {j} sync depth uncertified"))
            continue
        ok, note = _languages_agree(space, prev.space, s_j)
        sync_checks.append((s_j, ok, note))

    saturation = []
    if stage.sync_depth is None:
        why = prev.sync_depth and _sync_depth(space, prev.sync_depth)[1]
        saturation.append((prev.sync_depth or 0, 0, False, why or "sync depth uncertified"))
    else:
        for j, s_j in enumerate(stage.sync_depths[:-1]):
            if s_j is None:
                saturation.append((0, stage.sync_depth, False, "uncertified"))
                continue
            ok, note = _saturated(space, s_j, stage.sync_depth)
            saturation.append((s_j, stage.sync_depth, ok, note))

    norm = abramov(h_top, ri_next)
    bracket = (c * (1 + d) ** 2 / (1 + d), c * (1 + 3 * d) / (1 - d))
    ov = dict(l=0, border=0, M=0, K1=0, disjoint=False)  # not a report's `ok`
    ov = ov if overlap_data is None else {key: overlap_data[key] for key in ov}

    report = StageReport(
        index=stage.index,
        k=k,
        gamma_size=gamma_size,
        h_top=h_top,
        entropy_identity=(h_top, ident_target, abs(h_top - ident_target)),
        entropy_window=(lo_e, h_top, hi_e),
        roof_window=((1 - d) * ri_prev, min(roof_vals), max(roof_vals), (1 + d) * ri_prev),
        roof_integral_next=ri_next,
        measure_distance=(max(dists), 2 * params.kappa),
        distance_to_prev=dist_prev,
        # distinct words of one length k: a concatenation cuts into k-blocks
        ud_ok=True,
        overlap=dict(
            ok=(
                overlap_data is not None
                and ov["l"] > 4 * (ov["M"] + ov["K1"])
                and ov["border"] < ov["l"] / 4
                and ov["disjoint"]
            ),
            **ov,
        ),
        nesting=tuple(nesting),
        language_sync=tuple(sync_checks),
        saturation=tuple(saturation),
        normalized_entropy=norm,
        bracket=bracket,
        eta_count=len(roof_vals),
    )
    return report


def _score_orbits(words, rho, measure, metric, alphabet_size, roof_vals, dists):
    """Append the roof integral and the distance to `measure` of each code
    word's periodic orbit to `roof_vals` and `dists`, scoring the words (of
    one length, the rows of an array such as `Code.rows`) together from the
    window counts of their cyclic extensions."""
    roof = dense_table(
        {w: v for w, v in rho.values.items() if max(w) < alphabet_size},
        rho.depth,
        alphabet_size,
        fill=np.nan,
    )
    covered = ~np.isnan(roof)
    rows = np.asarray(words, dtype=np.int64)
    freq = window_counts(cyclic_windows(rows, rho.depth), rho.depth, alphabet_size) / rows.shape[1]
    if (freq[:, ~covered] > 0).any():
        raise ValueError("roof has no value on some admissible word")
    roof_vals.extend((freq[:, covered] @ roof[covered]).tolist())
    dist = empirical_distances(rows, measure, metric.max_depth, alphabet_size, cyclic=True)
    dists.extend(dist.tolist())


def _nests(space, upstream, depth):
    """(ok, note): whether every label word of `space` of the given depth
    is one of `upstream`, and why not."""
    try:
        ours, theirs = _languages(space, upstream, depth)
        if ours <= theirs:
            return True, "language containment"
    except StructureDepthError:
        return False, f"depth {depth} beyond the depths the coded stage decides"
    return False, f"word of stage language missing upstream at depth {depth}"


def _languages_agree(space, upstream, depth):
    """Equality of the label languages of two spaces at the given depth."""
    try:
        ours, theirs = _languages(space, upstream, depth)
    except CapacityError:
        return False, f"depth {depth} beyond enumeration budget"
    except StructureDepthError:
        return False, f"depth {depth} beyond the depths the coded stage decides"
    if not ours <= theirs:
        return False, f"word of stage language missing upstream at depth {depth}"
    if ours != theirs:
        return False, "upstream language strictly larger"
    return True, f"languages agree at depth {depth}"


def _languages(space, upstream, depth):
    """The depth-`depth` label languages of the two spaces, as sets of
    words; for a permutation class and its ambient, as the sizes of two
    sets of ids of the ambient's window table, the first within the second,
    so they compare as the sets do and no word is built."""
    if getattr(space, "ambient", None) is upstream:
        return len(space.window_ids(depth)), len(upstream._table(depth)[1])
    return set(space.language(depth)), set(upstream.language(depth))


def _saturated(space, depth_from, depth_to):
    """Every depth_from word occurs inside every depth_to word of the
    stage space `space`."""
    try:
        lengths = _lengths(space, depth_from)
    except StructureDepthError:
        return False, f"depth {depth_from} beyond the depths the coded stage decides"
    long = lengths >= depth_to
    if long.any():
        m = lengths[long.argmax()]  # the first offending length
        m = None if np.isinf(m) else int(m)
        return False, f"window of length {m} avoids a depth-{depth_from} word"
    return True, f"all depth-{depth_from} words occur in every depth-{depth_to} word"


def normalized_entropy(stage, rho):
    """Suspension entropy of the stage under its own maximal measure."""
    return abramov(stage.entropy, roof_integral(stage.measure, rho))


@dataclass
class TowerResult:
    stages: list
    reports: list  # aligned with stages; None for the base
    error: Exception = None

    @property
    def ok(self):
        return self.error is None and all(
            r is None or r.all_pass for r in self.reports
        )


def base_stage(target):
    return Stage(index=0, shift=target.base, measure=target.base_measure)


def iterate(target, stages, schedule):
    """Build the nested tower stage by stage.

    Returns the partial tower with the error attached when a stage fails
    with a library error; any other exception propagates.  The schedule
    must satisfy the delta/kappa decay constraints.
    """
    schedule = list(schedule)
    if len(schedule) < stages:
        raise ValueError(f"schedule provides {len(schedule)} of {stages} stages")
    validate_schedule(schedule[:stages])
    tower = TowerResult(stages=[base_stage(target)], reports=[None])
    for i in range(stages):
        try:
            stage, report = build_stage(tower.stages[-1], target, schedule[i])
        except StageVerificationError as exc:
            tower.error = exc
            if exc.stage is not None:
                tower.stages.append(exc.stage)
                tower.reports.append(exc.report)
            return tower
        except ShiftflexError as exc:
            tower.error = exc
            return tower
        tower.stages.append(stage)
        tower.reports.append(report)
    return tower
