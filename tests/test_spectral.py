import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import tests.loop_oracles as oracle
from shiftflex import (
    MarkovMeasure,
    ReducibleShiftError,
    RoofFunction,
    VertexShift,
    abramov,
    bernoulli_measure,
    full_shift,
    golden_mean_shift,
    higher_block,
    language,
    markov_entropy,
    parry_measure,
    perron,
    random_markov_measure,
    roof_integral,
    topological_entropy,
    word_count,
)
from shiftflex.spectral import stationary_distribution
from tests.conftest import PHI, random_irreducible_shift


def test_perron_full_shift():
    assert abs(perron(full_shift(2)).value - 2.0) < 1e-12


def test_perron_golden_polynomial():
    lam = perron(golden_mean_shift()).value
    assert abs(lam * lam - lam - 1) < 1e-12
    assert abs(lam - PHI) < 1e-12


def test_perron_single_state():
    assert abs(perron(VertexShift([[1]])).value - 1.0) < 1e-14


def test_perron_reducible_error():
    with pytest.raises(ReducibleShiftError):
        perron(VertexShift([[1, 1], [0, 1]]))


def test_perron_vectors_normalized(golden):
    pd = perron(golden)
    assert abs(pd.right.sum() - 1.0) < 1e-12
    assert abs(pd.left @ pd.right - 1.0) < 1e-12
    assert (pd.right > 0).all() and (pd.left > 0).all()


def test_perron_periodic_graph():
    cyc = VertexShift([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert abs(perron(cyc).value - 1.0) < 1e-12
    # two 3-cycles through a shared state: lambda^3 = 2
    two = VertexShift(
        [
            [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0],
        ]
    )
    assert abs(perron(two).value - 2 ** (1 / 3)) < 1e-12


def test_topological_entropy_examples():
    assert abs(topological_entropy(full_shift(3)) - math.log(3)) < 1e-12
    assert abs(topological_entropy(golden_mean_shift()) - math.log(PHI)) < 1e-12
    assert topological_entropy(VertexShift([[1]])) == 0.0


def test_entropy_matches_word_count_growth():
    g = golden_mean_shift()
    h = topological_entropy(g)
    approx = math.log(word_count(g, 30)) / 30
    assert abs(h - approx) < 2e-2


def test_parry_full_shift():
    m = parry_measure(full_shift(2))
    assert np.allclose(m.pi, [0.5, 0.5], atol=1e-12)
    assert np.allclose(m.P.toarray(), 0.5, atol=1e-12)


def test_parry_golden_closed_form(golden_parry):
    p = golden_parry.P.toarray()
    assert abs(p[0, 0] - 1 / PHI) < 1e-12
    assert abs(p[0, 1] - 1 / PHI**2) < 1e-12
    assert abs(p[1, 0] - 1.0) < 1e-12
    pi = golden_parry.pi
    assert abs(pi @ p[:, 0] - pi[0]) < 1e-12  # stationarity
    assert abs(pi[0] - PHI**2 / (1 + PHI**2)) < 1e-12


def test_parry_single_state():
    m = parry_measure(VertexShift([[1]]))
    assert m.pi[0] == pytest.approx(1.0)
    assert m.P.toarray()[0, 0] == pytest.approx(1.0)


def test_markov_entropy_examples(full2, uniform2, golden_parry):
    assert abs(markov_entropy(uniform2) - math.log(2)) < 1e-12
    assert abs(markov_entropy(golden_parry) - math.log(PHI)) < 1e-11
    cyc = VertexShift([[0, 1], [1, 0]])
    orbit = MarkovMeasure(cyc, [0.5, 0.5], [[0, 1], [1, 0]])  # the period-2 orbit
    assert markov_entropy(orbit) == pytest.approx(0.0, abs=1e-15)


def test_variational_attainment_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = random_irreducible_shift(rng)
        m = parry_measure(s)
        assert abs(markov_entropy(m) - topological_entropy(s)) < 1e-9


def test_maximality_under_perturbation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = random_irreducible_shift(rng, max_states=5)
        h = topological_entropy(s)
        for _ in range(10):
            m = random_markov_measure(s, rng)
            assert markov_entropy(m) <= h + 1e-9


def test_cylinder_prob_examples(full2, uniform2, golden_parry):
    assert uniform2.cylinder_table(3)[(0, 1, 0)] == pytest.approx(1 / 8)
    assert (1, 1) not in golden_parry.cylinder_table(2)
    expected = golden_parry.pi[0] * golden_parry.P[0, 1]
    assert golden_parry.cylinder_table(2)[(0, 1)] == pytest.approx(expected)


def test_cylinder_consistency_and_stationarity(golden, golden_parry):
    for n in range(1, 8):
        table = golden_parry.cylinder_table(n)
        assert set(table) == set(map(tuple, language(golden, n).tolist()))
        assert abs(sum(table.values()) - 1.0) < 1e-9
    longer = golden_parry.cylinder_table(4)
    for w, p in golden_parry.cylinder_table(3).items():
        ext = sum(longer.get((a,) + w, 0.0) for a in range(2))
        assert abs(ext - p) < 1e-9


def test_roof_validation():
    with pytest.raises(ValueError):
        RoofFunction(1, {(0,): 1.0, (1,): -2.0})
    with pytest.raises(ValueError):
        RoofFunction(2, {(0,): 1.0})


def test_roof_integral_examples(full2, uniform2, golden_parry):
    assert roof_integral(uniform2, RoofFunction.constant(1.0, 2)) == pytest.approx(1.0)
    rho = RoofFunction(1, {(0,): 1.0, (1,): 2.0})
    assert roof_integral(uniform2, rho) == pytest.approx(1.5)
    expected = golden_parry.pi[0] + 2 * golden_parry.pi[1]
    assert roof_integral(golden_parry, rho) == pytest.approx(expected)


@given(
    st.floats(0.1, 5.0),
    st.floats(0.1, 5.0),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
)
def test_roof_integral_linear_and_monotone(a, b, e0, e1, ):
    m = parry_measure(golden_mean_shift())
    r1 = RoofFunction(1, {(0,): a, (1,): b})
    r2 = RoofFunction(1, {(0,): a + e0, (1,): b + e1})
    i1, i2 = roof_integral(m, r1), roof_integral(m, r2)
    assert i1 <= i2 + 1e-12
    scaled = RoofFunction(1, {(0,): 2 * a, (1,): 2 * b})
    assert roof_integral(m, scaled) == pytest.approx(2 * i1)


def test_abramov():
    assert abramov(math.log(2), 1.0) == pytest.approx(math.log(2))
    assert abramov(math.log(2), 2.0) == pytest.approx(math.log(2) / 2)
    with pytest.raises(ValueError):
        abramov(1.0, 0.0)


def test_stationary_distribution_does_not_wait_for_mixing():
    """One direct solve: a 2-cycle and a 3-cycle joined by exits of
    probability eps and 2 eps, a chain that needs about 1/eps steps to
    move mass between them, get their exact stationary vector, far from
    uniform; a reducible shift has none."""
    eps = 1e-6
    m = np.zeros((5, 5), dtype=int)
    P = np.zeros((5, 5))
    for a, b, p in [(0, 1, 1 - eps), (1, 0, 1.0), (0, 2, eps), (2, 3, 1 - 2 * eps),
                    (3, 4, 1.0), (4, 2, 1.0), (2, 0, 2 * eps)]:
        m[a, b], P[a, b] = 1, p
    pi = stationary_distribution(VertexShift(m), sp.csr_matrix(P))
    exact = np.array([2, 2 * (1 - eps), 1, 1 - 2 * eps, 1 - 2 * eps]) / (7 - 6 * eps)
    assert pi == pytest.approx(exact, rel=1e-9)
    with pytest.raises(ReducibleShiftError):
        stationary_distribution(VertexShift([[1, 1], [0, 1]]), sp.csr_matrix([[0.5, 0.5], [0, 1]]))


def test_markov_measure_validation(full2):
    with pytest.raises(ValueError):
        MarkovMeasure(full2, [0.7, 0.3], [[0.0, 1.0], [1.0, 0.0]])  # not stationary
    with pytest.raises(ValueError, match="outside the shift's edges"):
        MarkovMeasure(golden_mean_shift(), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
    # mass within the tolerance off the edges is accepted
    eps = 1e-12
    MarkovMeasure(golden_mean_shift(), [2 / 3, 1 / 3], [[0.5, 0.5], [1 - eps, eps]])


def refusal(shift, pi, P):
    try:
        MarkovMeasure(shift, pi, P)
    except ValueError as exc:
        return str(exc)
    return None


def test_markov_measure_checks_match_scipy_row_sums_and_product():
    """The row and drift checks on P's edge arrays refuse, or accept, what
    scipy's row sums and `pi @ P` did, with the same message (the drift
    printed to three digits): on Parry and random Markov measures, and on
    copies with pi moved, a row scaled, mass moved off the edges, and a
    foreign P of the same support.  The drift has scipy's bits, so pi moves
    by up to the tolerance itself; a row sum is added in edge order, which
    may differ from scipy's in its last bits, so a row is scaled by a
    factor at least ten times off the tolerance, where no order decides."""
    rng = np.random.default_rng(41)
    seen = Counter()
    for i in range(240):
        shift = random_irreducible_shift(rng, max_states=7)
        n = shift.num_states
        m = parry_measure(shift) if i % 2 else random_markov_measure(shift, rng)
        pi, P = m.pi.copy(), m.P.toarray()
        kind = ("same", "pi", "row", "off", "foreign")[i % 5]
        if kind == "pi":
            pi[0] += 10.0 ** -rng.integers(6, 12)
            pi /= pi.sum()
        elif kind == "row":
            P[int(rng.integers(n))] *= 1 + 10.0 ** -rng.choice([6, 7, 8, 10, 11, 12])
        elif kind == "off" and not shift.dense().all():
            i, j = np.argwhere(shift.dense() == 0)[0]
            P[i, j] = 10.0 ** -rng.integers(6, 12)
            P[i] /= P[i].sum()
        want = oracle.markov_measure_refusal(shift, pi, P)
        # a dense P reaches the check through its own CSR arrays, without
        # the shift's structure
        for given_P in (P, m.P) if kind == "same" else (P,):
            assert refusal(shift, pi, given_P) == want
        seen[want.split(" (")[0] if want else None] += 1
    assert set(seen) == {
        None, "P must be row-stochastic", "P supported outside the shift's edges",
        "pi is not stationary for P",
    }


def test_markov_measure_refuses_empty_cylinders(golden_parry):
    with pytest.raises(ValueError, match="depth must be >= 1"):
        golden_parry.cylinder_table(0)


def test_parry_measure_matches_coo_construction():
    """The same transition probabilities and stationary vector, bit for
    bit, as the construction through COO arrays and a diagonal product."""
    rng = np.random.default_rng(21)
    for _ in range(60):
        shift = random_irreducible_shift(rng, max_states=12)
        got, want = parry_measure(shift), oracle.parry_measure(shift)
        assert np.array_equal(got.P.toarray(), want.P.toarray())
        assert np.array_equal(got.pi, want.pi)


def test_cylinder_tables_match_the_sparse_product():
    """The cylinder recursion's `x @ P` as a bincount over P's entries gives
    the tables of scipy's sparse product: the same keys in the same order
    and the same values, bit for bit, at depths 1-4, on Parry, Bernoulli
    and random Markov measures, and on a labelled block presentation."""
    rng = np.random.default_rng(29)
    measures = [
        bernoulli_measure(full_shift(3), [0.5, 0.3, 0.2]),
        bernoulli_measure(full_shift(10), rng.dirichlet(np.ones(10))),
    ]
    for _ in range(10):
        shift = random_irreducible_shift(rng, max_states=12)
        # two labels: a column of x @ P adds up to six nonzero terms
        two = VertexShift(shift.matrix, labels=np.arange(shift.num_states) % 2, ambient_size=2)
        for s in (shift, two):
            measures += [parry_measure(s), random_markov_measure(s, rng)]
    block = higher_block(two, 3)
    assert block._lift is not None
    measures += [parry_measure(block), random_markov_measure(block, rng)]
    for m in measures:
        for depth in range(1, 5):
            got, want = m.cylinder_table(depth), oracle.markov_cylinder_table(m, depth)
            assert list(got.items()) == list(want.items())


def test_label_cylinder_matches_internal(golden_parry, golden):
    """On a shift labelled by its states, a cylinder's probability is
    pi[w0] * prod P[w_i, w_i+1] over the internal word."""
    table = golden_parry.cylinder_table(3)
    for w in map(tuple, language(golden, 3).tolist()):
        p = golden_parry.pi[w[0]] * golden_parry.P[w[0], w[1]] * golden_parry.P[w[1], w[2]]
        assert table[w] == pytest.approx(p)
    table = golden_parry.cylinder_table(2)
    assert set(table) == {(0, 0), (0, 1), (1, 0)}
    assert sum(table.values()) == pytest.approx(1.0)
