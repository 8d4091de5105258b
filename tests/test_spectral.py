import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftflex import (
    MarkovMeasure,
    ReducibleShiftError,
    RoofFunction,
    VertexShift,
    abramov,
    cylinder_prob,
    full_shift,
    golden_mean_shift,
    language,
    markov_entropy,
    parry_measure,
    periodic_orbit_measure,
    perron,
    random_markov_measure,
    roof_integral,
    topological_entropy,
    word_count,
)
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
    orbit = periodic_orbit_measure(cyc, (0, 1))
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
    assert cylinder_prob(uniform2, (0, 1, 0)) == pytest.approx(1 / 8)
    assert cylinder_prob(golden_parry, (1, 1)) == 0.0
    expected = golden_parry.pi[0] * golden_parry.P[0, 1]
    assert cylinder_prob(golden_parry, (0, 1)) == pytest.approx(expected)


def test_cylinder_consistency_and_stationarity(golden, golden_parry):
    for n in range(1, 8):
        total = sum(cylinder_prob(golden_parry, tuple(w)) for w in language(golden, n).tolist())
        assert abs(total - 1.0) < 1e-9
    for w in map(tuple, language(golden, 3).tolist()):
        ext = sum(cylinder_prob(golden_parry, (a,) + w) for a in range(2))
        assert abs(ext - cylinder_prob(golden_parry, w)) < 1e-9


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


def test_markov_measure_validation(full2):
    with pytest.raises(ValueError):
        MarkovMeasure(full2, [0.7, 0.3], [[0.0, 1.0], [1.0, 0.0]])  # not stationary
    with pytest.raises(ValueError):
        MarkovMeasure(golden_mean_shift(), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])


def test_label_cylinder_matches_internal(golden_parry, golden):
    for w in map(tuple, language(golden, 3).tolist()):
        assert golden_parry.label_cylinder(w) == pytest.approx(
            cylinder_prob(golden_parry, w)
        )
    table = golden_parry.cylinder_table(2)
    assert set(table) == {(0, 0), (0, 1), (1, 0)}
    assert sum(table.values()) == pytest.approx(1.0)
