"""Perron eigendata, topological entropy, Markov measures and roof integrals.

All entropies are in nats (natural logarithm) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ConvergenceError, ReducibleShiftError
from .words import (
    DEFAULT_WORD_BUDGET,
    graph_period,
    is_admissible,
    is_irreducible,
)

PERRON_TOL = 1e-12
PERRON_MAX_ITER = 10**6
MEASURE_TOL = 1e-9  # how far MarkovMeasure lets pi and P miss their constraints


@dataclass(frozen=True)
class PerronData:
    """Spectral radius with right/left eigenvectors of a 0/1 matrix.

    right is normalized to sum 1, left is scaled so left @ right = 1; the
    residuals are each power iteration's own, at its last step, on its
    vector normalized to sum 1.  Data lifted from a root (`_lifted_perron`)
    ran no iteration, `iterations = 0`, and its residuals are recomputed.
    """

    value: float
    right: np.ndarray
    left: np.ndarray
    residual_right: float
    residual_left: float
    iterations: int


def _edges(mat):
    """(tails, heads) of a CSR matrix's entries, in storage order."""
    return np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)), mat.indices


def _power_vectors(tails, heads, n, period):
    """(vector, residual, iterations) of the right and left positive
    eigenvectors of an irreducible 0/1 matrix given by its CSR-ordered
    edges, iterated in lockstep as the halves of one 2n-array, each half
    stopping at its own iteration.  Aperiodic matrices iterate mat + I,
    primitive whenever mat is irreducible.  For period p > 1 a full ring of
    eigenvalues has top modulus, so mat^p is iterated (block-primitive) and
    mat's own eigenvector is rebuilt as sum_j mat^j w / lambda^j.  A step,
    one `bincount` over the stacked edges (tails -> heads for the first
    half, heads -> tails for the second), adds each entry's terms in edge
    order as scipy's csr_matvec does, and a half's sum is a row sum of the
    (2, n) view: every bit is that of two separate sparse iterations."""
    src, dst = np.concatenate((tails, heads + n)), np.concatenate((heads, tails + n))

    def step(x):
        return np.bincount(src, x[dst], 2 * n)

    found = [None, None]
    v = np.full(2 * n, 1.0 / n)
    mv = step(v) if period == 1 else None
    for it in range(1, PERRON_MAX_ITER + 1):
        if period == 1:
            w = mv + v
            s = w.reshape(2, n).sum(axis=1).repeat(n)
            w /= s
            lam = s - 1.0
            mv = step(w)  # the residual's product, and the next step's
            r = w
        else:
            w = v
            for _ in range(period):
                w = step(w)
            s = w.reshape(2, n).sum(axis=1).repeat(n)
            if (s <= 0).any():
                raise ConvergenceError("iteration collapsed to zero vector")
            w /= s
            # one scalar root per half: numpy's array power rounds otherwise
            lam = np.array([t ** (1.0 / period) for t in s[::n]]).repeat(n)  # v is sum-normalized
            # reconstruct the eigenvector of mat from the mat^p eigenvector
            r, acc = w.copy(), w
            for _ in range(period - 1):
                acc = step(acc) / lam
                r += acc
            r /= r.reshape(2, n).sum(axis=1).repeat(n)
            mv = step(r)
        resid = np.abs(mv - lam * r).reshape(2, n).max(axis=1)
        v = w
        for h in (0, 1):
            if found[h] is None and resid[h] <= PERRON_TOL and (it >= 2 or period > 1):
                found[h] = (r[h * n : (h + 1) * n].copy(), resid[h], it)
        if None not in found:
            return found
    raise ConvergenceError(
        f"power iteration did not reach tol={PERRON_TOL} in {PERRON_MAX_ITER} iterations"
        if period == 1 else f"power iteration (period {period}) did not reach tol={PERRON_TOL}"
    )


def perron(shift):
    """Perron-Frobenius data of an irreducible vertex shift, to PERRON_TOL.

    Raises ReducibleShiftError when the graph is not strongly connected and
    ConvergenceError past PERRON_MAX_ITER iterations.  Results are cached
    on the shift object.
    """
    if shift._perron_cache is None and shift._lift is not None:
        shift._perron_cache = _lifted_perron(shift)
    if shift._perron_cache is not None:
        return shift._perron_cache
    if not is_irreducible(shift):
        raise ReducibleShiftError("perron data requires an irreducible shift")
    n = shift.num_states
    tails, heads = _edges(shift.matrix)
    (right, res_r, it_r), (left, res_l, it_l) = _power_vectors(tails, heads, n, graph_period(shift))
    left = left / (left @ right)
    # bilinear quotient: eigenvalue error quadratic in the vector residuals
    lam = float((left @ np.bincount(tails, weights=right[heads], minlength=n)) / (left @ right))
    shift._perron_cache = PerronData(lam, right, left, float(res_r), float(res_l), it_r + it_l)
    return shift._perron_cache


def _lifted_perron(shift):
    """A block presentation's Perron data from its root's: an edge graph B
    of A has lambda(B) = lambda(A), right vector r_A[head] and left vector
    l_A[tail] (Lind & Marcus 1995, §2.3), so r_A[last] and l_A[first]."""
    root, first, last, _ = shift._lift
    pd = perron(root)
    lam, mat = pd.value, shift.matrix
    right = pd.right[last]
    right /= right.sum()
    left = pd.left[first]
    res_l = np.abs(mat.T @ left - lam * left).max() / left.sum()
    left /= (left * right).sum()
    res_r = np.abs(mat @ right - lam * right).max()
    return PerronData(lam, right, left, float(res_r), float(res_l), 0)


def topological_entropy(shift):
    """log of the spectral radius of the transition matrix, in nats."""
    return math.log(perron(shift).value)


class MarkovMeasure:
    """Stationary Markov measure compatible with a vertex shift.

    pi is the stationary distribution over internal states, P the
    row-stochastic transition matrix supported on allowed edges.
    """

    def __init__(self, shift, pi, P):
        self.shift = shift
        self.pi = np.asarray(pi, dtype=np.float64)
        self.P = sp.csr_matrix(P, dtype=np.float64)
        n = shift.num_states
        if self.pi.shape != (n,) or self.P.shape != (n, n):
            raise ValueError("measure dimensions do not match the shift")
        if self.pi.min() < -MEASURE_TOL or abs(self.pi.sum() - 1.0) > MEASURE_TOL:
            raise ValueError("pi must be a probability vector")
        # row sums and pi P as `bincount`s over P's own entries, without
        # scipy's dispatch: pi P gets the bits of scipy's `pi @ P`, the row
        # sums may differ from `P.sum(axis=1)` in their last bits (edge order)
        tails, heads = _edges(self.P)
        data = self.P.data
        if np.abs(np.bincount(tails, weights=data, minlength=n) - 1.0).max() > MEASURE_TOL:
            raise ValueError("P must be row-stochastic")
        m = shift.matrix
        # P on the shift's own CSR structure (`parry_measure`) stores entries
        # on edges only; any other P is checked entry by entry
        if not (np.array_equal(self.P.indptr, m.indptr) and np.array_equal(self.P.indices, m.indices)):
            on_edges = is_admissible(shift, np.column_stack((tails, heads)))
            off_support = data[~on_edges]
            if off_support.size and np.abs(off_support).max() > MEASURE_TOL:
                raise ValueError("P supported outside the shift's edges")
        pi_p = np.bincount(heads, weights=self.pi[tails] * data, minlength=n)
        drift = np.abs(pi_p - self.pi).max()
        if drift > MEASURE_TOL:
            raise ValueError(f"pi is not stationary for P (drift {drift:.2e})")
        self._tables = {}

    @property
    def ambient_size(self):
        return self.shift.ambient_size

    def cylinder_table(self, depth):
        """dict mapping each positive-probability ambient word of the given
        depth to its cylinder probability; CapacityError past
        DEFAULT_WORD_BUDGET of them; ValueError for a depth below 1."""
        if depth < 1:
            raise ValueError("cylinder depth must be >= 1")
        if depth in self._tables:
            return self._tables[depth]
        lab = self.shift.label_array
        masks = [lab == a for a in range(self.shift.ambient_size)]
        tails, heads = _edges(self.P)
        out = {}

        def rec(prefix, x):
            if len(prefix) == depth:
                out[prefix] = float(x.sum())
                if len(out) > DEFAULT_WORD_BUDGET:
                    raise CapacityError(len(out), DEFAULT_WORD_BUDGET, what="cylinders")
                return
            # x @ P, each column's terms added in CSR order as scipy's CSC product does
            y = np.bincount(heads, weights=x[tails] * self.P.data, minlength=len(x))
            for a in range(self.shift.ambient_size):
                z = np.where(masks[a], y, 0.0)
                if z.any():
                    rec(prefix + (a,), z)

        for a in range(self.shift.ambient_size):
            x0 = np.where(masks[a], self.pi, 0.0)
            if x0.any():
                rec((a,), x0)
        self._tables[depth] = out
        return out

    def __repr__(self):
        return f"MarkovMeasure(states={self.shift.num_states})"


def markov_entropy(m):
    """-sum_i pi_i sum_j P_ij log P_ij with 0 log 0 = 0, in nats."""
    rows, _ = _edges(m.P)
    keep = m.P.data > 0
    data = m.P.data[keep]
    return float(-(m.pi[rows[keep]] * data * np.log(data)).sum())


def parry_measure(shift):
    """Markov measure of maximal entropy of an irreducible shift.

    P_ij = A_ij v_j / (lambda v_i) with v the right Perron vector, and
    pi_i proportional to u_i v_i.
    """
    pd = perron(shift)
    lam, v, u = pd.value, pd.right, pd.left
    m = shift.matrix
    row, _ = _edges(m)
    data = v[m.indices] / (lam * v[row])
    # an irreducible shift leaves no row empty
    data *= (1.0 / np.add.reduceat(data, m.indptr[:-1]))[row]  # rows sum to 1
    # P gets its own index arrays: the shift's matrix must not change with it
    P = sp.csr_matrix((data, m.indices.copy(), m.indptr.copy()), shape=m.shape)
    pi = u * v
    pi = pi / pi.sum()
    return MarkovMeasure(shift, pi, P)


def bernoulli_measure(shift, probs):
    """IID measure with the given symbol probabilities (full-support rows)."""
    probs = np.asarray(probs, dtype=np.float64)
    n = shift.num_states
    if probs.shape != (n,):
        raise ValueError("need one probability per state")
    P = np.tile(probs, (n, 1))
    return MarkovMeasure(shift, probs, P)


def stationary_distribution(shift, P):
    """Stationary vector of a row-stochastic matrix on an irreducible shift
    (else ReducibleShiftError), whatever the chain's mixing time: one sparse
    direct solve of pi (P - I) = 0, its first equation made pi_0 = 1."""
    # imported here: scipy.sparse.linalg costs every process about 8 MB
    from scipy.sparse.linalg import spsolve

    if not is_irreducible(shift):
        raise ReducibleShiftError("the stationary vector needs an irreducible shift")
    n = shift.num_states
    rows = (sp.csr_matrix(P).T - sp.identity(n, format="csr")).tocsr()[1:]
    first = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, n))
    pi = spsolve(sp.vstack([first, rows], format="csc"), np.eye(1, n)[0])
    return pi / pi.sum()


def random_markov_measure(shift, rng):
    """Support-compatible random Markov measure (Dirichlet rows), stationary pi."""
    coo = shift.matrix.tocoo()
    weights = rng.gamma(1.0, 1.0, size=coo.nnz)
    P = sp.csr_matrix((weights, (coo.row, coo.col)), shape=shift.matrix.shape)
    rows = np.asarray(P.sum(axis=1)).ravel()
    P = sp.diags(1.0 / rows) @ P
    pi = stationary_distribution(shift, P)
    return MarkovMeasure(shift, pi, P)


@dataclass(frozen=True)
class RoofFunction:
    """Strictly positive locally constant roof, given on cylinders of fixed depth."""

    depth: int
    values: dict = field(compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("roof depth must be >= 1")
        vals = {tuple(k): float(v) for k, v in self.values.items()}
        if not vals:
            raise ValueError("roof needs at least one value")
        if any(len(k) != self.depth for k in vals):
            raise ValueError("every roof key must have the declared depth")
        if not all(math.isfinite(v) and v > 0 for v in vals.values()):
            raise ValueError("roof values must be finite and strictly positive")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value, alphabet_size=1):
        return cls(1, {(a,): value for a in range(alphabet_size)})


def roof_integral(m, rho):
    """Exact integral of a locally constant roof against a Markov measure."""
    table = m.cylinder_table(rho.depth)
    total = 0.0
    for w, p in table.items():
        v = rho.values.get(w)
        if v is None:
            raise ValueError(f"roof has no value on the admissible word {w}")
        total += v * p
    return total


def abramov(h_base, roof_int):
    """Entropy of the suspension: base entropy divided by the roof integral."""
    if roof_int <= 0:
        raise ValueError("roof integral must be positive")
    return h_base / roof_int
