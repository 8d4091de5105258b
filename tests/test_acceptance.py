"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line; run with `pytest -v -s
tests/test_acceptance.py` to see them all.
"""

import itertools
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from shiftflex import (
    Code,
    MetricConfig,
    RoofFunction,
    VertexShift,
    bernoulli_measure,
    empirical_from_windows,
    full_shift,
    golden_mean_shift,
    iterate,
    language,
    markov_entropy,
    normalized_entropy,
    parry_measure,
    random_markov_measure,
    renewal_to_sft,
    roof_integral,
    topological_entropy,
    ud_witness,
    weak_star_distance,
    word_count,
)
from shiftflex.cli import main
from shiftflex.codes import find_low_overlap_word
from shiftflex.config import parse_config
from tests.conftest import PHI, random_irreducible_shift

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ACCEPTANCE_CFG = CONFIG_DIR / "full3_acceptance.cfg"


@contextmanager
def criterion(num, desc):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num:>2}: FAIL  {desc}  [{time.time() - t0:.1f}s]")
        raise
    print(f"criterion {num:>2}: PASS  {desc}  [{time.time() - t0:.1f}s]")


def test_criterion_1_full_shift_entropy():
    with criterion(1, "full-shift entropy equals log n"):
        t0 = time.time()
        for n in (2, 3, 4, 5):
            assert abs(topological_entropy(full_shift(n)) - math.log(n)) < 1e-10
        assert time.time() - t0 < 1.0


def test_criterion_2_golden_mean_cross_validation():
    with criterion(2, "golden-mean entropy vs word-count growth + Fibonacci"):
        t0 = time.time()
        g = golden_mean_shift()
        counts = [word_count(g, n) for n in range(1, 31)]
        fib = [2, 3]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        assert counts == fib
        # independent enumeration cross-check at small depth
        for n in range(1, 13):
            assert len(language(g, n)) == counts[n - 1]
        h = topological_entropy(g)
        assert abs(h - math.log(PHI)) < 1e-12
        assert abs(h - math.log(counts[29]) / 30) < 2e-2
        assert time.time() - t0 < 1.0


def test_criterion_3_variational_attainment():
    with criterion(3, "Parry attains the entropy; perturbations never exceed it"):
        t0 = time.time()
        rng = np.random.default_rng(2024)
        shifts = [random_irreducible_shift(rng) for _ in range(20)]
        for s in shifts:
            h = topological_entropy(s)
            assert abs(markov_entropy(parry_measure(s)) - h) < 1e-9
        total = 0
        while total < 100:
            s = shifts[total % 20]
            m = random_markov_measure(s, rng)
            assert markov_entropy(m) <= topological_entropy(s) + 1e-9
            total += 1
        assert time.time() - t0 < 10.0


def _collision_oracle(words, max_len=12):
    strings = {()}
    current = [()]
    while current:
        nxt = []
        for s in current:
            for w in words:
                t = s + w
                if len(t) > max_len:
                    continue
                if t in strings:
                    return False
                strings.add(t)
                nxt.append(t)
        current = nxt
    return True


def test_criterion_4_ud_oracle_equivalence():
    with criterion(4, "Sardinas-Patterson vs exhaustive factorization"):
        t0 = time.time()
        pool = [
            tuple(w)
            for n in range(1, 5)
            for w in itertools.product((0, 1), repeat=n)
        ]
        checked = 0
        for size in (1, 2, 3):
            for combo in itertools.combinations(pool, size):
                code = Code(combo)
                assert (ud_witness(code) is None) == _collision_oracle(code.words)
                checked += 1
        assert checked == 4525
        assert time.time() - t0 < 30.0


def test_criterion_5_renewal_entropy_identity():
    with criterion(5, "renewal entropy equals (1/k) log |code|"):
        t0 = time.time()
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            alpha = int(rng.integers(2, 5))
            pool = list(itertools.product(range(alpha), repeat=k))
            count = int(rng.integers(1, len(pool) + 1))
            idx = rng.choice(len(pool), size=count, replace=False)
            code = Code(tuple(pool[i] for i in idx))
            s = renewal_to_sft(code)
            assert abs(
                topological_entropy(s) - math.log(len(code)) / k
            ) < 1e-9
        assert time.time() - t0 < 5.0


def test_criterion_6_low_overlap_words():
    with criterion(6, "low self-overlap words across lengths"):
        t0 = time.time()
        for shift in (full_shift(2), golden_mean_shift()):
            for l in (8, 12, 16, 24, 32, 48, 64):
                w = find_low_overlap_word(shift, l)
                n = len(w)
                brute = max(
                    (k for k in range(n) if w[:k] == w[n - k :]), default=0
                )
                assert n == l and brute < l / 4
        assert time.time() - t0 < 10.0


def test_criterion_7_abramov_consistency():
    with criterion(7, "suspension entropy via the roof-integral quotient"):
        for s in (full_shift(2), full_shift(3), golden_mean_shift(), VertexShift([[1]])):
            unit = RoofFunction.constant(1.0, s.ambient_size)
            m = parry_measure(s)
            h = topological_entropy(s)
            assert abs(h / roof_integral(m, unit) - h) < 1e-12
        g = golden_mean_shift()
        m = parry_measure(g)
        rho = RoofFunction(1, {(0,): 1.0, (1,): 2.0})
        pi0 = PHI**2 / (1 + PHI**2)
        expected = math.log(PHI) / (pi0 + 2 * (1 - pi0))
        value = topological_entropy(g) / roof_integral(m, rho)
        assert abs(value - expected) < 1e-9


def _bracket(c, d):
    return (c * (1 + d) ** 2 / (1 + d), c * (1 + 3 * d) / (1 - d))


def test_criterion_8_end_to_end_construction():
    with criterion(8, "two-stage tower: every report window at its bound"):
        t0 = time.time()
        rc = parse_config(ACCEPTANCE_CFG.read_text())
        target = rc.build_target()
        assert target.base_entropy > 1.0  # base chosen with entropy above one
        schedule = rc.build_schedule(target)
        tower = iterate(target, 2, schedule)
        failures = []
        for st, rep in zip(tower.stages, tower.reports):
            if rep is None:
                continue
            for item in rep.items():
                if not item.ok:
                    failures.append(f"stage {st.index} {item.name}: {item.detail}")
            lo, hi = _bracket(target.c, st.params.delta)
            traj = rep.normalized_entropy
            if not (lo <= traj <= hi):
                failures.append(
                    f"stage {st.index} trajectory {traj:.6g} outside [{lo:.6g}, {hi:.6g}]"
                )
        widths = [
            _bracket(target.c, p.delta)[1] - _bracket(target.c, p.delta)[0]
            for p in schedule
        ]
        if not widths[1] < widths[0]:
            failures.append("bracket width did not shrink between stages")
        if tower.error is not None:
            failures.append(f"tower error: {tower.error}")
        if len(tower.stages) != 3:
            failures.append(f"tower stopped after {len(tower.stages) - 1} stage(s)")
        assert time.time() - t0 < 300.0
        if failures:
            pytest.fail(
                "stage checks failed:\n  " + "\n  ".join(failures), pytrace=False
            )


def test_criterion_9_window_average_inequalities():
    with criterion(9, "empirical window-average inequalities"):
        t0 = time.time()
        rng = np.random.default_rng(99)
        cfg = MetricConfig(2)
        # (1) index-set bound on window averages
        for _ in range(400):
            n = int(rng.integers(8, 24))
            word = tuple(rng.integers(0, 2, size=n).tolist())
            hi = n - 2
            a = sorted(set(rng.integers(0, hi + 1, size=rng.integers(1, hi + 2)).tolist()))
            b = sorted(set(rng.integers(0, hi + 1, size=rng.integers(1, hi + 2)).tolist()))
            ma = empirical_from_windows(word, a, 2, ambient_size=2)
            mb = empirical_from_windows(word, b, 2, ambient_size=2)
            sa, sb = set(a), set(b)
            bound = (len(a) + len(b)) / (len(a) * len(b)) * len(sa ^ sb) + abs(
                len(a) - len(b)
            ) / (len(a) * len(b)) * len(sa & sb)
            assert weak_star_distance(ma, mb, cfg) <= bound + 1e-12
        # (2) windows agreeing to depth t keep the distance below 2^-t
        deep = MetricConfig(4)
        for _ in range(300):
            m = int(rng.integers(4, 12))
            t = int(rng.integers(1, 4))
            total = m + 4 - 1
            u = tuple(rng.integers(0, 2, size=total).tolist())
            v = list(u)
            # perturb only coordinates beyond depth t of every counted window
            for i in range(m + t - 1, total):
                v[i] = 1 - v[i]
            mu = empirical_from_windows(u, range(m), 4, ambient_size=2)
            mv = empirical_from_windows(tuple(v), range(m), 4, ambient_size=2)
            assert weak_star_distance(mu, mv, deep) < 2.0**-t
        # (3) convex combinations stay inside the ball
        f2 = full_shift(2)
        uni = bernoulli_measure(f2, [0.5, 0.5])
        for _ in range(300):
            parts = [random_markov_measure(f2, rng) for _ in range(3)]
            eps = max(weak_star_distance(p, uni, cfg) for p in parts) + 1e-12
            wts = rng.dirichlet([1.0, 1.0, 1.0])
            mix = {}
            for p, w in zip(parts, wts):
                for depth in (1, 2):
                    for k, val in p.cylinder_table(depth).items():
                        mix[k] = mix.get(k, 0.0) + w * val

            class _Mix:
                ambient_size = 2

                def cylinder_table(self, depth):
                    return {k: v for k, v in mix.items() if len(k) == depth}

            assert weak_star_distance(_Mix(), uni, cfg) <= eps
        assert time.time() - t0 < 5.0


def test_criterion_10_deterministic_csv(tmp_path):
    with criterion(10, "same seed gives byte-identical stages.csv"):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        code1 = main(["construct", "--config", str(ACCEPTANCE_CFG), "--out", out1])
        code2 = main(["construct", "--config", str(ACCEPTANCE_CFG), "--out", out2])
        assert code1 == code2
        a = open(os.path.join(out1, "stages.csv"), "rb").read()
        b = open(os.path.join(out2, "stages.csv"), "rb").read()
        assert a == b
