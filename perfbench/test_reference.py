"""Checks of the benchmark's reference computations against values worked
out by hand (never against trielab's output).

    python3 -m pytest perfbench/test_reference.py -q
"""

import math

import numpy as np
import pytest

import reference as ref

IID = {"kind": "deterministic", "rows": [[0.7, 0.3], [0.7, 0.3]]}
UNIFORM = {"kind": "deterministic", "rows": [[0.5, 0.5], [0.5, 0.5]]}
MARKOV = {"kind": "deterministic", "rows": [[0.9, 0.1], [0.2, 0.8]]}
DIRICHLET = {"kind": "dirichlet", "alpha": [[1.0, 1.0], [1.0, 1.0]]}
MIXTURE = {"kind": "mixture", "weights": [0.5, 0.5],
           "comps": [[[0.5, 0.5], [0.5, 0.5]], [[0.9, 0.1], [0.9, 0.1]]]}


def test_closed_form_height_constants():
    # rho(2) = 0.7^2 + 0.3^2 = 0.58 for i.i.d. letters
    assert ref.predicted(IID, j=2) == pytest.approx(2.0 / -math.log(0.58), abs=1e-12)
    # uniform Dirichlet rows: rho(theta) = 2 / (1 + theta), rho(2) = 2/3
    assert ref.predicted(DIRICHLET, j=2) == pytest.approx(2.0 / math.log(1.5), abs=1e-9)
    # uniform letters: every cycle mean is ln 1/2, so c_upper = 1 / ln 2
    assert ref.predicted(UNIFORM, alpha=0.5) == pytest.approx(0.5 / math.log(2.0), abs=1e-12)


def test_uniform_dirichlet_roots():
    # f(theta) = ln 2 - ln(1 + theta) + theta / (1 + theta) vanishes at
    # -0.626635382 and 3.311070407; -1/d = 1 + theta there
    c = ref.constants(DIRICHLET)
    assert c["theta_star_lower"] == pytest.approx(-0.6266353822, abs=1e-8)
    assert c["theta_star_upper"] == pytest.approx(3.3110704073, abs=1e-8)
    assert c["c_star_lower"] == pytest.approx(1.0 + c["theta_star_lower"], abs=1e-7)
    assert c["c_star_upper"] == pytest.approx(1.0 + c["theta_star_upper"], abs=1e-7)
    assert ref.predicted(DIRICHLET, j=8) == c["c_star_upper"]   # 8 > theta*


def test_cycle_means():
    # self-loops ln 0.9 and ln 0.8, two-cycle (ln 0.1 + ln 0.2) / 2
    lo, hi = ref.cycle_means(MARKOV["rows"])
    assert hi == pytest.approx(math.log(0.9), abs=1e-15)
    assert lo == pytest.approx((math.log(0.1) + math.log(0.2)) / 2, abs=1e-15)
    c = ref.constants(IID)
    assert c["c_star_lower"] == pytest.approx(-1.0 / math.log(0.3), abs=1e-15)
    assert c["c_star_upper"] == pytest.approx(-1.0 / math.log(0.7), abs=1e-15)


def test_tilted_matrices_and_shapes():
    assert np.allclose(ref.tilted(DIRICHLET, 1.0), 0.5)      # E[p] = 1/2
    assert np.allclose(ref.tilted(DIRICHLET, 2.0), 1.0 / 3)  # E[p^2] = 1/3
    # mixture rows are equal across types, so rho is the row sum
    rho2 = 0.5 * 0.5 + 0.5 * (0.81 + 0.01)
    assert math.exp(ref.log_rho(MIXTURE, 2.0)) == pytest.approx(rho2, rel=1e-12)
    s = ref.shape(IID, 2.0)
    drift = (0.49 * math.log(0.7) + 0.09 * math.log(0.3)) / 0.58
    assert s["drift"] == pytest.approx(drift, abs=1e-9)
    assert s["psi"] == pytest.approx(math.log(0.58) - 2 * drift, abs=1e-8)
    assert ref.shape(IID, 1.0)["phi"] == pytest.approx(0.0, abs=1e-9)


def test_log_level_sums_and_extremes():
    # i.i.d. rows: row 1 of A^n is rho^(n-1) * (0.7^t, 0.3^t)
    ell = ref.log_level_sums(IID["rows"], 2.0, 5)
    assert ell == pytest.approx([4 * math.log(0.58) + math.log(0.49),
                                 4 * math.log(0.58) + math.log(0.09)], abs=1e-12)
    # depth 400 at theta = -1 overflows floats but not logs
    assert np.isfinite(ref.log_level_sums(MARKOV["rows"], -1.0, 400)).all()
    assert ref.extreme_log_masses(IID["rows"], 3) == pytest.approx(
        (3 * math.log(0.3), 3 * math.log(0.7)))


def test_level_masses():
    masses, counts = ref.level_masses(IID["rows"], 3)
    assert masses == pytest.approx([0.027, 0.063, 0.147, 0.343])
    assert list(counts) == [1, 3, 3, 1]


def test_coupon_moments():
    # two fair boxes: T = 1 + Geometric(1/2), mean 1 + 2 = 3, variance
    # (1 - q) / q^2 = 2; boxes p, q: 1/p + 1/q - 1/(p + q)
    assert ref.coupon_moments([0.5], [2], 1) == pytest.approx((3.0, 2.0), rel=1e-8)
    mean, var = ref.coupon_moments([0.7, 0.3], [1, 1], 1)
    assert mean == pytest.approx(1 / 0.7 + 1 / 0.3 - 1.0, rel=1e-8)
    # the wait after the first ball is Geometric(q) for the other box's q,
    # with second moment (2 - q) / q^2
    second = 0.7 * 1.7 / 0.3 ** 2 + 0.3 * 1.3 / 0.7 ** 2
    assert var == pytest.approx(second - (mean - 1.0) ** 2, rel=1e-7)
    # one box needing j balls takes exactly j throws
    assert ref.coupon_moments([1.0], [1], 3) == pytest.approx((3.0, 0.0), abs=1e-7)
    # four fair boxes: stages with success chances 1, 3/4, 1/2, 1/4 give
    # mean 4 (1 + 1/2 + 1/3 + 1/4) = 25/3 and variance 4/9 + 2 + 12 = 130/9
    assert ref.coupon_moments([0.25], [4], 1) == pytest.approx((25.0 / 3.0, 130.0 / 9.0),
                                                               rel=1e-8)


def test_fit_and_law_test():
    assert ref.fit_slope([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]) == pytest.approx(2.0)
    # slope weights (x - 1) / 2 = -1/2, 0, 1/2
    assert ref.slope_stderr([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == pytest.approx(math.sqrt(0.5))
    assert ref.slope_stderr([0.0, 1.0, 2.0], [2.0, 5.0, 0.0]) == pytest.approx(1.0)
    same = {(5, 2): 400, (6, 2): 300, (6, 3): 300}
    assert ref.same_law_p(same, same) == pytest.approx(1.0)
    assert ref.same_law_p(same, {(5, 2): 700, (6, 2): 150, (6, 3): 150}) < 1e-6
