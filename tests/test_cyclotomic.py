from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from kakeyalab.cyclotomic import cyclotomic_poly, reduce_mod_cyclotomic, reduction_matrix
from oracles import Cyclotomic


KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials():
    for n, coeffs in KNOWN_POLYS.items():
        assert cyclotomic_poly(n) == coeffs


def test_degree_is_totient():
    from math import gcd

    for n in range(1, 30):
        totient = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert len(cyclotomic_poly(n)) - 1 == totient


def test_root_of_unity_relations():
    z = Cyclotomic.root(5, 1)
    power = Cyclotomic.from_rational(5, 1)
    for _ in range(5):
        power = power * z
    assert power == Cyclotomic.from_rational(5, 1)
    geometric = sum((Cyclotomic.root(5, k) for k in range(1, 5)), Cyclotomic.root(5, 0))
    assert geometric.is_zero()


def test_conjugate_and_norm():
    z = Cyclotomic.root(12, 5, weight=Fraction(2, 3))
    assert (z * z.conjugate()).rational_value() == Fraction(4, 9)
    real_part = z + z.conjugate()
    assert real_part.conjugate() == real_part


def test_rationality_detection():
    # zeta_3 + zeta_3^2 = -1
    v = Cyclotomic.root(3, 1) + Cyclotomic.root(3, 2)
    assert v.is_rational() and v.rational_value() == -1
    assert not Cyclotomic.root(5, 1).is_rational()


def test_shift_is_root_multiplication():
    v = Cyclotomic(6, tuple(Fraction(k) for k in (1, 2, 0, 0, 1, 0)))
    assert v.shift(2) == v * Cyclotomic.root(6, 2)


@given(st.integers(0, 7), st.integers(0, 7), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_ring_axioms_spotcheck(i, j, a, b):
    x = Cyclotomic.root(8, i, weight=a)
    y = Cyclotomic.root(8, j, weight=b)
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x


def test_reduce_handles_long_input():
    # sum_{j=0}^{9} x^j = 2 * Phi_5 * (geometric over 5th roots) -> 0 mod Phi_5
    red = reduce_mod_cyclotomic([1] * 10, 5)
    assert red == (0, 0, 0, 0)
    val = Cyclotomic(5, tuple(Fraction(1) for _ in range(5))) * 2
    assert val.is_zero()


def test_reduction_matrix_is_the_reduction():
    rng = np.random.default_rng(0)
    for N in range(1, 31):
        R = reduction_matrix(N)
        assert R.shape == (N, len(cyclotomic_poly(N)) - 1) and not R.flags.writeable
        for j in range(N):
            assert R[j].tolist() == list(reduce_mod_cyclotomic([0] * j + [1] + [0] * (N - 1 - j), N))
        for row in rng.integers(-1000, 1000, size=(5, N)):
            assert (row @ R).tolist() == list(reduce_mod_cyclotomic(row.tolist(), N))
