from fractions import Fraction

import pytest

from flagcalc.errors import NotARootError
from flagcalc.polyring import _norm_coeff
from flagcalc.rootdata import cartan_type
from flagcalc.schubert import calculus_for


@pytest.fixture(scope="session")
def calc_g2():
    return calculus_for(cartan_type("G2"))


@pytest.fixture(scope="session")
def calc_f4():
    return calculus_for(cartan_type("F4"))


@pytest.fixture(scope="session")
def calc_b2():
    return calculus_for(cartan_type("B", 2))


@pytest.fixture(scope="session")
def calc_b3():
    return calculus_for(cartan_type("B", 3))


@pytest.fixture(scope="session")
def calc_b4():
    return calculus_for(cartan_type("B", 4))


@pytest.fixture(scope="session")
def calc_d4():
    return calculus_for(cartan_type("D", 4))


@pytest.fixture(scope="session")
def calc_d5():
    return calculus_for(cartan_type("D", 5))


def word(calc, text):
    """Resolve a digit-string word to a group element."""
    if not text:
        return calc.group.identity
    return calc.group.element_from_word([int(ch) for ch in text])


def reduced_words(group, w) -> list:
    """All reduced words of w; exponential in the length, keep it small."""
    memo: dict = {}

    def rec(u):
        if u.length == 0:
            return [()]
        got = memo.get(u)
        if got is None:
            got = []
            for i in range(1, group.rank + 1):
                if group.descends(u, i):
                    got.extend(rw + (i,) for rw in rec(group.times_simple(u, i)))
            memo[u] = got
        return got

    return rec(w)


def coroot_pairing(datum, beta, lam):
    """Pairing (beta^vee | lam) of a coroot with a weight, exact.

    Integral whenever ``lam`` has integer coordinates; this is checked.
    """
    if not datum.is_root(beta.omega):
        raise NotARootError(f"{beta} is not a root of {datum.cartan_type}")
    val = _norm_coeff(
        sum(Fraction(c) * x for c, x in zip(beta.coroot_on_omega, lam))
    )
    if all(isinstance(x, int) for x in lam) and not isinstance(val, int):
        raise AssertionError(
            f"coroot pairing {val} is not an integer on a lattice weight"
        )
    return val
