"""Shared instances; session-scoped since everything is immutable.

`HYPOTHESIS_PROFILE=ci` selects the `ci` profile: the same examples on every
run (derandomized), with each test's own `max_examples`.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import settings

import qbp
from qbp.expansion import certify_expansion
from qbp.graphs import cayley_bipartite
from qbp.groups import cyclic_group
from qbp.instances import (
    doubled_complete_incidence,
    incidence_star_product,
    left_right_cayley,
    star_graph,
    star_product,
    toric_complex,
)

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def passing_certificate(graph, c, epsilon):
    """The exhaustive certificate of `graph` from V0 at (c, epsilon), which
    must pass."""
    cert = certify_expansion(graph, "0to1", Fraction(c), Fraction(epsilon))
    assert cert.verdict == "pass", cert
    return cert


@pytest.fixture(scope="session")
def toric3():
    return toric_complex(3)


@pytest.fixture(scope="session")
def toric2():
    return toric_complex(2)


@pytest.fixture(scope="session")
def toric3_code(toric3):
    return qbp.extract_code(toric3)


@pytest.fixture(scope="session")
def toric2_code(toric2):
    return qbp.extract_code(toric2)


@pytest.fixture(scope="session")
def match8():
    """Matching product over Z_8: 16 qubits, k = 0, perfect 2-sided expansion."""
    return left_right_cayley(cyclic_group(8), [1], [1])


@pytest.fixture(scope="session")
def match8_code(match8):
    return qbp.extract_code(match8)


@pytest.fixture(scope="session")
def match8_cert():
    """(1, 0) for the perfect matching of Z_8 on generator 1."""
    return passing_certificate(cayley_bipartite(cyclic_group(8), [1], "right").graph, 1, 0)


@pytest.fixture(scope="session")
def star12():
    """Star product over Z_12 with degrees (3, 2): 60 qubits, k = 0."""
    return star_product(12, 3, 2)


@pytest.fixture(scope="session")
def star12_code(star12):
    return qbp.extract_code(star12)


@pytest.fixture(scope="session")
def star12_certs():
    """(1, 0) for the star families of degrees 3 and 2 over Z_12."""
    return (passing_certificate(star_graph(12, 3)[0], 1, 0),
            passing_certificate(star_graph(12, 2)[0], 1, 0))


@pytest.fixture(scope="session")
def star13_cert():
    """(1, 0) for the degree-2 star family over Z_13."""
    return passing_certificate(star_graph(13, 2)[0], 1, 0)


@pytest.fixture(scope="session")
def incstar13():
    """Doubled-incidence x star over Z_13: nonzero epsilon = 1/14 machinery."""
    return incidence_star_product(13, 2)


@pytest.fixture(scope="session")
def incstar13_code(incstar13):
    return qbp.extract_code(incstar13)


@pytest.fixture(scope="session")
def inc13_cert():
    """(3/13, 1/14) for the doubled incidence family over Z_13."""
    return passing_certificate(doubled_complete_incidence(13)[0], Fraction(3, 13),
                               Fraction(1, 14))
