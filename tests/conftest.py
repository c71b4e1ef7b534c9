"""Shared instances; session-scoped since everything is immutable.

`HYPOTHESIS_PROFILE=ci` selects the `ci` profile: the same examples on every
run (derandomized), with each test's own `max_examples`.
"""

import os

import pytest
from hypothesis import settings

import qbp
from qbp.groups import cyclic_group
from qbp.instances import (
    doubled_incidence_certificate,
    incidence_star_product,
    left_right_cayley,
    matching_certificate,
    star_certificate,
    star_product,
    toric_complex,
)

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
    return matching_certificate(cyclic_group(8), 1)


@pytest.fixture(scope="session")
def star12():
    """Star product over Z_12 with degrees (3, 2): 60 qubits, k = 0."""
    return star_product(12, 3, 2)


@pytest.fixture(scope="session")
def star12_code(star12):
    return qbp.extract_code(star12)


@pytest.fixture(scope="session")
def star12_certs():
    return star_certificate(12, 3), star_certificate(12, 2)


@pytest.fixture(scope="session")
def incstar13():
    """Doubled-incidence x star over Z_13: nonzero epsilon = 1/14 machinery."""
    return incidence_star_product(13, 2)


@pytest.fixture(scope="session")
def incstar13_code(incstar13):
    return qbp.extract_code(incstar13)


@pytest.fixture(scope="session")
def inc13_cert():
    return doubled_incidence_certificate(13)
