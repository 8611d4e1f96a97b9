"""The catalog surfaces, their decompositions and base geodesics, built
once per test session."""

import pytest

from geodense.decomp import decompose
from geodense.surface import load_surface


@pytest.fixture(scope="session")
def torus():
    return load_surface("once-punctured-torus")


@pytest.fixture(scope="session")
def sphere():
    return load_surface("thrice-punctured-sphere")


@pytest.fixture(scope="session")
def torus_dec(torus):
    return decompose(torus)


@pytest.fixture(scope="session")
def sphere_dec(sphere):
    return decompose(sphere)


# the base geodesic the decomposition traced, as the pipeline uses it
# (test_decomp.py::test_base_is_the_traced_geodesic)
@pytest.fixture(scope="session")
def torus_g0(torus_dec):
    return torus_dec.base


@pytest.fixture(scope="session")
def sphere_g0(sphere_dec):
    return sphere_dec.base
