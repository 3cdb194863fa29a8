"""Shared constructors: the default two-media scenario used across tests,
a record of the matrices FixedPattern factors and one of the corrections
GMRES solves on a kept LU."""
import pytest

from dualporo import blockmesh as bm
from dualporo import constitutive as con


@pytest.fixture(scope="session")
def fluids():
    return con.FluidPair(mu_w=1.0e-3, mu_n=2.0e-3)


@pytest.fixture(scope="session")
def matrix_vg():
    return con.VanGenuchtenParams(p_r=1.0e5, n=2.0)


@pytest.fixture(scope="session")
def fracture_vg():
    return con.VanGenuchtenParams(p_r=1.0e4, n=2.0)


@pytest.fixture(scope="session")
def sim1_cset(matrix_vg, fracture_vg, fluids):
    return con.ConstitutiveSet(
        matrix=con.MediumProps(porosity=0.35, permeability=1.0e-13,
                               vg=matrix_vg),
        fracture=con.MediumProps(porosity=0.2, permeability=1.0e-13,
                                 vg=fracture_vg),
        fluids=fluids)


@pytest.fixture
def factored(monkeypatch):
    """The list of (matrix copy, pattern) that FixedPattern.factor, the
    one way the package factors, is given during the test, on either LU
    route."""
    calls = []
    factor = bm.FixedPattern.factor

    def recording_factor(pattern, mat, splu):
        calls.append((mat.copy(), pattern))
        return factor(pattern, mat, splu)

    monkeypatch.setattr(bm.FixedPattern, "factor", recording_factor)
    return calls


@pytest.fixture
def krylov(monkeypatch):
    """The list of the corrections blockmesh.krylov_solve solved during
    the test, on a Newton solve's kept LU; the ones it missed were
    factored instead and are not in the list."""
    solved = []
    solve = bm.krylov_solve

    def recording_solve(*args):
        x = solve(*args)
        if x is not None:
            solved.append(x)
        return x

    monkeypatch.setattr(bm, "krylov_solve", recording_solve)
    return solved
