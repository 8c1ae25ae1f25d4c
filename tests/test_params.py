import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elastrip.errors import ConstraintError
from elastrip.params import (ElasticParams, StripGeometry, bound_constants,
                             stability_constants, total_bound_stochastic,
                             vertical_wavenumber_grid)


def test_wavenumber_ordering():
    p = ElasticParams(lam=1.0, mu=1.0, omega=2.0)
    assert p.k_p == pytest.approx(2.0 / math.sqrt(3.0))
    assert p.k_s == pytest.approx(2.0)
    assert p.k_p < p.k_s


def test_invalid_moduli_rejected():
    with pytest.raises(ConstraintError):
        ElasticParams(lam=1.0, mu=-0.5, omega=1.0)
    with pytest.raises(ConstraintError):
        ElasticParams(lam=-2.0, mu=1.0, omega=1.0)   # lam + 2mu/3 < 0
    with pytest.raises(ConstraintError):
        ElasticParams(lam=1.0, mu=1.0, omega=0.0)


def test_stability_constants_reference_point():
    """lam = mu = 1: K = 3/sqrt(2), and c_K exceeds the 1/(lam+2mu) floor."""
    sc = stability_constants(ElasticParams(lam=1.0, mu=1.0, omega=1.0))
    assert sc.K == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-14)
    assert sc.c_K == pytest.approx(0.68118692087, rel=1e-9)
    assert sc.c_K > 1.0 / 3.0


@given(mu=st.floats(0.05, 20.0), lam_ratio=st.floats(-0.6, 10.0))
def test_ck_floor_property(mu, lam_ratio):
    # lam > -2mu/3 keeps the bulk modulus positive
    lam = lam_ratio * mu
    p = ElasticParams(lam=lam, mu=mu, omega=1.0)
    sc = stability_constants(p)
    assert sc.c_K > 1.0 / (lam + 2 * mu)
    assert sc.K >= 1.0 / math.sqrt(mu) * 0  # K positive by construction
    assert sc.K > 0 and sc.C_K > 0


def test_vertical_wavenumber_branches():
    k = 2.0
    assert vertical_wavenumber_grid(k, 1.0) == pytest.approx(math.sqrt(3.0))
    ev = vertical_wavenumber_grid(k, 9.0)
    assert ev == pytest.approx(1j * math.sqrt(5.0))
    assert vertical_wavenumber_grid(k, 4.0) == 0


def _unit_geom(m=0.0, h=1.0):
    return StripGeometry(m=m, M_sup=m + 0.5 * (h - m), h=h, cell=(2 * np.pi, 2 * np.pi))


def test_total_bound_reference_value():
    """omega = 1, h = 1, m = 0, L = 0, unit prefactor: the bound collapses to 2166."""
    p = ElasticParams(lam=1.0, mu=1.0, omega=1.0)
    rep = bound_constants(p, _unit_geom(), L=0.0)
    assert rep.C1 == pytest.approx(2.0)
    assert rep.C4 == pytest.approx(2.0)
    assert rep.total_bound == pytest.approx(2166.0, rel=1e-12)


def test_bound_monotone_in_h_and_L():
    p = ElasticParams(lam=1.0, mu=1.0, omega=1.0)
    totals_h = [bound_constants(p, _unit_geom(h=h), L=0.0).total_bound
                for h in (1.0, 1.5, 2.0, 3.0)]
    assert all(a < b for a, b in zip(totals_h, totals_h[1:]))
    totals_L = [bound_constants(p, _unit_geom(), L=L).total_bound
                for L in (0.0, 0.5, 1.0)]
    assert all(a < b for a, b in zip(totals_L, totals_L[1:]))


def test_generic_prefactor_scaling():
    p = ElasticParams(lam=1.0, mu=1.0, omega=1.0)
    r1 = bound_constants(p, _unit_geom(), L=0.0, generic_C=1.0)
    r2 = bound_constants(p, _unit_geom(), L=0.0, generic_C=2.0)
    assert r2.C1 == pytest.approx(2 * r1.C1)
    assert r2.C4 == pytest.approx(2 * r1.C4)
    # total mixes C5^2 and C6 ~ C^3, so it scales faster than linearly
    assert r2.total_bound > 2 * r1.total_bound


def test_stochastic_bound_form():
    p = ElasticParams(lam=1.0, mu=1.0, omega=1.0)
    geom = _unit_geom()
    rep = bound_constants(p, geom, L=0.25)
    expect = ((geom.h - geom.m + 2) * (rep.C4 + rep.C5 + rep.C6)) ** 2
    assert total_bound_stochastic(rep, geom) == pytest.approx(expect, rel=1e-14)


def test_geometry_validation():
    with pytest.raises(ConstraintError):
        StripGeometry(m=0.5, M_sup=0.2, h=1.0, cell=(1.0, 1.0))
    with pytest.raises(ConstraintError):
        StripGeometry(m=0.0, M_sup=0.5, h=1.0, cell=(-1.0, 1.0))
    g = _unit_geom()
    assert g.H == pytest.approx(g.h + 1.0)


def test_negative_lipschitz_rejected():
    p = ElasticParams(lam=1.0, mu=1.0, omega=1.0)
    with pytest.raises(ConstraintError):
        bound_constants(p, _unit_geom(), L=-0.1)
