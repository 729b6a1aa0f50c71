import numpy as np
import pytest
from scipy import integrate, special

from nfsg import DomainError, fresnel_integrals


def _quad_oracle(beta):
    # piecewise adaptive quadrature between the phase nodes t_j = sqrt(2j),
    # where the integrands complete half a cycle, so each piece is benign
    edges = np.sqrt(2.0 * np.arange(int(beta * beta / 2.0) + 1))
    edges = np.append(edges[edges < beta], beta)
    c = s = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        ci, _ = integrate.quad(lambda t: np.cos(0.5 * np.pi * t * t), lo, hi,
                               epsabs=1e-13, epsrel=1e-12)
        si, _ = integrate.quad(lambda t: np.sin(0.5 * np.pi * t * t), lo, hi,
                               epsabs=1e-13, epsrel=1e-12)
        c += ci
        s += si
    return c, s


def test_origin():
    assert fresnel_integrals(0.0) == (0.0, 0.0)


def test_limit_at_large_argument():
    c, s = fresnel_integrals(100.0)
    assert abs(c - 0.5) < 0.01
    assert abs(s - 0.5) < 0.01


def test_reference_point():
    c, s = fresnel_integrals(1.0)
    assert c == pytest.approx(0.7798934, abs=1e-7)
    assert s == pytest.approx(0.4382591, abs=1e-7)


@pytest.mark.parametrize("beta", [0.05, 0.4, 1.0, 1.4, 1.59, 1.61, 1.8, 2.5,
                                  4.0, 7.7, 13.0, 31.0, 64.0, 100.0])
def test_against_quadrature(beta):
    # oracle: adaptive quadrature of the defining integrals
    c_ref, s_ref = _quad_oracle(beta)
    c, s = fresnel_integrals(beta)
    assert abs(c - c_ref) < 1e-9
    assert abs(s - s_ref) < 1e-9


def test_branch_continuity():
    lo = fresnel_integrals(1.6 - 1e-12)
    hi = fresnel_integrals(1.6 + 1e-12)
    assert abs(lo[0] - hi[0]) < 1e-11
    assert abs(lo[1] - hi[1]) < 1e-11


def test_negative_rejected():
    # and every non-finite beta, alone or in an array
    for beta in (-0.1, np.nan, np.inf):
        with pytest.raises(DomainError):
            fresnel_integrals(beta)
        with pytest.raises(DomainError):
            fresnel_integrals(np.array([1.0, beta, 2.0]))


def test_against_scipy_dense():
    # scipy.special.fresnel returns (S, C). The grid is larger than 256 KiB,
    # where numpy reuses temporaries, and every value must still equal the
    # scalar call's
    b = np.linspace(0.0, 100.0, 200_001)
    c, s = fresnel_integrals(b)
    s_ref, c_ref = special.fresnel(b)
    assert np.abs(c - c_ref).max() < 5e-14
    assert np.abs(s - s_ref).max() < 5e-14
    for i in range(0, b.size, 997):
        assert fresnel_integrals(float(b[i])) == (c[i], s[i])


def test_array_input():
    b = np.linspace(0.0, 20.0, 501)
    c, s = fresnel_integrals(b)
    assert c.shape == b.shape
    # magnitude identity keeping the distance profile <= 1
    assert np.all(c[1:] ** 2 + s[1:] ** 2 <= b[1:] ** 2 * (1 + 1e-12))
