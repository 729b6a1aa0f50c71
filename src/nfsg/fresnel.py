"""Fresnel integrals C(x) and S(x), the integrals of cos(pi t^2 / 2) and
sin(pi t^2 / 2) from 0 to x.

x < 1.6 takes the alternating power series. x >= 1.6 takes
C + jS = (1+j)/2 erf(sqrt(pi)/2 (1-j) x) by the continued fraction of erfc,

    C + jS = (1+j)/2 [1 - (1-j) x e^(j pi x^2/2) h],
    h = 1/(b_1 - 1*2/(b_2 - 3*4/(b_3 - ...))),  b_k = 4k - 3 - j pi x^2,

cut after b_(N+1), N = _CF_STEPS, and summed from its tail: the fraction
is Numerical Recipes (2nd ed.) section 6.9, routine frenel, which sums it
forward by the modified Lentz method to stop on a convergence test. Against
scipy.special.fresnel on 200,001 points over [0, 100] the largest absolute
error is 1.3e-14; against 40-digit mpmath values at 1,003 points it is
8.9e-15, where scipy reads 4.7e-15.

Every element takes the same cut, with no convergence test: a deeper cut
moves h by less than 1e-15 relative from N = 41 at x = 1.6, 27 at 2, 8 at 4
and 3 at 10, and a cut chosen for a whole array would make a value depend
on the other elements of its call. From the tail, a step is three array
operations, where a Lentz step is eight.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_SERIES_CUTOFF = 1.6
_CF_STEPS = 50


def _series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # C term k: (-1)^k (pi/2)^(2k) x^(4k+1) / ((2k)! (4k+1))
    # S term k: (-1)^k (pi/2)^(2k+1) x^(4k+3) / ((2k+1)! (4k+3))
    half_pi = np.pi / 2.0
    x2 = x * x
    x4 = x2 * x2
    tc = x.copy()  # k=0 base without the 1/(4k+1) factor
    ts = half_pi * x2 * x
    c = tc.copy()
    s = ts / 3.0
    for k in range(1, 60):
        tc = tc * (-(half_pi * half_pi) * x4) / ((2 * k - 1) * (2 * k))
        ts = ts * (-(half_pi * half_pi) * x4) / ((2 * k) * (2 * k + 1))
        dc = tc / (4 * k + 1)
        ds = ts / (4 * k + 3)
        c += dc
        s += ds
        if np.all(np.abs(dc) < 1e-18) and np.all(np.abs(ds) < 1e-18):
            break
    return c, s


def _continued_fraction(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pix2 = np.pi * x * x
    b = 1.0 - 1j * pix2
    # u_k = t_k - b with t_k = b_k + a_k / t_(k+1); the cut leaves u = 4 N
    u = 4.0 * _CF_STEPS
    for k in range(_CF_STEPS, 0, -1):
        u = -(2 * k - 1) * (2 * k) / (u + b) + 4.0 * (k - 1)
    h = 1.0 / (u + b)
    # numpy's product of two complex arrays is not commutative to the last
    # bit, and past 256 KiB it swaps the operands to reuse a temporary right
    # one: every product keeps its temporary on the left, so no value
    # depends on the array size
    turn = np.cos(0.5 * pix2) + 1j * np.sin(0.5 * pix2)
    cs = (1.0 - (x - 1j * x) * h * turn) * (0.5 + 0.5j)
    return cs.real, cs.imag


def fresnel_integrals(beta):
    """Return (C(beta), S(beta)) for finite beta >= 0 (scalar or array)."""
    b = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(b) & (b >= 0)):
        raise DomainError("fresnel_integrals requires finite beta >= 0")
    scalar = b.ndim == 0
    b = np.atleast_1d(b)
    c = np.empty_like(b)
    s = np.empty_like(b)
    lo = b < _SERIES_CUTOFF
    if np.any(lo):
        c[lo], s[lo] = _series(b[lo])
    if np.any(~lo):
        c[~lo], s[~lo] = _continued_fraction(b[~lo])
    if scalar:
        return float(c[0]), float(s[0])
    return c, s
