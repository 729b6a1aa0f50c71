"""Hot kernels: Fresnel-phase pattern gains for point pairs.

Every gain is the Fresnel-phase array sum

    G = |sum_n exp(j*(2*pi*n*phi + c*n^2))|^2 / N^2,
    phi = (sin(theta_a) - sin(theta_b)) / 2,
    c   = (pi*lambda/4) * ((1-sin^2(theta_b))/r_b - (1-sin^2(theta_a))/r_a),

over the symmetric element offsets n: integers -(N-1)/2..(N-1)/2 for odd N,
half-integers for even N. Folding n with -n leaves

    Re = [1 if N odd] + 2*sum_{n>0} cos(c n^2) cos(2 pi n phi)
    Im =                2*sum_{n>0} sin(c n^2) cos(2 pi n phi)

`gain_pairs` walks the positive offsets with two trig-free recurrences,
vectorised over pairs:

    cos((n+1) a) = 2 cos(a) cos(n a) - cos((n-1) a)      (Chebyshev, a = 2 pi phi)
    exp(j c (n+1)^2) = exp(j c n^2) * rot_n,  rot_{n+1} = rot_n * exp(2jc)

with rot_n = exp(j c (2n+1)). Rounding error grows with the number of steps:
against the direct unfolded sum (20k random pairs, |theta| <= 1.5 rad,
0.3-300 m) the largest error is 8.4e-13 for N <= 257, 3.4e-12 at N = 512 and
1.2e-11 at N = 1024. Each pair is computed elementwise, so its gain is
bitwise the same alone or in any batch.
"""

from __future__ import annotations

import numpy as np

# pairs per pass: the dozen work vectors of one pass stay in cache
_CHUNK = 1 << 14


def _fold_gain(sa, ra, sb, rb, n_antennas: int, lam: float) -> np.ndarray:
    """Gains of one chunk of pairs, given the sines of their angles."""
    a = np.pi * (sa - sb)
    c = (0.25 * np.pi * lam) * ((1.0 - sb * sb) / rb - (1.0 - sa * sa) / ra)
    two_ca = 2.0 * np.cos(a)
    if n_antennas % 2:
        base, n_pos = 1.0, (n_antennas - 1) // 2
        prev, cur = np.ones_like(a), 0.5 * two_ca
        zr, zi = np.cos(c), np.sin(c)
        rr, ri = np.cos(3.0 * c), np.sin(3.0 * c)
    else:
        base, n_pos = 0.0, n_antennas // 2
        cur = np.cos(0.5 * a)
        prev = cur.copy()
        zr, zi = np.cos(0.25 * c), np.sin(0.25 * c)
        rr, ri = np.cos(2.0 * c), np.sin(2.0 * c)
    sr, si = np.cos(2.0 * c), np.sin(2.0 * c)
    re = np.zeros_like(a)
    im = np.zeros_like(a)
    t1 = np.empty_like(a)
    t2 = np.empty_like(a)
    for step in range(n_pos):
        np.multiply(zr, cur, out=t1)
        re += t1
        np.multiply(zi, cur, out=t1)
        im += t1
        if step == n_pos - 1:
            break
        # cos: prev <- cur, cur <- 2 cos(a) cur - prev
        np.multiply(two_ca, cur, out=t1)
        t1 -= prev
        prev, cur, t1 = cur, t1, prev
        # z <- z * rot, then rot <- rot * exp(2jc)
        np.multiply(zr, rr, out=t1)
        np.multiply(zi, ri, out=t2)
        t1 -= t2
        zr *= ri
        zi *= rr
        zi += zr
        zr, t1 = t1, zr
        np.multiply(rr, sr, out=t1)
        np.multiply(ri, si, out=t2)
        t1 -= t2
        rr *= si
        ri *= sr
        ri += rr
        rr, t1 = t1, rr
    re = 2.0 * re + base
    im = 2.0 * im
    return (re * re + im * im) / float(n_antennas) ** 2


def gain_pairs(theta_a, r_a, theta_b, r_b, n_antennas, wavelength):
    """Elementwise pattern gain at (theta_a, r_a) of a beam focused on
    (theta_b, r_b); the four arrays broadcast together."""
    ta, ra, tb, rb = np.broadcast_arrays(
        np.asarray(theta_a, float), np.asarray(r_a, float),
        np.asarray(theta_b, float), np.asarray(r_b, float),
    )
    shape = ta.shape
    ta, ra, tb, rb = (x.ravel() for x in (ta, ra, tb, rb))
    out = np.empty(ta.size)
    for lo in range(0, ta.size, _CHUNK):
        hi = min(lo + _CHUNK, ta.size)
        out[lo:hi] = _fold_gain(np.sin(ta[lo:hi]), ra[lo:hi], np.sin(tb[lo:hi]),
                                rb[lo:hi], int(n_antennas), float(wavelength))
    return out.reshape(shape)


def interference_sums(theta, r, n_antennas, wavelength):
    """Per-user interference sums for batched user sets.

    theta, r: (trials, K) arrays. Returns (trials, K) where entry [t, k] is
    the sum of pattern cross-gains from the other K-1 users of trial t.
    The pair arrays are gathered for about one chunk of pairs at a time.
    Each user's gains are added by a running sum in ascending pair order, so
    the sums do not depend on how the trials are split.
    """
    theta = np.asarray(theta, float)
    r = np.asarray(r, float)
    trials, k = theta.shape
    iu, ju = np.triu_indices(k, 1)
    if iu.size == 0:
        return np.zeros((trials, k))
    # own[i]: the pairs that hold user i, in ascending order
    own = np.array([np.flatnonzero((iu == i) | (ju == i)) for i in range(k)])
    step = max(1, _CHUNK // iu.size)
    out = np.empty((trials, k))
    for lo in range(0, trials, step):
        th, rr = theta[lo:lo + step], r[lo:lo + step]
        gains = gain_pairs(th[:, iu], rr[:, iu], th[:, ju], rr[:, ju],
                           n_antennas, wavelength)
        out[lo:lo + step] = np.cumsum(gains[:, own], axis=2)[:, :, -1]
    return out


def cf_reduce(gains, weights, t):
    """sum_i w_i * exp(1j * t * g_i) for each t; returns complex array."""
    g = np.asarray(gains, float)
    w = np.asarray(weights, float)
    t = np.asarray(t, float)
    out = np.empty(t.size, complex)
    step = max(1, (1 << 18) // max(1, g.size))
    for lo in range(0, t.size, step):
        hi = min(lo + step, t.size)
        phase = t[lo:hi, None] * g[None, :]
        out[lo:hi] = (np.cos(phase) @ w) + 1j * (np.sin(phase) @ w)
    return out
