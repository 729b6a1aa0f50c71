"""Hot kernels: Fresnel-phase pattern gains for point pairs and for every
pair of a user set.

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

`interference_sums` needs every pair of a user set, and there the same law
is a Gram matrix. A user at (theta, r) has the response
b_n = exp(j(alpha n + beta n^2)), alpha = -pi sin(theta),
beta = (pi lambda/4) cos^2(theta) / r, and

    G_ab = |b_a^H b_b|^2 / N^2.

Each response is built once by a two-level recurrence, about N/16 + 16
numpy steps instead of N, and one real matrix product per trial gives all
its pairs. Against the direct unfolded sum (1000 random sets of 15 users,
|theta| <= 1.5 rad, 0.3-300 m) the largest error of an interference sum is
7.2e-14 for N <= 257, 1.5e-13 at N = 512 and 2.0e-13 at N = 1024. The
product runs in BLAS, whose last bits can differ between CPUs; on one CPU a
trial's sums are bitwise the same alone or in any batch.
"""

from __future__ import annotations

import numpy as np

# pairs per pass: the dozen work vectors of one pass stay in cache
_CHUNK = 1 << 14
# offsets per block of the response recurrence: about N/_BLOCK + _BLOCK steps
_BLOCK = 16
# trials per Gram batch: at N = 256 and K = 15 a batch's responses and their
# transposed copy take about 1 MB each
_TRIALS = 16


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


def _responses(theta, r, n_antennas: int, lam: float) -> np.ndarray:
    """Fresnel responses b[t, i, k] = exp(j(alpha n_i + beta n_i^2)) of the
    users (theta, r)[t, k] over the element offsets n_i, with
    alpha = -pi sin(theta) and beta = (pi lam/4) cos^2(theta) / r.

    The offsets are cut into blocks of _BLOCK that start at s_m. A recurrence
    over the blocks gives each block's first value b(s_m) and first ratio
    b(s_m + 1) / b(s_m) = exp(j(alpha + beta(2 s_m + 1))); a second one walks
    all blocks at once through their offsets, each ratio turning by
    exp(2j beta) per offset. Row q * n_blocks + m holds offset s_m + q, and
    the rows past the last offset are zero.
    """
    s = np.sin(theta)
    alpha = -np.pi * s
    beta = (0.25 * np.pi * lam) * (1.0 - s * s) / r
    trials, k = theta.shape
    n_blocks = -(-n_antennas // _BLOCK)
    s0 = -(n_antennas - 1) / 2.0
    # every starting value is exp(j(u alpha + v beta)) for one row (u, v)
    u, v = np.array([
        (s0, s0 * s0),                              # b(s_0)
        (1.0, 2.0 * s0 + 1.0),                      # the ratio at s_0
        (_BLOCK, 2.0 * _BLOCK * s0 + _BLOCK**2),    # hop b(s_1) / b(s_0)
        (0.0, 2.0 * _BLOCK**2),                     # the hop's turn per block
        (0.0, 2.0 * _BLOCK),                        # a ratio's turn per block
        (0.0, 2.0),                                 # a ratio's turn per offset
    ]).T
    first, ratio0, hop, hop_turn, block_turn, turn = np.exp(
        1j * (u[:, None, None] * alpha + v[:, None, None] * beta))
    out = np.empty((trials, _BLOCK, n_blocks, k), complex)
    ratio = np.empty((trials, n_blocks, k), complex)
    out[:, 0, 0] = first
    ratio[:, 0] = ratio0
    for m in range(n_blocks - 1):
        np.multiply(out[:, 0, m], hop, out=out[:, 0, m + 1])
        hop *= hop_turn
        np.multiply(ratio[:, m], block_turn, out=ratio[:, m + 1])
    turn = np.repeat(turn[:, None], n_blocks, axis=1)
    for q in range(_BLOCK - 1):
        np.multiply(out[:, q], ratio, out=out[:, q + 1])
        ratio *= turn
    out[:, n_antennas - _BLOCK * (n_blocks - 1):, -1] = 0.0
    return out.reshape(trials, _BLOCK * n_blocks, k)


def interference_sums(theta, r, n_antennas, wavelength):
    """Per-user interference sums for batched user sets.

    theta, r: (trials, K) arrays. Returns (trials, K) where entry [t, k] is
    the sum of pattern cross-gains from the other K-1 users of trial t: row
    k of the trial's Gram matrix |b^H b|^2 / N^2 over the responses of
    `_responses`, without its diagonal. Every step treats each trial on its
    own, so the sums do not depend on how the trials are split.
    """
    theta = np.asarray(theta, float)
    r = np.asarray(r, float)
    trials, k = theta.shape
    n = int(n_antennas)
    out = np.zeros((trials, k))
    if k < 2:
        return out
    diag = np.arange(k)
    for lo in range(0, trials, _TRIALS):
        b = _responses(theta[lo:lo + _TRIALS], r[lo:lo + _TRIALS], n,
                       float(wavelength))
        # columns (cos, sin) of each user; one real product gives all four
        # blocks of b^H b. The transposed copy is a second buffer, so numpy
        # calls gemm: on one buffer it calls syrk, about twice as slow here.
        cs = b.view(float)
        prod = np.ascontiguousarray(cs.transpose(0, 2, 1)) @ cs
        re = prod[:, 0::2, 0::2] + prod[:, 1::2, 1::2]
        im = prod[:, 0::2, 1::2] - prod[:, 1::2, 0::2]
        gains = re * re + im * im
        gains[:, diag, diag] = 0.0
        out[lo:lo + _TRIALS] = gains.sum(axis=2) / float(n) ** 2
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
