"""Hot kernels: Fresnel-phase pattern gains for point pairs and for every
pair of a user set.

Every gain is the Fresnel-phase array sum

    G = |sum_n b_n|^2 / N^2,    b_n = exp(j(alpha n + beta n^2)),

over the symmetric element offsets n: integers -(N-1)/2..(N-1)/2 for odd N,
half-integers for even N. One recurrence, `_responses`, builds the b_n of
many phase coefficients (alpha, beta) at once in about N/16 + 16 numpy steps
instead of N. Both kernels take their gains from it.

The kernel that calls `_responses` owns its work arrays: one flat buffer
(`_work`), allocated once per kernel call and handed to every batch. The
recurrence rotates three arrays of it through the rows and ratios, so a
yielded row stays valid until the row after the next is yielded. Rows taken
afresh for every product (256 KB at N = 256) made glibc trim its heap and
fault the pages back in: 52k-68k minor page faults for a 512 x 512 grid of
pairs at N = 256, against under 1k with the buffer reused.

`gain_pairs` gives the gain at (theta_a, r_a) of a beam focused on
(theta_b, r_b), with

    alpha = pi (sin(theta_a) - sin(theta_b)),
    beta  = (pi lambda/4) ((1-sin^2(theta_b))/r_b - (1-sin^2(theta_a))/r_a),

and sums each pair's responses. It serves the conditional Monte Carlo
sampler and `pattern.exact_gain`. The exact analytic route builds its side
laws by FFT instead (`analysis._side_grid`), so that route and its Monte
Carlo oracle share no kernel. Against the direct sum (20k random pairs per
N, |theta| <= 1.5 rad, 0.3-300 m) the largest error is 1.3e-14 for
N <= 257, 2.2e-14 at N = 512 and 8.5e-14 at N = 1024. Each pair is computed
elementwise, so its gain is bitwise the same alone or in any batch.

`interference_sums` needs every pair of a user set, and there the same law
is a Gram matrix. A user at (theta, r) has alpha = -pi sin(theta) and
beta = (pi lambda/4) cos^2(theta) / r, and

    G_ab = |b_a^H b_b|^2 / N^2.

Each response is built once. Every row of ceil(N/16) offsets that the
recurrence yields is added into the trial's Gram matrix as it arrives, as a
real matrix product, so no trial's whole response is held. Against the
direct sum (1000 random sets of 15 users, |theta| <= 1.5 rad, 0.3-300 m)
the largest error of an interference sum is 7.2e-14 for N <= 257, 1.5e-13
at N = 512 and 2.0e-13 at N = 1024. The products run in BLAS, whose last
bits can differ between CPUs; on one CPU a trial's sums are bitwise the
same alone or in any batch.
"""

from __future__ import annotations

import numpy as np

# pairs per pass of `gain_pairs`: a row of responses holds ceil(N/16) values
# per pair, 256 KB at N = 256, so the rows a pass sums are still in cache
_CHUNK = 1 << 10
# offsets per block of the response recurrence: about N/_BLOCK + _BLOCK steps
_BLOCK = 16
# trials per Gram batch: enough that each numpy call of the recurrence does
# real work, so the Monte Carlo block pool is not serialized by the
# interpreter lock. At N = 256 and K = 15 a row of the batch takes 245 KB.
_TRIALS = 64


def _work(size: int, n_antennas: int):
    """Work arrays for `_responses` over `size` phase coefficients: one flat
    buffer for three rotating arrays."""
    return np.empty(3 * size * -(-n_antennas // _BLOCK), complex)


def _responses(alpha, beta, n_antennas: int, work):
    """Fresnel responses b(n) = exp(j(alpha n + beta n^2)) over the element
    offsets n, for the phase coefficients (alpha, beta)[t, k], yielded one
    row at a time.

    The offsets are cut into blocks of _BLOCK that start at s_m. A recurrence
    over the blocks gives each block's first value b(s_m) and first ratio
    b(s_m + 1) / b(s_m) = exp(j(alpha + beta(2 s_m + 1))); a second one walks
    all blocks at once through their offsets, each ratio turning by
    exp(2j beta) per offset. Row q, of shape (t, n_blocks, k), holds offset
    s_m + q in column m, and zero past the last offset. A caller that sums
    the rows reads each one while it is still in cache.

    The rows live in `work`, the caller's buffer from `_work` for at least
    t k coefficients. Three arrays of it rotate: each product is written
    into the array that the product before it freed, which is still in
    cache. A yielded row stays valid until the row after the next is
    yielded, so a caller may hold two rows at once. No product is taken in
    place, so that a lone value cannot differ from the same value in a
    batch: numpy takes an in-place product of one-element arrays as a
    reduction, whose last bits differ from the vector loop's.
    """
    trials, k = alpha.shape
    n_blocks = -(-n_antennas // _BLOCK)
    shape = (trials, n_blocks, k)
    row, ratio, free = work[:3 * np.prod(shape)].reshape(3, *shape)
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
    first, ratio0, hop, hop_turn, block_turn, step = np.exp(
        1j * (u[:, None, None] * alpha + v[:, None, None] * beta))
    row[:, 0] = first
    ratio[:, 0] = ratio0
    for m in range(n_blocks - 1):
        np.multiply(row[:, m], hop, out=row[:, m + 1])
        hop = hop * hop_turn
        np.multiply(ratio[:, m], block_turn, out=ratio[:, m + 1])
    last = n_antennas - _BLOCK * (n_blocks - 1)  # offsets in the last block
    yield row
    for q in range(1, _BLOCK):
        if q > 1:
            ratio, free = np.multiply(ratio, step[:, None], out=free), ratio
        row, free = np.multiply(row, ratio, out=free), row
        if q >= last:
            row[:, -1] = 0.0
        yield row


def gain_pairs(theta_a, r_a, theta_b, r_b, n_antennas, wavelength):
    """Elementwise pattern gain at (theta_a, r_a) of a beam focused on
    (theta_b, r_b); the four arrays broadcast together.

    Each pass reads its chunk of pairs straight from the broadcast inputs,
    adds up the rows of `_responses` in order, then the blocks. The work
    arrays and the block sums are allocated once per call. np.sum is not
    used: its pairwise order depends on the batch.
    """
    ta, ra, tb, rb = np.broadcast_arrays(
        np.asarray(theta_a, float), np.asarray(r_a, float),
        np.asarray(theta_b, float), np.asarray(r_b, float),
    )
    n = int(n_antennas)
    scale = 0.25 * np.pi * float(wavelength)
    out = np.empty(ta.shape)
    flat = out.reshape(-1)
    work = _work(min(_CHUNK, out.size), n)
    acc = np.empty(work.size // 3, complex)  # block sums: one of work's 3 arrays
    for lo in range(0, out.size, _CHUNK):
        hi = min(lo + _CHUNK, out.size)
        sa, sb = np.sin(ta.flat[lo:hi]), np.sin(tb.flat[lo:hi])
        c = scale * ((1.0 - sb * sb) / rb.flat[lo:hi] - (1.0 - sa * sa) / ra.flat[lo:hi])
        rows = _responses(np.pi * (sa - sb)[None], c[None], n, work)
        row = next(rows)
        blocks = np.add(row, next(rows), out=acc[:row.size].reshape(row.shape))
        for row in rows:
            blocks += row
        s = blocks[0, 0]
        for m in range(1, blocks.shape[1]):
            s += blocks[0, m]
        flat[lo:hi] = (s.real * s.real + s.imag * s.imag) / float(n) ** 2
    return out


def _gram_row(row):
    """The part of each trial's real Gram matrix that one row of responses
    gives: with columns (cos, sin) of each user, one real product holds all
    four blocks of b^H b. The transposed copy is a second buffer, so numpy
    calls gemm: on one buffer it calls syrk, about 1.5 times as slow here.
    """
    cs = row.view(float)
    return np.ascontiguousarray(cs.transpose(0, 2, 1)) @ cs


def interference_sums(theta, r, n_antennas, wavelength):
    """Per-user interference sums for batched user sets.

    theta, r: (trials, K) arrays. Returns (trials, K) where entry [t, k] is
    the sum of pattern cross-gains from the other K-1 users of trial t: row
    k of the trial's Gram matrix |b^H b|^2 / N^2 over the responses of
    `_responses`, without its diagonal. The Gram matrix is summed over the
    recurrence's rows in order. Every step treats each trial on its own, so
    the sums do not depend on how the trials are split.
    """
    theta = np.asarray(theta, float)
    r = np.asarray(r, float)
    trials, k = theta.shape
    n = int(n_antennas)
    out = np.zeros((trials, k))
    if k < 2:
        return out
    scale = 0.25 * np.pi * float(wavelength)
    diag = np.arange(k)
    work = _work(min(_TRIALS, trials) * k, n)
    for lo in range(0, trials, _TRIALS):
        s = np.sin(theta[lo:lo + _TRIALS])
        beta = scale * (1.0 - s * s) / r[lo:lo + _TRIALS]
        rows = _responses(-np.pi * s, beta, n, work)
        prod = _gram_row(next(rows))
        for row in rows:
            prod += _gram_row(row)
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
