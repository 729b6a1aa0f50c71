import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nfsg
from nfsg import kernels
from nfsg.pattern import ArrayConfig

from helpers import fresnel_phase_gain

FREQ = 28e9


def _pairs(rng, size):
    return (rng.uniform(-1.2, 1.2, size), rng.uniform(0.3, 300.0, size),
            rng.uniform(-1.2, 1.2, size), rng.uniform(0.3, 300.0, size))


# 3 antennas, the fewest ArrayConfig accepts, fill less than one block of the
# response recurrence.
@pytest.mark.parametrize("n_ant", [3, 13, 100, 256, 257, 1024])
def test_gain_pairs_matches_direct_sum(n_ant, rng):
    cfg = ArrayConfig(n_ant, FREQ)
    ta, ra, tb, rb = _pairs(rng, 512)
    got = kernels.gain_pairs(ta, ra, tb, rb, n_ant, cfg.wavelength)
    assert np.max(np.abs(got - fresnel_phase_gain(cfg, ta, ra, tb, rb))) < 1e-12


def test_gain_pairs_broadcasting(rng):
    cfg = ArrayConfig(64, FREQ)
    ta = rng.uniform(-1, 1, (6, 5))
    ra = rng.uniform(1, 100, (6, 5))
    out = kernels.gain_pairs(ta, ra, 0.2, 30.0, 64, cfg.wavelength)
    assert out.shape == (6, 5)
    assert np.allclose(out, fresnel_phase_gain(cfg, ta, ra, 0.2, 30.0),
                       rtol=0.0, atol=1e-12)
    assert kernels.gain_pairs(0.1, 20.0, 0.2, 30.0, 64, cfg.wavelength).shape == ()


# The side grid passes its angle and range nodes as a column and a row. 37 x 29
# nodes are not a multiple of the kernel's chunk, so the last chunk is short.
@pytest.mark.parametrize("n_ant", [13, 256])
def test_gain_pairs_grid_matches_flat_call(n_ant, rng):
    wavelength = ArrayConfig(n_ant, FREQ).wavelength
    th = rng.uniform(-1.2, 1.2, 37)
    r = rng.uniform(0.5, 150.0, 29)
    assert (th.size * r.size) % kernels._CHUNK != 0
    grid = kernels.gain_pairs(th[:, None], r[None, :], 0.1, 60.0, n_ant, wavelength)
    flat = kernels.gain_pairs(np.repeat(th, r.size), np.tile(r, th.size), 0.1, 60.0,
                              n_ant, wavelength)
    assert grid.shape == (th.size, r.size)
    assert np.array_equal(grid.ravel(), flat)


def test_gain_pairs_empty_input():
    wavelength = ArrayConfig(16, FREQ).wavelength
    out = kernels.gain_pairs(np.zeros((3, 0)), np.ones((1, 0)), 0.1, 60.0, 16, wavelength)
    assert out.shape == (3, 0)


_FAULTS_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from nfsg import kernels
th = np.linspace(-1.2, 1.2, 512)
r = np.linspace(1.0, 150.0, 512)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
kernels.gain_pairs(th[:, None], r[None, :], 0.1, 60.0, 256, float(sys.argv[2]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_gain_pairs_grid_reuses_its_memory():
    # A side grid of 512 x 512 pairs at N = 256 runs 256 chunks. Work arrays
    # taken afresh for every product of the recurrence made the allocator
    # hand memory back and fault it in again: 52k-68k minor faults for this
    # call, against under 1k when the arrays are reused. A fresh interpreter
    # keeps other tests' allocations out of the count.
    src = str(Path(kernels.__file__).resolve().parents[1])
    wavelength = str(ArrayConfig(256, FREQ).wavelength)
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, src, wavelength],
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(proc.stdout) < 5000


# 13 antennas make one block of the response recurrence, so a lone pair's
# per-offset ratio is a one-element array.
@pytest.mark.parametrize("n_ant", [13, 256])
def test_gain_pairs_bitwise_independent_of_batch(n_ant, rng):
    # A pair's gain must not depend on the batch around it, or reruns and
    # thread counts that split the work differently would change results.
    wavelength = ArrayConfig(n_ant, FREQ).wavelength
    size = 2 * kernels._CHUNK + 123
    ta, ra, tb, rb = _pairs(rng, size)
    batch = kernels.gain_pairs(ta, ra, tb, rb, n_ant, wavelength)
    shifted = kernels.gain_pairs(ta[7:], ra[7:], tb[7:], rb[7:], n_ant, wavelength)
    assert np.array_equal(batch[7:], shifted)
    picks = [0, 1, kernels._CHUNK - 1, kernels._CHUNK, kernels._CHUNK + 5,
             2 * kernels._CHUNK, size - 1]
    for i in picks:
        alone = kernels.gain_pairs(ta[i], ra[i], tb[i], rb[i], n_ant, wavelength)
        assert alone == batch[i], i


# Beyond (64, 9): 82 users is the top of the default ratio sweep at N = 256,
# two users make one pair, 13 and 257 antennas are odd and fill the last
# block of the response recurrence only partly, and 1024 takes the longest
# recurrence.
@pytest.mark.parametrize("n_ant, k, trials", [(64, 9, 40), (256, 82, 2), (256, 2, 40),
                                              (13, 9, 40), (257, 9, 10), (1024, 9, 10)])
def test_interference_sums_matches_pair_loop(n_ant, k, trials, rng):
    cfg = ArrayConfig(n_ant, FREQ)
    theta = rng.uniform(-1, 1, (trials, k))
    r = rng.uniform(1, 150, (trials, k))
    got = kernels.interference_sums(theta, r, n_ant, cfg.wavelength)
    want = np.zeros_like(got)
    for t in range(trials):
        for i in range(k):
            for j in range(k):
                if i != j:
                    want[t, i] += fresnel_phase_gain(cfg, theta[t, j], r[t, j],
                                                     theta[t, i], r[t, i])
    assert np.max(np.abs(got - want)) < 1e-10


# 256 and 257 antennas walk many blocks of the response recurrence, and 257
# fills its last block only partly.
@pytest.mark.parametrize("n_ant", [16, 256, 257])
def test_interference_sums_bitwise_independent_of_split(n_ant, rng):
    # The simulation splits trials into blocks and threads; wherever a block
    # boundary falls, and for a trial computed on its own, every sum must
    # come out in the same bits. Neither the trial count nor the split is a
    # multiple of the kernel's batch.
    wavelength = ArrayConfig(n_ant, FREQ).wavelength
    theta = rng.uniform(-1, 1, (3 * kernels._TRIALS + 7, 9))
    r = rng.uniform(1, 150, theta.shape)
    split = kernels._TRIALS + 5
    whole = kernels.interference_sums(theta, r, n_ant, wavelength)
    parts = [kernels.interference_sums(theta[s], r[s], n_ant, wavelength)
             for s in (slice(None, split), slice(split, None))]
    assert np.array_equal(np.concatenate(parts), whole)
    for t in (0, split - 1, split, theta.shape[0] - 1):
        alone = kernels.interference_sums(theta[t:t + 1], r[t:t + 1], n_ant, wavelength)
        assert np.array_equal(alone[0], whole[t]), t
    lone = kernels.interference_sums(theta[:, :1], r[:, :1], n_ant, wavelength)
    assert np.array_equal(lone, np.zeros((theta.shape[0], 1)))


def test_cf_reduce_matches_dense_product(rng):
    g = rng.uniform(0, 1, 2000)
    w = rng.dirichlet(np.ones(2000))
    t = rng.uniform(0, 500, 300)
    got = kernels.cf_reduce(g, w, t)
    assert np.max(np.abs(got - np.exp(1j * np.outer(t, g)) @ w)) < 1e-11
    assert np.all(np.abs(got) <= 1.0 + 1e-12)


def test_kernel_impl():
    assert nfsg.KERNEL_IMPL == "numpy"
