"""Lattice CP evaluator, coverage probabilities, bounds, SINR mapping."""

import itertools
import math
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (anchor_laws, mlap_interference_on_anchor, mlap_network_interference,
                     table_difference, two_level_sum_cdf)
from nfsg import (ArrayConfig, DegenerateSupportError, DomainError, InvalidArgumentError,
                  MlapConfig, PolarPoint, ScenarioConfig, SectorGeometry, TrialPlan,
                  conditional_cp, conditional_cp_sinr, estimate_ase,
                  estimate_conditional_cp, estimate_network, estimate_overall_cp,
                  level_probabilities, mlap_levels, overall_cp, se_and_ase,
                  sinr_equivalent_threshold, tau_star, thermal_noise_power)
from nfsg.config import EXPERIMENTS
from nfsg.pattern import beam_depth
from nfsg import analysis
from nfsg.analysis import (_BATCH_CELLS, _EXACT_CELLS, _MLAP_CELLS, _SHIFT_ADD_ATOMS,
                           _anchor_nodes, _conditional_cp_bounds, _lattice_cp, _level_laws,
                           _node_cp, _pinned_laws, _side_grid, _step_table)
from nfsg.geometry import (ordered_distance_dist, sample_conditional_arrays,
                           sample_user_arrays)
from nfsg.montecarlo import conditional_interference_samples

ANCHOR = PolarPoint(0.0, 30.0)
# FFT round-off allowed on either side of an exact probability
ROUNDOFF = 1e-12
# 13 antennas and 3 users: the exact location average stays tractable
SMALL = ScenarioConfig(
    array=ArrayConfig(n_antennas=13, carrier_freq=28e9),
    sector=SectorGeometry(3, 30.0, 30.0),
    n_active=3, pathloss_exponent=2.0, tx_power=1.0, noise_power=0.0,
    mlap=MlapConfig(n_levels=3))


def _steps(shift_add_atoms):
    """Lattice steps that shift and add up to shift_add_atoms atoms per row:
    _SHIFT_ADD_ATOMS gives the module's steps, 0 the FFT step for every
    law."""
    return mock.patch.object(analysis, "_SHIFT_ADD_ATOMS", shift_add_atoms)


def _lattice_brackets(vals, probs, counts, kappa, w, shift_add_atoms=_SHIFT_ADD_ATOMS):
    """Lattice bounds on P{X_1 + ... + X_counts <= w} for i.i.d. X with
    support vals, split into kappa-1 inner and counts-kappa+1 outer copies,
    against the exact staircase CDF. shift_add_atoms = 0 takes the FFT
    step."""
    xs, cdf = two_level_sum_cdf(vals, probs, counts)
    exact = float(np.concatenate([[0.0], cdf])[np.searchsorted(xs, w, side="right")])
    law = vals, probs
    with _steps(shift_add_atoms):
        lower, upper = _lattice_cp(w, law, law, counts + 1, _MLAP_CELLS)
    return float(lower[0, kappa - 1]), exact, float(upper[0, kappa - 1])


def _law_rows(atoms, thr):
    """(gains, probs), each (rows, m), from one list of (gain share of thr,
    weight) atoms per row, an atom at gain 0 first; short rows are padded
    with massless atoms."""
    m = 1 + max(len(a) for a in atoms)
    gains, probs = np.zeros((len(atoms), m)), np.zeros((len(atoms), m))
    for i, row in enumerate(atoms):
        gains[i, 1:len(row) + 1] = [share * thr for share, _ in row]
        weights = np.array([1.0] + [wt for _, wt in row])
        probs[i, :len(row) + 1] = weights / weights.sum()
    return gains, probs


# gain shares of thr: exactly at thr, above it, in the top cell (cell L
# rounded up, L-1 rounded down) and anywhere on (0, 1]
_SHARE = st.sampled_from([1.0, 1.5, 1.0 - 0.3 / _MLAP_CELLS]) | st.floats(1e-6, 1.0)
_ATOM = st.tuples(_SHARE, st.floats(0.01, 1.0))
_ROWS = st.lists(st.lists(_ATOM, min_size=1, max_size=10), min_size=1, max_size=3)


class TestSyntheticInversion:
    def test_two_level_sum_cdf(self):
        # I = X1 + X2, X in {0, a, b}: the lattice bounds must bracket the
        # exact staircase CDF, through both convolution steps
        a, b = 0.35, 0.8
        probs = np.array([0.55, 0.3, 0.15])
        vals = np.array([0.0, a, b])
        for w in (0.19, 0.5, 0.71, 1.0, 1.4):
            for atoms in (_SHIFT_ADD_ATOMS, 0):
                lower, exact, upper = _lattice_brackets(vals, probs, 2, 2, w, atoms)
                assert lower - ROUNDOFF <= exact <= upper + ROUNDOFF

    @settings(max_examples=60, deadline=None)
    @given(vals=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           counts=st.integers(1, 5), kappa_share=st.floats(0.0, 1.0),
           w=st.floats(0.01, 3.0))
    def test_random_sums_bracketed(self, vals, weights, counts, kappa_share, w):
        vals = np.array(vals)
        probs = np.array(weights[:vals.size]) / sum(weights[:vals.size])
        xs, _ = two_level_sum_cdf(vals, probs, counts)
        assume(np.min(np.abs(xs - w)) > 1e-9)  # continuity points only
        kappa = 1 + round(kappa_share * counts)
        for atoms in (_SHIFT_ADD_ATOMS, 0):
            lower, exact, upper = _lattice_brackets(vals, probs, counts, kappa, w,
                                                    atoms)
            assert lower - ROUNDOFF <= exact <= upper + ROUNDOFF

    @settings(max_examples=40, deadline=None)
    @given(inner=_ROWS, outer=_ROWS, n_active=st.integers(2, 8),
           thr=st.floats(0.01, 2.0))
    def test_shift_add_matches_fft(self, inner, outer, n_active, thr):
        # the same laws with each gain-0 mass split over 50 atoms, merged
        # back and taken through the FFT step, must give the bounds of the
        # shift-and-add step at kappa = 1 and n
        rows = min(len(inner), len(outer))
        few = [_law_rows(atoms[:rows], thr) for atoms in (inner, outer)]
        many = [(np.column_stack([np.zeros((rows, 49)), g]),
                 np.column_stack([np.repeat(p[:, :1] / 50, 50, axis=1), p[:, 1:]]))
                for g, p in few]

        def kept(laws):
            return max(np.count_nonzero((g <= thr) & (p > 0), axis=1).max()
                       for g, p in laws)
        assert kept(few) <= _SHIFT_ADD_ATOMS < kept(many)
        orders = [0, n_active - 1]
        with _steps(0):
            fft = _lattice_cp(thr, *many, n_active, _MLAP_CELLS)
        for a, b in zip(_lattice_cp(thr, *few, n_active, _MLAP_CELLS), fft):
            assert np.all(np.abs(a[:, orders] - b[:, orders]) <= ROUNDOFF)

    @pytest.mark.parametrize("shift_add_atoms", [_SHIFT_ADD_ATOMS, 0],
                             ids=["shift_add", "fft"])
    def test_split_atom_changes_no_bound(self, shift_add_atoms):
        # atoms that land on one lattice cell become one atom of the step
        # table, so a law with one atom split into two at the same gain
        # gives the bounds of the unsplit law
        law = np.array([0.0, 0.12, 0.3, 0.55]), np.array([0.4, 0.3, 0.2, 0.1])
        split = np.array([0.0, 0.12, 0.3, 0.3, 0.55]), np.array([0.4, 0.3, 0.15, 0.05, 0.1])
        # in the rows of both bounds
        assert np.array_equal(_step_table(0.9, *split, _MLAP_CELLS)[2],
                              _step_table(0.9, *law, _MLAP_CELLS)[2])
        orders = [0, 2, 5]
        with _steps(shift_add_atoms):
            bounds = [_lattice_cp(0.9, x, x, 6, _MLAP_CELLS) for x in (law, split)]
        for a, b in zip(*bounds):
            assert np.all(np.abs(a[:, orders] - b[:, orders]) <= ROUNDOFF)


def _ladders(delta_terms):
    """Lattice batches that take the difference path up to delta_terms terms
    per step saved: _DELTA_TERMS gives the module's choice, 0 the outer pmf
    walk for every batch."""
    return mock.patch.object(analysis, "_DELTA_TERMS", delta_terms)


def _one_ladder():
    """A spy on the difference path: one call per batch that takes it, its
    rows those of both bounds."""
    return mock.patch.object(analysis, "_difference_cp", wraps=analysis._difference_cp)


@st.composite
def _moved_row(draw, shares=_SHARE, max_atoms=6):
    """One node's (gain shares of thr, inner probs, outer probs), the gain-0
    atom first. The outer law is the inner one with mass moved between at
    most three lattice cells: up to two atoms, anywhere on (0, 1.5], give
    mass to or take it from the gain-0 atom, a share of the giver's mass up
    to all of it. The last atom is the twin of another, on its cell, so a
    move can change a cell that the twin shares with an unmoved atom."""
    gains = [0.0] + draw(st.lists(shares, min_size=1, max_size=max_atoms))
    gains.append(gains[draw(st.integers(1, len(gains) - 1))])
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(gains),
                                     max_size=len(gains))))
    inner = weights / weights.sum()
    outer = inner.copy()
    for i in draw(st.lists(st.integers(1, len(gains) - 1), max_size=2, unique=True)):
        share = draw(st.just(1.0) | st.floats(-1.0, 1.0))
        moved = share * (outer[0] if share > 0 else outer[i])
        outer[i] += moved
        outer[0] -= moved
    return np.array(gains), inner, outer


def _dense(table):
    """A step table's masses on every cell of the quantized laws' lattice,
    one row per law."""
    cells, masses, counts = table[:3]
    out = np.zeros((counts.size, _MLAP_CELLS + 1))
    np.add.at(out, (np.arange(counts.size)[:, None], cells), masses)
    return out


def _assert_difference(thr, inner, outer, n_active):
    # in the rows of both bounds, the difference put on the lattice from the
    # signed masses holds the cell-wise difference of the two sides' step
    # tables
    got = analysis._difference(thr, inner, outer, n_active, _MLAP_CELLS)
    want = table_difference(*(_step_table(thr, *law, _MLAP_CELLS)
                              for law in (inner, outer)), _MLAP_CELLS)
    assert np.max(np.abs(_dense(got) - _dense(want)), initial=0.0) <= 1e-15


class TestDifferencePath:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(_moved_row(), min_size=1, max_size=3), thr=st.floats(0.01, 2.0))
    def test_difference_matches_tables(self, rows, thr):
        gains, p_in, p_out = np.zeros((3, len(rows), max(g.size for g, _, _ in rows)))
        for r, (shares, inner, outer) in enumerate(rows):
            gains[r, :shares.size] = shares * thr
            p_in[r, :shares.size], p_out[r, :shares.size] = inner, outer
        _assert_difference(thr, (gains, p_in), (gains, p_out), 16)

    def test_baseline_difference_matches_tables(self, scn):
        # the mlap location average at every default overall threshold; the
        # exact side grids have gains of their own and get no difference
        laws = anchor_laws(scn, False)
        for db_val in EXPERIMENTS["overall"][0]:
            _assert_difference(10.0 ** (-db_val / 10.0), *laws, scn.n_active)
        exact = anchor_laws(SMALL, True)
        assert analysis._difference(1.0, *exact, SMALL.n_active, _EXACT_CELLS) is None

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(_moved_row(), min_size=1, max_size=3), n_active=st.integers(2, 16),
           thr=st.floats(0.01, 2.0))
    def test_matches_two_ladders(self, rows, n_active, thr):
        # a difference of at most three cells has few enough terms up to 17
        # users, so every batch takes the difference path, however far the
        # moves make its signed terms cancel; both bounds of every order must
        # be those of the outer pmf walk, also relative to a small CP
        gains, p_in, p_out = np.zeros((3, len(rows), max(g.size for g, _, _ in rows)))
        for r, (shares, inner, outer) in enumerate(rows):
            gains[r, :shares.size] = shares * thr
            p_in[r, :shares.size], p_out[r, :shares.size] = inner, outer
        with _one_ladder() as one:
            got = _lattice_cp(thr, (gains, p_in), (gains, p_out), n_active, _MLAP_CELLS)
        assert one.call_count == 1
        with _ladders(0), _one_ladder() as one:
            want = _lattice_cp(thr, (gains, p_in), (gains, p_out), n_active, _MLAP_CELLS)
        assert one.call_count == 0
        for a, b in zip(got, want):
            assert np.all(np.abs(a - b) <= 1e-13)
            assert np.all(np.abs(a - b) <= 1e-11 * np.maximum(np.abs(a), np.abs(b)))

    def test_vanishing_cp_exact(self):
        # the outer law moves all of the inner law's gain-0 mass to 0.6 thr,
        # so with two or more outer interferers CP is exactly 0; the signed
        # terms of those orders cancel to about 1e-25, which the soundness
        # check hands to the outer pmf walk
        law_in = np.array([0.0, 0.6]), np.array([0.02, 0.98])
        law_out = law_in[0], np.array([0.0, 1.0])
        n_active = 8
        with _one_ladder() as one:
            got = _lattice_cp(1.0, law_in, law_out, n_active, _MLAP_CELLS)
        assert one.call_count == 1
        # with one outer interferer every inner one sits on gain 0; with
        # none, at most one of the n_active-1 inner ones is at 0.6
        exact = [0.0] * (n_active - 2) + [0.02 ** 6, 0.02 ** 7 + 7 * 0.98 * 0.02 ** 6]
        for cp in got:
            assert np.all(cp[0, :n_active - 2] == 0.0)
            np.testing.assert_allclose(cp[0], exact, rtol=1e-12, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(row=_moved_row(st.floats(1e-6, 1.0) | st.just(1.5), max_atoms=3),
           n_active=st.integers(2, 6), kappa_share=st.floats(0.0, 1.0),
           thr=st.floats(0.01, 2.0))
    def test_bracketed(self, row, n_active, kappa_share, thr):
        # the difference path's bounds bracket the exact CDF of kappa-1
        # inner and n_active-kappa outer interferers
        shares, inner, outer = row
        kappa = 1 + round(kappa_share * (n_active - 1))
        xs, cdf = two_level_sum_cdf(shares * thr, inner, kappa - 1,
                                    outer=(shares * thr, outer, n_active - kappa))
        assume(np.min(np.abs(xs - thr)) > 1e-9 * thr)  # continuity points only
        exact = float(np.concatenate([[0.0], cdf])[np.searchsorted(xs, thr, side="right")])
        with _one_ladder() as one:
            lower, upper = _lattice_cp(thr, (shares * thr, inner), (shares * thr, outer),
                                       n_active, _MLAP_CELLS)
        assert one.call_count == 1
        assert lower[0, kappa - 1] - ROUNDOFF <= exact <= upper[0, kappa - 1] + ROUNDOFF


class TestLadderChoice:
    def test_baseline_steps_one_ladder(self, scn):
        # every lattice batch of the baseline mlap location average, at every
        # default overall threshold, steps the inner ladder alone: n_active-1
        # steps per batch, its rows those of both bounds. Where every node is
        # covered or frozen (35 and 40 dB) no lattice call is made
        laws = anchor_laws(scn, False)
        batches = skipped = 0
        for db_val in EXPERIMENTS["overall"][0]:
            with mock.patch.object(analysis, "_lattice_cp", wraps=_lattice_cp) as lattice, \
                    mock.patch.object(analysis, "_lattice_step",
                                      wraps=analysis._lattice_step) as step, \
                    _one_ladder() as one:
                _node_cp(10.0 ** (-db_val / 10.0), *laws, scn.n_active, "mlap")
            if lattice.call_count == 0:
                assert step.call_count == one.call_count == 0
                skipped += 1
                continue
            rows = lattice.call_args.args[1][1].shape[0]
            assert rows > 0
            calls = -(-2 * rows // (_BATCH_CELLS // (_MLAP_CELLS + 1)))
            assert one.call_count == calls
            assert step.call_count == calls * (scn.n_active - 1)
            batches += calls
        assert batches > 100 and skipped == 2

    def test_two_ladders(self, scn):
        # laws with gains of their own walk the outer pmf: the exact side
        # grids of the location average and of a pinned user. So does the
        # mlap law pinned on the cell edge, whose outer law sits at gain 0:
        # its difference has too many cells
        exact = anchor_laws(SMALL, True)
        for run, steps in (
                (lambda: _node_cp(1.0, *exact, SMALL.n_active, "exact"), None),
                # a pinned user's two rows, one per bound, make one batch: it
                # steps the inner CDF ladder and the outer pmf to power
                # n_active-1 each
                (lambda: _conditional_cp_bounds(10.0, 0.2, 20.0, 2, SMALL, "exact"),
                 SMALL.n_active - 1),
                (lambda: _conditional_cp_bounds(10.0, 0.1, scn.sector.cell_radius,
                                                scn.n_active, scn, "mlap"), None)):
            with mock.patch.object(analysis, "_lattice_step",
                                   wraps=analysis._lattice_step) as step, \
                    _one_ladder() as one:
                run()
            assert step.call_count > 0 and one.call_count == 0
            # the outer pmf steps in place
            walk = sum(c.args[0] is c.args[3] for c in step.call_args_list)
            assert steps is None or (step.call_count - walk, walk) == (steps, steps)
        # so does a difference with more terms than _DELTA_TERMS per step
        # saved: a difference of three cells has C(n_active+2, 3) terms, 969
        # at 17 users (64 x 16 = 1024) and 1140 at 18 (64 x 17 = 1088)
        law = np.array([0.0, 0.3, 0.5]), np.array([0.5, 0.25, 0.25])
        moved = law[0], np.array([0.49, 0.255, 0.255])
        for n_active, calls in ((17, 1), (18, 0)):
            with _one_ladder() as one:
                _lattice_cp(1.0, law, moved, n_active, _MLAP_CELLS)
            assert one.call_count == calls

    def test_mixed_batch(self):
        # a batch with a row that may take the difference path and one that
        # may not steps the inner CDF ladder for both and walks the outer
        # pmf for the second; each row matches the outer pmf walk
        gains = np.array([0.0, 0.2, 0.35, 0.5, 0.7])
        p_in = np.array([[0.4, 0.2, 0.2, 0.1, 0.1], [0.4, 0.2, 0.2, 0.1, 0.1]])
        p_out = np.array([[0.39, 0.21, 0.2, 0.1, 0.1], [0.1, 0.1, 0.2, 0.2, 0.4]])
        laws = ((np.tile(gains, (2, 1)), p_in), (np.tile(gains, (2, 1)), p_out))
        n_active = 6
        with _one_ladder() as one, mock.patch.object(
                analysis, "_lattice_step", wraps=analysis._lattice_step) as step:
            got = _lattice_cp(1.0, *laws, n_active, _MLAP_CELLS)
        # one batch of both bounds' rows: n_active-1 inner CDF steps and
        # n_active-1 outer pmf steps
        assert one.call_count == 1
        assert step.call_count == 2 * (n_active - 1)
        with _ladders(0):
            want = _lattice_cp(1.0, *laws, n_active, _MLAP_CELLS)
        for a, b in zip(got, want):
            assert np.all(np.abs(a - b) <= 1e-13)

    def test_binomials_past_doubles(self):
        # C(n_active-1, k) passes the largest double from 1031 users, so a
        # row whose one-cell difference would take the path there walks the
        # outer pmf instead; either way it matches the outer pmf walk
        gains = np.array([0.0, 0.01, 2.0])
        law = gains, np.array([0.949, 0.05, 0.001])
        moved = gains, np.array([0.949, 0.0501, 0.0009])
        for n_active, calls in ((1030, 1), (1100, 0)):
            orders = [0, n_active // 2 - 1, n_active - 1]
            with _one_ladder() as one:
                got = _lattice_cp(1.0, law, moved, n_active, _MLAP_CELLS)
            assert one.call_count == calls
            with _ladders(0):
                want = _lattice_cp(1.0, law, moved, n_active, _MLAP_CELLS)
            for a, b in zip(got, want):
                a, b = a[:, orders], b[:, orders]
                assert np.all(a > 0.1)
                assert np.all(np.abs(a - b) <= 1e-11 * b)


_FAULTS_SCRIPT = """
import resource, sys
sys.path[:0] = sys.argv[1:]
from helpers import anchor_laws
from nfsg import analysis, default_scenario
scn = default_scenario()
laws = anchor_laws(scn, False)
args = (10.0 ** -1.5, *laws, scn.n_active, "mlap")
analysis._node_cp(*args)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
analysis._node_cp(*args)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_location_average_reuses_its_memory():
    # The mlap location average of the baseline scenario at 15 dB, every
    # user order. A CDF ladder of about 1 MB taken afresh for every
    # batch and bound made the allocator hand it back and fault it in
    # again: 16,592 minor faults for this call, against about 250 with one
    # ladder per call. With one ladder, four step tables and one window
    # buffer per call it took about 230 when the buffer held two lattice
    # widths per row and about 255 when it held three. With two step tables,
    # each holding both bounds, it takes about 253, against 241 with one
    # table per side and bound on the same lattice. A fresh interpreter
    # keeps other tests' allocations out of the count.
    src = str(Path(analysis.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, src, tests],
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(proc.stdout) < 2000


class TestConditionalCp:
    def test_no_interferers(self, scn):
        single = scn.with_(n_active=1)
        assert conditional_cp(5.0, 0.0, 30.0, 1, single, "mlap") == 1.0
        assert conditional_cp(5.0, 0.0, 30.0, 1, single, "exact") == 1.0
        assert conditional_cp(5.0, 0.0, 30.0, 1, single, "upper") == 1.0
        # a lone user is still checked like any other
        with pytest.raises(DomainError):
            conditional_cp(5.0, 2.0, 30.0, 1, single, "mlap")
        with pytest.raises(DomainError):
            conditional_cp(5.0, 2.0, 30.0, 1, single, "upper")
        with pytest.raises(InvalidArgumentError):
            conditional_cp(5.0, 0.0, 30.0, 1, single, "bogus")

    def test_tau_positive(self, scn):
        with pytest.raises(DomainError):
            conditional_cp(0.0, 0.0, 30.0, 3, scn)

    @pytest.mark.parametrize("mode", ["exact", "mlap", "upper"])
    def test_empty_support_rejected(self, scn, mode):
        # a side that holds an interferer needs room for it: nothing lies
        # beyond the cell edge or inside r_k = 0, in every route
        four = scn.with_(n_active=4)
        rc = four.sector.cell_radius
        for kappa in (1, 2, 3):
            with pytest.raises(DegenerateSupportError):
                conditional_cp(10.0, 0.0, rc, kappa, four, mode)
        for kappa in (2, 3, 4):
            with pytest.raises(DegenerateSupportError):
                conditional_cp(10.0, 0.0, 0.0, kappa, four, mode)
        # the first user at r_k = 0 has only outer interferers, but a beam
        # focused on the array has no beam depth
        with pytest.raises(DomainError):
            conditional_cp(10.0, 0.0, 0.0, 1, four, mode)

    def test_monotone_in_tau(self, scn):
        taus = [10 ** (d / 10) for d in (0, 5, 10, 15, 20, 25, 30)]
        cps = [conditional_cp(t, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
               for t in taus]
        assert all(a >= b - 1e-9 for a, b in zip(cps, cps[1:]))

    def test_plateau_value(self, scn):
        # above tau* only the all-zero-interference event survives
        from nfsg import level_probabilities
        levels = mlap_levels(scn.array, scn.mlap, ANCHOR)
        p_in, p_out = level_probabilities(ANCHOR.theta, ANCHOR.r, 3, scn)
        ts = tau_star(levels)
        plateau = p_in[-1] ** 2 * p_out[-1] ** 12
        for factor in (1.5, 3.0, 10.0):
            cp = conditional_cp(ts * factor, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
            assert abs(cp - plateau) < 1e-5

    def test_upper_bound_ordering(self, scn, rng):
        for _ in range(15):
            theta = rng.uniform(-1.0, 1.0)
            r = rng.uniform(5.0, 145.0)
            kappa = int(rng.integers(1, scn.n_active + 1))
            tau = 10 ** (rng.uniform(0, 36) / 10)
            mlap = conditional_cp(tau, theta, r, kappa, scn, "mlap")
            upper = conditional_cp(tau, theta, r, kappa, scn, "upper")
            assert mlap <= upper + 1e-3

    def test_upper_equals_plateau_beyond_tau_star(self, scn):
        levels = mlap_levels(scn.array, scn.mlap, ANCHOR)
        ts = tau_star(levels)
        for factor in (1.5, 4.0):
            up = conditional_cp(ts * factor, ANCHOR.theta, ANCHOR.r, 3, scn, "upper")
            cp = conditional_cp(ts * factor, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
            assert abs(up - cp) < 1e-5

    def test_upper_all_levels_pass(self, scn):
        levels = mlap_levels(scn.array, scn.mlap, ANCHOR)
        tau = 0.9 / max(levels.gains)
        assert conditional_cp(tau, ANCHOR.theta, ANCHOR.r, 3, scn, "upper") == 1.0

    @pytest.mark.parametrize("theta, r, kappa", [(0.0, 30.0, 1), (0.4, 70.0, 8),
                                                 (-0.2, 150.0, 15)])
    def test_upper_mode_is_closed_form(self, scn, theta, r, kappa):
        # (sum p_in [g < 1/tau])^(kappa-1) (sum p_out [g < 1/tau])^(n-kappa),
        # at kappa = 1, an interior kappa and on the cell edge
        assert scn.sector.cell_radius == 150.0 and scn.n_active == 15
        g = np.asarray(mlap_levels(scn.array, scn.mlap, PolarPoint(theta, r)).gains)
        p_in, p_out = level_probabilities(theta, r, kappa, scn)
        for db_val in (0.0, 12.0, 25.0, 40.0):
            tau = 10 ** (db_val / 10)
            below = g < 1.0 / tau
            closed = (p_in[below].sum() ** (kappa - 1)
                      * p_out[below].sum() ** (scn.n_active - kappa))
            got = conditional_cp(tau, theta, r, kappa, scn, "upper")
            assert abs(got - closed) <= 1e-12

    def test_exact_against_sampling(self, scn):
        plan = TrialPlan(n_trials=30_000, root_seed=31, scenario=scn)
        # the last user on the cell edge has no outer interferer, and its
        # exact law takes no outer grid
        for kappa, anchor in ((3, ANCHOR), (scn.n_active, PolarPoint(0.2, 150.0))):
            interference = conditional_interference_samples(plan, kappa, anchor)
            for db_val in (5.0, 15.0):
                tau = 10 ** (db_val / 10)
                mc = float((interference < 1.0 / tau).mean())
                cp = conditional_cp(tau, anchor.theta, anchor.r, kappa, scn, "exact")
                assert abs(cp - mc) < 0.02, (kappa, db_val, cp, mc)

    def test_exact_lower_bound_wherever_the_inner_mass_lies(self):
        # the inner side grid puts the mass inside r_k sqrt(_INNER_MASS_TOL)
        # into its gain-0 bin. Moved above thr, where it uncovers the user,
        # that mass gives the least lattice lower bound that the grid allows,
        # and the route's own lower bound must not exceed it, at every order
        g, w = _side_grid(SMALL.array, SMALL.sector, SMALL.mlap, "inner", 0.2, 20.0)
        outer = [a[None] for a in _side_grid(SMALL.array, SMALL.sector, SMALL.mlap,
                                             "outer", 0.2, 20.0)]
        tol = analysis._INNER_MASS_TOL
        assert g[0] <= analysis._CLUSTER_ABS and w[0] > tol
        for db_val in (0.0, 10.0, 20.0):
            thr = 10.0 ** (-db_val / 10.0)
            moved = np.append(g, 2.0 * thr), np.append(w, tol)
            moved[0][0], moved[1][0] = g[0] * w[0] / (w[0] - tol), w[0] - tol
            least, _ = _lattice_cp(thr, [a[None] for a in moved], outer, SMALL.n_active,
                                   _EXACT_CELLS)
            lower, _ = _node_cp(thr, (g[None], w[None]), outer, SMALL.n_active, "exact")
            assert np.all(lower <= least + ROUNDOFF), db_val

    def test_many_users_against_model_sampling(self, scn, rng):
        # n_active = 64: 63 quantized interferer gains per trial, checked with
        # the confidence interval of the exact-route agreement test
        many = scn.with_(n_active=64)
        n = 20_000
        for kappa in (1, 32, 64):
            theta, r = sample_conditional_arrays(kappa, ANCHOR, many.n_active,
                                                 many.sector, n, rng)
            interference = mlap_interference_on_anchor(many, ANCHOR, theta, r, kappa)
            for db_val in (5.0, 15.0, 25.0):
                tau = 10 ** (db_val / 10)
                mc = float((interference < 1.0 / tau).mean())
                se = math.sqrt(max(mc * (1 - mc), 1e-12) / n)
                cp = conditional_cp(tau, ANCHOR.theta, ANCHOR.r, kappa, many, "mlap")
                assert abs(cp - mc) <= 2.576 * se + 5e-4, (kappa, db_val, cp, mc)

    @settings(max_examples=40, deadline=None)
    @given(theta_share=st.floats(-0.99, 0.99), r=st.floats(1.0, 149.0),
           kappa=st.integers(1, 15), db_val=st.floats(0.0, 40.0),
           step_db=st.floats(0.1, 10.0))
    def test_mlap_bounds_across_routes(self, scn, theta_share, r, kappa, db_val,
                                       step_db):
        theta = theta_share * scn.sector.half_width
        tau = 10 ** (db_val / 10)
        lower, upper = _conditional_cp_bounds(tau, theta, r, kappa, scn, "mlap")
        assert 0.0 <= lower <= upper + ROUNDOFF and upper <= 1.0
        mid = conditional_cp(tau, theta, r, kappa, scn, "mlap")
        closed = conditional_cp(tau, theta, r, kappa, scn, "upper")
        assert mid <= closed + 0.5 * (upper - lower) + ROUNDOFF
        larger = 10 ** ((db_val + step_db) / 10)
        lower_next, _ = _conditional_cp_bounds(larger, theta, r, kappa, scn, "mlap")
        assert lower_next <= upper + ROUNDOFF


class TestSinr:
    def test_zero_noise_identity(self, scn):
        assert sinr_equivalent_threshold(7.0, 30.0, scn) == 7.0
        a = conditional_cp(100.0, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
        b = conditional_cp_sinr(100.0, ANCHOR.theta, ANCHOR.r, 3, scn, "mlap")
        assert a == b  # identical code path when noise is zero

    @pytest.mark.parametrize("tau,r_k", [(0.0, 30.0), (-1.0, 30.0), (math.nan, 30.0),
                                         (10.0, 0.0), (10.0, -5.0), (10.0, math.inf),
                                         (10.0, math.nan)])
    def test_arguments_checked(self, scn, tau, r_k):
        with pytest.raises(DomainError):
            sinr_equivalent_threshold(tau, r_k, scn)

    def test_infeasible(self, scn):
        noisy = scn.with_(noise_power=1.0)  # 1 W of noise: budget hopeless
        assert sinr_equivalent_threshold(10.0, 140.0, noisy) == math.inf
        assert conditional_cp_sinr(10.0, 0.0, 140.0, 3, noisy, "mlap") == 0.0

    def test_thermal_model_negligible_at_close_range(self, scn):
        noisy = scn.with_(noise_power=thermal_noise_power(200e6, 10.0))
        for db_val in (10.0, 20.0, 30.0):
            tau = 10 ** (db_val / 10)
            sir = conditional_cp(tau, ANCHOR.theta, ANCHOR.r, 3, noisy, "mlap")
            sinr = conditional_cp_sinr(tau, ANCHOR.theta, ANCHOR.r, 3, noisy, "mlap")
            assert abs(sir - sinr) <= 0.01

    @pytest.mark.parametrize("n_active", [1, 4])
    def test_infinite_threshold(self, n_active):
        # no SIR exceeds +inf, not even a lone user's infinite one, so the
        # conditional CP of every route is 0; the network metrics have no
        # finite rate there, and every entry point of both routes rejects it
        scn = SMALL.with_(n_active=n_active)
        kappa, focus = min(2, n_active), PolarPoint(0.1, 20.0)
        for mode in ("exact", "mlap", "upper"):
            assert conditional_cp(math.inf, focus.theta, focus.r, kappa, scn, mode) == 0.0
        plan = TrialPlan(n_trials=64, root_seed=0, scenario=scn)
        est = estimate_conditional_cp(plan, kappa, focus, [math.inf])
        assert [(e.value, e.std_error) for e in est] == [(0.0, 0.0)]
        network = [lambda m=m: overall_cp(math.inf, kappa, scn, m)
                   for m in ("exact", "mlap", "upper")]
        network += [lambda m=m: se_and_ase(math.inf, scn, m)
                    for m in ("exact", "mlap", "upper")]
        network += [lambda: estimate_network(plan, [10.0, math.inf]),
                    lambda: estimate_overall_cp(plan, [math.inf], kappa),
                    lambda: estimate_ase(plan, [math.inf])]
        for call in network:
            with pytest.raises(DomainError, match="tau must be positive and finite"):
                call()

    def test_infinite_threshold_builds_no_law(self, scn):
        # CP at +inf is 0 once the pinned user passes its checks, without a
        # side grid; the checks still raise their typed errors
        focus = PolarPoint(0.2, 40.0)
        calls = _side_grid.cache_info()
        assert conditional_cp(math.inf, focus.theta, focus.r, 3, scn, "exact") == 0.0
        after = _side_grid.cache_info()
        assert (after.hits, after.misses) == (calls.hits, calls.misses)
        with pytest.raises(InvalidArgumentError):
            conditional_cp(math.inf, focus.theta, focus.r, 3, scn, "bogus")
        with pytest.raises(DomainError):
            conditional_cp(math.inf, 2.0, focus.r, 3, scn, "exact")
        for r_k, kappa in ((scn.sector.cell_radius, 3), (0.0, 3)):
            with pytest.raises(DegenerateSupportError):
                conditional_cp(math.inf, focus.theta, r_k, kappa, scn, "exact")
        # a beam focused on the array has no beam depth, whoever the user
        for model in (scn, scn.with_(n_active=1)):
            for mode, tau in itertools.product(("exact", "mlap", "upper"), (10.0, math.inf)):
                with pytest.raises(DomainError, match="no beam depth"):
                    conditional_cp(tau, focus.theta, 0.0, 1, model, mode)


def test_one_step_table_per_side_and_bound(scn, monkeypatch):
    # the location average of the baseline scenario runs its 280 nodes in
    # many lattice batches, all cut from one table per side, which holds
    # both bounds: the inner law's and the difference's, and no other table
    # is alive when either is built
    tables = []
    build = analysis._step_table

    def spy(*args):
        assert sum(ref() is not None for ref in tables) <= 1
        table = build(*args)
        tables.append(weakref.ref(table[0]))
        return table

    monkeypatch.setattr(analysis, "_step_table", spy)
    inner, outer = anchor_laws(scn, False)
    assert inner[0].shape[0] > 2 * (_BATCH_CELLS // (_MLAP_CELLS + 1))
    _node_cp(0.1, inner, outer, scn.n_active, "mlap")
    assert len(tables) == 2


# A lattice fine enough to stand in for the lattice-free CP of the baseline
# mlap location average: at L = 16383 it lies within 2.2e-7 of L = 65535.
_FINE_CELLS = 16383


@pytest.fixture(scope="module")
def fine_nodes(scn):
    """(tau, lower, upper) of every node of the baseline mlap location
    average at each default overall threshold, for every order, on
    _FINE_CELLS cells."""
    laws = anchor_laws(scn, False)
    with mock.patch.object(analysis, "_MLAP_CELLS", _FINE_CELLS):
        return [(tau, *_node_cp(1.0 / tau, *laws, scn.n_active, "mlap"))
                for tau in (10.0 ** (d / 10.0) for d in EXPERIMENTS["overall"][0])]


class TestLatticeSize:
    def test_mlap_overall_near_fine_lattice(self, scn, fine_nodes):
        # overall_cp on the quantized laws' lattice (_MLAP_CELLS) against the
        # fine lattice's node midpoints, weighed as the location average
        # weighs them; at L = 255 the largest gap reads 5.65e-5
        th, w_th, r, w_r = _anchor_nodes(scn.sector)
        kappas = np.arange(1, scn.n_active + 1)
        _, pdf = ordered_distance_dist(kappas[:, None], r, scn.n_active, scn.sector)
        w = w_r * pdf
        w /= w.sum(axis=1, keepdims=True)
        for tau, lower, upper in fine_nodes:
            mid = (0.5 * (lower + upper)).reshape(th.size, r.size, kappas.size)
            fine = np.einsum("i,irk,kr->k", w_th, mid, w)
            got = overall_cp(tau, kappas, scn, "mlap")
            assert np.max(np.abs(got - fine)) <= 6e-5, tau

    def test_mlap_brackets_hold_fine_midpoint(self, scn, fine_nodes):
        # both lattices bracket the lattice-free CP, so every node's bracket
        # on _MLAP_CELLS holds the fine midpoint once widened by the fine
        # half-width; the location average weighs the nodes with positive
        # weights, so every overall row's bracket holds it too
        laws = anchor_laws(scn, False)
        for tau, fine_lower, fine_upper in fine_nodes:
            lower, upper = _node_cp(1.0 / tau, *laws, scn.n_active, "mlap")
            mid, half = 0.5 * (fine_lower + fine_upper), 0.5 * (fine_upper - fine_lower)
            assert np.all(lower - half - ROUNDOFF <= mid), tau
            assert np.all(mid <= upper + half + ROUNDOFF), tau


class TestOverall:
    def test_single_user(self, scn):
        single = scn.with_(n_active=1)
        for mode in ("exact", "mlap", "upper"):
            assert overall_cp(10.0, 1, single, mode) == 1.0
        se, _ = se_and_ase(10.0, single, "mlap")
        assert se.tolist() == [math.log2(11.0)]
        with pytest.raises(InvalidArgumentError):
            overall_cp(5.0, 1, single, "bogus")
        with pytest.raises(InvalidArgumentError):
            se_and_ase(5.0, single, "bogus")

    @pytest.mark.parametrize("mode", ["exact", "mlap", "upper"])
    def test_orders_at_once(self, mode):
        # an array of orders gives, to the last bit, each order's own call
        kappas = np.array([[3, 1], [2, 2]])
        for tau in (0.5, 10.0, 100.0, 1e3):
            cps = overall_cp(tau, kappas, SMALL, mode)
            assert cps.shape == kappas.shape
            one = [[overall_cp(tau, int(k), SMALL, mode) for k in row] for row in kappas]
            assert cps.tolist() == one
            assert all(type(c) is float for row in one for c in row)

    def test_all_orders_at_once(self, scn):
        kappas = np.arange(1, scn.n_active + 1)
        cps = overall_cp(100.0, kappas, scn, "mlap")
        assert cps.tolist() == [overall_cp(100.0, int(k), scn, "mlap") for k in kappas]

    @pytest.mark.parametrize("kappa", [0, 16, 2.5, [], [1, 2.5]])
    def test_orders_checked(self, scn, kappa):
        for model in (scn, scn.with_(n_active=1)):
            with pytest.raises(InvalidArgumentError):
                overall_cp(10.0, kappa, model, "mlap")

    def test_one_order_law_per_threshold(self, scn, monkeypatch):
        # se_and_ase weighs every user order from one call of the law
        calls = []
        law = analysis.ordered_distance_dist
        monkeypatch.setattr(analysis, "ordered_distance_dist",
                            lambda *args: calls.append(args) or law(*args))
        se, _ = se_and_ase(100.0, scn, "upper")
        assert len(calls) == 1 and se.shape == (scn.n_active,)

    def test_monotone_in_tau(self, scn):
        for mode in ("mlap", "upper"):
            cps = [overall_cp(10 ** (d / 10), 3, scn, mode)
                   for d in (5.0, 15.0, 25.0, 35.0)]
            assert all(a >= b - 1e-9 for a, b in zip(cps, cps[1:]))
            assert all(0.0 <= c <= 1.0 for c in cps)

    def test_upper_dominates(self, scn):
        for d in (10.0, 20.0, 30.0):
            tau = 10 ** (d / 10)
            assert overall_cp(tau, 3, scn, "upper") >= \
                overall_cp(tau, 3, scn, "mlap") - 1e-3

    def test_batch_matches_model_sampling(self, scn, rng):
        # oracle: direct simulation of the quantized model over fresh sets
        nt = 30_000
        theta, r = sample_user_arrays(scn.sector, scn.n_active, nt, rng)
        interference = mlap_network_interference(scn, theta, r)
        tau = 100.0
        cps = overall_cp(tau, np.arange(1, scn.n_active + 1), scn, "mlap")
        mc = (interference < 1.0 / tau).mean(axis=0)
        assert np.max(np.abs(cps - mc)) < 0.012

    def test_many_users_bounds_ordered(self, scn):
        many = scn.with_(n_active=64)
        inner, outer = anchor_laws(many, False)
        kappas = np.arange(1, many.n_active + 1)
        for tau in (3.0, 100.0):
            lower, upper = _node_cp(1.0 / tau, inner, outer, many.n_active, "mlap")
            assert np.all(lower >= 0.0) and np.all(upper <= 1.0)
            assert np.all(lower <= upper + ROUNDOFF)
            cps = overall_cp(tau, kappas, many, "mlap")
            assert np.all((cps >= 0.0) & (cps <= 1.0))

    def test_se_and_ase(self, scn):
        tau = 100.0
        se, ase = se_and_ase(tau, scn, "mlap")
        assert se.shape == (scn.n_active,)
        assert np.all(se <= math.log2(1 + tau))
        ref = (scn.sector.n_sectors / (math.pi * scn.sector.cell_radius**2)
               * se.sum())
        assert ase == pytest.approx(ref)

    def test_ase_vanishes_at_tiny_tau(self, scn):
        _, ase = se_and_ase(1e-9, scn, "upper")
        assert ase < 1e-7

    def test_exact_mode_smoke(self):
        # exact overall on a small array stays tractable and agrees with
        # simulation of the same scenario
        cp = overall_cp(3.0, 2, SMALL, "exact")
        plan = TrialPlan(n_trials=200_000, root_seed=41, scenario=SMALL)
        mc = estimate_overall_cp(plan, [3.0], 2)[0]
        assert abs(cp - mc.value) < 0.01

    def test_exact_grids_built_once(self):
        # the node grids depend on neither tau nor the user count, so another
        # threshold or n_active builds none
        overall_cp(3.0, 2, SMALL, "exact")
        misses = _side_grid.cache_info().misses
        overall_cp(10.0, 2, SMALL, "exact")
        overall_cp(3.0, 2, SMALL.with_(n_active=4), "exact")
        assert _side_grid.cache_info().misses == misses

    def test_level_laws_match_mlap_levels(self, scn):
        # the location average builds every node's levels from arrays; they
        # must be mlap_levels' own, bit for bit. The last node sits on the
        # focal limit, where the beam depth becomes unbounded.
        th, _, r, _ = _anchor_nodes(scn.sector)
        limit = beam_depth(scn.array, 0.3, 1.0, scn.mlap.beta_gamma).focal_limit
        theta = np.append(np.repeat(th, r.size), 0.3)
        dist = np.append(np.tile(r, th.size), limit)
        g, _, _ = _level_laws(scn.array, scn.sector, scn.mlap, theta, dist, (True, True))
        depth = beam_depth(scn.array, theta, dist, scn.mlap.beta_gamma)
        levels = [mlap_levels(scn.array, scn.mlap, PolarPoint(t, d))
                  for t, d in zip(theta, dist)]
        assert np.array_equal(g, [lv.gains for lv in levels])
        assert np.array_equal(depth.d_left, [lv.depth.d_left for lv in levels])
        assert np.array_equal(depth.d_right, [lv.depth.d_right for lv in levels])
        assert levels[-1].depth.unbounded and np.isinf(depth.d_right).sum() > 1

    @pytest.mark.parametrize("mode, db_vals", [("exact", (0.0, 20.0, 40.0)),
                                               ("mlap", (0.0, 5.0, 20.0, 30.0))],
                             ids=["exact", "mlap"])
    def test_exact_padding_changes_no_node(self, scn, mode, db_vals):
        # each node's row of the stacked laws gives the bounds of that node
        # run alone, on its own laws: those of a user pinned there with
        # interferers on both sides, one node of the same builder. The exact
        # rows are padded with zero-mass atoms at gain 0; the baseline mlap
        # rows share step tables across many lattice batches, which must
        # hand each row its own atoms.
        model = SMALL if mode == "exact" else scn
        inner, outer = anchor_laws(model, mode == "exact")
        if mode == "exact":
            assert np.any(inner[1] == 0.0) and np.any(outer[1] == 0.0)
        thrs = [10.0 ** (-d / 10.0) for d in db_vals]
        stacked = [_node_cp(thr, inner, outer, model.n_active, mode) for thr in thrs]
        th, _, r, _ = _anchor_nodes(model.sector)
        for row, (t, d) in enumerate((t, d) for t in th for d in r):
            own = _pinned_laws(t, d, 2, model, mode)
            for thr, (lower, upper) in zip(thrs, stacked):
                lo, up = _node_cp(thr, *own, model.n_active, mode)
                assert np.max(np.abs(lower[row] - lo[0])) <= 1e-12
                assert np.max(np.abs(upper[row] - up[0])) <= 1e-12
