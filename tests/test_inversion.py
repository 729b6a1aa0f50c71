"""Lattice CP evaluator, coverage probabilities, bounds, SINR mapping."""

import itertools
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (mlap_interference_on_anchor, mlap_network_interference,
                     two_level_sum_cdf)
from nfsg import (ArrayConfig, DegenerateSupportError, DomainError, InvalidArgumentError,
                  MlapConfig, PolarPoint, ScenarioConfig, SectorGeometry, TrialPlan,
                  conditional_cp, conditional_cp_sinr, estimate_ase,
                  estimate_conditional_cp, estimate_network, estimate_overall_cp,
                  laplace, level_probabilities, mlap_levels, overall_cp,
                  se_and_ase, sinr_equivalent_threshold, tau_star, thermal_noise_power)
from nfsg.pattern import beam_depth
from nfsg import analysis
from nfsg.analysis import (_LATTICE_CELLS, _LATTICE_ROWS, _SHIFT_ADD_ATOMS, _anchor_laws,
                           _anchor_nodes, _batch_law, _conditional_cp_bounds, _lattice_cp,
                           _lattice_step, _level_laws, _node_cp, _overall_cp_batch,
                           _side_grid, _step_table, _windows)
from nfsg.geometry import sample_conditional_arrays, sample_user_arrays
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
        lower, upper = _lattice_cp(w, law, law, counts + 1, [kappa])
    return float(lower[0, 0]), exact, float(upper[0, 0])


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
_ATOM = st.tuples(st.sampled_from([1.0, 1.5, 1.0 - 0.3 / _LATTICE_CELLS])
                  | st.floats(1e-6, 1.0), st.floats(0.01, 1.0))
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
        kappas = [1, n_active]
        with _steps(0):
            fft = _lattice_cp(thr, *many, n_active, kappas)
        for a, b in zip(_lattice_cp(thr, *few, n_active, kappas), fft):
            assert np.all(np.abs(a - b) <= ROUNDOFF)

    @pytest.mark.parametrize("shift_add_atoms", [_SHIFT_ADD_ATOMS, 0],
                             ids=["shift_add", "fft"])
    def test_split_atom_changes_no_bound(self, shift_add_atoms):
        # atoms that land on one lattice cell become one atom of the step
        # table, so a law with one atom split into two at the same gain
        # gives the bounds of the unsplit law
        law = np.array([0.0, 0.12, 0.3, 0.55]), np.array([0.4, 0.3, 0.2, 0.1])
        split = np.array([0.0, 0.12, 0.3, 0.3, 0.55]), np.array([0.4, 0.3, 0.15, 0.05, 0.1])
        for round_up in (True, False):
            assert np.array_equal(_step_table(0.9, *split, round_up)[2],
                                  _step_table(0.9, *law, round_up)[2])
        kappas = [1, 3, 6]
        with _steps(shift_add_atoms):
            bounds = [_lattice_cp(0.9, x, x, 6, kappas) for x in (law, split)]
        for a, b in zip(*bounds):
            assert np.all(np.abs(a - b) <= ROUNDOFF)

    @pytest.mark.parametrize("shift_add_atoms", [_SHIFT_ADD_ATOMS, 0],
                             ids=["shift_add", "fft"])
    def test_reversed_step_is_forward_step_reversed(self, shift_add_atoms, rng):
        # the outer ladder is held reversed: its step must give the forward
        # step's values, bit for bit when it shifts and adds
        gains = rng.uniform(0.0, 1.2, (3, 9))
        probs = rng.uniform(0.0, 1.0, (3, 9))
        a = rng.uniform(0.0, 1.0, (3, _LATTICE_CELLS + 1))
        windows = _windows(3)
        for round_up in (True, False):
            table = _step_table(0.9, gains, probs, round_up)
            with _steps(shift_add_atoms):
                forward, reverse = [
                    _lattice_step(x, _batch_law(table, slice(None), rev), windows)
                    for x, rev in ((a, False), (a[:, ::-1], True))]
            if shift_add_atoms:
                assert np.array_equal(reverse[:, ::-1], forward)
            else:
                assert np.max(np.abs(reverse[:, ::-1] - forward)) <= ROUNDOFF


_FAULTS_SCRIPT = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from nfsg import analysis, default_scenario
scn = default_scenario()
laws = analysis._anchor_laws(scn.array, scn.sector, scn.mlap, False)
args = (10.0 ** -1.5, *laws, scn.n_active, range(1, scn.n_active + 1))
analysis._node_cp(*args)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
analysis._node_cp(*args)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_location_average_reuses_its_memory():
    # The mlap location average of the baseline scenario at 15 dB, every
    # user order. An outer ladder of about 1 MB taken afresh for every
    # batch and bound made the allocator hand it back and fault it in
    # again: 16,592 minor faults for this call, against about 250 with one
    # ladder per call and about 420 with one ladder, one window buffer and
    # four step tables per call. A fresh interpreter keeps other tests'
    # allocations out of the count.
    src = str(Path(analysis.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, src],
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
        with pytest.raises(DegenerateSupportError):
            laplace(0.1, 0.0, rc, 2, four, mode)

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
        interference = conditional_interference_samples(plan, 3, ANCHOR)
        for db_val in (5.0, 15.0):
            tau = 10 ** (db_val / 10)
            mc = float((interference < 1.0 / tau).mean())
            cp = conditional_cp(tau, ANCHOR.theta, ANCHOR.r, 3, scn, "exact")
            assert abs(cp - mc) < 0.02

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
    # many lattice batches, all cut from one table per side and bound
    tables = []
    build = analysis._step_table
    monkeypatch.setattr(analysis, "_step_table",
                        lambda *args: tables.append(args) or build(*args))
    inner, outer = _anchor_laws(scn.array, scn.sector, scn.mlap, False)
    assert inner[0].shape[0] > 2 * _LATTICE_ROWS
    _node_cp(0.1, inner, outer, scn.n_active, range(1, scn.n_active + 1))
    assert len(tables) == 4


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
        cps = _overall_cp_batch(tau, scn, "mlap", range(1, scn.n_active + 1))
        mc = (interference < 1.0 / tau).mean(axis=0)
        assert np.max(np.abs(cps - mc)) < 0.012

    def test_many_users_bounds_ordered(self, scn):
        many = scn.with_(n_active=64)
        inner, outer = _anchor_laws(many.array, many.sector, many.mlap, False)
        kappas = range(1, many.n_active + 1)
        for tau in (3.0, 100.0):
            lower, upper = _node_cp(1.0 / tau, inner, outer, many.n_active, kappas)
            assert np.all(lower >= 0.0) and np.all(upper <= 1.0)
            assert np.all(lower <= upper + ROUNDOFF)
            cps = _overall_cp_batch(tau, many, "mlap", kappas)
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
        g, _, _ = _level_laws(scn.array, scn.sector, scn.mlap, theta, dist)
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
        # run alone. The exact rows are padded with zero-mass atoms at gain
        # 0; the baseline mlap rows share step tables across many lattice
        # batches, which must hand each row its own atoms.
        model = SMALL if mode == "exact" else scn
        inner, outer = _anchor_laws(model.array, model.sector, model.mlap, mode == "exact")
        if mode == "exact":
            assert np.any(inner[1] == 0.0) and np.any(outer[1] == 0.0)
        kappas = range(1, model.n_active + 1)
        thrs = [10.0 ** (-d / 10.0) for d in db_vals]
        stacked = [_node_cp(thr, inner, outer, model.n_active, kappas) for thr in thrs]
        th, _, r, _ = _anchor_nodes(model.sector)
        for row, (t, d) in enumerate((float(t), float(d)) for t in th for d in r):
            if mode == "exact":
                own = [(g[None], w[None]) for g, w in
                       (_side_grid(model.array, model.sector, model.mlap, side, t, d)
                        for side in ("inner", "outer"))]
            else:
                own = [(g[row:row + 1], p[row:row + 1]) for g, p in (inner, outer)]
            for thr, (lower, upper) in zip(thrs, stacked):
                lo, up = _node_cp(thr, *own, model.n_active, kappas)
                assert np.max(np.abs(lower[row] - lo[0])) <= 1e-12
                assert np.max(np.abs(upper[row] - up[0])) <= 1e-12
