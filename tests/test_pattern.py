import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfsg import (ArrayConfig, BeamDepthInterval, DomainError, InvalidArgumentError,
                  MlapConfig, PolarPoint, angular_gain, array_response, asymptotic_gain,
                  beam_depth, distance_gain, exact_gain, ff_gain, m_star,
                  mlap_gain, mlap_levels, solve_beta_gamma)
from nfsg.pattern import three_level_distance_gain

CFG = ArrayConfig(n_antennas=256, carrier_freq=28e9)
CFG_ODD = ArrayConfig(n_antennas=13, carrier_freq=28e9)
MLAP = MlapConfig(n_levels=10, beta_gamma=1.3)


def _rand_points(rng, n, r_lo=1.0, r_hi=150.0):
    theta = rng.uniform(-math.pi / 3, math.pi / 3, n)
    r = rng.uniform(r_lo, r_hi, n)
    return theta, r


class TestArrayConfig:
    def test_derived(self):
        assert CFG.wavelength == pytest.approx(0.010707, abs=1e-6)
        assert CFG.spacing == CFG.wavelength / 2
        assert CFG.aperture == pytest.approx(255 * CFG.spacing)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ArrayConfig(2, 28e9)
        with pytest.raises(InvalidArgumentError):
            ArrayConfig(16, 0.0)

    def test_even_offsets_symmetric(self):
        off = CFG.element_offsets
        assert off.size == 256
        assert np.allclose(off + off[::-1], 0.0)


class TestArrayResponse:
    def test_unit_norm(self):
        a = array_response(CFG, PolarPoint(0.3, 25.0))
        assert abs(np.vdot(a, a).real - 1.0) < 1e-12

    def test_self_inner_product(self):
        a = array_response(CFG_ODD, PolarPoint(-0.7, 3.0))
        assert abs(abs(np.vdot(a, a)) - 1.0) < 1e-12

    def test_far_field_phase_limit(self):
        r = 1e6 * CFG.rayleigh_distance
        theta = 0.4
        a = array_response(CFG, PolarPoint(theta, r))
        n = CFG.element_offsets
        ff_phase = (2 * math.pi / CFG.wavelength) * n * CFG.spacing * math.sin(theta)
        diff = np.angle(a * math.sqrt(CFG.n_antennas) * np.exp(-1j * ff_phase))
        assert np.max(np.abs(diff)) < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            array_response(CFG, PolarPoint(0.0, 0.0))


class TestExactGain:
    def test_peak(self):
        p = PolarPoint(0.21, 30.0)
        assert abs(exact_gain(CFG, p.theta, p.r, p) - 1.0) < 1e-12

    def test_symmetry(self, rng):
        ta, ra = _rand_points(rng, 100)
        tb, rb = _rand_points(rng, 100)
        for i in range(100):
            a = PolarPoint(ta[i], ra[i])
            b = PolarPoint(tb[i], rb[i])
            assert abs(exact_gain(CFG, a.theta, a.r, b)
                       - exact_gain(CFG, b.theta, b.r, a)) < 1e-12

    def test_matches_raw_inner_product(self, rng):
        # oracle: |a^H(obs) a(focal)|^2 from exact element distances
        lo = CFG_ODD.fresnel_distance
        for _ in range(20):
            obs = PolarPoint(rng.uniform(-1, 1), rng.uniform(lo, 40 * lo))
            foc = PolarPoint(rng.uniform(-1, 1), rng.uniform(lo, 40 * lo))
            raw = abs(np.vdot(array_response(CFG_ODD, obs),
                              array_response(CFG_ODD, foc))) ** 2
            assert abs(exact_gain(CFG_ODD, obs.theta, obs.r, foc) - raw) < 2e-2

    def test_far_field_degeneration(self, rng):
        r_lo = 100.0 * CFG.rayleigh_distance
        for _ in range(50):
            obs = PolarPoint(rng.uniform(-1, 1), rng.uniform(r_lo, 10 * r_lo))
            foc = PolarPoint(rng.uniform(-1, 1), rng.uniform(r_lo, 10 * r_lo))
            assert abs(exact_gain(CFG, obs.theta, obs.r, foc)
                       - ff_gain(CFG, obs.theta, foc.theta)) < 1e-3

    def test_focal_angle_cut_matches_distance_profile(self, rng):
        # the Fresnel-sum and Fresnel-integral forms describe the same cut
        lo = CFG.fresnel_distance
        hi = 10.0 * CFG.rayleigh_distance
        for _ in range(40):
            theta = rng.uniform(-1.0, 1.0)
            r_f = rng.uniform(lo, hi)
            r_o = rng.uniform(lo, hi)
            g_sum = exact_gain(CFG, theta, r_o, PolarPoint(theta, r_f))
            g_int = distance_gain(CFG, theta, r_f, r_o)
            assert abs(g_sum - g_int) < 5e-2

    @settings(max_examples=60, deadline=None)
    @given(ta=st.floats(-1.0, 1.0), ra=st.floats(0.5, 1e5),
           tb=st.floats(-1.0, 1.0), rb=st.floats(0.5, 1e5))
    def test_range(self, ta, ra, tb, rb):
        g = exact_gain(CFG, ta, ra, PolarPoint(tb, rb))
        assert 0.0 <= g <= 1.0 + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            exact_gain(CFG, 0.0, -1.0, PolarPoint(0.0, 10.0))

    @pytest.mark.parametrize("bad_r", [0.0, -5.0])
    def test_domain_in_array(self, bad_r):
        # one bad distance anywhere in an array argument rejects the call
        r = np.array([10.0, bad_r, 20.0])
        with pytest.raises(DomainError):
            exact_gain(CFG, np.zeros(3), r, PolarPoint(0.0, 10.0))
        with pytest.raises(DomainError):
            exact_gain(CFG, np.zeros(3), np.full(3, 10.0), PolarPoint(0.0, bad_r))

    def test_array_and_scalar_forms(self, rng):
        theta, r = _rand_points(rng, 8)
        f = PolarPoint(0.3, 20.0)
        g = exact_gain(CFG, theta, r, f)
        assert g.shape == (8,)
        assert isinstance(exact_gain(CFG, theta[0], r[0], f), float)
        assert exact_gain(CFG, theta[0], r[0], f) == g[0]


class TestFFGain:
    def test_boresight(self):
        assert ff_gain(CFG, 0.37, 0.37) == 1.0

    def test_first_null(self):
        # first null at sin-offset 2/N
        theta = math.asin(2.0 / CFG.n_antennas)
        assert ff_gain(CFG, 0.0, theta) < 1e-12

    def test_odd_grating_value(self):
        # odd N at unit sin-offset: |sin(pi N/2)/(N sin(pi/2))|^2 = 1/N^2
        n = CFG_ODD.n_antennas
        g = ff_gain(CFG_ODD, 0.0, math.pi / 2)
        assert g == pytest.approx(1.0 / n**2, rel=1e-9)

    def test_equals_angular_gain(self, rng):
        for _ in range(100):
            t1, t2 = rng.uniform(-1.2, 1.2, 2)
            phi = 0.5 * (math.sin(t1) - math.sin(t2))
            assert abs(ff_gain(CFG, t1, t2)
                       - angular_gain(CFG.n_antennas, phi)) < 1e-12


class TestAngularGain:
    def test_peak(self):
        assert angular_gain(256, 0.0) == 1.0

    @pytest.mark.parametrize("m", [1, 3, 17, 100])
    def test_nulls(self, m):
        assert angular_gain(256, m / 256.0) < 1e-20

    def test_integer_phi_removable(self):
        assert angular_gain(256, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_vector(self):
        phi = np.linspace(-0.2, 0.2, 1001)
        g = angular_gain(101, phi)
        assert g.shape == phi.shape
        assert np.all((g >= 0) & (g <= 1 + 1e-12))


class TestDistanceGain:
    def test_focal_match(self):
        assert distance_gain(CFG, 0.0, 30.0, 30.0) == pytest.approx(1.0)

    def test_minus_three_db_anchor(self):
        # put the observer where the mismatch argument equals 1.3
        a = CFG.n_antennas**2 * CFG.spacing**2 / (2 * CFG.wavelength)
        r_obs = 1.0 / (1.0 / 30.0 - 1.3**2 / a)
        g = distance_gain(CFG, 0.0, 30.0, r_obs)
        assert 0.47 <= g <= 0.53

    def test_limit_is_asymptotic_gain(self):
        g_inf = distance_gain(CFG, 0.0, 30.0, 1e9)
        assert abs(g_inf - asymptotic_gain(CFG, 0.0, 30.0)) < 1e-6

    def test_asymptotic_range(self, rng):
        for _ in range(50):
            t = rng.uniform(-1.0, 1.0)
            r = rng.uniform(0.5, 1e4)
            g = asymptotic_gain(CFG, t, r)
            assert 0.0 < g <= 1.0

    def test_asymptotic_far_focus(self):
        assert asymptotic_gain(CFG, 0.0, 1e9) == pytest.approx(1.0, abs=1e-6)


class TestBeamDepth:
    def test_reference_geometry(self):
        # frozen from the gamma-crossing oracle: endpoints are exact -3 dB
        # crossings of the distance profile
        bd = beam_depth(CFG, 0.0, 30.0, 1.3)
        assert bd.focal_limit == pytest.approx(51.8998, abs=1e-3)
        assert bd.d_left == pytest.approx(19.0110, abs=1e-3)
        assert bd.d_right == pytest.approx(71.0962, abs=1e-3)

    def test_endpoints_hit_gamma_level(self, rng):
        from nfsg import fresnel_integrals
        c, s = fresnel_integrals(1.3)
        target = (c * c + s * s) / 1.3**2

        def left_crossing(theta, r_f):
            # bisection on the rising flank of the distance profile
            lo, hi = r_f * 1e-3, r_f
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if distance_gain(CFG, theta, r_f, mid) > target:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        for _ in range(25):
            theta = rng.uniform(-1.0, 1.0)
            r_f = rng.uniform(2.0, 40.0)
            bd = beam_depth(CFG, theta, r_f, 1.3)
            if bd.unbounded:
                continue
            for edge in (bd.d_left, bd.d_right):
                g = distance_gain(CFG, theta, r_f, edge)
                assert abs(g - target) < 1e-6
            assert left_crossing(theta, r_f) == pytest.approx(bd.d_left, rel=1e-6)

    def test_unbounded_iff_beyond_limit(self):
        bd = beam_depth(CFG, 0.0, 10.0, 1.3)
        assert not bd.unbounded
        far = beam_depth(CFG, 0.0, bd.focal_limit * 1.01, 1.3)
        assert far.unbounded
        assert far.d_right == math.inf
        assert far.depth == math.inf

    def test_left_below_focal(self, rng):
        for _ in range(20):
            r = rng.uniform(1.0, 200.0)
            bd = beam_depth(CFG, 0.0, r, 1.3)
            assert 0.0 < bd.d_left < r
            assert bd.unbounded or bd.d_right > r


# the distance-cut laws as fn(theta_focal, r_focal, r_obs), and whether they
# read r_obs
_FOCAL_LAWS = {
    "asymptotic_gain": (lambda t, rf, ro: asymptotic_gain(CFG, t, rf), False),
    "beam_depth": (lambda t, rf, ro: beam_depth(CFG, t, rf, 1.3), False),
    "distance_gain": (lambda t, rf, ro: distance_gain(CFG, t, rf, ro), True),
    "three_level_distance_gain": (
        lambda t, rf, ro: three_level_distance_gain(CFG, t, rf, ro, 1.3), True),
}


@pytest.mark.parametrize("law", list(_FOCAL_LAWS))
def test_focal_laws_array_and_scalar_forms(law, rng):
    fn, reads_r_obs = _FOCAL_LAWS[law]

    def fields(out):
        # beam_depth's three edges, or the gain
        if isinstance(out, BeamDepthInterval):
            return [out.d_left, out.d_right, out.focal_limit]
        return [out]

    # the last focal point lies beyond its focal limit: its depth is unbounded
    theta, r_f = _rand_points(rng, 12, r_hi=60.0)
    theta = np.append(theta, 0.2)
    r_f = np.append(r_f, 1.5 * beam_depth(CFG, 0.2, 1.0, 1.3).focal_limit)
    r_o = rng.uniform(1.0, 150.0, theta.size)
    arrays = fields(fn(theta, r_f, r_o))
    scalars = [fields(fn(float(t), float(rf), float(ro)))
               for t, rf, ro in zip(theta, r_f, r_o)]
    for k, a in enumerate(arrays):
        assert a.shape == theta.shape
        assert all(isinstance(s[k], float) for s in scalars)
        assert np.array([s[k] for s in scalars]).tobytes() == a.tobytes()
    if law == "beam_depth":
        assert arrays[1][-1] == math.inf and scalars[-1][1] == math.inf
        assert np.isfinite(arrays[1]).any()
    for bad in (0.0, -3.0):
        with pytest.raises(DomainError):
            fn(theta, np.where(np.arange(theta.size) == 4, bad, r_f), r_o)
        if reads_r_obs:
            with pytest.raises(DomainError):
                fn(theta, r_f, np.where(np.arange(theta.size) == 4, bad, r_o))


class TestSolveBetaGamma:
    def test_round_trips_reference_level(self):
        # G_D(1.3) = 0.5200 is -2.8399 dB; the solver must return ~1.3
        beta = solve_beta_gamma(-2.8399)
        assert beta == pytest.approx(1.3, abs=2e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_beta_gamma(0.5)


class TestThreeLevelDiagnostic:
    def test_branches(self):
        bd = beam_depth(CFG, 0.0, 30.0, 1.3)
        assert three_level_distance_gain(CFG, 0.0, 30.0, 30.0, 1.3) == 1.0
        beyond = three_level_distance_gain(CFG, 0.0, 30.0, bd.d_right * 2, 1.3)
        assert beyond == pytest.approx(asymptotic_gain(CFG, 0.0, 30.0))
        assert three_level_distance_gain(CFG, 0.0, 30.0, bd.d_left / 2, 1.3) == 0.0


class TestMlapLevels:
    def test_mainlobe_level(self):
        lv = mlap_levels(CFG, MLAP, PolarPoint(0.0, 30.0))
        assert lv.gains[1] == pytest.approx(0.5 / math.sqrt(2), abs=1e-12)

    def test_zero_tail(self):
        lv = mlap_levels(CFG, MLAP, PolarPoint(0.0, 30.0))
        assert lv.gains[-1] == 0.0
        assert len(lv.gains) == MLAP.n_levels + 2

    def test_second_level_from_angular_oracle(self):
        lv = mlap_levels(CFG, MLAP, PolarPoint(0.0, 30.0))
        ref = (1 / math.sqrt(2) / 2) * angular_gain(256, 3.0 / 512.0)
        assert lv.gains[2] == pytest.approx(ref, rel=1e-12)

    def test_strictly_decreasing_sidelobes(self):
        lv = mlap_levels(CFG, MLAP, PolarPoint(0.3, 80.0))
        side = lv.gains[2:-1]
        assert all(a > b for a, b in zip(side, side[1:]))

    def test_floor_scales_level_zero(self):
        f = PolarPoint(0.1, 55.0)
        lv = mlap_levels(CFG, MLAP, f)
        assert lv.gains[0] == pytest.approx(
            lv.gains[1] * asymptotic_gain(CFG, f.theta, f.r), rel=1e-12)

    def test_level_cap(self):
        with pytest.raises(InvalidArgumentError):
            mlap_levels(CFG, MlapConfig(n_levels=200), PolarPoint(0.0, 30.0))


class TestMlapGain:
    def test_focal_point_in_depth(self):
        f = PolarPoint(0.0, 30.0)
        lv = mlap_levels(CFG, MLAP, f)
        assert mlap_gain(CFG, lv, f.theta, f.r) == lv.gains[1]

    def test_outside_band_zero(self):
        f = PolarPoint(0.0, 30.0)
        lv = mlap_levels(CFG, MLAP, f)
        theta = math.asin(2.0 * (MLAP.n_levels + 1) / 256.0)
        assert mlap_gain(CFG, lv, theta, 30.0) == 0.0

    def test_beyond_depth_floor(self):
        f = PolarPoint(0.0, 30.0)
        lv = mlap_levels(CFG, MLAP, f)
        r = lv.depth.d_right * 2
        assert mlap_gain(CFG, lv, 0.0, r) == lv.gains[0]

    def test_below_depth_is_zero(self):
        f = PolarPoint(0.0, 30.0)
        lv = mlap_levels(CFG, MLAP, f)
        assert mlap_gain(CFG, lv, 0.0, lv.depth.d_left / 2) == 0.0

    def test_unbounded_depth_constant_in_r(self):
        f = PolarPoint(0.0, 140.0)
        lv = mlap_levels(CFG, MLAP, f)
        assert lv.depth.unbounded
        r = np.linspace(lv.depth.d_left * 1.01, 150.0, 64)
        g = mlap_gain(CFG, lv, np.zeros(64), r)
        assert np.all(g == g[0])

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(-1.0, 1.0), r=st.floats(0.1, 150.0))
    def test_total(self, t, r):
        f = PolarPoint(0.05, 30.0)
        lv = mlap_levels(CFG, MLAP, f)
        assert mlap_gain(CFG, lv, t, r) in lv.gains


class TestMStar:
    def test_reference_thresholds(self):
        taus = {5: 1, 20: 3, 30: 7, 35: 12}
        for db_val, expect in taus.items():
            out = m_star(CFG, MLAP, 10 ** (db_val / 10))
            assert out.m == expect
            assert not out.saturated

    def test_tiny_threshold(self):
        assert m_star(CFG, MLAP, 1e-9).m == 1

    def test_nondecreasing(self):
        grid = [10 ** (d / 10) for d in np.linspace(0.1, 44.0, 80)]
        ms = [m_star(CFG, MLAP, t).m for t in grid]
        assert all(a <= b for a, b in zip(ms, ms[1:]))

    def test_saturation(self):
        small = ArrayConfig(n_antennas=9, carrier_freq=28e9)
        out = m_star(small, MlapConfig(n_levels=4), 1e12)
        assert out.saturated
        assert out.m == 4  # floor(9/2)

