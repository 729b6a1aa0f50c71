import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nfsg import (DegenerateSupportError, DomainError, InvalidArgumentError,
                  PolarPoint, SectorGeometry, conditional_distance_dist,
                  ordered_distance_dist, sample_conditional_arrays,
                  sample_user_arrays, spatial_angle_dist, unordered_distance_dist)
from nfsg.geometry import conditional_cdf_extended, spatial_angle_cdf_extended

SECTOR = SectorGeometry(n_sectors=3, cell_radius=150.0, los_radius=150.0)


class TestSectorGeometry:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SectorGeometry(0, 150.0, 150.0)
        with pytest.raises(InvalidArgumentError):
            SectorGeometry(1, 150.0, 150.0)  # one sector spans |theta| > pi/2
        with pytest.raises(InvalidArgumentError):
            SectorGeometry(3, -1.0, 150.0)
        with pytest.raises(InvalidArgumentError):
            SectorGeometry(3, 200.0, 150.0)  # cell larger than LoS ball
        for cell, los in ((150.0, math.nan), (math.nan, 150.0), (math.inf, math.inf)):
            with pytest.raises(InvalidArgumentError):
                SectorGeometry(3, cell, los)
        # an unbounded LoS ball is valid
        assert SectorGeometry(3, 150.0, math.inf).cell_radius == 150.0

    def test_half_width(self):
        assert SECTOR.half_width == pytest.approx(math.pi / 3)
        assert SECTOR.spatial_angle_bound == pytest.approx(0.5 * math.sin(math.pi / 3))


class TestUnorderedDistance:
    def test_full_support(self):
        cdf, _ = unordered_distance_dist(150.0, SECTOR)
        assert cdf == 1.0

    def test_quarter(self):
        cdf, _ = unordered_distance_dist(75.0, SECTOR)
        assert cdf == pytest.approx(0.25)

    def test_pdf_normalized(self):
        total, err = integrate.quad(
            lambda r: unordered_distance_dist(r, SECTOR)[1], 0.0, 150.0)
        assert abs(total - 1.0) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            unordered_distance_dist(151.0, SECTOR)


class TestOrderedDistance:
    def test_single_node_reduces(self):
        r = 60.0
        cdf, pdf = ordered_distance_dist(1, r, 1, SECTOR)
        cdf0, pdf0 = unordered_distance_dist(r, SECTOR)
        assert cdf == pytest.approx(cdf0, abs=1e-14)
        assert pdf == pytest.approx(pdf0, rel=1e-12)

    def test_cell_edge_density(self):
        # the density holds up to both ends of the cell: the farthest of n
        # users has density 2 n/R at R, and any nearer one 0
        r = np.linspace(0.0, 150.0, 31)
        cdf, pdf = ordered_distance_dist(1, r, 1, SECTOR)
        cdf0, pdf0 = unordered_distance_dist(r, SECTOR)
        assert np.allclose(cdf, cdf0, rtol=1e-12, atol=1e-14)
        assert np.allclose(pdf, pdf0, rtol=1e-12, atol=0.0)
        for n in (1, 2, 15):
            assert ordered_distance_dist(n, 150.0, n, SECTOR)[1] == pytest.approx(
                2.0 * n / 150.0, rel=1e-12)
        assert ordered_distance_dist(14, 150.0, 15, SECTOR)[1] == 0.0

    def test_max_order_telescopes(self):
        # the farthest of n nodes has CDF (r^2/R^2)^n
        cdf, _ = ordered_distance_dist(2, 150.0 / math.sqrt(2), 2, SECTOR)
        assert cdf == pytest.approx(0.25, abs=1e-12)

    def test_bad_kappa(self):
        with pytest.raises(InvalidArgumentError):
            ordered_distance_dist(0, 10.0, 5, SECTOR)
        with pytest.raises(InvalidArgumentError):
            ordered_distance_dist(6, 10.0, 5, SECTOR)

    @pytest.mark.parametrize("kappa", [2.5, [], [1, 2.5], [[1], [6]], math.nan])
    def test_bad_kappa_array(self, kappa):
        with pytest.raises(InvalidArgumentError):
            ordered_distance_dist(kappa, 10.0, 5, SECTOR)

    def test_r_outside_cell(self):
        with pytest.raises(DomainError):
            ordered_distance_dist(np.arange(1, 4)[:, None], [10.0, 150.5], 3, SECTOR)

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 82, 200])
    def test_orders_broadcast(self, n):
        # every row of an array of orders is the call with that order alone,
        # to the last bit, and so is every element the call at one distance
        r = np.concatenate([[0.0, 150.0], np.linspace(1.0, 149.0, 23)])
        kappas = np.arange(1, n + 1)
        cdf, pdf = ordered_distance_dist(kappas[:, None], r, n, SECTOR)
        assert cdf.shape == pdf.shape == (n, r.size)
        for k in kappas:
            one_cdf, one_pdf = ordered_distance_dist(int(k), r, n, SECTOR)
            assert one_cdf.tobytes() == cdf[k - 1].tobytes()
            assert one_pdf.tobytes() == pdf[k - 1].tobytes()
        for j in (0, 1, 2, r.size - 1):
            for k in (1, n):
                assert ordered_distance_dist(k, r[j], n, SECTOR) == (cdf[k - 1, j],
                                                                     pdf[k - 1, j])

    @pytest.mark.parametrize("kappa,n", [(1, 15), (3, 15), (8, 15), (15, 15)])
    def test_cdf_shape(self, kappa, n):
        r = np.linspace(0.0, 150.0, 301)
        cdf, pdf = ordered_distance_dist(kappa, r, n, SECTOR)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all(pdf >= 0)

    @pytest.mark.parametrize("kappa,n", [(1, 15), (7, 15), (15, 15), (3, 200)])
    def test_pdf_is_cdf_derivative(self, kappa, n):
        # Richardson-extrapolated central differences; restricted to the grid
        # region where the CDF increment is resolvable in double precision
        r = np.linspace(5.0, 145.0, 57)
        _, pdf = ordered_distance_dist(kappa, r, n, SECTOR)
        mask = pdf > 1e-5

        def diff(h):
            up, _ = ordered_distance_dist(kappa, r + h, n, SECTOR)
            dn, _ = ordered_distance_dist(kappa, r - h, n, SECTOR)
            return (up - dn) / (2 * h)

        num = (4.0 * diff(5e-4) - diff(1e-3)) / 3.0
        rel = np.abs(num[mask] - pdf[mask]) / pdf[mask]
        assert np.max(rel) < 1e-6

    def test_mixture_identity(self):
        # averaging over the order recovers the parent density
        n = 15
        r = np.linspace(1.0, 149.0, 149)
        acc = np.zeros_like(r)
        for kappa in range(1, n + 1):
            acc += ordered_distance_dist(kappa, r, n, SECTOR)[1]
        _, parent = unordered_distance_dist(r, SECTOR)
        assert np.max(np.abs(acc / n - parent)) < 1e-9

    def test_large_count_no_overflow(self):
        cdf, pdf = ordered_distance_dist(5000, 100.0, 10_000, SECTOR)
        assert 0.0 <= cdf <= 1.0
        assert np.isfinite(pdf)

    def test_third_closest_vs_sorted_samples(self, rng):
        n_sets = 200_000
        _, r = sample_user_arrays(SECTOR, 15, n_sets, rng)
        emp = float((r[:, 2] <= 50.0).mean())
        cdf, _ = ordered_distance_dist(3, 50.0, 15, SECTOR)
        assert abs(cdf - emp) < 0.005


@pytest.mark.parametrize("law,args", [
    (unordered_distance_dist, (math.nan, SECTOR)),
    (ordered_distance_dist, (3, math.nan, 15, SECTOR)),
    (ordered_distance_dist, (3, [10.0, math.nan], 15, SECTOR)),
    (conditional_distance_dist, ("inner", math.nan, 100.0, SECTOR)),
    (conditional_distance_dist, ("outer", math.nan, 100.0, SECTOR)),
    (conditional_distance_dist, ("inner", 10.0, math.nan, SECTOR)),
    (spatial_angle_dist, (math.nan, SECTOR)),
    (spatial_angle_dist, ([0.1, math.nan], SECTOR)),
], ids=lambda x: getattr(x, "__name__", ""))
def test_nan_lies_outside_every_support(law, args):
    with pytest.raises(DomainError):
        law(*args)


class TestConditionalDistance:
    @pytest.mark.parametrize("side,r_kappa,error", [
        ("middle", 50.0, InvalidArgumentError),
        ("outer", 150.5, DomainError),
        ("inner", -1.0, DomainError),
    ])
    def test_bad_arguments(self, side, r_kappa, error):
        with pytest.raises(error):
            conditional_distance_dist(side, 10.0, r_kappa, SECTOR)

    def test_inner_ratio(self):
        cdf, _ = conditional_distance_dist("inner", 50.0, 100.0, SECTOR)
        assert cdf == pytest.approx(0.25)

    def test_inner_approaches_one(self):
        cdf, _ = conditional_distance_dist("inner", 100.0 - 1e-9, 100.0, SECTOR)
        assert cdf == pytest.approx(1.0, abs=1e-9)

    def test_outer_at_cell_edge(self):
        cdf, _ = conditional_distance_dist("outer", 150.0, 100.0, SECTOR)
        assert cdf == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            conditional_distance_dist("inner", 100.0, 100.0, SECTOR)
        with pytest.raises(DomainError):
            conditional_distance_dist("outer", 50.0, 100.0, SECTOR)

    def test_degenerate_support(self):
        with pytest.raises(DegenerateSupportError):
            conditional_distance_dist("inner", 0.0, 0.0, SECTOR)
        with pytest.raises(DegenerateSupportError):
            conditional_distance_dist("outer", 150.0, 150.0, SECTOR)

    def test_extended_cdf_clamps(self):
        assert conditional_cdf_extended("inner", 200.0, 100.0, SECTOR) == 1.0
        assert conditional_cdf_extended("outer", 10.0, 100.0, SECTOR) == 0.0

    def test_extended_cdf_in_place(self):
        # the side grids write the CDF over the distances they pass in
        r = np.array([[-1.0, 0.0, 37.5, 99.9], [100.0, 120.0, 150.0, np.inf]])
        inner = (np.clip(r, 0.0, 100.0) / 100.0) ** 2
        outer = (np.clip(r, 100.0, 150.0) ** 2 - 100.0**2) / (150.0**2 - 100.0**2)
        for side, want in (("inner", inner), ("outer", outer)):
            assert np.array_equal(conditional_cdf_extended(side, r, 100.0, SECTOR), want)
            work = r.copy()
            assert conditional_cdf_extended(side, work, 100.0, SECTOR, out=work) is work
            assert np.array_equal(work, want)


class TestSpatialAngle:
    def test_symmetry_point(self):
        cdf, _ = spatial_angle_dist(0.0, SECTOR)
        assert cdf == pytest.approx(0.5)

    def test_upper_support(self):
        cdf, _ = spatial_angle_dist(SECTOR.spatial_angle_bound, SECTOR)
        assert cdf == pytest.approx(1.0, abs=1e-12)

    def test_pdf_normalized(self):
        b = SECTOR.spatial_angle_bound
        total, _ = integrate.quad(lambda v: spatial_angle_dist(v, SECTOR)[1],
                                  -b, b, limit=200)
        assert abs(total - 1.0) < 1e-9

    def test_pdf_matches_cdf_derivative(self):
        b = SECTOR.spatial_angle_bound
        v = np.linspace(-0.9 * b, 0.9 * b, 41)
        h = 1e-7
        num = (spatial_angle_cdf_extended(v + h, SECTOR)
               - spatial_angle_cdf_extended(v - h, SECTOR)) / (2 * h)
        _, pdf = spatial_angle_dist(v, SECTOR)
        assert np.max(np.abs(num - pdf)) < 1e-8 * np.max(pdf) + 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            spatial_angle_dist(0.5, SECTOR)  # beyond (1/2) sin(pi/3)


class TestSampling:
    def test_sorted_output(self, rng):
        _, r = sample_user_arrays(SECTOR, 15, 1, rng)
        radii = list(r[0])
        assert radii == sorted(radii)

    def test_deterministic(self):
        a = sample_user_arrays(SECTOR, 8, 1, np.random.default_rng(7))
        b = sample_user_arrays(SECTOR, 8, 1, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_invalid_count(self, rng):
        with pytest.raises(InvalidArgumentError):
            sample_user_arrays(SECTOR, 0, 1, rng)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_sorted_property(self, n, seed):
        theta, r = sample_user_arrays(SECTOR, n, 4, np.random.default_rng(seed))
        assert np.all(np.diff(r, axis=1) >= 0)
        assert np.all(np.abs(theta) <= SECTOR.half_width)
        assert np.all((r >= 0) & (r <= SECTOR.cell_radius))

    def test_radial_law(self, rng):
        _, r = sample_user_arrays(SECTOR, 1, 400_000, rng)
        grid = np.linspace(5.0, 145.0, 29)
        emp = (r.ravel()[:, None] <= grid[None, :]).mean(axis=0)
        ref = (grid / 150.0) ** 2
        assert np.max(np.abs(emp - ref)) < 0.004

    def test_angle_uniform(self, rng):
        theta, _ = sample_user_arrays(SECTOR, 15, 20_000, rng)
        hist, _ = np.histogram(theta.ravel(), bins=20,
                               range=(-SECTOR.half_width, SECTOR.half_width))
        expected = theta.size / 20
        chi2 = float(((hist - expected) ** 2 / expected).sum())
        assert chi2 < 43.8  # chi-square 99.9% bound, 19 dof


class TestConditionalSampling:
    def test_single_user(self, rng):
        anchor = PolarPoint(0.1, 42.0)
        theta, r = sample_conditional_arrays(1, anchor, 1, SECTOR, 1, rng)
        assert (theta.tolist(), r.tolist()) == ([[anchor.theta]], [[anchor.r]])

    def test_partition_counts(self, rng):
        anchor = PolarPoint(0.0, 60.0)
        theta, r = sample_conditional_arrays(8, anchor, 15, SECTOR, 500, rng)
        assert np.all((r[:, :7] < 60.0) & (r[:, 8:] >= 60.0))
        assert np.all(r[:, 7] == 60.0)
        assert np.all(np.diff(r, axis=1) >= 0)

    def test_degenerate_anchor(self, rng):
        with pytest.raises(DegenerateSupportError):
            sample_conditional_arrays(2, PolarPoint(0.0, 0.0), 3, SECTOR, 1, rng)

    @pytest.mark.parametrize("kappa,anchor,n,error", [
        (2, PolarPoint(0.0, 150.0), 3, DegenerateSupportError),
        (0, PolarPoint(0.0, 50.0), 3, InvalidArgumentError),
        (4, PolarPoint(0.0, 50.0), 3, InvalidArgumentError),
    ])
    def test_bad_arguments(self, kappa, anchor, n, error, rng):
        with pytest.raises(error):
            sample_conditional_arrays(kappa, anchor, n, SECTOR, 1, rng)

    def test_inner_law(self, rng):
        anchor = PolarPoint(0.0, 100.0)
        _, r = sample_conditional_arrays(3, anchor, 3, SECTOR, 150_000, rng)
        inner = r[:, :2].ravel()
        grid = np.linspace(5.0, 95.0, 19)
        emp = (inner[:, None] <= grid[None, :]).mean(axis=0)
        ref = np.array([conditional_distance_dist("inner", g, 100.0, SECTOR)[0]
                        for g in grid])
        assert np.max(np.abs(emp - ref)) < 0.005
