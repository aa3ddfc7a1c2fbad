import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaymac import design_space as ds
from delaymac.cell import initial_drop, td_linearity_margin
from delaymac.errors import CalibrationError, FieldValidationError, InfeasibleRegionError
from delaymac.jitter import total_jitter
from delaymac.params import DEFAULT_UNIT_SCALE, CellDesign, JitterFit, TechnologyProfile

DESIGN_C = 2.2e-15
DESIGN_I = 1e-6


def log_steps(value, target, grid):
    return abs(math.log(value / target)) / math.log(grid[1] / grid[0])


class TestConstraintRegion:
    def test_five_bit_region_contains_design_point(self, cell, tech, fit, grids):
        region = ds.constraint_region(5, *grids, cell, tech, fit)
        assert not region.is_empty
        c_opt, i_opt = ds.optimal_point(region)
        assert log_steps(c_opt, DESIGN_C, region.grid_cstar) <= 1 + 1e-9
        assert log_steps(i_opt, DESIGN_I, region.grid_istar) <= 1 + 1e-9

    def test_six_bits_infeasible(self, cell, tech, fit, grids):
        assert ds.constraint_region(6, *grids, cell, tech, fit).is_empty

    def test_four_bits_superset_of_five(self, cell, tech, fit, grids):
        r4 = ds.constraint_region(4, *grids, cell, tech, fit)
        r5 = ds.constraint_region(5, *grids, cell, tech, fit)
        assert not r4.is_empty
        assert np.all(r4.feasible >= r5.feasible)

    def test_mask_c3_shrinks_with_bits(self, cell, tech, fit, grids):
        r4 = ds.constraint_region(4, *grids, cell, tech, fit)
        r5 = ds.constraint_region(5, *grids, cell, tech, fit)
        assert np.all(r4.mask_c3 >= r5.mask_c3)

    def test_constraint1_is_vertical_line(self, cell, tech, fit, grids):
        region = ds.constraint_region(5, *grids, cell, tech, fit)
        assert np.all(region.mask_c1 == region.mask_c1[:, :1])

    def test_feasible_is_conjunction(self, cell, tech, fit, grids):
        r = ds.constraint_region(5, *grids, cell, tech, fit)
        assert np.array_equal(r.feasible, r.mask_c1 & r.mask_c2 & r.mask_c3)

    def test_grid_validation(self, cell, tech, fit):
        short = np.geomspace(1e-15, 1e-14, 8)
        good = np.geomspace(1e-7, 1e-5, 32)
        with pytest.raises(FieldValidationError, match="grid_cstar"):
            ds.constraint_region(5, short, good, cell, tech, fit)
        decreasing = np.geomspace(1e-14, 1e-15, 32)
        with pytest.raises(FieldValidationError, match="grid_cstar"):
            ds.constraint_region(5, decreasing, good, cell, tech, fit)

    def test_epsilon_validation(self, cell, tech, fit, grids):
        with pytest.raises(FieldValidationError, match="epsilon"):
            ds.constraint_region(5, *grids, cell, tech, fit, epsilon=0.5)

    def test_csv_rows_cover_grid(self, cell, tech, fit, grids):
        region = ds.constraint_region(5, *grids, cell, tech, fit)
        rows = region.csv_rows()
        assert len(rows) == grids[0].size * grids[1].size
        assert all(len(r) == 6 for r in rows[:5])

    def test_summary_schema(self, cell, tech, fit, grids):
        s = ds.constraint_region(5, *grids, cell, tech, fit).summary()
        assert s["feasible"] and s["optimum"] is not None
        s6 = ds.constraint_region(6, *grids, cell, tech, fit).summary()
        assert not s6["feasible"] and s6["optimum"] is None

    def test_refinement_stability(self, cell, tech, fit, grids):
        # feasibility is a pointwise verdict: doubling the grid density around
        # the same coordinates never flips a previously feasible point
        def interleave(grid):
            mids = np.sqrt(grid[:-1] * grid[1:])
            return np.sort(np.concatenate([grid, mids]))

        coarse = ds.constraint_region(5, *grids, cell, tech, fit)
        fine = ds.constraint_region(
            5, interleave(grids[0]), interleave(grids[1]), cell, tech, fit
        )
        assert np.array_equal(coarse.feasible, fine.feasible[::2, ::2])

    def test_determinism(self, cell, tech, fit, grids):
        a = ds.constraint_region(5, *grids, cell, tech, fit)
        b = ds.constraint_region(5, *grids, cell, tech, fit)
        assert np.array_equal(a.feasible, b.feasible)
        assert np.array_equal(a.mask_c2, b.mask_c2)


class TestOptimalPoint:
    def test_empty_region_raises(self, cell, tech, fit, grids):
        region = ds.constraint_region(6, *grids, cell, tech, fit)
        with pytest.raises(InfeasibleRegionError):
            ds.optimal_point(region)

    def test_single_point_region(self, grids):
        c_grid, i_grid = grids
        feasible = np.zeros((c_grid.size, i_grid.size), dtype=bool)
        feasible[10, 20] = True
        region = ds.DesignRegion(
            grid_cstar=c_grid, grid_istar=i_grid,
            mask_c1=feasible, mask_c2=feasible, mask_c3=feasible,
            feasible=feasible, n_bits=5,
        )
        assert ds.optimal_point(region) == (c_grid[10], i_grid[20])

    def test_shrunk_region_never_increases_current(self, cell, tech, fit, grids):
        r1 = ds.constraint_region(4, *grids, cell, tech, fit, epsilon=1.0)
        r2 = ds.constraint_region(4, *grids, cell, tech, fit, epsilon=2.0)
        assert not r2.is_empty
        assert ds.optimal_point(r2)[1] <= ds.optimal_point(r1)[1]


class TestMaxBits:
    def test_headline_values(self, cell, tech, fit, grids):
        assert ds.max_bits(1.0, *grids, cell, tech, fit) == 5
        assert ds.max_bits(14.0, *grids, cell, tech, fit) == 1

    def test_monotone_nonincreasing(self, cell, tech, fit, grids):
        values = [ds.max_bits(e, *grids, cell, tech, fit) for e in np.linspace(1, 16, 16)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_huge_epsilon_gives_zero(self, cell, tech, fit, grids):
        assert ds.max_bits(1e6, *grids, cell, tech, fit) == 0


class TestCalibration:
    def test_default_targets_all_met(self, cell, tech, grids):
        raw = JitterFit()
        result = ds.calibrate_units(ds.DEFAULT_CALIBRATION_TARGETS, raw, tech, cell)
        assert all(result.targets_met)
        assert result.targets_met == (True,) * len(ds.DEFAULT_CALIBRATION_TARGETS)

    def test_reproduces_packaged_scale(self, cell, tech):
        raw = JitterFit()
        result = ds.calibrate_units(ds.DEFAULT_CALIBRATION_TARGETS, raw, tech, cell)
        assert result.unit_scale[0] == pytest.approx(DEFAULT_UNIT_SCALE[0], rel=1e-9, abs=0)
        assert result.unit_scale[1] == pytest.approx(DEFAULT_UNIT_SCALE[1], rel=1e-9)

    @pytest.mark.parametrize(
        "points, unit_scale, residual, convention",
        [
            (64, (3.057459377387377e-12, 0.3379408077729464), 0.3191663920364984,
             "per-term pair, sd/td ratio 0.007071"),
            (128, (2.6843690551494663e-12, 0.37308446714770743), 0.3249531882808688,
             "per-term pair, sd/td ratio 0.005623"),
        ],
    )
    def test_default_targets_golden(self, cell, tech, fit, points, unit_scale, residual, convention):
        # exact values of the search whose magnitude windows are read in
        # closed form, each edge pulled in by _EDGE_CLEARANCE
        result = ds.calibrate_units(ds.DEFAULT_CALIBRATION_TARGETS, fit, tech, cell, *ds.default_grids(points))
        assert result.unit_scale == unit_scale
        assert result.residual == residual
        assert result.convention == convention

    def test_empty_targets_identity(self, cell, tech, fit):
        result = ds.calibrate_units((), fit, tech, cell)
        assert result.unit_scale == (1.0, 1.0)
        assert result.residual == 0.0

    def test_contradictory_targets(self, cell, tech, fit):
        targets = (
            {"kind": "max_bits", "epsilon": 1.0, "bits": 5},
            {"kind": "max_bits", "epsilon": 1.0, "bits": 2},
        )
        with pytest.raises(CalibrationError):
            ds.calibrate_units(targets, fit, tech, cell)

    def test_bits_reach_epsilon_in_window(self, cell, tech, fit, grids):
        tables = ds._ConstraintTables(*grids, cell, tech, fit)
        eps1 = tables.epsilon_reaching_bits(1, fit.unit_scale)
        assert 14.0 * 0.7 <= eps1 <= 14.0 * 1.3

    def test_result_serialization(self, cell, tech):
        raw = JitterFit()
        result = ds.calibrate_units(ds.DEFAULT_CALIBRATION_TARGETS, raw, tech, cell)
        d = result.to_dict()
        assert set(d) == {"unit_scale", "residual", "targets_met", "convention"}


class TestEpsilonBoundary:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_epsilon_rejected(self, cell, tech, fit, grids, eps):
        with pytest.raises(FieldValidationError, match="epsilon"):
            ds.constraint_region(5, *grids, cell, tech, fit, epsilon=eps)
        with pytest.raises(FieldValidationError, match="epsilon"):
            ds.max_bits(eps, *grids, cell, tech, fit)


#: Unit scale factors and excess margins of the profile oracle.
ORACLE_FACTORS = (1.0, 1e-3, 1e3)
ORACLE_EPSILONS = np.linspace(1.0, 30.0, 117)


@pytest.fixture(scope="module", params=ORACLE_FACTORS, ids=lambda f: f"scale x {f:g}")
def oracle(request, cell, tech, fit, grids):
    """A scaled fit, its tables and the per-n region-scan max_bits curve."""
    scaled = fit.with_unit_scale(tuple(request.param * s for s in fit.unit_scale))

    def region_scan(eps):
        n = 0
        while n < ds.MAX_BITS_CAP and not ds.constraint_region(
            n + 1, *grids, cell, tech, scaled, epsilon=eps
        ).is_empty:
            n += 1
        return n

    tables = ds._ConstraintTables(*grids, cell, tech, scaled)
    return scaled, tables, [region_scan(float(e)) for e in ORACLE_EPSILONS]


class TestProfileOracle:
    """The eps_crit profile against per-n constraint_region scans."""

    def test_max_bits_is_leading_run_of_nonempty_regions(self, oracle, cell, tech, grids):
        scaled, tables, reference = oracle
        got = [tables.max_bits(float(e), scaled.unit_scale) for e in ORACLE_EPSILONS]
        assert got == reference
        assert ds.max_bits_curve(ORACLE_EPSILONS, *grids, cell, tech, scaled) == reference

    def test_epsilon_reaching_bits_brackets_the_drop(self, oracle):
        scaled, tables, reference = oracle
        for bits in range(max(reference)):
            reached = tables.epsilon_reaching_bits(bits, scaled.unit_scale)
            above = [e for e, n in zip(ORACLE_EPSILONS, reference) if n > bits]
            at_or_below = [e for e, n in zip(ORACLE_EPSILONS, reference) if n <= bits]
            if above:
                assert max(above) <= reached
            if at_or_below:
                assert reached <= min(at_or_below)

    @pytest.mark.parametrize("eps", [1.0, 2.5])
    def test_anchor_interval_edges_are_exact(self, oracle, eps):
        scaled, tables, _ = oracle
        s1, s2 = scaled.unit_scale

        def scale_of(m):
            return m * s1, m * s2

        # scale_of(m) sweeps every magnitude, so each bit count has a window
        for bits in range(1, 12):
            targets = [{"kind": "max_bits", "epsilon": eps, "bits": bits}]
            lo, hi = ds._anchor_interval(tables, targets, scale_of)
            for m in (lo, hi):
                assert tables.max_bits(eps, scale_of(m)) == bits
                # the region masks agree with the profile on the window edges
                assert not tables.region(bits, eps, scale_of(m)).is_empty
                assert tables.region(bits + 1, eps, scale_of(m)).is_empty
            # each edge sits inside the exact window by the clearance, so
            # twice the clearance outward crosses it
            assert tables.max_bits(eps, scale_of(lo * (1 - 2 * ds._EDGE_CLEARANCE))) > bits
            assert tables.max_bits(eps, scale_of(hi * (1 + 2 * ds._EDGE_CLEARANCE))) < bits

    def test_unbounded_anchor_window_is_not_sampled(self, oracle):
        scaled, tables, _ = oracle
        reach = int(np.count_nonzero(tables.profile(scaled.unit_scale)))
        for bits in (0, reach):
            targets = [{"kind": "max_bits", "epsilon": 1.0, "bits": bits}]
            assert ds._anchor_interval(tables, targets, lambda m: (m, m)) is None


@st.composite
def grid_shapes(draw):
    """c_star and i_star point counts, as often square as not."""
    n_c = draw(st.integers(16, 256))
    return n_c, n_c if draw(st.booleans()) else draw(st.integers(16, 256))


class TestColumnTable:
    """Every answer of the per-scale column table against the full region."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=grid_shapes(),
        n=st.integers(1, 12),
        eps=st.floats(1.0, 30.0),
        decades=st.tuples(st.floats(-4.0, 2.0), st.floats(-4.0, 2.0)),
    )
    def test_table_answers_match_the_region(self, cell, tech, fit, shape, n, eps, decades):
        c_grid = np.geomspace(*ds.DEFAULT_C_SPAN, shape[0])
        i_grid = np.geomspace(*ds.DEFAULT_I_SPAN, shape[1])
        scale = tuple(s * 10.0**d for s, d in zip(fit.unit_scale, decades))
        tables = ds._ConstraintTables(c_grid, i_grid, cell, tech, fit)
        region = tables.region(n, eps, scale)
        point = tables.optimum(n, eps, scale)
        if region.is_empty:
            assert point is None
        else:
            assert point == ds.optimal_point(region)
        assert tables.feasible_any(n, eps, scale) == (not region.is_empty)
        bits = tables.max_bits(eps, scale)
        counted = range(1, min(max(12, bits + 1), ds.MAX_BITS_CAP) + 1)
        assert bits == sum(not tables.region(k, eps, scale).is_empty for k in counted)


class TestCalibrationTargets:
    @pytest.mark.parametrize(
        "target, field",
        [
            ({"kind": "max_bits"}, "bits"),
            ({"kind": "max_bits", "bits": -1}, "bits"),
            ({"kind": "bits_reach", "bits": ds.MAX_BITS_CAP}, "bits"),
            ({"kind": "bits_reach", "bits": 1.5}, "bits"),
            ({"kind": "feasible", "n": 0}, "n"),
            ({"kind": "infeasible", "n": ds.MAX_BITS_CAP + 1}, "n"),
            ({"kind": "infeasible", "n": True}, "n"),
            ({"kind": "optimum", "n": 5, "c_star": 2.2e-15}, "i_star"),
            ({"kind": "optimum", "n": 5, "c_star": 0.0, "i_star": 1e-6}, "c_star"),
            ({"kind": "feasible", "n": 4, "epsilon": float("nan")}, "epsilon"),
            ({"kind": "feasible", "n": 4, "epsilon": "1"}, "epsilon"),
            ({"kind": "feasible", "n": 4, "epsilon": 10**400}, "epsilon"),
            ({"kind": "bits_reach", "bits": 1, "rel_tol": -0.1}, "rel_tol"),
            ({"kind": "max_bits", "bits": 5, "epsilom": 3}, "epsilom"),
            ({"kind": "feasible", "n": 4, "rel_tol": 0.3}, "rel_tol"),
            ({"kind": "max_bits", "bits": 5, "grid_steps": 1}, "grid_steps"),
            ({"kind": "frobnicate"}, "kind"),
            ({"kind": ["max_bits"]}, "kind"),
            ("max_bits", "kind"),
        ],
    )
    def test_malformed_target_rejected_before_search(self, cell, tech, fit, target, field):
        with pytest.raises(FieldValidationError) as excinfo:
            ds.calibrate_units([target], fit, tech, cell)
        assert excinfo.value.field == field

    def test_target_list_required(self, cell, tech, fit):
        with pytest.raises(FieldValidationError, match="targets"):
            ds.calibrate_units({"kind": "max_bits", "bits": 5}, fit, tech, cell)


@pytest.mark.parametrize("n", range(1, 6))
def test_feasible_points_hold_for_the_multipliers_slowest_cell(cell, tech, fit, grids, n):
    # design_space checks the cell at 2**-n times the fastest current, one
    # halving below the slowest of the multiplier's n cells (MultiplierSpec),
    # so both constraints must hold there with room to spare
    region = ds.constraint_region(n, *grids, cell, tech, fit)
    points = np.argwhere(region.feasible)
    assert points.size
    for ci, ii in points.tolist():
        c_star, i_star = float(region.grid_cstar[ci]), float(region.grid_istar[ii])
        slow = replace(cell, c_star=c_star, i_star=i_star / 2.0 ** (n - 1))
        budget = ds.JITTER_MARGIN_FRACTION * cell.c_s_eff / i_star
        assert 3 * total_jitter(slow, fit).sigma_total <= budget
        dv0 = initial_drop(tech.v_dd, slow, tech)
        assert td_linearity_margin(slow, tech, dv0) > 1


@pytest.mark.parametrize("command, config", [
    ("region", {"p1": 1e6}),
    ("region", {"p1": 300}),
    ("calibrate", {"k1": 1e300}),
])
def test_extreme_fits_end_without_numpy_warnings(run, tmp_path, capsys, command, config):
    # an infinite jitter term reads as margin 0, so nothing is worth a warning
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    args = ("--bits", 5, "--out", "r.csv") if command == "region" else ()
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, "--grid-points", 16, "--config", path, *args) == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("config, region_exit", [
    ({"c_re": 1e300}, 0),
    ({"temperature": "0.5f"}, 2),
    ({"c_s_eff": 1e300}, 2),
    ({"v_dd": 1e300}, 2),
], ids=["c_re-1e300", "temperature-0.5f", "c_s_eff-1e300", "v_dd-1e300"])
def test_overflowing_detector_margin_ends_without_numpy_warnings(run, tmp_path, config, region_exit):
    # an overflowed exp is a row factor 0, so c2 fails; an overflowed product a margin inf, so c2 holds
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("region", "--bits", 5, "--grid-points", 16, "--config", path, "--out", "r.csv") == region_exit
        assert run("maxbits", "--epsilon-grid", "1:3:3", "--grid-points", 16, "--config", path, "--out", "m.csv") == 0


@pytest.mark.parametrize("command, args, code", [
    ("region", ("--bits", 5, "--out", "r.csv"), 2),
    ("maxbits", ("--epsilon-grid", "1:3:3", "--out", "m.csv"), 0),
    ("calibrate", (), 0),
])
def test_subnormal_c_span_ends_without_numpy_warnings(run, command, args, code):
    # i / c overflows to inf on the row whose factor underflows to 0: the NaN
    # product fails c2, as a zero row factor means
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, "--grid-points", 16, "--c-span", "1e-320:50f", *args) == code
