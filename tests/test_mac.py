import json
from importlib import resources

import numpy as np
import pytest

from infodesign.mac import (GainState, MacConfig, build_scenario,
                            config_from_dict, default_config, phi1, phi2,
                            scenario_surface)
from infodesign.persuasion import (Block, OneShot, Unconstrained,
                                   grid_best_replies, sender_value,
                                   solve_equilibrium)
from infodesign.prob import binary_entropy
from infodesign.splitting import PosteriorPair, RegionLabel
from test_scan import square

CFG = default_config()
SC = build_scenario(CFG)
CAP_QUARTER = 1.0 - binary_entropy(0.25)


def default_doc():
    return json.loads(resources.files("infodesign").joinpath(
        "data/mac_default.json").read_text())


class TestConfig:
    def test_default_values(self):
        assert CFG.a1 == 0.16
        assert CFG.sigma2 == 1.0
        assert CFG.prior_p == 0.5
        assert CFG.actions == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert CFG.gain_a.g11 == pytest.approx(1.1878)

    def test_gains_nonnegative(self):
        with pytest.raises(ValueError):
            GainState(-0.1, 1.0, 1.0, 1.0)

    def test_round_trip(self):
        doc = {"gain_a": {"g11": 1.0, "g12": 2.0, "g21": 0.5, "g22": 0.0},
               "gain_b": {"g11": 0.25, "g12": 0.0, "g21": 3.0, "g22": 1.5},
               "a1": 0.3, "sigma2": 2.0, "prior_p": 0.25, "actions": [0, 1]}
        assert config_from_dict(json.loads(json.dumps(doc))) == MacConfig(
            GainState(1.0, 2.0, 0.5, 0.0), GainState(0.25, 0.0, 3.0, 1.5),
            a1=0.3, sigma2=2.0, prior_p=0.25, actions=(0.0, 1.0))

    def test_unknown_field_rejected(self):
        doc = default_doc()
        doc["bogus"] = 1
        with pytest.raises(ValueError, match="unknown field 'bogus'"):
            config_from_dict(doc)


class TestUtilities:
    # pinned regression values (natural-log payoff scale)
    def test_phi1_point_values(self):
        assert phi1(CFG.gain_a, 0.0, CFG) == pytest.approx(0.6416791754535167,
                                                           abs=1e-12)
        assert phi1(CFG.gain_a, 1.0, CFG) == pytest.approx(0.763272011577371,
                                                           abs=1e-12)
        assert phi1(CFG.gain_b, 0.0, CFG) == pytest.approx(0.5716206765203432,
                                                           abs=1e-12)

    def test_phi2_point_values(self):
        assert phi2(CFG.gain_a, 0.5, CFG) == pytest.approx(0.4505591450161247,
                                                           abs=1e-12)
        assert phi2(CFG.gain_b, 1.0, CFG) == pytest.approx(0.06736040353838868,
                                                           abs=1e-12)

    def test_tables_positive_finite(self):
        assert np.all(np.isfinite(SC.phi1)) and np.all(SC.phi1 > 0)
        assert np.all(np.isfinite(SC.phi2)) and np.all(SC.phi2 > 0)

    def test_scenario_shape(self):
        assert SC.phi1.shape == (2, 5)
        assert SC.actions == CFG.actions
        assert SC.prior.probs[0] == 0.5


class TestBestReplyCurve:
    """The receiver's best reply v*(p) swept over the prior, on a 1e-3 axis."""

    AXIS = np.linspace(0.0, 1.0, 1001)

    def staircase(self):
        sel, _, value = grid_best_replies(SC, self.AXIS)
        return np.array(CFG.actions)[sel], value

    def test_staircase_monotone(self):
        action, _ = self.staircase()
        assert np.all(np.diff(action) >= 0)
        assert action[0] == 0.0
        assert action[-1] == 1.0

    def test_threshold_locations(self):
        # receiver switches 0 -> 0.25 -> 0.5 -> 0.75 -> 1 at these priors
        action, _ = self.staircase()
        jumps = np.flatnonzero(np.diff(action) != 0)
        lo = self.AXIS[jumps]
        hi = self.AXIS[jumps + 1]
        expected = (0.30327, 0.39510, 0.50619, 0.64145)
        assert len(jumps) == 4
        for left, right, t in zip(lo, hi, expected):
            assert left < t < right

    def test_value_continuous_at_jumps(self):
        # receiver value is a max of affine functions: continuous
        _, value = self.staircase()
        dv = np.abs(np.diff(value))
        assert dv.max() < 1e-2


class TestEquilibria:
    def test_unconstrained(self):
        res = solve_equilibrium(SC, Unconstrained(), 1e-3)
        assert res.phi1_star == pytest.approx(0.7331932814533344, abs=1e-12)
        assert res.posteriors.p1 == pytest.approx(0.0, abs=1e-12)
        assert res.posteriors.p2 == pytest.approx(0.642, abs=1e-12)
        assert res.receiver_actions == (0.0, 1.0)
        assert res.signal.alpha == pytest.approx(1.0, abs=1e-12)
        assert res.signal.beta == pytest.approx(0.4424, abs=2e-3)

    def test_block_constrained(self):
        res = solve_equilibrium(SC, Block(CAP_QUARTER), 1e-3)
        assert res.phi1_star == pytest.approx(0.7272579157933095, abs=1e-12)
        assert (res.posteriors.p1, res.posteriors.p2) == (0.091, 0.642)
        assert res.feasibility.feasible

    def test_one_shot_constrained(self):
        res = solve_equilibrium(SC, OneShot(0.25), 1e-3)
        assert res.phi1_star == pytest.approx(0.7125680976842583, abs=1e-12)
        assert (res.posteriors.p1, res.posteriors.p2) == (0.304, 0.642)
        assert res.feasibility.feasible

    def test_revealing_value(self):
        v1, _ = sender_value(PosteriorPair(1.0, 0.0), 0.5, SC)
        assert v1 == pytest.approx(0.6674463440488572, abs=1e-12)

    def test_ordering(self):
        v_un = solve_equilibrium(SC, Unconstrained(), 1e-2).phi1_star
        v_bl = solve_equilibrium(SC, Block(CAP_QUARTER), 1e-2).phi1_star
        v_os = solve_equilibrium(SC, OneShot(0.25), 1e-2).phi1_star
        assert v_un >= v_bl >= v_os


class TestSurface:
    def test_unconstrained_labels(self):
        labels = set(np.unique(square(scenario_surface(SC, resolution=0.02))[0]))
        assert labels == {int(RegionLabel.INVALID_SPLIT),
                          int(RegionLabel.VALID)}

    def test_constrained_labels(self):
        labels = set(np.unique(square(scenario_surface(SC, 0.02, 0.25))[0]))
        assert int(RegionLabel.ONE_SHOT) in labels
        assert int(RegionLabel.BLOCK_ONLY) in labels

    def test_invalid_cells_are_nan(self):
        labels, surface = square(scenario_surface(SC, resolution=0.02))
        bad = labels == int(RegionLabel.INVALID_SPLIT)
        for values in surface:
            assert np.isnan(values[bad]).all()
            assert np.isfinite(values[~bad]).all()

    def test_surface_argmax_matches_solver(self):
        # re-reducing the surface reproduces the unconstrained optimum
        surf = scenario_surface(SC, resolution=1e-3)
        res = solve_equilibrium(SC, Unconstrained(), 1e-3)
        phi1 = square(surf)[1][0]
        i, j = divmod(int(np.nanargmax(phi1)), surf.p2_axis.size)
        assert phi1[i, j] == pytest.approx(res.phi1_star, abs=1e-12)
        assert surf.p1_axis[i] == res.posteriors.p1
        assert surf.p2_axis[j] == res.posteriors.p2
