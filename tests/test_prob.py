import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infodesign.coding import coding_config_from_dict
from infodesign.mac import config_from_dict
from infodesign.persuasion import Scenario, scenario_from_dict
from infodesign.prob import (Distribution, JointDistribution, StochasticMatrix,
                             binary_entropy, compose_markov, conditional,
                             entropy, kl_divergence, l1_distance, marginal,
                             mutual_information)


def masses(k, min_size=2, max_size=6):
    return st.lists(st.floats(1e-9, 1.0), min_size=min_size, max_size=max_size)


def normalized(vals):
    a = np.asarray(vals, dtype=float)
    return a / a.sum()


class TestDistribution:
    def test_uniform(self):
        d = Distribution(np.full(4, 0.25))
        assert np.allclose(d.probs, 0.25)
        assert len(d) == 4

    def test_point_mass(self):
        d = Distribution([0.0, 0.0, 0.0, 1.0, 0.0])
        assert d.probs[3] == 1.0
        assert d.probs.sum() == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution([0.5, -0.1, 0.6])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.6])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Distribution([0.5, float("nan")])

    def test_read_only(self):
        d = Distribution([0.25, 0.75])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_tiny_negative_clipped(self):
        d = Distribution([1.0 + 1e-15, -1e-15])
        assert d.probs[1] == 0.0


class TestPayoffTable:
    """Scenario and CodingConfig check their payoff tables with payoff_table."""

    @pytest.fixture(params=["Scenario", "CodingConfig"])
    def holder(self, request):
        if request.param == "Scenario":
            return Scenario(Distribution([0.5, 0.5]), (0, 1), np.eye(2), np.eye(2))
        text = resources.files("infodesign").joinpath("data/coding_default.json")
        return coding_config_from_dict(json.loads(text.read_text()))

    def test_nan_refused_with_the_holders_prefix(self, holder):
        bad = np.array(holder.phi2)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match=rf"^{type(holder).__name__}: phi2 "
                                             r"has non-finite entries$"):
            replace(holder, phi2=bad)

    def test_tables_read_only(self, holder):
        for table in (holder.phi1, holder.phi2):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0


def packaged(name):
    return json.loads(resources.files("infodesign").joinpath(name).read_text())


class TestCheckedFields:
    """The scenario, mac config and experiment loaders share checked_fields:
    an object, then the first missing field, then the first unknown one."""

    @pytest.mark.parametrize("what,load,doc", [
        ("scenario", scenario_from_dict,
         {"prior": [0.5, 0.5], "actions": [0, 1], "phi1": np.eye(2).tolist(),
          "phi2": np.eye(2).tolist()}),
        ("mac config", config_from_dict, packaged("data/mac_default.json")),
        ("experiment", coding_config_from_dict,
         packaged("data/coding_default.json"))], ids=["scenario", "mac", "experiment"])
    def test_messages_and_order(self, what, load, doc):
        load(doc)
        with pytest.raises(ValueError, match=f"^{what}: expected a JSON object$"):
            load([doc])
        first = next(iter(doc))
        with pytest.raises(ValueError, match=f"^{what}: missing field '{first}'$"):
            load({**{k: v for k, v in doc.items() if k != first}, "bogus": 1})
        with pytest.raises(ValueError, match=f"^{what}: unknown field 'bogus'$"):
            load({**doc, "bogus": 1})


class TestStochasticMatrix:
    def test_identity(self):
        m = StochasticMatrix(np.eye(3))
        assert np.array_equal(m.rows, np.eye(3))
        assert m.num_inputs == m.num_outputs == 3

    def test_rejects_bad_row(self):
        with pytest.raises(ValueError):
            StochasticMatrix([[0.5, 0.5], [0.7, 0.6]])


class TestEntropy:
    def test_uniform_is_log2(self):
        assert entropy(Distribution(np.full(8, 0.125))) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass_zero(self):
        assert entropy(Distribution([1.0, 0.0, 0.0, 0.0])) == 0.0

    # h(1/4) = 2 - (3/4) log2 3
    def test_binary_entropy_quarter(self):
        expected = 2.0 - 0.75 * np.log2(3.0)
        assert binary_entropy(0.25) == pytest.approx(expected, abs=1e-12)
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_binary_entropy_vectorized(self):
        out = binary_entropy(np.array([0.0, 0.25, 0.5]))
        assert out.shape == (3,)
        assert out[2] == 1.0

    def test_binary_entropy_rejects_outside(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)


class TestDivergences:
    # D((3/4,1/4) || uniform) = 1 - h(1/4)
    def test_kl_vs_uniform(self):
        p = Distribution([0.75, 0.25])
        q = Distribution([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(1.0 - binary_entropy(0.25),
                                                    abs=1e-12)

    def test_kl_self_zero(self):
        p = Distribution([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_kl_absolute_continuity(self):
        with pytest.raises(ValueError):
            kl_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]))

    def test_l1(self):
        a = Distribution([1.0, 0.0])
        b = Distribution([0.0, 1.0])
        assert l1_distance(a, b) == 2.0


class TestJointOps:
    def setup_method(self):
        self.prior = Distribution([0.5, 0.5])
        self.signal = StochasticMatrix([[0.0, 1.0], [0.4424, 0.5576]])
        self.response = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
        self.joint = compose_markov(self.prior, self.signal, self.response)

    def test_compose_axes(self):
        assert self.joint.axes == ("u", "w", "v")
        assert self.joint.probs.shape == (2, 2, 2)

    def test_marginal_pair(self):
        uw = marginal(self.joint, ("u", "w"))
        assert uw.probs.shape == (2, 2)
        assert uw.probs[0, 1] == pytest.approx(0.5)

    def test_marginal_single(self):
        u = marginal(self.joint, "u")
        assert np.allclose(u.probs, self.prior.probs)

    def test_marginal_reorders(self):
        wu = marginal(self.joint, ("w", "u"))
        uw = marginal(self.joint, ("u", "w"))
        assert np.allclose(wu.probs, uw.probs.T)

    # I(U;W) for the signaling structure (alpha, beta) = (1, 0.4424)
    def test_mutual_information_value(self):
        uw = marginal(self.joint, ("u", "w"))
        assert mutual_information(uw) == pytest.approx(0.2671497818034756,
                                                       abs=1e-12)

    def test_mutual_information_independent(self):
        joint = JointDistribution(np.full((2, 2), 0.25), axes=("a", "b"))
        assert mutual_information(joint) == 0.0

    def test_conditional_rows(self):
        uw = marginal(self.joint, ("u", "w"))
        cond = conditional(uw, "u")
        assert np.allclose(cond.rows, self.signal.rows)

    # posterior of U given W for the study's optimal signal
    def test_conditional_posteriors(self):
        uw = marginal(self.joint, ("u", "w"))
        post = conditional(uw, "w")
        assert post.rows[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert post.rows[1, 0] == pytest.approx(0.6420133538777607, abs=1e-12)

    def test_conditional_zero_row_flagged(self):
        joint = JointDistribution([[0.5, 0.5], [0.0, 0.0]], axes=("a", "b"))
        cond = conditional(joint, "a")
        assert np.allclose(cond.rows[1], 0.5)


# -- property suites ---------------------------------------------------------

@given(masses(None))
def test_entropy_bounds(vals):
    d = Distribution(normalized(vals))
    h = entropy(d)
    assert -1e-12 <= h <= np.log2(len(d)) + 1e-12


@given(masses(None), masses(None))
def test_kl_nonnegative_and_pinsker(p_vals, q_vals):
    k = min(len(p_vals), len(q_vals))
    p = Distribution(normalized(p_vals[:k]))
    q = Distribution(normalized(q_vals[:k]))
    kl = kl_divergence(p, q)
    assert kl >= -1e-12
    # Pinsker: D(p||q) >= l1^2 / (2 ln 2)
    assert kl >= l1_distance(p, q) ** 2 / (2.0 * np.log(2.0)) - 1e-9


@given(st.floats(0.0, 1.0))
def test_binary_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


@settings(max_examples=200)
@given(masses(None, 2, 4), st.data())
def test_compose_marginal_round_trip(prior_vals, data):
    prior = Distribution(normalized(prior_vals))
    ku = len(prior)
    kw = data.draw(st.integers(2, 4))
    kv = data.draw(st.integers(2, 4))
    sig_rows = normalized_rows(data, ku, kw)
    rsp_rows = normalized_rows(data, kw, kv)
    joint = compose_markov(prior, sig_rows, rsp_rows)
    assert np.allclose(marginal(joint, "u").probs, prior.probs, atol=1e-12)
    uw = marginal(joint, ("u", "w"))
    got = conditional(uw, "u")
    for i in uw.probs.sum(axis=1).nonzero()[0]:
        assert np.allclose(got.rows[i], sig_rows.rows[i], atol=1e-9)


def normalized_rows(data, k_in, k_out):
    rows = [normalized(data.draw(masses(None, k_out, k_out))) for _ in range(k_in)]
    return StochasticMatrix(np.array(rows))


@given(masses(None, 2, 4), masses(None, 2, 4))
def test_mutual_information_product_is_zero(a_vals, b_vals):
    a = normalized(a_vals)
    b = normalized(b_vals)
    joint = JointDistribution(np.outer(a, b), axes=("a", "b"))
    assert abs(mutual_information(joint)) <= 1e-10
