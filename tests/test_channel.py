from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infodesign.channel import CapacityError, bsc, capacity
from infodesign.prob import StochasticMatrix, binary_entropy


class TestBsc:
    def test_transition(self):
        ch = bsc(0.25)
        assert np.allclose(ch.rows, [[0.75, 0.25], [0.25, 0.75]])

    def test_rejects_above_half(self):
        with pytest.raises(ValueError):
            bsc(0.6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bsc(-0.01)


class TestCapacity:
    def test_bsc_quarter(self):
        res = capacity(bsc(0.25))
        assert res.capacity == pytest.approx(1.0 - binary_entropy(0.25),
                                             abs=1e-9)
        assert np.allclose(res.optimal_input.probs, 0.5, atol=1e-6)

    def test_noiseless_binary(self):
        assert capacity(bsc(0.0)).capacity == pytest.approx(1.0, abs=1e-9)

    def test_useless_channel(self):
        res = capacity(bsc(0.5))
        assert res.capacity == pytest.approx(0.0, abs=1e-9)

    def test_capacity_never_negative(self):
        assert capacity(bsc(0.5)).capacity >= 0.0

    def test_identity_ternary(self):
        ch = StochasticMatrix(np.eye(3))
        assert capacity(ch).capacity == pytest.approx(np.log2(3.0), abs=1e-9)

    def test_asymmetric_erasure(self):
        # binary erasure channel, erasure probability e: C = 1 - e
        e = 0.3
        ch = StochasticMatrix([[1 - e, e, 0.0], [0.0, e, 1 - e]])
        assert capacity(ch).capacity == pytest.approx(1.0 - e, abs=1e-7)

    def test_residual_bracket(self):
        res = capacity(bsc(0.11))
        assert res.residual <= 1e-9
        assert res.iterations >= 1

    def test_non_convergence_raises(self):
        # asymmetric channel so the bracket takes several sweeps to close
        ch = StochasticMatrix([[0.9, 0.1], [0.3, 0.7]])
        with pytest.raises(CapacityError):
            capacity(ch, tol=1e-12, max_iter=2)

    @pytest.mark.parametrize("tol,max_iter", [
        (-1.0, 200_000), (float("nan"), 10), (float("inf"), 10),
        (-float("inf"), 10), (1e-9, 0), (1e-9, -3)])
    def test_hopeless_arguments_refused_before_a_sweep(self, tol, max_iter):
        name = "tol" if max_iter > 0 else "max_iter"
        with mock.patch("numpy.exp2", side_effect=AssertionError("swept")):
            with pytest.raises(ValueError, match=rf"^capacity: {name} "):
                capacity(bsc(0.1), tol=tol, max_iter=max_iter)

    def test_zero_tol_and_one_sweep_accepted(self):
        # a useless channel closes its bracket exactly in the first sweep
        res = capacity(bsc(0.5), tol=0.0, max_iter=1)
        assert (res.capacity, res.iterations, res.residual) == (0.0, 1, 0.0)

    def test_closed_form_sweep(self):
        for eps in np.linspace(0.0, 0.5, 21):
            got = capacity(bsc(float(eps))).capacity
            assert got == pytest.approx(1.0 - binary_entropy(float(eps)),
                                        abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_capacity_bounds_random_channels(k_in, k_out, data):
    rows = []
    for _ in range(k_in):
        vals = np.array(data.draw(
            st.lists(st.floats(1e-6, 1.0), min_size=k_out, max_size=k_out)))
        rows.append(vals / vals.sum())
    res = capacity(StochasticMatrix(np.array(rows)), tol=1e-7)
    assert -1e-9 <= res.capacity <= np.log2(min(k_in, k_out)) + 1e-6


@given(st.floats(0.0, 0.5))
def test_capacity_matches_closed_form(eps):
    got = capacity(bsc(eps)).capacity
    assert got == pytest.approx(1.0 - binary_entropy(eps), abs=1e-6)
