import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infodesign.channel import CapacityError, CapacityResult, bsc, capacity
from infodesign.prob import Distribution, StochasticMatrix, binary_entropy


def reference_capacity(ch, tol=1e-9, max_iter=100_000):
    """The sweep loop as it stood before its buffers were preallocated and
    its zero-q guard made conditional: `capacity` must match it bit for bit."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"capacity: tol {tol!r} must be finite and >= 0")
    if max_iter < 1:
        raise ValueError(f"capacity: max_iter {max_iter!r} must be >= 1")
    T = ch.rows
    m = T.shape[0]
    support = T > 0
    logT = np.where(support, np.log2(np.where(support, T, 1.0)), 0.0)
    r = np.full(m, 1.0 / m)
    residual = np.inf
    for it in range(1, max_iter + 1):
        q = r @ T
        # q[y] > 0 wherever some T[x, y] > 0 since r stays strictly positive
        logq = np.log2(np.where(q > 0, q, 1.0))
        d = ((logT - logq[None, :]) * T).sum(axis=1)
        upper = float(d.max())
        lower = float(r @ d)
        residual = upper - lower
        if residual <= tol:
            return CapacityResult(capacity=max(lower, 0.0),
                                  optimal_input=Distribution(r),
                                  iterations=it,
                                  residual=residual)
        r = r * np.exp2(d - upper)
        r = r / r.sum()
    raise CapacityError(f"capacity: residual {residual!r} above tol {tol!r} "
                        f"after {max_iter} iterations")


def _outcome(solver, ch, **kw):
    """Every bit of a capacity run: the result's fields or the error text."""
    try:
        res = solver(ch, **kw)
    except CapacityError as err:
        return ("CapacityError", str(err))
    return (res.capacity.hex(), res.residual.hex(), res.iterations,
            res.optimal_input.probs.tobytes())


class _UnreadableChannel:
    """A channel whose matrix may not be read."""

    @property
    def rows(self):
        raise AssertionError("channel read")


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
        # the channel is not even read, so no sweep can have run
        name = "tol" if max_iter > 0 else "max_iter"
        with pytest.raises(ValueError, match=rf"^capacity: {name} "):
            capacity(_UnreadableChannel(), tol=tol, max_iter=max_iter)

    def test_unreadable_channel_probe_is_live(self):
        with pytest.raises(AssertionError, match="channel read"):
            capacity(_UnreadableChannel(), tol=0.0, max_iter=1)

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


# four inputs on one segment of outputs, the interior two nearly mixtures of
# the outer two: the bracket closes slowly, so 50 sweeps end in CapacityError
_NEAR_USELESS = [[0.3 + 0.01 * t, 0.3 - 0.01 * t, 0.4]
                 for t in (-1.0, -1 / 3, 1 / 3, 1.0)]


@pytest.mark.parametrize("rows,kw,fails", [
    # bsc(0.05) is the channel whose capacity simulate.json prints
    ([[0.95, 0.05], [0.05, 0.95]], {}, False),
    ([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]], {}, False),
    ([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]], {}, False),
    (_NEAR_USELESS, {"max_iter": 50}, True)],
    ids=["bsc", "erasure", "zero_column", "near_useless"])
def test_capacity_matches_reference_bits(rows, kw, fails):
    ch = StochasticMatrix(rows)
    got = _outcome(capacity, ch, **kw)
    assert got == _outcome(reference_capacity, ch, **kw)
    assert (got[0] == "CapacityError") == fails


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(2, 6), st.integers(1, 2000),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]), st.data())
def test_capacity_matches_reference_on_random_channels(k_in, k_out, max_iter,
                                                       tol, data):
    entry = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))
    rows = []
    for _ in range(k_in):
        vals = np.array(data.draw(st.lists(entry, min_size=k_out,
                                           max_size=k_out)))
        if vals.sum() == 0.0:
            vals[data.draw(st.integers(0, k_out - 1))] = 1.0
        rows.append(vals / vals.sum())
    ch = StochasticMatrix(np.array(rows))
    kw = {"tol": tol, "max_iter": max_iter}
    assert _outcome(capacity, ch, **kw) == _outcome(reference_capacity, ch, **kw)
