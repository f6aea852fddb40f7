import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from infodesign.mac import build_scenario, default_config
from infodesign.persuasion import (Block, OneShot, Scenario, Unconstrained,
                                   solve_equilibrium)
from infodesign.prob import Distribution, binary_entropy
from infodesign.splitting import (FEAS_ATOL, MAX_GRID_CELLS, NO_INFO,
                                  BinarySignal, PosteriorPair,
                                  RegionLabel, SplitError, block_feasible,
                                  grid_intervals, grid_points, in_runs,
                                  is_valid_split,
                                  message_weights, one_shot_feasible,
                                  posteriors_from_signal, region_scan,
                                  signal_from_posteriors,
                                  signal_information_rate, split_blocks,
                                  split_masks, split_runs, split_values)
from test_scan import square

CAP_QUARTER = 1.0 - binary_entropy(0.25)  # bsc(0.25)

priors = st.floats(0.02, 0.98)
units = st.floats(0.0, 1.0)


class TestPosteriorsFromSignal:
    # the study's reported optimum: signal (1, 0.4424) splits 1/2 into
    # posteriors (0, 0.642...)
    def test_reported_optimum(self):
        pair = posteriors_from_signal(0.5, BinarySignal(1.0, 0.4424))
        assert pair.p1 == pytest.approx(0.0, abs=1e-15)
        assert pair.p2 == pytest.approx(0.6420133538777607, abs=1e-12)

    def test_no_info_keeps_prior(self):
        pair = posteriors_from_signal(0.3, NO_INFO)
        assert pair.p1 == pair.p2 == pytest.approx(0.3, abs=1e-15)

    def test_zero_mass_message_flagged(self):
        # alpha=0, beta=0: message w2 never sent under prior 1
        pair = posteriors_from_signal(1.0, BinarySignal(0.0, 0.0))
        assert pair.p2 == 1.0

    def test_revealing(self):
        pair = posteriors_from_signal(0.5, BinarySignal(0.0, 0.0))
        assert (pair.p1, pair.p2) == (1.0, 0.0)


class TestMessageWeights:
    def test_sums_to_one(self):
        w = message_weights(0.5, BinarySignal(1.0, 0.4424))
        assert w[0] + w[1] == pytest.approx(1.0, abs=1e-15)
        assert w[0] == pytest.approx(0.2212, abs=1e-12)


class TestValidity:
    def test_straddle_required(self):
        assert is_valid_split(0.5, PosteriorPair(0.2, 0.8))
        assert is_valid_split(0.5, PosteriorPair(0.8, 0.2))
        assert not is_valid_split(0.5, PosteriorPair(0.6, 0.8))

    def test_degenerate_pair_invalid(self):
        assert not is_valid_split(0.5, PosteriorPair(0.5, 0.5))

    def test_boundary_priors_invalid(self):
        assert not is_valid_split(0.0, PosteriorPair(0.2, 0.8))
        assert not is_valid_split(1.0, PosteriorPair(0.2, 0.8))

    def test_posterior_equal_to_prior_invalid(self):
        assert not is_valid_split(0.5, PosteriorPair(0.5, 0.8))


class TestSignalFromPosteriors:
    def test_reported_optimum_inverts(self):
        sig = signal_from_posteriors(0.5, PosteriorPair(0.0, 0.6415))
        assert sig.alpha == pytest.approx(1.0, abs=1e-12)
        assert sig.beta == pytest.approx(0.4411535463756819, abs=1e-12)
        # the published rounding of the same point
        assert sig.beta == pytest.approx(0.4424, abs=2e-3)

    def test_degenerate_raises(self):
        with pytest.raises(SplitError, match=r"\(0\.5, 0\.5\) is degenerate"):
            signal_from_posteriors(0.5, PosteriorPair(0.5, 0.5))

    def test_non_straddle_raises(self):
        with pytest.raises(SplitError):
            signal_from_posteriors(0.5, PosteriorPair(0.6, 0.9))

    def test_revealing_inverts(self):
        sig = signal_from_posteriors(0.5, PosteriorPair(1.0, 0.0))
        assert (sig.alpha, sig.beta) == (0.0, 0.0)

    def test_subnormal_prior_inverts(self):
        # p * (p1 - p2) underflowed to -0.0, and alpha came out nan
        sig = signal_from_posteriors(5e-324, PosteriorPair(0.0, 0.5))
        assert (sig.alpha, sig.beta) == (1.0, 1.0)
        assert (sig.one_minus_alpha, sig.one_minus_beta) == (0.0, 5e-324)

    def test_solve_at_subnormal_prior(self):
        # the split (0.5, 0) of prior 5e-324 used to raise in BinarySignal
        sc = Scenario(Distribution([5e-324, 1.0]), ("act", "pass"),
                      phi1=[[1.0, 0.0], [1.0, 0.0]],
                      phi2=[[1.0, 0.0], [-1.0, 0.0]])
        res = solve_equilibrium(sc, Unconstrained(), 0.5)
        assert not res.no_info
        assert (res.posteriors.p1, res.posteriors.p2) == (0.5, 0.0)
        assert (res.signal.alpha, res.signal.beta) == (0.0, 5e-324)


class TestInformationRate:
    def test_no_info_is_zero(self):
        assert signal_information_rate(0.5, 0.5, 0.5) == 0.0

    def test_revealing_is_prior_entropy(self):
        assert signal_information_rate(0.3, 0.0, 0.0) == pytest.approx(
            binary_entropy(0.3), abs=1e-12)

    def test_reported_optimum_rate(self):
        got = signal_information_rate(0.5, 1.0, 0.4424)
        assert got == pytest.approx(0.2671497818034756, abs=1e-12)

    def test_vectorized(self):
        out = signal_information_rate(0.5, np.array([0.5, 0.0]),
                                      np.array([0.5, 0.0]))
        assert out.shape == (2,)
        assert out[0] == 0.0


class TestOneShotFeasible:
    def test_reported_optimum_infeasible_at_quarter(self):
        v = one_shot_feasible(0.5, PosteriorPair(0.0, 0.6415), 0.25)
        assert not v.feasible
        assert v.slack == pytest.approx(-0.25, abs=1e-12)
        assert v.mode == "one_shot"

    def test_mild_split_feasible(self):
        v = one_shot_feasible(0.5, PosteriorPair(0.4, 0.6), 0.25)
        assert v.feasible
        assert v.slack > 0

    def test_noiseless_channel_always_feasible(self):
        v = one_shot_feasible(0.5, PosteriorPair(0.0, 1.0), 0.0)
        assert v.feasible

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            one_shot_feasible(0.5, PosteriorPair(0.4, 0.6), 0.7)


class TestBlockFeasible:
    def test_reported_optimum_infeasible_at_quarter(self):
        # at the published rounding (1, 0.4424) the deficit is about 0.078 bits
        v = block_feasible(0.5, BinarySignal(1.0, 0.4424), CAP_QUARTER)
        assert not v.feasible
        assert v.slack == pytest.approx(-0.07842790626260843, abs=1e-12)
        # and the exact inversion of (0, 0.6415) is infeasible too
        sig = signal_from_posteriors(0.5, PosteriorPair(0.0, 0.6415))
        assert not block_feasible(0.5, sig, CAP_QUARTER).feasible

    def test_revealing_infeasible_at_quarter(self):
        v = block_feasible(0.5, BinarySignal(0.0, 0.0), CAP_QUARTER)
        assert not v.feasible
        assert v.slack == pytest.approx(CAP_QUARTER - 1.0, abs=1e-12)

    def test_no_info_always_feasible(self):
        v = block_feasible(0.5, NO_INFO, 0.0)
        assert v.feasible
        assert v.slack == pytest.approx(0.0, abs=1e-12)


class TestRegions:
    def test_masks_nested(self):
        grid = np.linspace(0.0, 1.0, 101)
        valid, one_shot, block = split_masks(0.5, grid[:, None], grid[None, :],
                                             0.25, CAP_QUARTER)
        assert not (one_shot & ~block).any()
        assert not (one_shot & ~valid).any()
        assert not (block & ~valid).any()
        assert one_shot.sum() < block.sum() < valid.sum()

    def test_scan_labels(self):
        g = region_scan(0.5, 0.25, resolution=0.01)
        labels = set(np.unique(square(g)[0]))
        assert labels == {int(RegionLabel.INVALID_SPLIT),
                          int(RegionLabel.ONE_SHOT),
                          int(RegionLabel.BLOCK_ONLY),
                          int(RegionLabel.INFEASIBLE)}
        assert g.capacity == pytest.approx(CAP_QUARTER, abs=1e-9)

    def test_scan_noiseless(self):
        # eps = 0: every valid split is one-shot feasible
        g = region_scan(0.5, 0.0, resolution=0.02)
        labels = set(np.unique(square(g)[0]))
        assert int(RegionLabel.INFEASIBLE) not in labels
        assert int(RegionLabel.BLOCK_ONLY) not in labels

    def test_scan_useless_channel(self):
        # eps = 1/2: nothing feasible off the diagonal
        g = region_scan(0.5, 0.5, resolution=0.02)
        labels = set(np.unique(square(g)[0]))
        assert int(RegionLabel.ONE_SHOT) not in labels
        assert int(RegionLabel.BLOCK_ONLY) not in labels

    def test_grid_cap_admits_sizes_in_use(self):
        # the finest solve grid and bestreply sweep in use; arithmetic only
        assert grid_intervals(5e-4, "solve") == 2000
        assert grid_intervals(1e-5, "bestreply", 1) == 100_000
        assert 2001 ** 2 <= MAX_GRID_CELLS

    @pytest.mark.parametrize("spacing", [1e-6, 1e-300, 5e-324])
    def test_grid_cap_refuses_finer_grids(self, spacing):
        with pytest.raises(ValueError, match="cap"):
            grid_intervals(spacing, "region_scan")

    def test_grid_points_are_linspace_bits(self):
        """Blocks of the axis, at every block edge, and the whole axis:
        bestreply makes its sweep one block at a time this way."""
        for n in [*range(1, 3001), 2 ** 20, 2 ** 23 - 1]:
            axis = np.linspace(0.0, 1.0, n + 1)
            step = 4096 if n > 3000 else 7
            for start in [*range(0, n + 1, step), n, n + 1]:
                stop = min(start + step, n + 1)
                assert grid_points(n, start, stop).tobytes() == axis[start:stop].tobytes()
            assert grid_points(n, 0, n + 1).tobytes() == axis.tobytes()

    @pytest.mark.parametrize("spacing", [0.0, -0.1, float("nan")])
    def test_grid_spacing_must_be_positive(self, spacing):
        with pytest.raises(ValueError, match="not positive"):
            region_scan(0.5, 0.25, resolution=spacing)

    def test_solve_memory_is_one_row_block(self):
        # the full-grid solver peaked at 439 MiB on this 2001 x 2001 grid
        sc = build_scenario(default_config())
        tracemalloc.start()
        try:
            solve_equilibrium(sc, Block(CAP_QUARTER), 5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0.0, 1.0, 0.5]) | units, st.floats(0.0, 0.5),
       st.floats(0.0, 1.0), st.sampled_from([2, 11, 40]))
def test_masks_requested_alone(p, eps, cap, n):
    """Each mask asked for alone equals the same mask of the full call, and
    a mask not asked for comes back as None."""
    grid = np.linspace(0.0, 1.0, n + 1)
    P1, P2 = grid[:, None], grid[None, :]
    valid, one_shot, block = split_masks(p, P1, P2, eps, cap)
    alone = split_masks(p, P1, P2, None, None)
    assert np.array_equal(alone[0], valid) and alone[1:] == (None, None)
    alone = split_masks(p, P1, P2, eps, None)
    assert np.array_equal(alone[0], valid) and alone[2] is None
    assert np.array_equal(alone[1], one_shot)
    alone = split_masks(p, P1, P2, None, cap)
    assert np.array_equal(alone[0], valid) and alone[1] is None
    assert np.array_equal(alone[2], block)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.0, 1.0, 0.5, 5e-324, 1e-310, 1e-300, 1.0 - 2.0 ** -53])
       | st.floats(0.0, 1e-300) | units,
       st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5),
       st.sampled_from([0.0]) | st.floats(0.0, 1.2), st.integers(1, 400))
@example(0.5, 0.25, CAP_QUARTER, 500)
@example(1e-9, 0.1, 0.5, 1000)
def test_runs_match_the_masks(p, eps, cap, n):
    """The runs of split_runs hold exactly the cells each mask of
    split_masks passes on the whole square, cell for cell."""
    grid = np.linspace(0.0, 1.0, n + 1)
    every = slice(0, n + 1)
    valid, one_shot, block = split_masks(p, grid[:, None], grid[None, :], eps, cap)
    for mask, run in (
            (valid, split_runs(p, grid)),
            (one_shot, split_runs(p, grid, lambda P1, P2: split_masks(
                p, P1, P2, eps, None)[1], eps)),
            (block, split_runs(p, grid, lambda P1, P2: split_masks(
                p, P1, P2, None, cap)[2]))):
        assert (run[0] <= run[1]).all()
        assert np.array_equal(in_runs(run, every, every), mask)


def oracle_masks(p, P1, P2, eps, cap):
    """The masks split_masks replaced, kept as its oracle: every cell
    inverted to (alpha, beta), the one-shot band as the minimum of four
    margins, and the block rate of the clipped signal, three entropies a
    cell. Returns (one_shot, block, rate)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = P2 * (P1 - p) / (p * (P1 - P2))
        beta = (1.0 - P1) * (p - P2) / ((1.0 - p) * (P1 - P2))
    margin = np.minimum.reduce([alpha - eps, (1.0 - eps) - alpha,
                                beta - eps, (1.0 - eps) - beta])
    valid = (np.minimum(P1, P2) < p) & (p < np.maximum(P1, P2))
    rate = signal_information_rate(p, np.clip(alpha, 0.0, 1.0),
                                   np.clip(beta, 0.0, 1.0))
    return (valid & (margin >= -FEAS_ATOL), valid & (cap - rate >= -FEAS_ATOL),
            rate)


@pytest.mark.parametrize("n", [500, 2000])
def test_masks_match_the_oracle(n):
    """Both masks equal the (alpha, beta) oracle on every scanned cell, at
    extreme and seeded priors and flips, and the posterior-coordinate rate
    stays within 1e-13 of the oracle's on the valid cells."""
    rng = np.random.default_rng(np.random.SeedSequence((2026, 11, n)))
    axis = np.linspace(0.0, 1.0, n + 1)
    h = binary_entropy
    for p in (1e-9, 1.0 - 1e-9, *rng.uniform(0.0, 1.0, 3)):
        for eps in (0.0, 0.5, *rng.uniform(0.0, 0.5, 2)):
            cap = 1.0 - h(eps)
            for rows, cols in split_blocks(p, axis):
                P1, P2 = axis[rows, None], axis[None, cols]
                valid, one_shot, block = split_masks(p, P1, P2, eps, cap)
                want_one, want_block, want_rate = oracle_masks(p, P1, P2, eps, cap)
                assert np.array_equal(one_shot, want_one)
                assert np.array_equal(block, want_block)
                rate = h(p) - split_values(p, P1, P2, h(P1), h(P2))
                assert np.abs(rate - want_rate)[valid].max() <= 1e-13


def seeded_scenarios(count):
    """The case study and seeded random binary scenarios of 2-8 actions."""
    rng = np.random.default_rng(np.random.SeedSequence((2026, 11)))
    yield build_scenario(default_config())
    for _ in range(count):
        k = int(rng.integers(2, 9))
        p = float(rng.uniform(0.05, 0.95))
        yield Scenario(Distribution([p, 1.0 - p]), tuple(range(k)),
                       rng.uniform(-5, 5, (2, k)), rng.uniform(-5, 5, (2, k)))


@pytest.mark.parametrize("eps", [0.1, 0.25])
def test_solver_counts_match_the_oracle(eps):
    """At 1e-3 the solver's one-shot and block optima pass their own
    verdicts, and its feasible-cell counts are those of the oracle masks."""
    cap = 1.0 - binary_entropy(eps)
    grid = np.linspace(0.0, 1.0, 1001)
    for sc in seeded_scenarios(3):
        p = float(sc.prior.probs[0])
        want = [0, 0]
        for rows, cols in split_blocks(p, grid):
            one_shot, block, _ = oracle_masks(p, grid[rows, None],
                                              grid[None, cols], eps, cap)
            want[0] += int(one_shot.sum())
            want[1] += int(block.sum())
        for mode, cells in ((OneShot(eps), want[0]), (Block(cap), want[1])):
            res = solve_equilibrium(sc, mode, 1e-3)
            assert res.feasibility.feasible
            assert res.cells_feasible == cells


@pytest.mark.parametrize("p", [5e-324, 1e-310, 2.2e-308, 1e-300])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
def test_block_mask_matches_verdicts_at_tiny_priors(p, eps):
    """At subnormal and tiny priors the block mask agrees with block_feasible
    on every valid cell: the posterior-coordinate rate never divides by p."""
    cap = 1.0 - binary_entropy(eps)
    axis = np.linspace(0.0, 1.0, 41)
    valid, _, block = split_masks(p, axis[:, None], axis[None, :], None, cap)
    for i, j in zip(*np.nonzero(valid)):
        sig = signal_from_posteriors(p, PosteriorPair(axis[i], axis[j]))
        assert block[i, j] == block_feasible(p, sig, cap).feasible


@pytest.mark.parametrize("p", [5e-324, 1e-310, 2.2e-308, 1e-300])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
def test_one_shot_mask_matches_verdicts_at_tiny_priors(p, eps):
    """At subnormal and tiny priors the one-shot mask agrees with
    one_shot_feasible on every valid cell: p * (p1 - p2) does not underflow
    to a nan alpha."""
    axis = np.linspace(0.0, 1.0, 41)
    valid, one_shot, _ = split_masks(p, axis[:, None], axis[None, :], eps, None)
    for i, j in zip(*np.nonzero(valid)):
        pair = PosteriorPair(axis[i], axis[j])
        assert one_shot[i, j] == one_shot_feasible(p, pair, eps).feasible


def test_region_labels_one_shot_at_a_subnormal_prior():
    assert square(region_scan(5e-324, 0.0, 0.25))[0][0, 1] == RegionLabel.ONE_SHOT


# -- property suites ---------------------------------------------------------

@given(priors, units, units)
def test_bayes_plausibility_exact(p, alpha, beta):
    sig = BinarySignal(alpha, beta)
    pair = posteriors_from_signal(p, sig)
    w1, w2 = message_weights(p, sig)
    assert abs(w1 * pair.p1 + w2 * pair.p2 - p) <= 1e-12


@given(priors, units, units)
def test_posteriors_in_unit_interval(p, alpha, beta):
    pair = posteriors_from_signal(p, BinarySignal(alpha, beta))
    assert 0.0 <= pair.p1 <= 1.0
    assert 0.0 <= pair.p2 <= 1.0


@settings(max_examples=300)
@given(priors, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_split_round_trip(p, p1, p2):
    pair = PosteriorPair(p1, p2)
    assume(is_valid_split(p, pair))
    sig = signal_from_posteriors(p, pair)
    back = posteriors_from_signal(p, sig)
    assert back.p1 == pytest.approx(p1, abs=1e-9)
    assert back.p2 == pytest.approx(p2, abs=1e-9)


def ulps_from(x, k):
    """x moved k ulps: toward 1 for k > 0, toward 0 for k < 0."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, 1.0 if k > 0 else 0.0))
    return x


@settings(max_examples=300)
@given(priors, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), units, st.booleans())
@example(0.02, 1, 0.015625, False)
def test_split_round_trip_near_the_prior(p, k, other, swap):
    """One posterior within a few ulps of the prior puts 1 - alpha or 1 - beta
    within a few ulps of 0, and the other posterior must still come back: at
    p = 0.02, p1 = p + 1 ulp, p2 = 0.015625, computing 1 - beta from beta
    returned p2 = 0.0160088."""
    near = ulps_from(p, k)
    pair = PosteriorPair(other, near) if swap else PosteriorPair(near, other)
    assume(is_valid_split(p, pair))
    back = posteriors_from_signal(p, signal_from_posteriors(p, pair))
    assert back.p1 == pytest.approx(pair.p1, abs=1e-9)
    assert back.p2 == pytest.approx(pair.p2, abs=1e-9)


@st.composite
def valid_splits(draw, priors):
    """(p, pair) with p strictly between the posteriors, in either order."""
    p = draw(priors)
    lo = draw(st.floats(0.0, p, exclude_max=True))
    hi = draw(st.floats(p, 1.0, exclude_min=True))
    return p, PosteriorPair(hi, lo) if draw(st.booleans()) else PosteriorPair(lo, hi)


def closed_form_factors(p, p1, p2):
    """(a, b, c, d) of alpha, beta and their complements, a * b / (c * d)."""
    return ((p2, p1 - p, p, p1 - p2), (1.0 - p1, p - p2, 1.0 - p, p1 - p2),
            (p1, p - p2, p, p1 - p2), (p1 - p, 1.0 - p2, 1.0 - p, p1 - p2))


@settings(max_examples=300)
@given(valid_splits(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                    | st.floats(5e-324, 1e-300)))
@example((0.5, PosteriorPair(0.0, 0.6415)))
def test_signal_keeps_the_plain_forms_bits(split):
    """Where no product or quotient of a closed form leaves the normal range,
    the signal has the bits of the forms evaluated directly."""
    p, pair = split
    tiny = np.finfo(float).tiny
    want = []
    for a, b, c, d in closed_form_factors(p, pair.p1, pair.p2):
        assume(abs(c * d) >= tiny)
        q = a * b / (c * d)
        assume(a == 0.0 or b == 0.0 or min(abs(a * b), abs(q)) >= tiny)
        want.append(float(np.clip(q, 0.0, 1.0)))
    sig = signal_from_posteriors(p, pair)
    got = (sig.alpha, sig.beta, sig.one_minus_alpha, sig.one_minus_beta)
    assert repr(got) == repr(tuple(want))


class Draws:
    """st.data() for an @example: hands out the given draws in order."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def draw(self, strategy, label=None):
        return next(self.draws)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(1, 9), st.integers(1, 9), st.data())
# a 1 x 1 block where both terms of the mix are nan, of different signs
@example(0.0, 1, 1, Draws([np.inf], [0.0], [np.inf], [np.nan]))
def test_split_values_in_place_keeps_the_plain_forms_bits(p, rows, cols, data):
    """The mix computed in a reused pair of scratch views has the bits of
    lam * v1 + (1 - lam) * v2 evaluated directly, p1 = p2 (nan, inf) and
    special values included, and comes back in the first view."""
    def column(n, finite):
        return np.array(data.draw(st.lists(
            st.sampled_from([p, np.inf, np.nan]) | finite,
            min_size=n, max_size=n)))[:, None]
    posteriors = st.integers(0, 1000).map(lambda k: k / 1000)
    P1, P2 = column(rows, posteriors), column(cols, posteriors).T
    V1, V2 = column(rows, st.floats(-1e6, 1e6)), column(cols, st.floats(-1e6, 1e6)).T
    with np.errstate(all="ignore"):
        lam = (P2 - p) / (P2 - P1)
        want = lam * V1 + (1.0 - lam) * V2
        scratch = np.full((2, 100), 7.0)
        out = tuple(scratch[:, :rows * cols].reshape(2, rows, cols))
        got = split_values(p, P1, P2, V1, V2, out)
    assert np.shares_memory(got, scratch[0])
    assert got.tobytes() == want.tobytes()
    assert split_values(p, P1, P2, V1, V2).tobytes() == want.tobytes()


@settings(max_examples=300)
@given(valid_splits(st.integers(1, 2 ** 52 - 1).map(lambda k: k * 5e-324)
                    | st.floats(5e-324, 1e-290)))
@example((5e-324, PosteriorPair(0.0, 0.5)))
def test_signal_finite_at_subnormal_priors(split):
    """At a subnormal or tiny prior every valid split inverts, and each
    parameter and its complement sum to 1 within a few ulps."""
    sig = signal_from_posteriors(*split)
    assert abs(sig.alpha + sig.one_minus_alpha - 1.0) <= 8 * 2.0 ** -53
    assert abs(sig.beta + sig.one_minus_beta - 1.0) <= 8 * 2.0 ** -53


@given(priors, units, units)
def test_signal_round_trip(p, alpha, beta):
    sig = BinarySignal(alpha, beta)
    pair = posteriors_from_signal(p, sig)
    assume(is_valid_split(p, pair))
    back = signal_from_posteriors(p, pair)
    assert back.alpha == pytest.approx(alpha, abs=1e-9)
    assert back.beta == pytest.approx(beta, abs=1e-9)


@given(priors, units, units)
def test_rate_nonnegative_and_bounded(p, alpha, beta):
    rate = signal_information_rate(p, alpha, beta)
    assert -1e-12 <= rate <= binary_entropy(p) + 1e-12
