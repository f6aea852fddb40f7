import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infodesign import persuasion, splitting
from infodesign.persuasion import (Block, EquilibriumResult, OneShot, Scenario,
                                   Unconstrained, grid_best_replies, in_Q0,
                                   in_Q2, scenario_from_dict, sender_value,
                                   solve_equilibrium)
from infodesign.prob import Distribution, StochasticMatrix, binary_entropy
from infodesign.splitting import (NO_INFO, PosteriorPair, SplitError,
                                  signal_from_posteriors, split_masks,
                                  split_values)

# classic two-state persuasion: sender wants action "act" always, receiver
# wants it only in state good (prior tilted toward bad)
PROSECUTOR = Scenario(
    prior=Distribution([0.3, 0.7]),
    actions=("act", "pass"),
    phi1=[[1.0, 0.0], [1.0, 0.0]],
    phi2=[[1.0, 0.0], [-1.0, 0.0]],
)

ALIGNED = Scenario(
    prior=Distribution([0.4, 0.6]),
    actions=(0, 1),
    phi1=[[1.0, 0.0], [0.0, 1.0]],
    phi2=[[1.0, 0.0], [0.0, 1.0]],
)


# one message, so its posterior is the prior in_Q2 is given
POOLING = StochasticMatrix([[1.0], [1.0]])


def best_reply_set(q: float, sc: Scenario) -> tuple:
    """Indices of the actions in_Q2 accepts as a best reply at posterior
    (q, 1 - q): the receiver's tie set."""
    k = len(sc.actions)
    return tuple(i for i in range(k)
                 if in_Q2(Distribution([q, 1.0 - q]), POOLING,
                          StochasticMatrix(np.eye(k)[[i]]), sc))


class TestBestReply:
    def test_threshold(self):
        sel, _, _ = grid_best_replies(PROSECUTOR, np.array([0.6, 0.3]))
        assert sel.tolist() == [0, 1]
        assert best_reply_set(0.6, PROSECUTOR) == (0,)
        assert best_reply_set(0.3, PROSECUTOR) == (1,)

    def test_tie_broken_sender_preferred(self):
        # at posterior 1/2 the receiver is indifferent; sender wants "act"
        assert best_reply_set(0.5, PROSECUTOR) == (0, 1)
        assert grid_best_replies(PROSECUTOR, np.array([0.5]))[0].tolist() == [0]

    def test_tie_lowest_index_when_sender_indifferent(self):
        sc = Scenario(Distribution([0.5, 0.5]), ("a", "b"),
                      phi1=[[0.0, 0.0], [0.0, 0.0]],
                      phi2=[[1.0, 1.0], [1.0, 1.0]])
        assert best_reply_set(0.5, sc) == (0, 1)
        assert grid_best_replies(sc, np.array([0.5]))[0].tolist() == [0]

    def test_receiver_value(self):
        _, _, V2 = grid_best_replies(PROSECUTOR, np.array([0.6]))
        assert V2[0] == pytest.approx(0.2, abs=1e-12)


def test_tie_band_scales_with_receiver_table():
    # action 2 trails action 1 by 1.7709e-12 * (1 - q): outside the band for
    # q < 0.435 at either scale; an absolute band of 1e-12 tied them at
    # every q once phi2 was halved
    sc = Scenario(Distribution([0.5, 0.5]), (0, 1, 2),
                  phi1=[[0.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
                  phi2=[[0.0, 0.0, 0.0], [-1.0, 0.0, -1.7709e-12]])
    half = Scenario(sc.prior, sc.actions, sc.phi1, 0.5 * sc.phi2)
    grid = np.linspace(0.0, 1.0, 41)
    want = np.array([1] * 18 + [2] * 22 + [0])
    assert np.array_equal(grid_best_replies(sc, grid)[0], want)
    assert np.array_equal(grid_best_replies(half, grid)[0], want)
    for s in (sc, half):
        assert best_reply_set(0.2, s) == (1,)
        assert best_reply_set(0.8, s) == (1, 2)


class TestFeasibilityPredicates:
    def test_q0_no_info_fits_zero_capacity(self):
        sig = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        v = in_Q0(Distribution([0.5, 0.5]), sig, 0.0)
        assert v.feasible

    def test_q0_revealing_needs_full_bit(self):
        sig = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
        v = in_Q0(Distribution([0.5, 0.5]), sig, 0.9)
        assert not v.feasible
        assert v.slack == pytest.approx(-0.1, abs=1e-12)

    def test_q2_accepts_best_reply(self):
        sig = StochasticMatrix([[0.65, 0.35], [0.35, 0.65]])
        rsp = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
        assert in_Q2(Distribution([0.5, 0.5]), sig, rsp, ALIGNED)

    def test_q2_rejects_dominated_response(self):
        sig = StochasticMatrix([[0.65, 0.35], [0.35, 0.65]])
        rsp = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert not in_Q2(Distribution([0.5, 0.5]), sig, rsp, ALIGNED)

    def test_q2_ignores_zero_mass_message(self):
        sig = StochasticMatrix([[1.0, 0.0], [1.0, 0.0]])
        rsp = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])  # w2 never occurs
        assert in_Q2(Distribution([0.5, 0.5]), sig, rsp, ALIGNED)


class TestSenderValue:
    def test_prosecutor_optimal_split(self):
        # posteriors (1/2, 0): receiver acts at 1/2 (sender-preferred tie)
        v1, v2 = sender_value(PosteriorPair(0.5, 0.0), 0.3, PROSECUTOR)
        assert v1 == pytest.approx(0.6, abs=1e-12)

    def test_no_info_point(self):
        v1, _ = sender_value(PosteriorPair(0.3, 0.3), 0.3, PROSECUTOR)
        assert v1 == 0.0  # receiver passes at the prior

    def test_degenerate_off_prior_raises(self):
        with pytest.raises(SplitError):
            sender_value(PosteriorPair(0.4, 0.4), 0.3, PROSECUTOR)

    def test_invalid_split_raises(self):
        with pytest.raises(SplitError):
            sender_value(PosteriorPair(0.1, 0.2), 0.3, PROSECUTOR)


class TestSolve:
    def test_prosecutor_unconstrained(self):
        # concavification: split 0.3 into (1/2, 0), value = 0.3/0.5 = 0.6
        res = solve_equilibrium(PROSECUTOR, Unconstrained(), 1e-3)
        assert res.phi1_star == pytest.approx(0.6, abs=2e-3)
        assert sorted((res.posteriors.p1, res.posteriors.p2)) == pytest.approx(
            [0.0, 0.5], abs=1e-9)
        assert not res.no_info

    def test_aligned_equals_revealing(self):
        # with identical utilities nothing beats full revelation
        res = solve_equilibrium(ALIGNED, Unconstrained(), 1e-2)
        rev1, _ = sender_value(PosteriorPair(1.0, 0.0), 0.4, ALIGNED)
        assert res.phi1_star == pytest.approx(rev1, abs=1e-12)
        assert res.phi1_star == pytest.approx(1.0, abs=1e-12)
        assert set(res.receiver_actions) == {0, 1}

    def test_mode_monotonicity(self):
        cap = 1.0 - binary_entropy(0.25)
        v_un = solve_equilibrium(PROSECUTOR, Unconstrained(), 1e-2).phi1_star
        v_bl = solve_equilibrium(PROSECUTOR, Block(cap), 1e-2).phi1_star
        v_os = solve_equilibrium(PROSECUTOR, OneShot(0.25), 1e-2).phi1_star
        v_no = sender_value(PosteriorPair(0.3, 0.3), 0.3, PROSECUTOR)[0]
        assert v_un >= v_bl - 1e-12
        assert v_bl >= v_os - 1e-12
        assert v_os >= v_no - 1e-12

    def test_zero_capacity_forces_no_info(self):
        res = solve_equilibrium(PROSECUTOR, Block(0.0), 1e-2)
        assert res.no_info
        assert res.signal.alpha == res.signal.beta == 0.5
        assert res.feasibility.feasible

    def test_useless_channel_forces_no_info(self):
        res = solve_equilibrium(PROSECUTOR, OneShot(0.5), 1e-2)
        assert res.no_info

    def test_posteriors_average_to_prior(self):
        res = solve_equilibrium(PROSECUTOR, Unconstrained(), 1e-2)
        w = res.message_weights.probs
        back = w[0] * res.posteriors.p1 + w[1] * res.posteriors.p2
        assert back == pytest.approx(0.3, abs=1e-9)

    def test_feasibility_verdict_attached(self):
        res = solve_equilibrium(PROSECUTOR, OneShot(0.1), 1e-2)
        assert res.feasibility.mode == "one_shot"
        assert res.feasibility.feasible

    def test_rejects_nonbinary(self):
        sc = Scenario(Distribution([0.3, 0.3, 0.4]), (0, 1),
                      phi1=np.zeros((3, 2)), phi2=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            solve_equilibrium(sc, Unconstrained())

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            solve_equilibrium(PROSECUTOR, Unconstrained(), 0.0)


class TestModes:
    def test_one_shot_validates_eps(self):
        with pytest.raises(ValueError):
            OneShot(0.75)

    def test_block_validates_capacity(self):
        with pytest.raises(ValueError):
            Block(-0.1)

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), -1.0])
    def test_block_capacity_must_be_finite_and_nonnegative(self, cap):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            Block(cap)

    def test_names(self):
        assert Unconstrained.name == "unconstrained"
        assert OneShot(0.1).name == "one_shot"
        assert Block(1.0).name == "block"


class TestScenarioIO:
    def test_round_trip(self):
        doc = {"prior": [0.3, 0.7], "actions": ["act", "pass"],
               "phi1": [[1.0, 0.0], [1.0, 0.0]], "phi2": [[1.0, 0.0], [-1.0, 0.0]]}
        sc = scenario_from_dict(doc)
        assert sc.actions == PROSECUTOR.actions
        assert np.array_equal(sc.phi1, PROSECUTOR.phi1)
        assert np.array_equal(sc.phi2, PROSECUTOR.phi2)
        assert np.array_equal(sc.prior.probs, PROSECUTOR.prior.probs)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="phi2"):
            scenario_from_dict({"prior": [0.5, 0.5], "actions": [0, 1],
                                "phi1": [[0, 0], [0, 0]]})

    def test_unknown_field(self):
        doc = {"prior": [0.4, 0.6], "actions": [0, 1], "phi1": [[1, 0], [0, 1]],
               "phi2": [[1, 0], [0, 1]], "extra": 1}
        with pytest.raises(ValueError, match="scenario: unknown field 'extra'"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("actions,why", [
        (("stay, quiet", "go"), "neither"), (("go\nnow", "stay"), "neither"),
        (('say "hi"', "go"), "neither"), (("go\r", "stay"), "neither"),
        (([1, 2], {"a": 1}), "neither"), ((True, 0), "neither"),
        ((float("nan"), 0), "neither"), ((0.5, None), "neither"),
        (("go", "go"), "duplicate"), ((1, 1.0), "duplicate")])
    def test_action_labels_refused(self, actions, why):
        with pytest.raises(ValueError, match=f"^Scenario: .*{why}"):
            Scenario(Distribution([0.5, 0.5]), actions, np.eye(2), np.eye(2))

    def test_action_labels_accepted(self):
        labels = ("", "a b", "a'b", -3, 2.5, np.float32(0.25), np.int64(7))
        sc = Scenario(Distribution([0.5, 0.5]), labels, np.ones((2, 7)),
                      np.ones((2, 7)))
        assert sc.actions == labels

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"prior": [0.5, 0.5], "actions": [0, 1],
                                "phi1": [[0, 0]], "phi2": [[0, 0], [0, 0]]})


# -- property suites ---------------------------------------------------------

def random_binary_scenario(data, k_actions, entries=st.floats(-5, 5)):
    p = data.draw(st.floats(0.05, 0.95))
    phi = st.lists(st.lists(entries, min_size=k_actions,
                            max_size=k_actions), min_size=2, max_size=2)
    return Scenario(Distribution([p, 1.0 - p]), tuple(range(k_actions)),
                    data.draw(phi), data.draw(phi))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.data())
def test_argmax_affine_invariance(k_actions, data):
    """Rescaling and shifting the receiver table never moves the best reply.

    The shift is drawn relative to the table's spread: a shift much larger
    than the spread rounds the payoff gaps away before the solver sees the
    table (gaps of 7e-40 or 2.2e-16 under a shift of +1), and no tie rule can
    bring them back. The copy a * phi2 + b is exact, so that rounding cannot
    move a gap across the tie band's edge either (phi2 rows (0, 1), (0, 1e-12)
    tie in the table but not in a copy shifted by one spread and rounded):
    entries are multiples of 2^-10, a is a power of two and b a multiple of
    2^-10.
    """
    ticks = st.integers(-5 * 2 ** 10, 5 * 2 ** 10).map(lambda t: t / 2 ** 10)
    sc = random_binary_scenario(data, k_actions, ticks)
    a = 2.0 ** data.draw(st.integers(-4, 4))
    c = data.draw(st.floats(-5.0, 5.0))
    b = round(c * float(sc.phi2.max() - sc.phi2.min()) * 2 ** 10) / 2 ** 10
    phi2 = a * sc.phi2 + b
    assert np.array_equal((phi2 - b) / a, sc.phi2)
    sc2 = Scenario(sc.prior, sc.actions, sc.phi1, phi2)
    grid = np.linspace(0.0, 1.0, 41)
    sel1, _, _ = grid_best_replies(sc, grid)
    sel2, _, _ = grid_best_replies(sc2, grid)
    assert np.array_equal(sel1, sel2)


def table_best_replies(sc, q_grid):
    """grid_best_replies through the full (N, K) payoff tables, kept as the
    bitwise oracle of the selected values."""
    q = np.asarray(q_grid, dtype=float)[:, None]
    U1 = q * sc.phi1[0][None, :] + (1.0 - q) * sc.phi1[1][None, :]
    U2 = q * sc.phi2[0][None, :] + (1.0 - q) * sc.phi2[1][None, :]
    _, sel = persuasion._tie_broken(np.hstack((q, 1.0 - q)), U1, sc)
    take = sel[:, None]
    return (sel, np.take_along_axis(U1, take, axis=1).ravel(),
            np.take_along_axis(U2, take, axis=1).ravel())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_grid_best_replies_match_tables(k_actions, data):
    sc = random_binary_scenario(data, k_actions,
                                st.floats(-1e300, 1e300) | st.floats(-5, 5))
    grid = np.concatenate([np.linspace(0.0, 1.0, 41),
                           data.draw(st.lists(st.floats(0.0, 1.0), max_size=9))])
    got, want = grid_best_replies(sc, grid), table_best_replies(sc, grid)
    assert np.array_equal(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_mode_monotonicity_random(k_actions, data):
    sc = random_binary_scenario(data, k_actions)
    eps = data.draw(st.floats(0.0, 0.49))
    cap = 1.0 - binary_entropy(eps)
    v_un = solve_equilibrium(sc, Unconstrained(), 0.05).phi1_star
    v_bl = solve_equilibrium(sc, Block(cap), 0.05).phi1_star
    v_os = solve_equilibrium(sc, OneShot(eps), 0.05).phi1_star
    assert v_un >= v_bl - 1e-9
    assert v_bl >= v_os - 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.data())
def test_solver_weights_average_to_prior(k_actions, data):
    sc = random_binary_scenario(data, k_actions)
    res = solve_equilibrium(sc, Unconstrained(), 0.05)
    w = res.message_weights.probs
    back = w[0] * res.posteriors.p1 + w[1] * res.posteriors.p2
    assert back == pytest.approx(float(sc.prior.probs[0]), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.floats(0.0, 0.5), st.data())
def test_reported_values_follow_reported_actions(k_actions, eps, data):
    """The values are the lam-mix of the reported actions' payoffs at the
    reported posteriors, bit for bit, in every mode; the no-information
    point is the best reply at the prior."""
    sc = random_binary_scenario(data, k_actions)
    p = float(sc.prior.probs[0])
    for mode in (Unconstrained(), OneShot(eps), Block(1.0 - binary_entropy(eps))):
        res = solve_equilibrium(sc, mode, 0.05)
        if res.no_info:
            sel, V1, V2 = grid_best_replies(sc, np.array([p]))
            assert res.receiver_actions == (sc.actions[sel[0]],) * 2
            assert (res.phi1_star, res.phi2_star) == (V1[0], V2[0])
            continue
        q1, q2 = res.posteriors.p1, res.posteriors.p2
        a1, a2 = (sc.actions.index(v) for v in res.receiver_actions)
        lam = (q2 - p) / (q2 - q1)
        for phi, star in ((sc.phi1, res.phi1_star), (sc.phi2, res.phi2_star)):
            at1 = q1 * phi[0, a1] + (1.0 - q1) * phi[1, a1]
            at2 = q2 * phi[0, a2] + (1.0 - q2) * phi[1, a2]
            assert star == lam * at1 + (1.0 - lam) * at2


def reference_solve(sc, mode, resolution):
    """The full-grid solver the row-block scan replaced, kept as its oracle:
    one mask over the whole (n + 1)^2 grid, split_values, np.where and
    np.argmax. The counts are the valid cells and those passing the mask."""
    p = float(sc.prior.probs[0])
    grid = np.linspace(0.0, 1.0, round(1.0 / resolution) + 1)
    sel, V1, V2 = grid_best_replies(sc, grid)
    P1, P2 = grid[:, None], grid[None, :]
    valid, one_shot, block = split_masks(p, P1, P2, getattr(mode, "eps", 0.0),
                                         getattr(mode, "capacity", np.inf))
    mask = {"unconstrained": valid, "one_shot": one_shot, "block": block}[mode.name]
    counts = dict(cells_scanned=int(valid.sum()), cells_feasible=int(mask.sum()))

    no_sel, no1, no2 = grid_best_replies(sc, np.array([p]))
    best = EquilibriumResult(
        posteriors=PosteriorPair(p, p), signal=NO_INFO,
        message_weights=Distribution((0.5, 0.5)),
        receiver_actions=(sc.actions[no_sel[0]], sc.actions[no_sel[0]]),
        phi1_star=float(no1[0]), phi2_star=float(no2[0]),
        feasibility=mode.no_info_verdict(), no_info=True, **counts)
    if not mask.any():
        return best
    vals = np.where(mask, split_values(p, P1, P2, V1[:, None], V1[None, :]), -np.inf)
    flat = int(np.argmax(vals))
    if not float(vals.flat[flat]) > best.phi1_star:
        return best
    i, j = divmod(flat, grid.size)
    pair = PosteriorPair(float(grid[i]), float(grid[j]))
    lam = float(split_values(p, pair.p1, pair.p2, 1.0, 0.0))
    return EquilibriumResult(
        posteriors=pair, signal=signal_from_posteriors(p, pair),
        message_weights=Distribution((lam, 1.0 - lam)),
        receiver_actions=(sc.actions[sel[i]], sc.actions[sel[j]]),
        phi1_star=float(split_values(p, pair.p1, pair.p2, V1[i], V1[j])),
        phi2_star=float(split_values(p, pair.p1, pair.p2, V2[i], V2[j])),
        feasibility=mode.split_verdict(p, pair), no_info=False, **counts)


def assert_same_result(got, want):
    """Every field equal, bit for bit (repr tells -0.0 from 0.0)."""
    for f in dataclasses.fields(EquilibriumResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "message_weights":
            a, b = a.probs.tobytes(), b.probs.tobytes()
        assert type(a) is type(b) and repr(a) == repr(b), f.name


# 1/401 and 1/450 spread the valid rectangles over several default blocks,
# with a last block shorter than the others
RESOLUTIONS = (0.5, 0.3, 0.1, 0.05, 1 / 37, 1 / 150, 1 / 401, 1 / 450)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), st.data())
def test_row_block_scan_matches_full_grid(k_actions, data):
    """The row-block scan over the mode's runs returns what the full-grid
    argmax over its mask returned, in every field: integer payoffs make ties
    common, the prior is drawn on a grid point, at 0 and at 1, the
    resolution and the capacity at random, and the block is the default or
    a few cells."""
    resolution = data.draw(st.sampled_from(RESOLUTIONS)
                           | st.integers(1, 450).map(lambda k: 1.0 / k))
    n = round(1.0 / resolution)
    p = data.draw(st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                            st.integers(0, n).map(lambda i: i / n),
                            st.floats(0.0, 1.0)))
    phi = st.lists(st.lists(st.integers(-3, 3).map(float), min_size=k_actions,
                            max_size=k_actions), min_size=2, max_size=2)
    sc = Scenario(Distribution([p, 1.0 - p]), tuple(range(k_actions)),
                  data.draw(phi), data.draw(phi))
    eps = data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]) | st.floats(0.0, 0.5))
    cap = data.draw(st.just(1.0 - binary_entropy(eps)) | st.floats(0.0, 1.2))
    block = data.draw(st.sampled_from([splitting.SCAN_BLOCK_CELLS, 1, 2, 7, 64]))
    with mock.patch.object(splitting, "SCAN_BLOCK_CELLS", block):
        for mode in (Unconstrained(), OneShot(eps), Block(cap)):
            assert_same_result(solve_equilibrium(sc, mode, resolution),
                               reference_solve(sc, mode, resolution))


@pytest.mark.parametrize("block", [1, 2, 3, 5, 7, 22])
def test_ties_across_block_edges(monkeypatch, block):
    """Sender value 1 on every split with p1 <= 0.4 and p2 >= 0.6 (and the
    mirror cells), 0 at the prior: the maximum ties in many cells of both
    rectangles, across block edges, and the first of them in row-major
    order must win."""
    sc = Scenario(Distribution([0.5, 0.5]), ("a", "b", "c"),
                  phi1=[[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]],
                  phi2=[[0.0, 0.6, 1.0], [1.0, 0.6, 0.0]])
    monkeypatch.setattr(splitting, "SCAN_BLOCK_CELLS", block)
    for resolution in (0.05, 1 / 23):
        want = reference_solve(sc, Unconstrained(), resolution)
        assert not want.no_info and want.phi1_star == 1.0
        assert_same_result(solve_equilibrium(sc, Unconstrained(), resolution), want)


def test_counts_scan_only_valid_cells():
    """The scan visits only the valid rectangles: 2 * 10 * 10 cells of the
    21 x 21 grid at prior 1/2, none at priors 0 and 1; a zero capacity
    passes no cell and falls back to no information."""
    sc = Scenario(Distribution([0.5, 0.5]), PROSECUTOR.actions,
                  PROSECUTOR.phi1, PROSECUTOR.phi2)
    res = solve_equilibrium(sc, Unconstrained(), 0.05)
    assert res.cells_scanned == res.cells_feasible == 200
    res = solve_equilibrium(sc, Block(0.0), 0.05)
    assert res.no_info
    assert (res.cells_scanned, res.cells_feasible) == (200, 0)
    for p in (0.0, 1.0):
        sc = Scenario(Distribution([p, 1.0 - p]), PROSECUTOR.actions,
                      PROSECUTOR.phi1, PROSECUTOR.phi2)
        res = solve_equilibrium(sc, Unconstrained(), 0.05)
        assert res.no_info and res.cells_scanned == res.cells_feasible == 0
