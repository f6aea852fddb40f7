"""Sender-commitment equilibrium over binary states.

The sender designs a binary signal; the receiver observes the message, updates
to a posterior and best-replies. The solver grid-searches posterior pairs,
restricted by the channel feasibility mode, and returns the sender-optimal
split together with the induced values.

Two actions tie for the receiver when their expected payoffs lie within a
band relative to the spread max(phi2) - min(phi2) of the receiver table, so
rescaling or shifting phi2 moves no best reply. Ties are broken in the
sender's favor, then by lowest action index, so runs are reproducible.
"""
from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .prob import (Distribution, JointDistribution, StochasticMatrix,
                   checked_fields, mutual_information, payoff_table)
from .splitting import (FEAS_ATOL, NO_INFO, SCAN_BLOCK_CELLS, BinarySignal,
                        FeasibilityVerdict, PosteriorPair, SplitError,
                        block_feasible, check_eps, grid_intervals,
                        is_valid_split, one_shot_feasible,
                        signal_from_posteriors, split_blocks, split_masks,
                        split_runs, split_values)

TIE_ATOL = 1e-12  # stray probability mass in_Q2 forgives
TIE_RTOL = 1e-12  # receiver tie band, as a fraction of the phi2 spread
SKIP_RTOL = 1e-9  # solver's chord-bound margin, as a fraction of 1 + max|phi1|
# numpy's ufunc buffer, in elements, while the solver scans. With the
# default 8192, wider than a block row, the iterator copies the (1, w) and
# (h, 1) operands of split_values through its buffer to make inner loops
# that span rows; with no more than a row, each inner loop stays in one
# row, where every operand has a single stride, and nothing is copied. At
# 5e-4 and 1e-3 this cut split_values from about 4.5 to 3 ns a cell (a
# 2-core Xeon VM, numpy 2.4).
ROW_BUFSIZE = 512


def csv_cell(x) -> str:
    """The text of x in a CSV cell: 9 significant digits for a float, str
    for an integer, a string as it is, and None as the empty cell."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer, np.bool_)):
        return str(int(x))
    return format(float(x), ".9g")


@dataclass(frozen=True)
class Scenario:
    """Persuasion game: prior over states, ordered actions, payoff tables.

    phi1 is the sender's table, phi2 the receiver's; both |U| x |V|, with a
    finite spread max(phi2) - min(phi2). Action labels are distinct finite
    numbers or strings that print as one CSV cell, no two alike (csv_cell).
    """

    prior: Distribution
    actions: tuple
    phi1: np.ndarray
    phi2: np.ndarray

    def __post_init__(self):
        actions = tuple(self.actions)
        if not actions:
            raise ValueError("Scenario: empty action set")
        printed = {}
        for k, v in enumerate(actions):
            if isinstance(v, str):
                ok = not any(c in v for c in ',"\r\n')
            else:
                ok = (isinstance(v, numbers.Real) and not isinstance(v, bool)
                      and math.isfinite(v))
            if not ok:
                raise ValueError(f"Scenario: action label {v!r} is neither a finite "
                                 f"number nor a string free of ',', '\"', CR and LF")
            if v in actions[:k]:
                raise ValueError(f"Scenario: duplicate action label {v!r}")
            text = csv_cell(v)
            if text in printed:
                raise ValueError(f"Scenario: action labels {printed[text]!r} and "
                                 f"{v!r} both print as {text!r}")
            printed[text] = v
        want = (len(self.prior), len(actions))
        for name in ("phi1", "phi2"):
            object.__setattr__(self, name, payoff_table(getattr(self, name), want,
                                                        f"Scenario: {name}"))
        if not math.isfinite(float(self.phi2.max()) - float(self.phi2.min())):
            raise ValueError("Scenario: phi2 spread max - min overflows")
        object.__setattr__(self, "actions", actions)


@dataclass(frozen=True)
class Unconstrained:
    name: ClassVar[str] = "unconstrained"

    def runs(self, p: float, grid: np.ndarray) -> tuple:
        return split_runs(p, grid)

    def no_info_verdict(self) -> FeasibilityVerdict:
        return FeasibilityVerdict(True, np.inf, "unconstrained")

    def split_verdict(self, p: float, pair: PosteriorPair) -> FeasibilityVerdict:
        return self.no_info_verdict()


@dataclass(frozen=True)
class OneShot:
    eps: float
    name: ClassVar[str] = "one_shot"

    def __post_init__(self):
        check_eps(self.eps, "OneShot")

    def runs(self, p: float, grid: np.ndarray) -> tuple:
        def mask(P1, P2):
            return split_masks(p, P1, P2, self.eps, None)[1]
        return split_runs(p, grid, mask, self.eps)

    def no_info_verdict(self) -> FeasibilityVerdict:
        # canonical signal (1/2, 1/2) sits mid-band
        return FeasibilityVerdict(True, 0.5 - self.eps, "one_shot")

    def split_verdict(self, p: float, pair: PosteriorPair) -> FeasibilityVerdict:
        return one_shot_feasible(p, pair, self.eps)


@dataclass(frozen=True)
class Block:
    capacity: float
    name: ClassVar[str] = "block"

    def __post_init__(self):
        if not (np.isfinite(self.capacity) and self.capacity >= 0):
            raise ValueError(f"Block: capacity {self.capacity!r} must be finite "
                             f"and >= 0")

    def runs(self, p: float, grid: np.ndarray) -> tuple:
        def mask(P1, P2):
            return split_masks(p, P1, P2, None, self.capacity)[2]
        return split_runs(p, grid, mask)

    def no_info_verdict(self) -> FeasibilityVerdict:
        return FeasibilityVerdict(True, self.capacity, "block")

    def split_verdict(self, p: float, pair: PosteriorPair) -> FeasibilityVerdict:
        return block_feasible(p, signal_from_posteriors(p, pair), self.capacity)


@dataclass(frozen=True)
class EquilibriumResult:
    posteriors: PosteriorPair
    signal: BinarySignal
    message_weights: Distribution
    receiver_actions: tuple
    phi1_star: float
    phi2_star: float
    feasibility: FeasibilityVerdict
    no_info: bool
    cells_scanned: int  # valid cells of the posterior square
    cells_feasible: int  # of those, the cells in the mode's runs
    cells_evaluated: int  # of those, the cells in the row ranges scanned


def _tie_broken(weights: np.ndarray, U1: np.ndarray, sc: Scenario):
    """(tie mask, selected index) along the last axis: the one tie rule.

    weights holds posteriors over the states on its last axis and U1 the
    sender's payoffs under them. Actions whose receiver payoffs lie within
    TIE_RTOL times the spread max(phi2) - min(phi2) of the best one are tied;
    the sender's favorite among them is selected, then the lowest index. A
    shift of phi2 leaves the band as it is and a rescaling by a > 0 scales
    it by a, as it does every payoff gap. The payoffs are measured from
    min(phi2), so their rounding stays within a few ulps of the spread, far
    inside the band, however far phi2 sits from zero.
    """
    rel = sc.phi2 - sc.phi2.min()
    R = weights @ rel
    tie = R >= R.max(axis=-1, keepdims=True) - TIE_RTOL * float(rel.max())
    return tie, np.argmax(np.where(tie, U1, -np.inf), axis=-1)


def in_Q0(prior: Distribution, signal: StochasticMatrix, cap: float) -> FeasibilityVerdict:
    """Does the signal's information rate fit under the channel capacity?

    Independent of any receiver response.
    """
    if signal.num_inputs != len(prior):
        raise ValueError("in_Q0: signal rows do not match prior length")
    if cap < 0:
        raise ValueError(f"in_Q0: negative capacity {cap!r}")
    joint = JointDistribution(prior.probs[:, None] * signal.rows, axes=("u", "w"))
    slack = cap - mutual_information(joint)
    return FeasibilityVerdict(slack >= -FEAS_ATOL, slack, "block")


def in_Q2(prior: Distribution, signal: StochasticMatrix,
          response: StochasticMatrix, sc: Scenario) -> bool:
    """Is the response a best reply at every positive-mass message?

    The best replies at a message are the tie set of _tie_broken at its
    posterior; the response may put at most TIE_ATOL mass outside it.
    """
    if signal.num_inputs != len(prior) or len(prior) != len(sc.prior):
        raise ValueError("in_Q2: prior/signal/scenario dimensions disagree")
    if response.num_inputs != signal.num_outputs:
        raise ValueError("in_Q2: response rows do not match signal outputs")
    if response.num_outputs != len(sc.actions):
        raise ValueError("in_Q2: response columns do not match the action set")
    pw = prior.probs @ signal.rows
    live = pw > 0
    posts = (prior.probs[:, None] * signal.rows[:, live] / pw[live]).T
    tie, _ = _tie_broken(posts, posts @ sc.phi1, sc)
    stray = 1.0 - np.where(tie, response.rows[live], 0.0).sum(axis=1)
    return bool(np.all(stray <= TIE_ATOL))


def _require_binary(sc: Scenario, who: str) -> float:
    if len(sc.prior) != 2:
        raise ValueError(f"{who}: solver scope is binary state spaces, "
                         f"got {len(sc.prior)} states")
    return float(sc.prior.probs[0])


def sender_value(t: PosteriorPair, p: float, sc: Scenario):
    """Expected (phi1, phi2) of the split t from prior p.

    The no-information point p1 = p2 = p evaluates at the prior itself.
    """
    _require_binary(sc, "sender_value")
    if t.p1 == t.p2 != p:
        raise SplitError(f"sender_value: degenerate pair at {t.p1!r} "
                         f"inconsistent with prior {p!r}")
    if t.p1 != t.p2 and not is_valid_split(p, t):
        raise SplitError(f"sender_value: prior {p!r} not strictly between "
                         f"({t.p1!r}, {t.p2!r})")
    _, V1, V2 = grid_best_replies(sc, np.array([t.p1, t.p2]))
    if t.p1 == t.p2:
        return float(V1[0]), float(V2[0])
    return tuple(float(split_values(p, t.p1, t.p2, *V)) for V in (V1, V2))


def grid_best_replies(sc: Scenario, q_grid: np.ndarray):
    """Vectorized tie-broken best replies along a posterior axis.

    Returns (selected index, sender value, receiver value) arrays. Shared by
    the solver and the case-study surface generator so their argmax agrees.
    Ties follow _tie_broken, the rule in_Q2 applies too: within a band of
    the receiver's best relative to the spread of phi2, then the sender's
    favorite, then the lowest action index. The (N, K) payoff tables are
    made in row blocks of about SCAN_BLOCK_CELLS cells, so memory is O(N)
    plus one block however many actions there are.
    """
    _require_binary(sc, "grid_best_replies")
    q = np.asarray(q_grid, dtype=float)
    sel = np.empty(q.size, dtype=np.intp)
    step = max(1, SCAN_BLOCK_CELLS // len(sc.actions))
    for a in range(0, q.size, step):
        Q = q[a:a + step, None]
        U1 = Q * sc.phi1[0][None, :] + (1.0 - Q) * sc.phi1[1][None, :]
        sel[a:a + step] = _tie_broken(np.hstack((Q, 1.0 - Q)), U1, sc)[1]
    # the selected entries of the (N, K) tables, in the same operations
    V1 = q * sc.phi1[0][sel] + (1.0 - q) * sc.phi1[1][sel]
    V2 = q * sc.phi2[0][sel] + (1.0 - q) * sc.phi2[1][sel]
    return sel, V1, V2


def _chord_bounds(p: float, grid: np.ndarray, sel: np.ndarray, V1: np.ndarray,
                  runs: tuple, scratch: np.ndarray) -> np.ndarray:
    """Per row of the posterior square, the largest split value at an end
    of its run or at an end of a segment of V1 inside the run (-inf on an
    empty run).

    A segment is a maximal range of grid points with one selected action, on
    which V1 is linear in the posterior. The value at p of the chord from the
    row's point to a point q of a segment is a ratio of affine functions of
    q whose pole, q = p1, lies outside the run, so it is monotone along the
    segment and peaks at one of its ends. So no run cell's value exceeds the
    bound by more than the rounding of V1 and of split_values. The segment
    ends are taken in row blocks of about SCAN_BLOCK_CELLS cells, written
    into scratch.
    """
    start, stop = runs
    bound = np.full(grid.size, -np.inf)
    rows = np.flatnonzero(stop > start)
    first, last = start[rows], stop[rows] - 1
    bound[rows] = np.maximum(
        split_values(p, grid[rows], grid[first], V1[rows], V1[first]),
        split_values(p, grid[rows], grid[last], V1[rows], V1[last]))
    # the grid points on either side of a change of selected action
    change = sel[1:] != sel[:-1]
    ends = np.flatnonzero(np.concatenate((change, [False]))
                          | np.concatenate(([False], change)))[:, None]
    step = max(1, SCAN_BLOCK_CELLS // max(1, ends.size))
    for k in range(0, rows.size, step):
        r = rows[k:k + step]
        out = tuple(scratch[:, :ends.size * r.size].reshape(2, ends.size, r.size))
        vals = split_values(p, grid[r], grid[ends], V1[r], V1[ends], out)
        np.copyto(vals, -np.inf, where=(ends < start[r]) | (ends >= stop[r]))
        bound[r] = np.maximum(bound[r], vals.max(axis=0, initial=-np.inf))
    return bound


@contextlib.contextmanager
def _ufunc_buffer(size: int):
    """numpy's ufunc buffer size set to size, and restored on exit; it only
    changes how the iterator feeds the loops, not a result bit."""
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


def _first_max_in_runs(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                       live: np.ndarray) -> tuple:
    """(row, column) of the row-major first maximum of vals over each row's
    columns [lo, hi), the cell np.argmax finds when every other cell is set
    to -inf: nan counts as the maximum. live = hi > lo must hold somewhere.
    Each row's maximum is one reduceat segment of the flat block, so no mask
    is made or applied; the segments between runs are reduced and dropped.
    """
    h, w = vals.shape
    # segment 2k is row k's run, segment 2k + 1 the gap after it
    edges = np.empty((h, 2), dtype=np.intp)
    edges[:, 0], edges[:, 1] = lo, hi
    edges[~live] = 0
    edges += np.arange(0, h * w, w)[:, None]
    edges = edges.reshape(-1)
    rowmax = np.maximum.reduceat(vals.reshape(-1), edges[:-1] if hi[-1] == w else edges)
    rowmax = np.where(live, rowmax[0::2], -np.inf)
    i = int(np.argmax(rowmax))
    if not live[i]:  # every run cell is -inf
        i = int(np.argmax(live))
    return i, int(lo[i]) + int(np.argmax(vals[i, lo[i]:hi[i]]))


def solve_equilibrium(sc: Scenario, mode, resolution: float = 1e-3) -> EquilibriumResult:
    """Sender-optimal split by grid search over posterior pairs.

    The solver scans the valid cells in the row blocks of split_blocks,
    about 2 * SCAN_BLOCK_CELLS cells each, and keeps the cells in the mode's
    feasible runs (split_runs), evaluating the split values only on the
    columns a block's runs span and leaving the cells outside a row's run
    out of its maximum (_first_max_in_runs); memory is O(n) plus one block,
    and the scan runs under a ROW_BUFSIZE ufunc buffer. The blocks
    come in row-major order, and a block's maximum replaces the running best
    only if strictly greater, so argmax ties break to the lowest p1, then
    lowest p2 (the row-major first maximum of the whole grid). The
    no-information point always competes and wins ties.

    Rows that cannot win are not scanned. A row's chord bound
    (_chord_bounds) is the value at the prior of its best chord to a point
    of its run. The threshold is the larger of the no-information value and
    the best value in the run of the row with the highest bound. A row is
    skipped when its bound plus SKIP_RTOL times 1 + max|phi1| is below the
    threshold; the margin is many orders of magnitude above the rounding by
    which a cell's value can pass its bound, which scales with the sender's
    payoffs. So every cell of a skipped row lies below the best cell or
    below the no-information value: it can hold neither the first maximum
    nor a split that beats no information, and the result is the full
    scan's, bit for bit. Each block is scanned from its first to its last
    row kept, as one contiguous range.
    """
    p = _require_binary(sc, "solve_equilibrium")
    grid = np.linspace(0.0, 1.0, grid_intervals(resolution, "solve_equilibrium") + 1)
    sel, V1, V2 = grid_best_replies(sc, grid)
    no_sel, no1, no2 = grid_best_replies(sc, np.array([p]))
    runs = mode.runs(p, grid)
    # two scan blocks a solver block: half the per-block work of finding
    # rows, runs and row maxima, for one more block of memory
    cells = 2 * SCAN_BLOCK_CELLS
    with _ufunc_buffer(ROW_BUFSIZE):
        # split_values' pair, reused: a block holds at most this many cells
        scratch = np.empty((2, max(cells, grid.size)))
        bound = _chord_bounds(p, grid, sel, V1, runs, scratch)
        lead = int(np.argmax(bound))
        threshold = float(no1[0])
        if bound[lead] > -np.inf:
            ahead = slice(runs[0][lead], runs[1][lead])
            threshold = max(threshold, float(split_values(
                p, grid[lead], grid[ahead], V1[lead], V1[ahead]).max()))
        keep = bound + SKIP_RTOL * (1.0 + float(np.abs(sc.phi1).max())) >= threshold
        top, cell = -np.inf, None
        scanned = evaluated = 0
        for rows, cols in split_blocks(p, grid, cells):
            scanned += (rows.stop - rows.start) * (cols.stop - cols.start)
            kept = np.flatnonzero(keep[rows])
            if not kept.size:
                continue
            rows = slice(rows.start + int(kept[0]), rows.start + int(kept[-1]) + 1)
            start, stop = runs[0][rows], runs[1][rows]
            evaluated += int((stop - start).sum())
            live = stop > start
            window = slice(int(start[live].min()), int(stop[live].max()))
            P1, P2 = grid[rows, None], grid[None, window]
            out = tuple(scratch[:, :P1.size * P2.size].reshape(2, P1.size, P2.size))
            vals = split_values(p, P1, P2, V1[rows, None], V1[None, window], out)
            if ((start == window.start) & (stop == window.stop)).all():
                i, j = divmod(int(np.argmax(vals)), vals.shape[1])
            else:
                i, j = _first_max_in_runs(vals, start - window.start, stop - window.start,
                                          live)
            if vals[i, j] > top:
                top = float(vals[i, j])
                cell = (rows.start + i, window.start + j)
    counts = dict(cells_scanned=scanned, cells_evaluated=evaluated,
                  cells_feasible=int((runs[1] - runs[0]).sum()))

    if not top > float(no1[0]):
        return EquilibriumResult(
            posteriors=PosteriorPair(p, p), signal=NO_INFO,
            message_weights=Distribution((0.5, 0.5)),
            receiver_actions=(sc.actions[no_sel[0]], sc.actions[no_sel[0]]),
            phi1_star=float(no1[0]), phi2_star=float(no2[0]),
            feasibility=mode.no_info_verdict(), no_info=True, **counts)

    i, j = cell
    pair = PosteriorPair(float(grid[i]), float(grid[j]))
    # the weight of p1: the mix of 1 at p1 and 0 at p2, bit for bit
    lam = float(split_values(p, pair.p1, pair.p2, 1.0, 0.0))
    return EquilibriumResult(
        posteriors=pair,
        signal=signal_from_posteriors(p, pair),
        message_weights=Distribution((lam, 1.0 - lam)),
        receiver_actions=(sc.actions[sel[i]], sc.actions[sel[j]]),
        phi1_star=float(split_values(p, pair.p1, pair.p2, V1[i], V1[j])),
        phi2_star=float(split_values(p, pair.p1, pair.p2, V2[i], V2[j])),
        feasibility=mode.split_verdict(p, pair), no_info=False, **counts)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a plain dict (the scenario JSON schema)."""
    checked_fields(doc, "scenario", ("prior", "actions", "phi1", "phi2"))
    try:
        prior = Distribution(doc["prior"])
    except (ValueError, TypeError) as e:
        raise ValueError(f"scenario.prior: {e}") from None
    actions = doc["actions"]
    if not isinstance(actions, (list, tuple)) or not actions:
        raise ValueError("scenario.actions: expected a non-empty list")
    try:
        return Scenario(prior, tuple(actions), doc["phi1"], doc["phi2"])
    except (ValueError, TypeError) as e:
        raise ValueError(f"scenario: {e}") from None
