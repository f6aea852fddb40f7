"""Binary posterior splitting and its feasibility under channel constraints.

A binary signal (alpha, beta) maps state u1 to messages (1-alpha, alpha) and
state u2 to (beta, 1-beta). Conditioning a prior p = P(u1) on the message
splits it into two posteriors whose mixture returns p. Feasibility of a
target split is judged either per-use (both required signal parameters must
sit inside the channel's attainable band) or per-block (the signal's
information rate must fit under a channel capacity).

The grid masks of split_masks work in the coordinates each condition
needs. The per-use mask inverts every cell to (alpha, beta). The block mask
never inverts: for a split of p into (p1, p2) the rate is h(p) - [lam h(p1)
+ (1 - lam) h(p2)], the split_values mix of h, so h is evaluated once per
axis point. The scans never evaluate them on the whole square: split_runs
finds each row's cells of a mask as one run of columns by bisection,
probing O(n log n) cells. The scalar verdicts one_shot_feasible and
block_feasible keep the (alpha, beta) form, whose slack bits the solver
reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .prob import binary_entropy, binary_entropy_unchecked

FEAS_ATOL = 1e-12
# Cells in one posterior grid or best-reply sweep. Every grid subcommand
# holds O(n) arrays plus one row block. At the cap, through the CLI under
# tracemalloc, a region of 2896 x 2896 cells peaks at 2.1 MiB, a block
# surface at 3.7 MiB and a bestreply sweep of 2**23 points, which makes
# each block's points on its own (grid_points), at 1.1 MiB. A solve peaks
# at 1.3 MiB on 2001 x 2001 (resolution 5e-4), the finest grid in use,
# which is half the cap, and at 1.4 MiB on 2896 x 2896.
MAX_GRID_CELLS = 2 ** 23
SCAN_BLOCK_CELLS = 2 ** 15  # cells in one row block of a scan


class SplitError(ValueError):
    """Posterior pair not realizable from the prior by any binary signal."""


@dataclass(frozen=True)
class BinarySignal:
    """Binary signaling kernel: row u1 = (1-alpha, alpha), row u2 = (beta, 1-beta).

    The complements are stored: alpha or beta near 1 keeps few of their bits."""

    alpha: float
    beta: float
    one_minus_alpha: float | None = field(default=None, compare=False, repr=False)
    one_minus_beta: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"BinarySignal: {name} = {v!r} outside [0, 1]")
            if getattr(self, "one_minus_" + name) is None:
                object.__setattr__(self, "one_minus_" + name, 1.0 - v)

NO_INFO = BinarySignal(0.5, 0.5)


@dataclass(frozen=True)
class PosteriorPair:
    """Posteriors P(u1 | w1) and P(u1 | w2)."""

    p1: float
    p2: float

    def __post_init__(self):
        for name in ("p1", "p2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"PosteriorPair: {name} = {v!r} outside [0, 1]")


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    slack: float
    mode: str


def _check_prior(p: float) -> None:
    if not (np.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"prior {p!r} outside [0, 1]")


def check_eps(eps: float, who: str) -> None:
    """Reject a channel flip probability outside [0, 1/2]."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"{who}: eps {eps!r} outside [0, 1/2]")


def posteriors_from_signal(p: float, signal: BinarySignal) -> PosteriorPair:
    """Posterior pair induced by a signal; a zero-mass message keeps the prior."""
    _check_prior(p)
    a, na = signal.alpha, signal.one_minus_alpha
    m1 = p * na + (1.0 - p) * signal.beta
    m2 = p * a + (1.0 - p) * signal.one_minus_beta
    p1 = p * na / m1 if m1 > 0 else p
    p2 = p * a / m2 if m2 > 0 else p
    return PosteriorPair(min(p1, 1.0), min(p2, 1.0))


def message_weights(p: float, signal: BinarySignal) -> tuple:
    """(P(w1), P(w2)) under prior p."""
    _check_prior(p)
    m1 = p * signal.one_minus_alpha + (1.0 - p) * signal.beta
    return (m1, 1.0 - m1)


def is_valid_split(p: float, pair: PosteriorPair) -> bool:
    """True iff a signal realizes the pair: interior prior strictly between
    the two posteriors (either order). The degenerate pair p1 = p2 fails; the
    solver handles that point separately as NO_INFO."""
    _check_prior(p)
    if p <= 0.0 or p >= 1.0:
        return False
    lo, hi = sorted((pair.p1, pair.p2))
    return lo < p < hi


def signal_from_posteriors(p: float, pair: PosteriorPair) -> BinarySignal:
    """The unique signal inducing a valid split (inversion of the Bayes map)."""
    if pair.p1 == pair.p2:
        raise SplitError(
            f"posterior pair ({pair.p1!r}, {pair.p2!r}) is degenerate; "
            f"no unique signal exists")
    if not is_valid_split(p, pair):
        raise SplitError(f"prior {p!r} not strictly between posteriors "
                         f"({pair.p1!r}, {pair.p2!r})")
    p, p1, p2 = float(p), float(pair.p1), float(pair.p2)
    # alpha and beta as in split_masks, and the complements in closed form,
    # which keep full precision near the prior
    forms = (_ratio(p2, p1 - p, p, p1 - p2),
             _ratio(1.0 - p1, p - p2, 1.0 - p, p1 - p2),
             _ratio(p1, p - p2, p, p1 - p2),
             _ratio(p1 - p, 1.0 - p2, 1.0 - p, p1 - p2))
    # valid splits give parameters in [0, 1] up to roundoff
    return BinarySignal(*(float(np.clip(v, 0.0, 1.0)) for v in forms))


def _ratio(a: float, b: float, c: float, d: float) -> float:
    """a * b / (c * d) with c, d nonzero, computed on the factors' mantissas
    and scaled back by their exponents, so that no intermediate underflows
    (a subnormal prior times a posterior gap) or overflows. Scaling by a
    power of two leaves normal-range rounding as it is, so the result has
    the bits of the plain expression wherever that stays in the normal
    range."""
    (ma, ea), (mb, eb), (mc, ec), (md, ed) = map(math.frexp, (a, b, c, d))
    return math.ldexp(ma * mb / (mc * md), ea + eb - ec - ed)


def signal_information_rate(p: float, alpha, beta):
    """I(state; message) in bits for signal (alpha, beta) under prior p.

    Vectorized over alpha/beta. Garbage in, garbage out: callers mask.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    m1 = p * (1.0 - alpha) + (1.0 - p) * beta
    h = binary_entropy_unchecked
    out = h(m1) - p * h(alpha) - (1.0 - p) * h(beta)
    return float(out) if out.ndim == 0 else out


def one_shot_feasible(p: float, pair: PosteriorPair, eps: float) -> FeasibilityVerdict:
    """Can a single use of a binary channel with flip eps realize the split?

    Both required signal parameters must land in the attainable band
    [eps, 1-eps]. Slack is the worst signed margin into the band.
    """
    check_eps(eps, "one_shot_feasible")
    sig = signal_from_posteriors(p, pair)
    slack = min(sig.alpha - eps, (1.0 - eps) - sig.alpha,
                sig.beta - eps, (1.0 - eps) - sig.beta)
    return FeasibilityVerdict(slack >= -FEAS_ATOL, slack, "one_shot")


def block_feasible(p: float, signal: BinarySignal, cap: float) -> FeasibilityVerdict:
    """Can long coding blocks at channel capacity `cap` carry the signal?

    Needs I(state; message) <= cap. Slack is cap minus the rate.
    """
    _check_prior(p)
    if cap < 0:
        raise ValueError(f"block_feasible: negative capacity {cap!r}")
    rate = signal_information_rate(p, signal.alpha, signal.beta)
    slack = cap - rate
    return FeasibilityVerdict(slack >= -FEAS_ATOL, slack, "block")


class RegionLabel(IntEnum):
    INVALID_SPLIT = 0
    ONE_SHOT = 1
    BLOCK_ONLY = 2
    INFEASIBLE = 3
    VALID = 4  # used by surfaces scanned without a channel


@dataclass(frozen=True)
class RegionGrid:
    """The posterior square p1_axis x p2_axis of prior p, as data: layers,
    (runs, RegionLabel) pairs of split_runs, each labelling its runs' cells
    over the layers before it, the valid cells first; and curves, per-axis
    values whose split_values mix is each valid cell's value (none for a
    region).

    blocks() yields (rows, labels, values) in row-major order: rows a slice
    of p1_axis of about SCAN_BLOCK_CELLS cells, labels the RegionLabel
    values (int8) of those rows across the whole p2_axis, and values one
    array of the same shape per curve, nan on INVALID_SPLIT cells. Each call
    makes the blocks afresh and holds one at a time; only the columns a
    block's valid runs span are labelled and mixed.
    """

    p: float
    p1_axis: np.ndarray
    p2_axis: np.ndarray
    capacity: float | None  # None when scanned without a channel
    layers: tuple
    curves: tuple = ()

    def blocks(self):
        n1, n2 = self.p1_axis.size, self.p2_axis.size
        (lo, hi), _ = self.layers[0]
        step = max(1, SCAN_BLOCK_CELLS // n2)
        for start in range(0, n1, step):
            rows = slice(start, min(start + step, n1))
            labels = np.full((rows.stop - start, n2), int(RegionLabel.INVALID_SPLIT),
                             dtype=np.int8)
            values = np.full((len(self.curves), *labels.shape), np.nan)
            live = hi[rows] > lo[rows]
            if live.any():
                cols = slice(int(lo[rows][live].min()), int(hi[rows][live].max()))
                for run, label in self.layers:
                    labels[:, cols][in_runs(run, rows, cols)] = int(label)
                P1, P2 = self.p1_axis[rows, None], self.p2_axis[None, cols]
                for v, V in zip(values, self.curves):
                    split_values(self.p, P1, P2, V[rows, None], V[None, cols],
                                 (v[:, cols], np.empty_like(v[:, cols])))
                np.copyto(values[:, :, cols], np.nan,
                          where=labels[:, cols] == RegionLabel.INVALID_SPLIT)
            yield rows, labels, tuple(values)


def split_values(p: float, p1, p2, v1, v2, out=None):
    """Value lam * v1 + (1 - lam) * v2 of splits (p1, p2) of prior p, where
    lam = (p2 - p) / (p2 - p1) weighs p1. Broadcasts; nan or inf at p1 = p2.

    The one lambda-mix of per-posterior values: the solver's and the
    surface's payoffs, and the entropy term of the block mask's rate. The
    mix runs in place in out, a pair of float arrays of the broadcast shape
    (made here if not given), and out[0] is returned, so a scan that passes
    the same pair for every block allocates no cells per block."""
    shape = np.broadcast_shapes(*map(np.shape, (p1, p2, v1, v2)))
    mix, lam = out or (np.empty(shape), np.empty(shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(p2 - p, np.subtract(p2, p1, out=lam), out=lam)
        np.multiply(np.subtract(1.0, lam, out=mix), v2, out=mix)
        np.multiply(lam, v1, out=lam)
        # lam * v1 stays the first operand, as in the plain form, and out is
        # the second: where both terms are nan, a one-element add whose out
        # is its first operand returns the second one's nan bits
        return np.add(lam, mix, out=mix)


def _band_sides(p: float, P1, P2, eps: float):
    """The per-use band test of split_masks in two halves, (reached, kept):
    alpha <= 1 - eps and beta >= eps, and alpha >= eps and beta <= 1 - eps,
    each within FEAS_ATOL, on every cell. Along a row walked out from the
    prior alpha falls from 1 and beta rises from 0, so reached turns true
    once and kept turns false once.

    Below a prior of 2**-900, p and p1 - p enter alpha scaled by 2**200, so
    that p * (p1 - p2) does not underflow; a power-of-two scale is exact, so
    alpha keeps the bits of the plain form wherever that stays in the normal
    range.
    """
    s = 2.0 ** 200 if p < 2.0 ** -900 else 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = P2 * ((P1 - p) * s) / ((p * s) * (P1 - P2))
        beta = (1.0 - P1) * (p - P2) / ((1.0 - p) * (P1 - P2))
    reached = ((1.0 - eps) - alpha >= -FEAS_ATOL) & (beta - eps >= -FEAS_ATOL)
    kept = (alpha - eps >= -FEAS_ATOL) & ((1.0 - eps) - beta >= -FEAS_ATOL)
    return reached, kept


def split_masks(p: float, p1_grid, p2_grid, eps: float | None, cap: float | None):
    """Validity, per-use and block feasibility masks on a posterior grid.

    eps=None skips the per-use mask and cap=None the block mask; a skipped
    mask comes back as None. The per-use mask inverts each cell to (alpha,
    beta) and asks both for [eps, 1 - eps] within FEAS_ATOL (_band_sides).
    The block mask asks for the rate h(p) - split_values(p, p1, p2, h(p1),
    h(p2)) to fit under cap within FEAS_ATOL, with h taken on the grids as
    given (once per axis point when p1_grid is a column and p2_grid a row);
    it inverts nothing.
    """
    P1 = np.asarray(p1_grid, dtype=float)
    P2 = np.asarray(p2_grid, dtype=float)
    lo = np.minimum(P1, P2)
    hi = np.maximum(P1, P2)
    valid = (lo < p) & (p < hi)
    if p <= 0.0 or p >= 1.0:
        valid &= False
    one_shot = block = None
    if eps is not None:
        reached, kept = _band_sides(p, P1, P2, eps)
        one_shot = valid & reached & kept
    if cap is not None:
        h = binary_entropy_unchecked
        rate = h(p) - split_values(p, P1, P2, h(P1), h(P2))
        block = valid & (cap - rate >= -FEAS_ATOL)
    return valid, one_shot, block


def split_runs(p: float, grid: np.ndarray, holds=None, eps: float | None = None):
    """One run of columns a row of the posterior square grid x grid: a pair
    (start, stop) of int arrays over the rows, a row's cells being the
    columns [start, stop). The run holds the valid cells that pass holds, a
    mask function of probe (p1, p2) vectors, one of split_masks' masks (None
    passes every valid cell).

    A row of rectangle A (p1 < p < p2) or B (p2 < p < p1) is walked out from
    the prior: A's columns rightwards, B's leftwards. Along the walk alpha
    falls, beta rises and the rate rises (a mean-preserving spread), so the
    block mask holds on a prefix of the walk. The one-shot mask at eps holds
    from where _band_sides' reached half turns true to where kept turns
    false: give it with that eps, and each run starts at the first reached
    cell. Each edge is a bisection over walk positions that covers every row
    at once, one probe cell a row: about log2(n) steps of O(n) cells in
    place of O(n**2).
    """
    n = grid.size
    below = int(np.searchsorted(grid, p, "left"))  # grid[:below] < p
    above = int(np.searchsorted(grid, p, "right"))  # grid[above:] > p
    rows = np.arange(n)
    in_a = rows < below
    # walk position k of row i is column origin[i] + step[i] * k, k < width[i]
    width = np.where(in_a, n - above, np.where(rows >= above, below, 0))
    step = np.where(in_a, 1, -1)
    origin = np.where(in_a, above, below - 1)

    last = np.maximum(width - 1, 0)

    def first_failing(test, first):
        """Per row, the first walk position from first on at which test (a
        mask function of probe vectors) fails, else width; test must hold
        and then fail along each row. Every row is probed at every step, so
        no step gathers or scatters the live rows; a finished row probes a
        cell of its walk (or, with an empty walk, the prior's neighbour)
        and keeps its bounds."""
        lo, hi = first.copy(), width.copy()
        live = lo < hi
        while live.any():
            mid = (lo + hi) // 2
            ok = test(grid, grid[origin + step * np.minimum(mid, last)])
            lo = np.where(live & ok, mid + 1, lo)
            hi = np.where(live & ~ok, mid, hi)
            live = lo < hi
        return lo

    start = np.zeros(n, dtype=width.dtype)
    if eps is not None:
        start = first_failing(lambda P1, P2: ~_band_sides(p, P1, P2, eps)[0], start)
    stop = width if holds is None else first_failing(holds, start)
    a, b = origin + step * start, origin + step * stop
    return np.where(in_a, a, b + 1), np.where(in_a, b, a + 1)


def in_runs(run, rows: slice, cols: slice) -> np.ndarray:
    """Mask of the block rows x cols of the square: the cells inside each
    row's run of split_runs."""
    col = np.arange(cols.start, cols.stop)
    return (run[0][rows, None] <= col) & (col < run[1][rows, None])


def grid_intervals(spacing: float, who: str, dims: int = 2) -> int:
    """Intervals n = round(1/spacing) per axis of a grid of (n + 1)**dims cells.

    The one grid rule of every posterior axis and prior sweep; callers build
    the axis as np.linspace(0, 1, n + 1), or a part of it with grid_points.
    Raises ValueError before anything is allocated when spacing is not
    positive, leaves one point (n < 1), or the grid would hold more than
    MAX_GRID_CELLS cells.
    """
    if not spacing > 0:
        raise ValueError(f"{who}: grid spacing {spacing!r} is not positive")
    inv = 1.0 / spacing
    if inv > MAX_GRID_CELLS or (round(inv) + 1) ** dims > MAX_GRID_CELLS:
        raise ValueError(f"{who}: grid spacing {spacing!r} needs more than "
                         f"the cap of {MAX_GRID_CELLS} cells")
    if round(inv) < 1:
        raise ValueError(f"{who}: grid spacing {spacing!r} leaves one point")
    return round(inv)


def grid_points(n: int, start: int, stop: int) -> np.ndarray:
    """np.linspace(0, 1, n + 1)[start:stop] bit for bit, without the rest of
    the axis: linspace's own arange * (1 / n), with the last point 1.0."""
    q = np.arange(start, stop) * (1.0 / n)
    if stop == n + 1 > start:
        q[-1] = 1.0
    return q


def split_blocks(p: float, grid: np.ndarray, cells: int | None = None):
    """Row blocks of the posterior square grid x grid that hold valid splits.

    A split is valid only when p lies strictly between p1 and p2, so the
    valid cells form two rectangles: A (p1 < p < p2) and B (p2 < p < p1).
    Yields (rows, cols) slices covering A and then B, each in blocks of
    whole rows of about cells cells (SCAN_BLOCK_CELLS if None), in row-major
    order; nothing at p = 0 or p = 1.
    """
    cells = SCAN_BLOCK_CELLS if cells is None else cells
    n = grid.size
    below = int(np.searchsorted(grid, p, "left"))  # grid[:below] < p
    above = int(np.searchsorted(grid, p, "right"))  # grid[above:] > p
    for start, stop, cols in ((0, below, slice(above, n)),
                              (above, n, slice(0, below))):
        width = cols.stop - cols.start
        if width == 0:
            continue
        step = max(1, cells // width)
        for r in range(start, stop, step):
            yield slice(r, min(r + step, stop)), cols


def region_scan(p: float, eps: float | None,
                resolution: float = 1.0 / 500) -> RegionGrid:
    """Label every grid point of the posterior square by channel feasibility.

    Valid splits are labelled VALID with no channel (eps=None, capacity
    None), else ONE_SHOT, BLOCK_ONLY or INFEASIBLE for the channel with
    flip eps. The runs of split_runs are found here, O(n) each; the grid's
    blocks() labels the square from them in blocks of whole rows of about
    SCAN_BLOCK_CELLS cells.
    """
    _check_prior(p)
    cap = None
    if eps is not None:
        check_eps(eps, "region_scan")
        cap = 1.0 - binary_entropy(eps)
    n = grid_intervals(resolution, "region_scan")
    axis = np.linspace(0.0, 1.0, n + 1)
    # each label over the one before it: valid cells, then the channel's runs
    layers = [(split_runs(p, axis),
               RegionLabel.VALID if eps is None else RegionLabel.INFEASIBLE)]
    if eps is not None:
        layers += [
            (split_runs(p, axis, lambda P1, P2: split_masks(p, P1, P2, None, cap)[2]),
             RegionLabel.BLOCK_ONLY),
            (split_runs(p, axis, lambda P1, P2: split_masks(p, P1, P2, eps, None)[1],
                        eps), RegionLabel.ONE_SHOT)]
    return RegionGrid(p, axis, axis, cap, tuple(layers))
