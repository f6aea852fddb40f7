"""Finite-alphabet probability primitives.

Distributions, row-stochastic matrices and joint arrays are thin frozen
wrappers around read-only float64 numpy arrays. Validation rejects inputs
outside tolerance instead of renormalizing them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-12


def _validated_mass(values, *, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{what}: empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: non-finite entries")
    if float(arr.min()) < -SIMPLEX_ATOL:
        raise ValueError(f"{what}: negative mass {arr.min()!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL * max(1, arr.size):
        raise ValueError(f"{what}: mass sums to {total!r}, not 1")
    np.clip(arr, 0.0, None, out=arr)
    arr.flags.writeable = False
    return arr


def payoff_table(values, shape: tuple, what: str) -> np.ndarray:
    """Read-only float64 copy of a payoff table of the given shape, every
    entry finite."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} shape {arr.shape} != {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    arr.flags.writeable = False
    return arr


def shown(value) -> str:
    """repr(value) for an error message, but an integer of more than 20
    digits as its first seven digits in scientific form, so that a hostile
    one keeps the line short."""
    if not isinstance(value, (int, np.integer)) or abs(int(value)) < 10 ** 20:
        return repr(value)
    digits = str(abs(int(value)))
    return f"{'-' * (value < 0)}{digits[0]}.{digits[1:7]}e+{len(digits) - 1}"


def checked_fields(doc, what: str, required, optional=()) -> None:
    """ValueError unless doc is a dict with every required field and no field
    outside required and optional; a missing field is reported first."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what}: expected a JSON object")
    for k in required:
        if k not in doc:
            raise ValueError(f"{what}: missing field {k!r}")
    for k in doc:
        if k not in required and k not in optional:
            raise ValueError(f"{what}: unknown field {k!r}")


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _validated_mass(self.probs, what="Distribution")
        if arr.ndim != 1:
            raise ValueError("Distribution: expected a 1-d vector")
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic matrix; row i is a conditional distribution given input i."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("StochasticMatrix: expected a non-empty 2-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("StochasticMatrix: non-finite entries")
        if float(arr.min()) < -SIMPLEX_ATOL:
            raise ValueError(f"StochasticMatrix: negative entry {arr.min()!r}")
        sums = arr.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > SIMPLEX_ATOL * max(1, arr.shape[1]))
        if bad.size:
            raise ValueError(f"StochasticMatrix: row {bad[0]} sums to {sums[bad[0]]!r}")
        np.clip(arr, 0.0, None, out=arr)
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def num_inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class JointDistribution:
    """Joint pmf over named axes; axes[i] names dimension i of probs."""

    probs: np.ndarray
    axes: tuple = ("u", "w")

    def __post_init__(self):
        arr = _validated_mass(self.probs, what="JointDistribution")
        axes = tuple(self.axes)
        if len(axes) != arr.ndim:
            raise ValueError(f"JointDistribution: {len(axes)} axis names for {arr.ndim}-d array")
        if len(set(axes)) != len(axes):
            raise ValueError("JointDistribution: duplicate axis names")
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "axes", axes)

    def axis_index(self, name: str) -> int:
        try:
            return self.axes.index(name)
        except ValueError:
            raise ValueError(f"JointDistribution: no axis named {name!r}") from None


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits; 0 log 0 = 0."""
    p = dist.probs[dist.probs > 0]
    return float(-(p * np.log2(p)).sum())


def binary_entropy_unchecked(x) -> np.ndarray:
    """h(x) in bits as an array, without range checks; 0 outside (0, 1) and
    on nan."""
    x = np.asarray(x, dtype=float)
    inner = (x > 0) & (x < 1)
    q = np.where(inner, x, 0.5)
    return np.where(inner, -(q * np.log2(q) + (1 - q) * np.log2(1 - q)), 0.0)


def binary_entropy(p):
    """h(p) in bits, elementwise for arrays. Rejects values outside [0, 1]."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError(f"binary_entropy: argument outside [0, 1]: {p!r}")
    out = binary_entropy_unchecked(arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def mutual_information(joint: JointDistribution) -> float:
    """I between the two axes of a bivariate joint, in bits."""
    if joint.probs.ndim != 2:
        raise ValueError("mutual_information: expected a bivariate joint")
    pa = Distribution(joint.probs.sum(axis=1))
    pb = Distribution(joint.probs.sum(axis=0))
    flat = Distribution(joint.probs.reshape(-1))
    val = entropy(pa) + entropy(pb) - entropy(flat)
    return max(val, 0.0)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """D(p || q) in bits; raises when p puts mass where q has none."""
    if len(p) != len(q):
        raise ValueError("kl_divergence: length mismatch")
    mask = p.probs > 0
    if np.any(q.probs[mask] == 0):
        raise ValueError("kl_divergence: p not absolutely continuous w.r.t. q")
    pm = p.probs[mask]
    return float((pm * np.log2(pm / q.probs[mask])).sum())


def l1_distance(p: Distribution, q: Distribution) -> float:
    if len(p) != len(q):
        raise ValueError("l1_distance: length mismatch")
    return float(np.abs(p.probs - q.probs).sum())


def compose_markov(prior: Distribution, signal: StochasticMatrix,
                   response: StochasticMatrix) -> JointDistribution:
    """Joint pmf of a chain state -> message -> action, on axes (u, w, v)."""
    if signal.num_inputs != len(prior):
        raise ValueError("compose_markov: signal rows do not match prior length")
    if response.num_inputs != signal.num_outputs:
        raise ValueError("compose_markov: response rows do not match signal outputs")
    joint = (prior.probs[:, None, None]
             * signal.rows[:, :, None]
             * response.rows[None, :, :])
    return JointDistribution(joint, axes=("u", "w", "v"))


def marginal(joint: JointDistribution, keep):
    """Marginal over the named axis (str) or axes (sequence), in the order given."""
    names = (keep,) if isinstance(keep, str) else tuple(keep)
    if not names:
        raise ValueError("marginal: no axes requested")
    idx = [joint.axis_index(n) for n in names]
    drop = tuple(i for i in range(joint.probs.ndim) if i not in idx)
    out = joint.probs.sum(axis=drop) if drop else joint.probs
    # realign to the requested order
    kept_order = [i for i in range(joint.probs.ndim) if i not in drop]
    perm = [kept_order.index(i) for i in idx]
    out = np.transpose(out, perm)
    if out.ndim == 1:
        return Distribution(out)
    return JointDistribution(out, axes=names)


def conditional(joint: JointDistribution, given: str) -> StochasticMatrix:
    """Conditional of the other axis given `given`, for a bivariate joint.

    Rows are indexed by the conditioning symbol. Zero-mass rows come back
    uniform.
    """
    if joint.probs.ndim != 2:
        raise ValueError("conditional: expected a bivariate joint")
    gi = joint.axis_index(given)
    table = joint.probs if gi == 0 else joint.probs.T
    mass = table.sum(axis=1)
    rows = table / np.where(mass > 0, mass, 1.0)[:, None]
    rows[mass == 0] = 1.0 / table.shape[1]
    return StochasticMatrix(rows)
