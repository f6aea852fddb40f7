"""Discrete memoryless channels and capacity via alternating maximization.

A channel is a StochasticMatrix T[x, y], the law of output y given input x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prob import Distribution, StochasticMatrix


class CapacityError(RuntimeError):
    """Capacity iteration failed to reach the requested residual."""


def bsc(eps: float) -> StochasticMatrix:
    """Binary symmetric channel with flip probability eps in [0, 1/2]."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"bsc: flip probability {eps!r} outside [0, 1/2]")
    return StochasticMatrix([[1.0 - eps, eps], [eps, 1.0 - eps]])


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    optimal_input: Distribution
    iterations: int
    residual: float


def capacity(ch: StochasticMatrix, tol: float = 1e-9,
             max_iter: int = 100_000) -> CapacityResult:
    """Channel capacity in bits by alternating maximization.

    Each sweep computes per-input divergences d(x) = D(T(.|x) || q) against the
    current output law q. sum r d is a lower bound on capacity and max d an
    upper bound; the loop stops when the bracket closes below tol and raises
    CapacityError (with the last residual) if max_iter sweeps do not get there.
    A tol that is negative or not finite, or a max_iter below 1, can never
    succeed and raises ValueError before the first sweep.
    """
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
