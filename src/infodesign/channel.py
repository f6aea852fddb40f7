"""Discrete memoryless channels and capacity via alternating maximization.

A channel is a StochasticMatrix T[x, y], the law of output y given input x.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .prob import Distribution, StochasticMatrix


class CapacityError(RuntimeError):
    """Capacity iteration failed to reach the requested residual."""


def bsc(eps: float) -> StochasticMatrix:
    """Binary symmetric channel with flip probability eps in [0, 1/2]."""
    if (isinstance(eps, bool) or not isinstance(eps, numbers.Real)
            or not 0.0 <= eps <= 0.5):
        raise ValueError(f"bsc: flip probability {eps!r} is not a number in [0, 1/2]")
    return StochasticMatrix([[1.0 - eps, eps], [eps, 1.0 - eps]])


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    optimal_input: Distribution
    iterations: int
    residual: float


def _divergences(T: np.ndarray, logT: np.ndarray, logq: np.ndarray,
                 terms: np.ndarray, d: np.ndarray) -> float:
    """Fill d(x) = sum_y T[x, y] (logT[x, y] - logq[y]) in place; return max d."""
    np.subtract(logT, logq, terms)
    np.multiply(terms, T, terms)
    np.add.reduce(terms, 1, None, d)
    return float(np.maximum.reduce(d))


def capacity(ch: StochasticMatrix, tol: float = 1e-9,
             max_iter: int = 100_000) -> CapacityResult:
    """Channel capacity in bits by alternating maximization.

    Each sweep computes per-input divergences d(x) = D(T(.|x) || q) against the
    current output law q. sum r d is a lower bound on capacity and max d an
    upper bound; the loop stops when the bracket closes below tol and raises
    CapacityError (with the last residual) if max_iter sweeps do not get there.
    A tol that is negative or not finite, or a max_iter below 1, can never
    succeed and raises ValueError before the first sweep.

    A sweep is one fixed sequence of operations on buffers allocated once:
    q = r T, log2 q, the divergences d, their max and r . d, then
    r <- r 2^(d - max d) / sum. Where some q[y] is 0 (no input reaches y, or
    each one that does has lost all its mass), log2 q[y] = -inf makes max d
    non-finite; only on such a sweep are log2 q and d computed again, with
    log2 q[y] taken as 0.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"capacity: tol {tol!r} must be finite and >= 0")
    if max_iter < 1:
        raise ValueError(f"capacity: max_iter {max_iter!r} must be >= 1")
    T = ch.rows
    m, k = T.shape
    support = T > 0
    logT = np.where(support, np.log2(np.where(support, T, 1.0)), 0.0)
    r = np.full(m, 1.0 / m)
    q, logq, terms, d = np.empty(k), np.empty(k), np.empty((m, k)), np.empty(m)
    # bound once: on a few-entry channel a sweep's cost is call overhead
    matmul, log2, exp2 = np.matmul, np.log2, np.exp2
    subtract, multiply, divide = np.subtract, np.multiply, np.divide
    add_reduce, isfinite = np.add.reduce, math.isfinite
    residual = np.inf
    # log2(0) and inf * 0 are expected on a sweep with some q[y] = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            matmul(r, T, q)
            log2(q, logq)
            upper = _divergences(T, logT, logq, terms, d)
            if not isfinite(upper):
                log2(np.where(q > 0, q, 1.0), logq)
                upper = _divergences(T, logT, logq, terms, d)
            lower = float(r.dot(d))
            residual = upper - lower
            if residual <= tol:
                return CapacityResult(capacity=max(lower, 0.0),
                                      optimal_input=Distribution(r),
                                      iterations=it,
                                      residual=residual)
            subtract(d, upper, d)
            exp2(d, d)
            multiply(r, d, r)
            divide(r, add_reduce(r), r)
    raise CapacityError(f"capacity: residual {residual!r} above tol {tol!r} "
                        f"after {max_iter} iterations")
