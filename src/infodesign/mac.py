"""Two-transmitter power allocation case study on parallel fading channels.

Two gain states, a fixed first-transmitter power split, and a second
transmitter choosing a power share v from a small grid. The informed party's
payoff is the first transmitter's sum rate, the receiver's is the second
transmitter's. Utilities are computed with natural logs; the regression
values pinned in the tests are on that scale.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .persuasion import Scenario, grid_best_replies
from .prob import Distribution, checked_fields
from .splitting import RegionGrid, region_scan


@dataclass(frozen=True)
class GainState:
    """Channel power gains; g_ij links transmitter i to base station j."""

    g11: float
    g12: float
    g21: float
    g22: float

    def __post_init__(self):
        for name in ("g11", "g12", "g21", "g22"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"GainState: {name} = {v!r} must be >= 0")


@dataclass(frozen=True)
class MacConfig:
    """Case-study data: gain states, power split a1, noise, prior, action grid."""

    gain_a: GainState
    gain_b: GainState
    a1: float = 0.16
    sigma2: float = 1.0
    prior_p: float = 0.5
    actions: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self):
        if not 0.0 <= self.a1 <= 1.0:
            raise ValueError(f"MacConfig: a1 = {self.a1!r} outside [0, 1]")
        if not 0.0 <= self.prior_p <= 1.0:
            raise ValueError(f"MacConfig: prior_p = {self.prior_p!r} outside [0, 1]")
        if not self.sigma2 > 0:
            raise ValueError(f"MacConfig: sigma2 = {self.sigma2!r} must be > 0")
        actions = tuple(float(v) for v in self.actions)
        if not actions:
            raise ValueError("MacConfig: empty action grid")
        if any(not 0.0 <= v <= 1.0 for v in actions):
            raise ValueError("MacConfig: power shares must lie in [0, 1]")
        object.__setattr__(self, "actions", actions)


def phi2(g: GainState, v: float, cfg: MacConfig) -> float:
    """Second transmitter's sum rate at power share v against gain state g."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"phi2: power share {v!r} outside [0, 1]")
    s2 = cfg.sigma2
    return float(np.log1p(v * g.g21 / (s2 + cfg.a1 * g.g11))
                 + np.log1p((1.0 - v) * g.g22 / (s2 + (1.0 - cfg.a1) * g.g12)))


def phi1(g: GainState, v: float, cfg: MacConfig) -> float:
    """First transmitter's sum rate; v enters only as interference."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"phi1: power share {v!r} outside [0, 1]")
    s2 = cfg.sigma2
    return float(np.log1p(cfg.a1 * g.g11 / (s2 + v * g.g12))
                 + np.log1p((1.0 - cfg.a1) * g.g12 / (s2 + (1.0 - v) * g.g22)))


def build_scenario(cfg: MacConfig) -> Scenario:
    """Persuasion game with states (gain_a, gain_b) and the power-share actions."""
    states = (cfg.gain_a, cfg.gain_b)
    t1 = np.array([[phi1(g, v, cfg) for v in cfg.actions] for g in states])
    t2 = np.array([[phi2(g, v, cfg) for v in cfg.actions] for g in states])
    prior = Distribution((cfg.prior_p, 1.0 - cfg.prior_p))
    return Scenario(prior, cfg.actions, t1, t2)


def scenario_surface(sc: Scenario, resolution: float = 1.0 / 500,
                     eps: float | None = None) -> RegionGrid:
    """region_scan's square with curves (phi1, phi2), so that its values are
    the expected payoffs of each posterior pair (nan where no signal exists).
    The best replies along the axis are found with the same vectorized path
    as the equilibrium solver, so restricting the surface to a feasibility
    label and taking the argmax reproduces the solver's answer at equal
    resolution.
    """
    region = region_scan(float(sc.prior.probs[0]), eps, resolution)
    return replace(region, curves=grid_best_replies(sc, region.p1_axis)[1:])


def config_from_dict(doc: dict) -> MacConfig:
    optional = ("a1", "sigma2", "prior_p", "actions")
    checked_fields(doc, "mac config", ("gain_a", "gain_b"), optional)
    gains = {}
    for key in ("gain_a", "gain_b"):
        cell = doc[key]
        if not isinstance(cell, dict):
            raise ValueError(f"mac config.{key}: expected an object of gains")
        try:
            gains[key] = GainState(**cell)
        except (TypeError, ValueError) as e:
            raise ValueError(f"mac config.{key}: {e}") from None
    kwargs = {k: doc[k] for k in optional if k in doc}
    try:
        return MacConfig(gain_a=gains["gain_a"], gain_b=gains["gain_b"], **kwargs)
    except (TypeError, ValueError) as e:
        raise ValueError(f"mac config: {e}") from None


def default_config() -> MacConfig:
    """The bundled study constants."""
    text = resources.files("infodesign").joinpath("data/mac_default.json").read_text()
    return config_from_dict(json.loads(text))
