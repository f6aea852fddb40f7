"""The one scan of the posterior square behind solve, region and surface."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infodesign import mac, splitting
from infodesign.persuasion import Scenario, grid_best_replies
from infodesign.prob import Distribution, binary_entropy
from infodesign.splitting import (SCAN_BLOCK_CELLS, RegionLabel, region_scan,
                                  split_blocks, split_masks, split_values)

BLOCKS = [SCAN_BLOCK_CELLS, 1, 2, 7]
RESOLUTIONS = (0.5, 0.3, 0.1, 0.05, 1 / 37, 1 / 150)


def priors(n):
    """0, 1, 1/2, a grid point of 1/n, or any point of [0, 1]."""
    return st.one_of(st.sampled_from([0.0, 1.0, 0.5]),
                     st.integers(0, n).map(lambda i: i / n),
                     st.floats(0.0, 1.0))


def reference_region_scan(p, eps, resolution):
    """The full-grid region scan that split_blocks replaced, kept as its
    oracle: a meshgrid and the three masks over the whole square."""
    n = round(1.0 / resolution)
    axis = np.linspace(0.0, 1.0, n + 1)
    P1, P2 = np.meshgrid(axis, axis, indexing="ij")
    cap = 1.0 - binary_entropy(eps)
    valid, one_shot, block = split_masks(p, P1, P2, eps, cap)
    labels = np.full(P1.shape, int(RegionLabel.INVALID_SPLIT), dtype=np.int8)
    labels[valid] = int(RegionLabel.INFEASIBLE)
    labels[valid & block] = int(RegionLabel.BLOCK_ONLY)
    labels[one_shot] = int(RegionLabel.ONE_SHOT)
    return labels


def reference_surface(sc, resolution, eps):
    """The full-grid surface that split_blocks replaced, kept as its oracle:
    split_values on every cell, then nan on the invalid ones."""
    p = float(sc.prior.probs[0])
    n = round(1.0 / resolution)
    grid = np.linspace(0.0, 1.0, n + 1)
    _, V1, V2 = grid_best_replies(sc, grid)
    P1, P2 = grid[:, None], grid[None, :]
    vals1 = split_values(p, P1, P2, V1[:, None], V1[None, :])
    vals2 = split_values(p, P1, P2, V2[:, None], V2[None, :])
    if eps is None:
        valid = split_masks(p, P1, P2, None, None)[0]
        labels = np.where(valid, int(RegionLabel.VALID),
                          int(RegionLabel.INVALID_SPLIT)).astype(np.int8)
    else:
        labels = reference_region_scan(p, eps, resolution)
        valid = labels != int(RegionLabel.INVALID_SPLIT)
    return (labels, np.where(valid, vals1, np.nan),
            np.where(valid, vals2, np.nan))


def square(grid):
    """The whole square of grid.blocks(), its rows in order: the labels and
    the tuple of value arrays."""
    parts = list(grid.blocks())
    assert [r.start for r, _, _ in parts[1:]] == [r.stop for r, _, _ in parts[:-1]]
    labels = np.concatenate([labels for _, labels, _ in parts])
    return labels, tuple(map(np.concatenate, zip(*(v for _, _, v in parts))))


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.sampled_from(BLOCKS), st.data())
def test_blocks_tile_the_valid_cells(n, block, data):
    """The blocks cover each valid cell once: rectangle A (p1 < p < p2)
    first, then B (p2 < p < p1), rows in order, whole rows per block."""
    p = data.draw(priors(n))
    grid = np.linspace(0.0, 1.0, n + 1)
    want = [(i, j) for i in range(n + 1) for j in range(n + 1)
            if grid[i] < p < grid[j]]
    want += [(i, j) for i in range(n + 1) for j in range(n + 1)
             if grid[j] < p < grid[i]]
    got = []
    with mock.patch.object(splitting, "SCAN_BLOCK_CELLS", block):
        blocks = list(split_blocks(p, grid))
    for rows, cols in blocks:
        height, width = rows.stop - rows.start, cols.stop - cols.start
        assert height >= 1 and width >= 1
        assert height == 1 or height * width <= block
        got += [(i, j) for i in range(rows.start, rows.stop)
                for j in range(cols.start, cols.stop)]
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RESOLUTIONS), st.sampled_from(BLOCKS + [64]), st.data())
def test_region_scan_matches_full_grid(resolution, block, data):
    p = data.draw(priors(round(1.0 / resolution)))
    eps = data.draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]) | st.floats(0.0, 0.5))
    with mock.patch.object(splitting, "SCAN_BLOCK_CELLS", block):
        got = region_scan(p, eps, resolution)
        assert_same_array(square(got)[0], reference_region_scan(p, eps, resolution))
    assert got.capacity == 1.0 - binary_entropy(eps)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from(RESOLUTIONS[1:]),
       st.sampled_from(BLOCKS + [64]), st.data())
def test_surface_matches_full_grid(k_actions, resolution, block, data):
    """Labels and both value arrays equal the full-grid surface bit for bit,
    with and without a channel."""
    p = data.draw(priors(round(1.0 / resolution)))
    phi = st.lists(st.lists(st.floats(-3.0, 3.0), min_size=k_actions,
                            max_size=k_actions), min_size=2, max_size=2)
    sc = Scenario(Distribution([p, 1.0 - p]), tuple(range(k_actions)),
                  data.draw(phi), data.draw(phi))
    eps = data.draw(st.none() | st.sampled_from([0.0, 0.25, 0.5])
                    | st.floats(0.0, 0.5))
    with mock.patch.object(splitting, "SCAN_BLOCK_CELLS", block):
        labels, values = square(mac.scenario_surface(sc, resolution, eps))
    for a, b in zip((labels, *values), reference_surface(sc, resolution, eps),
                    strict=True):
        assert_same_array(a, b)


def test_default_case_study_surfaces_match_full_grid():
    sc = mac.build_scenario(mac.default_config())
    for eps in (None, 0.25):
        labels, values = square(mac.scenario_surface(sc, 1 / 300, eps))
        for a, b in zip((labels, *values), reference_surface(sc, 1 / 300, eps),
                        strict=True):
            assert_same_array(a, b)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_region_without_channel_labels_the_surface(p):
    """region_scan with eps=None is the square a surface without a channel
    carries: VALID or INVALID_SPLIT, and no capacity."""
    region = region_scan(p, None, 0.05)
    labels, values = square(region)
    assert region.capacity is None and values == ()
    sc = Scenario(Distribution([p, 1.0 - p]), (0, 1), np.eye(2), np.eye(2))
    assert_same_array(labels, square(mac.scenario_surface(sc, 0.05))[0])
