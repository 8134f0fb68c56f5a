"""Path sampling for the generalized Brownian motion and its linear pairings.

Increments over a grid step are independent Gaussians with mean da and
variance db.  The stochastic pairing of a direction with a path is the
left-point Riemann-Stieltjes sum of the direction's density against the
path increments, which is licensed by the bounded variation of the
densities used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidGrid
from .hilbert import CambElement
from .scale import ScalePair


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream (counter-based Philox).

    Streams with equal (seed, stream_id) yield identical draws regardless
    of how many other streams exist; batches within a stream are keyed by
    batch index, so partial reductions are order-independent.
    """

    seed: int
    stream_id: int = 0

    def generator(self, batch: int | None = None) -> np.random.Generator:
        key = (self.stream_id,) if batch is None else (self.stream_id, batch)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(seq))


def _grid_and_increment_moments(sp: ScalePair, grid_n: int):
    if grid_n < 1:
        raise InvalidGrid(f"need at least one step, got grid_n = {grid_n}")
    t = np.linspace(0.0, sp.T, grid_n + 1)
    da = np.diff(np.asarray(sp.a(t), dtype=float))
    db = np.diff(np.asarray(sp.b(t), dtype=float))
    if np.any(db <= 0.0):
        raise InvalidGrid("variance increments must be positive on the grid")
    return t, da, db


def sample_increments(sp: ScalePair, grid_n: int, n_paths: int,
                      gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_paths`` rows of path increments over a uniform grid.

    Returns (t_grid, dx) with dx of shape (n_paths, grid_n).
    """
    t, da, db = _grid_and_increment_moments(sp, grid_n)
    g = gen.standard_normal((n_paths, grid_n))
    # in place, the same operations as da + sqrt(db) * g without its temporary
    g *= np.sqrt(db)
    g += da
    return t, g


def left_densities(ws: Sequence[CambElement], t_grid: np.ndarray) -> np.ndarray:
    """Stack left-point density samples into a (grid_n, n_dirs) matrix.

    ``dx @ left_densities(ws, t_grid)`` for increments dx over ``t_grid``
    gives the pairing of every path with every direction.
    """
    return np.column_stack([w.density(t_grid[:-1]) for w in ws])


def projection_law(sp: ScalePair, z_left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact joint law of the left-point pairings of directions with a path.

    ``z_left`` is ``left_densities(ws, t_grid)`` on the uniform grid of
    ``grid_n = z_left.shape[0]`` steps that ``sample_increments`` uses.
    The pairings dx @ z_left, with dx independent N(da, db) increments,
    are Gaussian with mean da @ z_left and covariance G = Zs^T Zs,
    Zs = sqrt(db) z_left.  Returns (mean, factor) with factor^T factor = G,
    so ``mean + g @ factor`` for standard normal rows g has the law of
    ``sample_increments(...)[1] @ z_left``.  G is factored by ``eigh`` with
    clipped eigenvalues, not Cholesky, because it is singular for a zero
    direction or for parallel directions.
    """
    _, da, db = _grid_and_increment_moments(sp, z_left.shape[0])
    zs = np.sqrt(db)[:, None] * z_left
    w, v = np.linalg.eigh(zs.T @ zs)
    return da @ z_left, (v * np.sqrt(np.clip(w, 0.0, None))).T
