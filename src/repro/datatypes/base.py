"""Grid-based numeric data types.

Every quantization data type in this reproduction — INT, PoT, flint,
FP4, NF4, MXFP4, abfloat and MANT itself — is ultimately a finite set of
representable values (a *grid*) plus a scaling convention.  This module
provides the shared machinery: nearest-grid-point encoding, decoding, and
symmetric absmax scaling.

Grids are stored unscaled.  A tensor ``x`` is quantized by computing a
scale ``s = max|x| / max|grid|`` and snapping ``x / s`` to the nearest
grid value (the ``argmin`` in the paper's Eq. 4).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["GridDataType", "nearest_grid_index", "grid_boundaries", "absmax_scale"]

# Guards against division by zero when a tensor (or group) is all zeros.
_EPS = 1e-12


def grid_boundaries(grid: np.ndarray) -> np.ndarray:
    """Decision boundaries of a sorted grid: the midpoints between levels.

    A value belongs to grid cell ``k`` iff it lies strictly above
    boundary ``k-1`` and at or below boundary ``k``, so nearest-point
    encoding reduces to one ``searchsorted`` against this table — the
    precomputed comparator ladder an ANT-style LUT codec burns into
    hardware.
    """
    return 0.5 * (grid[:-1] + grid[1:])


def nearest_grid_index(
    values: np.ndarray, grid: np.ndarray, boundaries: np.ndarray | None = None
) -> np.ndarray:
    """Return the index of the nearest grid point for each value.

    ``grid`` must be sorted ascending.  Ties round toward the lower grid
    point, matching how a hardware comparator tree with ``<=`` breaks
    ties.  Runs in O(n log g) via a single binary search against the
    decision-boundary table — no clip or where fixups; pass a
    precomputed ``boundaries`` (from :func:`grid_boundaries`) to skip
    recomputing the table.
    """
    if boundaries is None:
        boundaries = grid_boundaries(grid)
    # side='left' counts boundaries strictly below each value, so a value
    # exactly on a boundary keeps the lower cell (ties go left).
    return np.searchsorted(boundaries, values, side="left")


def absmax_scale(x: np.ndarray, grid_max: float, axis=None) -> np.ndarray:
    """Symmetric absmax scale: ``max|x| / grid_max`` along ``axis``.

    Returns an array broadcastable against ``x``; zero-max slices get a
    scale of 1 so that encoding maps them to the grid's nearest-to-zero
    point without dividing by zero.
    """
    amax = np.max(np.abs(x), axis=axis, keepdims=axis is not None)
    amax = np.where(amax < _EPS, grid_max, amax)
    return amax / grid_max


class GridDataType:
    """A finite, sorted set of representable values with absmax scaling.

    Parameters
    ----------
    name:
        Human-readable identifier (``"int4"``, ``"nf4"``, ...).
    bits:
        Storage bits per element.  Informational — some types (e.g. the
        per-group-clustered "ideal" type) have grids smaller than
        ``2**bits``.
    grid:
        1-D array of representable values.  Deduplicated and sorted on
        construction.
    """

    def __init__(self, name: str, bits: int, grid: np.ndarray):
        grid = np.unique(np.asarray(grid, dtype=np.float64))
        if grid.size < 2:
            raise ValueError(f"grid for {name!r} needs >= 2 points, got {grid.size}")
        self.name = name
        self.bits = int(bits)
        self.grid = grid
        self._boundaries: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @cached_property
    def grid_max(self) -> float:
        """Largest representable magnitude (used for absmax scaling)."""
        return float(np.max(np.abs(self.grid)))

    @property
    def boundaries(self) -> np.ndarray:
        """Decision-boundary LUT (grid midpoints), computed once."""
        if self._boundaries is None:
            self._boundaries = grid_boundaries(self.grid)
        return self._boundaries

    @property
    def num_levels(self) -> int:
        return int(self.grid.size)

    @property
    def has_zero(self) -> bool:
        return bool(np.any(self.grid == 0.0))

    def normalized_grid(self) -> np.ndarray:
        """Grid scaled so that the maximum magnitude is 1 (paper Fig. 6)."""
        return self.grid / self.grid_max

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def encode(self, scaled: np.ndarray) -> np.ndarray:
        """Snap already-scaled values to grid indices (paper's argmin)."""
        return nearest_grid_index(
            np.asarray(scaled, dtype=np.float64), self.grid, self.boundaries
        )

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Map grid indices back to their representable values."""
        return self.grid[np.asarray(codes, dtype=np.intp)]

    def scale_for(self, x: np.ndarray, axis=None) -> np.ndarray:
        return absmax_scale(np.asarray(x, dtype=np.float64), self.grid_max, axis=axis)

    def quantize(self, x: np.ndarray, scale: np.ndarray | None = None):
        """Quantize ``x``; returns ``(codes, scale)``.

        When ``scale`` is None a single tensor-wise absmax scale is used.
        Group-wise scaling is handled one level up by the quantizers in
        :mod:`repro.quant`, which call this per group or pass per-group
        scales.
        """
        x = np.asarray(x, dtype=np.float64)
        if scale is None:
            scale = self.scale_for(x)
        codes = self.encode(x / scale)
        return codes, scale

    def dequantize(self, codes: np.ndarray, scale: np.ndarray) -> np.ndarray:
        return self.decode(codes) * scale

    def qdq(self, x: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
        """Quantize-dequantize (fake quantization) in one call."""
        codes, scale = self.quantize(x, scale)
        return self.dequantize(codes, scale)

    # ------------------------------------------------------------------
    # Error metrics
    # ------------------------------------------------------------------
    def mse(self, x: np.ndarray, scale: np.ndarray | None = None) -> float:
        """Mean squared quantization error of ``x`` under this type."""
        err = self.qdq(x, scale) - np.asarray(x, dtype=np.float64)
        return float(np.mean(err * err))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, bits={self.bits}, levels={self.num_levels})"
