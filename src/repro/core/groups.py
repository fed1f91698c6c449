"""Group partitioning utilities.

Group-wise quantization treats ``group_size`` contiguous elements along
one axis (the accumulation / inner dimension) as one unit with shared
metadata.  These helpers reshape arbitrary tensors into a canonical
``(..., n_groups, group_size)`` view and back, zero-padding the tail
group when the axis length is not divisible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GroupView", "to_groups", "from_groups", "num_groups"]


def num_groups(length: int, group_size: int) -> int:
    """Number of groups covering ``length`` elements (ceil division)."""
    return -(-length // group_size)


@dataclass
class GroupView:
    """A grouped reshape of a tensor plus the bookkeeping to undo it."""

    groups: np.ndarray        # (..., n_groups, group_size)
    original_shape: tuple
    axis: int
    pad: int                  # zeros appended to fill the tail group

    @property
    def n_groups(self) -> int:
        return self.groups.shape[-2]

    @property
    def group_size(self) -> int:
        return self.groups.shape[-1]


def to_groups(x: np.ndarray, group_size: int, axis: int = -1) -> GroupView:
    """Reshape ``x`` so ``axis`` splits into ``(n_groups, group_size)``.

    The grouped axis is moved to the end, so the result is always
    ``(..., n_groups, group_size)`` regardless of ``axis``.  Grouping the
    last axis (every serving-path quantizer) is a plain reshape: no
    ``moveaxis``, and no pad unless the length is ragged.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    x = np.asarray(x)
    axis = axis % x.ndim
    moved = x if axis == x.ndim - 1 else np.moveaxis(x, axis, -1)
    length = moved.shape[-1]
    pad = (-length) % group_size
    if pad:
        pad_width = [(0, 0)] * (moved.ndim - 1) + [(0, pad)]
        moved = np.pad(moved, pad_width)
    grouped = moved.reshape(*moved.shape[:-1], (length + pad) // group_size, group_size)
    return GroupView(groups=grouped, original_shape=x.shape, axis=axis, pad=pad)


def from_groups(view: GroupView, groups: np.ndarray | None = None) -> np.ndarray:
    """Undo :func:`to_groups`, optionally substituting modified groups."""
    g = view.groups if groups is None else groups
    last = view.axis == len(view.original_shape) - 1
    if last and not view.pad:
        return g.reshape(view.original_shape)
    flat = g.reshape(*g.shape[:-2], g.shape[-2] * g.shape[-1])
    if view.pad:
        flat = flat[..., : flat.shape[-1] - view.pad]
    moved = flat if last else np.moveaxis(flat, -1, view.axis)
    return moved.reshape(view.original_shape)
