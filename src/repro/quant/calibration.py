"""Calibration statistic containers (paper Sec. V, Pile calibration set).

Model-agnostic running statistics; the model-side collection loop lives
in :mod:`repro.model.calibrate`.  Two statistics drive MANT:

* per-channel ``E[x²]`` of each linear layer's input — the diagonal
  surrogate in the weight MSE search (Eq. 6);
* sampled K/V groups — fit the variance→``a`` ranges (Sec. V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.selection import VarianceSelector

__all__ = ["RunningActStats", "KVGroupSampler", "CalibrationResult"]


class RunningActStats:
    """Running mean of squared activations per channel."""

    def __init__(self, n_channels: int):
        self.n_channels = n_channels
        self._sum_sq = np.zeros(n_channels)
        self._count = 0

    def update(self, x: np.ndarray) -> None:
        """Accumulate a batch ``(..., n_channels)``."""
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1, x.shape[-1])
        if flat.shape[-1] != self.n_channels:
            raise ValueError(
                f"expected {self.n_channels} channels, got {flat.shape[-1]}"
            )
        self._sum_sq += np.sum(flat * flat, axis=0)
        self._count += flat.shape[0]

    @property
    def mean_sq(self) -> np.ndarray:
        if self._count == 0:
            return np.ones(self.n_channels)
        return self._sum_sq / self._count


class KVGroupSampler:
    """Reservoir of K/V groups for fitting the variance selector."""

    def __init__(self, group_size: int = 64, capacity: int = 4096, seed: int = 0):
        self.group_size = group_size
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._samples: list[np.ndarray] = []
        self._seen = 0

    def update(self, tensor: np.ndarray, axis: int = -1) -> None:
        """Sample groups from one K or V tensor along ``axis``."""
        from repro.core.groups import to_groups

        x = np.asarray(tensor, dtype=np.float64)
        g = min(self.group_size, x.shape[axis])
        groups = to_groups(x, g, axis=axis).groups.reshape(-1, g)
        for row in groups:
            self._seen += 1
            if len(self._samples) < self.capacity:
                self._samples.append(row.copy())
            else:
                # Reservoir sampling keeps a uniform subsample.
                j = int(self._rng.integers(0, self._seen))
                if j < self.capacity:
                    self._samples[j] = row.copy()

    def groups(self) -> np.ndarray:
        if not self._samples:
            return np.empty((0, self.group_size))
        return np.stack(self._samples)


@dataclass
class CalibrationResult:
    """Everything the MANT framework needs from a calibration pass."""

    act_sq_means: dict[str, np.ndarray] = field(default_factory=dict)
    kv_selector: VarianceSelector | None = None
    n_tokens: int = 0
