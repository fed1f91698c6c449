"""Symmetric integer data types (INT2/INT4/INT8).

The paper's baseline data type and the format MANT uses for activations.
Symmetric signed integers: an ``n``-bit INT covers ``[-(2^(n-1)-1),
2^(n-1)-1]`` (the ``-2^(n-1)`` code is unused, matching the paper's
"sign-magnitude representation of INT4 ... covers the range [-7, 7]").
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.base import GridDataType

__all__ = ["IntType", "int2", "int4", "int8", "round_to_int"]


class IntType(GridDataType):
    """Symmetric n-bit integer grid {-(2^(n-1)-1), ..., 2^(n-1)-1}."""

    def __init__(self, bits: int):
        if bits < 2 or bits > 16:
            raise ValueError(f"unsupported INT bit width: {bits}")
        qmax = 2 ** (bits - 1) - 1
        grid = np.arange(-qmax, qmax + 1, dtype=np.float64)
        super().__init__(name=f"int{bits}", bits=bits, grid=grid)
        self.qmax = qmax

    def encode(self, scaled: np.ndarray) -> np.ndarray:
        # Rounding is cheaper than binary search for a uniform grid and
        # matches the hardware ``round`` unit (paper Tbl. I: Encode=Round).
        scaled = np.asarray(scaled, dtype=np.float64)
        q = np.clip(np.rint(scaled), -self.qmax, self.qmax)
        return (q + self.qmax).astype(np.intp)

    def qdq(self, x: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
        """Fake-quantize without the index round trip.

        The grid holds every integer in ``[-qmax, qmax]``, so
        ``decode(encode(v))`` is ``round_clip(v)`` — except that ``rint``
        keeps the sign of ``-0.0`` where the grid holds ``+0.0``; adding
        ``0.0`` restores the grid value, so the bytes match the generic
        encode/decode path exactly.  NaN in ``x / scale`` (NaN or ±inf
        input under absmax scaling) has no grid point and raises.
        """
        x = np.asarray(x, dtype=np.float64)
        if scale is None:
            scale = self.scale_for(x)
        q = self.round_clip(x / scale)
        if np.isnan(q).any():
            raise ValueError("cannot quantize NaN (NaN or infinite input)")
        return (q + 0.0) * scale

    def round_clip(self, scaled: np.ndarray) -> np.ndarray:
        """Round-and-saturate to raw integer values (not grid indices)."""
        return np.clip(np.rint(np.asarray(scaled, dtype=np.float64)), -self.qmax, self.qmax)


def round_to_int(x: np.ndarray, bits: int, scale: np.ndarray) -> np.ndarray:
    """Eq. 1 / Eq. 4: ``round(x / s)`` saturated to the n-bit range."""
    qmax = 2 ** (bits - 1) - 1
    return np.clip(np.rint(np.asarray(x, dtype=np.float64) / scale), -qmax, qmax)


int2 = IntType(2)
int4 = IntType(4)
int8 = IntType(8)
