"""Generic fake quantizers at tensor / channel / group granularity.

These implement the plain data-type paths (INT, FP4, NF4, PoT, flint):
one scaling factor per tensor, per channel or per group, absmax
symmetric (paper Eq. 1/4).  Adaptive methods (MANT, ANT, OliVe, Tender,
clustering) build on top of these in their own modules.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.groups import to_groups, from_groups
from repro.datatypes.base import GridDataType
from repro.datatypes.int_type import IntType
from repro.datatypes.mxfp import mxfp4_qdq
from repro.datatypes.floats import cast_fp16
from repro.quant.config import QuantConfig, Granularity

__all__ = ["GroupQuantizer", "quantize_dequantize", "qdq_with_config"]


@lru_cache(maxsize=None)
def _mant_quantizer(bits: int, group_size: int):
    """Process-wide MANT quantizer pool.

    The quantizer is stateless (grids and boundary tables are shared
    process-wide anyway), so config-driven dispatch reuses one instance
    per (bits, group_size) instead of rebuilding the search machinery on
    every call.
    """
    from repro.quant.mant_framework import MantQuantizer

    return MantQuantizer(bits=bits, group_size=group_size)


def _dtype_for(config: QuantConfig) -> GridDataType:
    """Resolve the plain data type a config names."""
    from repro.datatypes import flint4, fp4_e2m1, nf4, pot4_with_zero

    if config.method == "int":
        return IntType(config.bits)
    if config.method == "nf":
        if config.bits != 4:
            raise ValueError("NormalFloat implemented for 4 bits")
        return nf4
    if config.method == "fp":
        if config.bits != 4:
            raise ValueError("minifloat path implemented for 4 bits")
        return fp4_e2m1
    if config.method == "pot":
        return pot4_with_zero
    if config.method == "flint":
        return flint4
    raise ValueError(f"{config.method!r} is not a plain data type")


class GroupQuantizer:
    """Fake quantization of one tensor axis at a chosen granularity.

    ``axis`` is the quantization (inner/accumulation) dimension.  For
    CHANNEL granularity each slice along ``axis`` gets its own scale;
    for TENSOR a single scale; for GROUP one per ``group_size`` chunk.
    """

    def __init__(self, dtype: GridDataType, granularity: Granularity,
                 group_size: int = 64, fp16_scales: bool = True):
        self.dtype = dtype
        self.granularity = granularity
        self.group_size = group_size
        self.fp16_scales = fp16_scales

    def _round_scale(self, scale: np.ndarray) -> np.ndarray:
        """Round scales to storage precision; a zero scale becomes 1.

        A zero scale comes from an all-zero group or from a nonzero
        absmax below the fp16 subnormal range.  Scale 1 dequantizes
        either kind of group to zeros instead of dividing by zero.
        """
        if self.fp16_scales:
            scale = scale.astype(np.float16).astype(np.float64)
        return np.where(scale == 0, 1.0, scale)

    def qdq(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Quantize-dequantize ``x`` along ``axis``."""
        x = np.asarray(x, dtype=np.float64)
        if self.granularity is Granularity.TENSOR:
            scale = self._round_scale(self.dtype.scale_for(x))
            return self.dtype.qdq(x, scale)
        if self.granularity is Granularity.CHANNEL:
            # One scale per slice along every axis except `axis`.
            moved = np.moveaxis(x, axis, -1)
            amax = np.max(np.abs(moved), axis=-1, keepdims=True)
            scale = self._round_scale(amax / self.dtype.grid_max)
            out = self.dtype.qdq(moved, scale)
            return np.moveaxis(out, -1, axis)
        view = to_groups(x, self.group_size, axis=axis)
        amax = np.max(np.abs(view.groups), axis=-1, keepdims=True)
        scale = self._round_scale(amax / self.dtype.grid_max)
        out = self.dtype.qdq(view.groups, scale)
        return from_groups(view, out)


def quantize_dequantize(
    x: np.ndarray,
    dtype: GridDataType,
    granularity: Granularity = Granularity.GROUP,
    group_size: int = 64,
    axis: int = -1,
) -> np.ndarray:
    """One-shot functional form of :class:`GroupQuantizer`."""
    return GroupQuantizer(dtype, granularity, group_size).qdq(x, axis=axis)


def qdq_with_config(x: np.ndarray, config: QuantConfig, axis: int = -1,
                    calibration=None) -> np.ndarray:
    """Dispatch fake quantization by config.

    Adaptive methods are routed to their modules; ``calibration`` is the
    optional per-channel ``E[x²]`` statistic used by MSE searches.
    """
    if config.is_fp16:
        return cast_fp16(x)
    if config.method == "mxfp":
        return mxfp4_qdq(np.asarray(x, dtype=np.float64), config.group_size)
    if config.method == "mant":
        return _mant_quantizer(config.bits, config.group_size).qdq_tensor(
            x, axis=axis, act_sq_mean=calibration
        )
    if config.method == "ant":
        from repro.quant.ant import AntQuantizer

        return AntQuantizer(
            bits=config.bits,
            granularity=config.granularity,
            group_size=config.group_size,
        ).qdq(x, axis=axis)
    if config.method == "olive":
        from repro.quant.olive import OliveQuantizer

        return OliveQuantizer(
            bits=config.bits,
            granularity=config.granularity,
            group_size=config.group_size,
        ).qdq(x, axis=axis)
    if config.method == "tender":
        from repro.quant.tender import TenderQuantizer

        return TenderQuantizer(bits=config.bits).qdq(x, axis=axis)
    if config.method == "cluster":
        from repro.quant.clustering import PerGroupClusterQuantizer

        return PerGroupClusterQuantizer(
            bits=config.bits, group_size=config.group_size
        ).qdq(x, axis=axis)
    return GroupQuantizer(
        _dtype_for(config), config.granularity, config.group_size
    ).qdq(x, axis=axis)
