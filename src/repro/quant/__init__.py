"""Group-wise quantization framework: MANT plus every baseline method."""

from repro.quant.config import QuantConfig, Granularity, WEIGHT_ONLY_FP16_ACT
from repro.quant.quantizer import GroupQuantizer, quantize_dequantize, qdq_with_config
from repro.quant.mant_framework import MantQuantizer, MantModelQuantizer, QuantizedWeight
from repro.quant.ant import AntQuantizer, select_ant_type, ANT_TYPE_SET
from repro.quant.olive import OliveQuantizer
from repro.quant.tender import TenderQuantizer
from repro.quant.clustering import PerGroupClusterQuantizer, kmeans_1d
from repro.quant.kvcache import (
    KVCache,
    FP16KVCache,
    IntKVCache,
    MantKVCache,
)
from repro.quant.calibration import RunningActStats, KVGroupSampler, CalibrationResult

__all__ = [
    "QuantConfig",
    "Granularity",
    "WEIGHT_ONLY_FP16_ACT",
    "GroupQuantizer",
    "quantize_dequantize",
    "qdq_with_config",
    "MantQuantizer",
    "MantModelQuantizer",
    "QuantizedWeight",
    "AntQuantizer",
    "select_ant_type",
    "ANT_TYPE_SET",
    "OliveQuantizer",
    "TenderQuantizer",
    "PerGroupClusterQuantizer",
    "kmeans_1d",
    "KVCache",
    "FP16KVCache",
    "IntKVCache",
    "MantKVCache",
    "RunningActStats",
    "KVGroupSampler",
    "CalibrationResult",
]
