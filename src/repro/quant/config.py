"""Quantization configuration shared across methods.

A :class:`QuantConfig` names *how* a tensor is quantized — bit width,
granularity, group size and method — without binding to a specific
tensor.  The per-method quantizers consume it, and the hardware
simulator reads the same object to derive storage formats, so accuracy
and performance experiments cannot drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.metadata import StorageFormat, A_BITS, SCALE_BITS

__all__ = ["Granularity", "QuantConfig", "WEIGHT_ONLY_FP16_ACT"]


class Granularity(enum.Enum):
    """Scope of one scaling factor (and data-type choice)."""

    TENSOR = "tensor"
    CHANNEL = "channel"
    GROUP = "group"


@dataclass(frozen=True)
class QuantConfig:
    """Configuration of one quantized tensor role (weight/act/KV).

    ``method`` selects the algorithm: ``"int"``, ``"mant"``, ``"ant"``,
    ``"olive"``, ``"tender"``, ``"cluster"`` (per-group k-means ideal),
    ``"nf"``, ``"fp"``, ``"mxfp"`` or ``"fp16"`` (no quantization).
    """

    bits: int = 4
    granularity: Granularity = Granularity.GROUP
    group_size: int = 64
    method: str = "mant"
    symmetric: bool = True

    def __post_init__(self):
        if self.bits not in (2, 3, 4, 8, 16):
            raise ValueError(f"unsupported bit width {self.bits}")
        if self.granularity is Granularity.GROUP and self.group_size < 1:
            raise ValueError("group quantization needs group_size >= 1")

    @property
    def is_fp16(self) -> bool:
        return self.method == "fp16" or self.bits == 16

    def storage_format(self) -> StorageFormat:
        """Bit layout this config implies (for the memory model)."""
        if self.is_fp16:
            return StorageFormat("fp16", element_bits=16)
        coeff = A_BITS if self.method in ("mant", "ant") else 0
        if self.method == "cluster":
            # Per-group codebook: 2^bits centroids at 8 bits each
            # (Sec. III-B: "a 16-entry codebook with 8 bits per entry
            # requires 128 bits per group").
            coeff = (2**self.bits) * 8
        gsize = self.group_size if self.granularity is Granularity.GROUP else 0
        scale_bits = 8 if self.method == "mxfp" else SCALE_BITS
        return StorageFormat(
            f"{self.method}{self.bits}-g{gsize}",
            element_bits=self.bits,
            group_size=gsize,
            scale_bits=scale_bits,
            coeff_bits=coeff,
        )

    def bits_per_element(self) -> float:
        return self.storage_format().bits_per_element()


WEIGHT_ONLY_FP16_ACT = QuantConfig(bits=16, method="fp16")
