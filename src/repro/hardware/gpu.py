"""GPU device specifications.

Encodes the hardware used in the paper's evaluation (Table 3): NVIDIA
L4 (PCIe-only GCP machines) and NVIDIA A100-40GB (NVLink AWS
p4d.24xlarge machines), plus a few extra devices for experimentation.

All bandwidth figures are *effective* (achievable) rather than
theoretical peaks, which is what a calibrated cost model would measure.
Units: bytes, bytes/second, FLOP/s, seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schema import UnknownNameError

__all__ = ["GPUSpec", "GPU_REGISTRY", "get_gpu", "GiB"]

GiB = 1024**3


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a single GPU device."""

    name: str
    memory_bytes: int
    #: dense fp16/bf16 tensor-core peak, FLOP/s
    peak_fp16_flops: float
    #: fp32 peak (used for optimizer math), FLOP/s
    peak_fp32_flops: float
    #: HBM/GDDR bandwidth, bytes/s
    mem_bandwidth: float
    #: host<->device copy bandwidth per direction, bytes/s
    pcie_bandwidth: float
    #: per-GPU NVLink bandwidth to peers, bytes/s (None = PCIe only)
    nvlink_bandwidth: float | None = None
    #: fixed per-kernel launch overhead, seconds
    kernel_launch_overhead: float = 4.0e-6
    #: fraction of device memory usable by the framework (CUDA context
    #: and NCCL buffers are carved out of the rest)
    usable_memory_fraction: float = 0.96
    #: achievable fraction of peak FLOPs for large, well-shaped GEMMs
    max_gemm_efficiency: float = 0.72
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def usable_memory_bytes(self) -> int:
        return int(self.memory_bytes * self.usable_memory_fraction)

    @property
    def memory_gb(self) -> float:
        """Device memory in GiB (convenience for reports and docs)."""
        return self.memory_bytes / GiB

    @property
    def has_nvlink(self) -> bool:
        return self.nvlink_bandwidth is not None

    @property
    def gpu_gpu_bandwidth(self) -> float:
        """Effective per-GPU bandwidth for intra-node GPU<->GPU traffic."""
        if self.nvlink_bandwidth is not None:
            return self.nvlink_bandwidth
        # PCIe peer-to-peer traffic shares the host bridge; slightly lower
        # than host copies in practice.
        return 0.85 * self.pcie_bandwidth

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Devices used by the paper's evaluation plus common alternatives.
GPU_REGISTRY: dict[str, GPUSpec] = {
    # GCP G2: PCIe Gen3 x16 host link, no NVLink (Table 3).
    "L4": GPUSpec(
        name="L4",
        memory_bytes=24 * GiB,
        peak_fp16_flops=121e12,
        peak_fp32_flops=30e12,
        mem_bandwidth=300e9,
        pcie_bandwidth=13.0e9,
        nvlink_bandwidth=None,
    ),
    # AWS p4d.24xlarge: A100-40GB, NVSwitch, PCIe Gen4 host link (Table 3).
    "A100-40GB": GPUSpec(
        name="A100-40GB",
        memory_bytes=40 * GiB,
        peak_fp16_flops=312e12,
        peak_fp32_flops=19.5e12,
        mem_bandwidth=1555e9,
        pcie_bandwidth=24.0e9,
        nvlink_bandwidth=235e9,
    ),
    "A100-80GB": GPUSpec(
        name="A100-80GB",
        memory_bytes=80 * GiB,
        peak_fp16_flops=312e12,
        peak_fp32_flops=19.5e12,
        mem_bandwidth=2039e9,
        pcie_bandwidth=24.0e9,
        nvlink_bandwidth=235e9,
    ),
    "H100-80GB": GPUSpec(
        name="H100-80GB",
        memory_bytes=80 * GiB,
        peak_fp16_flops=989e12,
        peak_fp32_flops=67e12,
        mem_bandwidth=3350e9,
        pcie_bandwidth=50.0e9,
        nvlink_bandwidth=430e9,
    ),
    # Small PCIe card useful for laptop-scale tests.
    "T4": GPUSpec(
        name="T4",
        memory_bytes=16 * GiB,
        peak_fp16_flops=65e12,
        peak_fp32_flops=8.1e12,
        mem_bandwidth=300e9,
        pcie_bandwidth=10.0e9,
        nvlink_bandwidth=None,
    ),
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU spec by name (case-insensitive)."""
    key = name.strip()
    if key in GPU_REGISTRY:
        return GPU_REGISTRY[key]
    for candidate, spec in GPU_REGISTRY.items():
        if candidate.lower() == key.lower():
            return spec
    raise UnknownNameError(
        f"unknown GPU {name!r}; known: {sorted(GPU_REGISTRY)}"
    )
