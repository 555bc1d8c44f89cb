"""Integrated GPU simulator: device models, cache, timing/energy."""

from .cache import CacheModel
from .device import GpuDevice, hd4600, hd5000
from .timing import DeviceReport, time_gpu_kernel

__all__ = [
    "CacheModel",
    "DeviceReport",
    "GpuDevice",
    "hd4600",
    "hd5000",
    "time_gpu_kernel",
]
