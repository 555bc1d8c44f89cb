"""The two evaluation systems of the paper (section 5.1)."""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.device import CpuDevice, i7_4650u, i7_4770
from ..gpu.device import GpuDevice, hd4600, hd5000


@dataclass(frozen=True)
class System:
    name: str
    cpu: CpuDevice
    gpu: GpuDevice
    tdp_watts: float


def ultrabook() -> System:
    """1.7 GHz dual-core i7-4650U Ultrabook with HD Graphics 5000, 15 W."""
    return System(name="Ultrabook", cpu=i7_4650u(), gpu=hd5000(), tdp_watts=15.0)


def desktop() -> System:
    """3.4 GHz quad-core i7-4770 desktop with HD Graphics 4600, 84 W."""
    return System(name="Desktop", cpu=i7_4770(), gpu=hd4600(), tdp_watts=84.0)


#: name -> factory: the spellings the CLI's ``--system`` and the daemon's
#: ``system`` field accept
ALL_SYSTEMS = {factory.__name__: factory for factory in (ultrabook, desktop)}


def system_named(name) -> System:
    """The system ``name`` spells in :data:`ALL_SYSTEMS`; anything else is
    refused with the field named."""
    factory = ALL_SYSTEMS.get(name)
    if factory is None:
        raise ValueError(f"system={name!r}: unknown system; choose from {list(ALL_SYSTEMS)}")
    return factory()
