"""Execute-only-memory hardening toolchain and enforcement simulator."""

__version__ = "0.1.0"

from .blocks import EmbeddedDataBlock, XomLists
from .disasm import compute_superset
from .image import (executable_ranges, is_xom_enabled, load_elf,
                    parse_xom_section)
from .intervals import ByteInterval, IntervalSet
from .monitor import ReadRequest, new_monitor, parse_trace
from .protector import protect_binary, protect_image
from .surface import gadget_scan, metrics, wrpkru_scan

__all__ = [
    "ByteInterval", "EmbeddedDataBlock", "IntervalSet", "ReadRequest",
    "XomLists",
    "compute_superset", "executable_ranges", "gadget_scan", "is_xom_enabled",
    "load_elf", "metrics", "new_monitor", "parse_trace", "parse_xom_section",
    "protect_binary", "protect_image", "wrpkru_scan",
]
