"""Execute-only-memory hardening toolchain and enforcement simulator."""

__version__ = "0.1.0"

from .blocks import EmbeddedDataBlock, XomLists
from .disasm import (DisassemblyReport, EntryPoint, compute_superset,
                     detect_entry_points)
from .image import (BinaryImage, attach_xom_section, executable_ranges,
                    is_xom_enabled, load_elf, parse_xom_section, set_xom_flag)
from .intervals import ByteInterval, IntervalSet
from .monitor import (Monitor, ReadRequest, TraceReport, Verdict, new_monitor,
                      parse_trace)
from .protector import (build_lists, count_static_refs, protect_binary,
                        protect_image)
from .surface import (Gadget, Metrics, code_coverage, edb_stats, gadget_scan,
                      metrics, overall_coverage, read_intensity, wrpkru_scan)

__all__ = [
    "BinaryImage", "ByteInterval", "DisassemblyReport", "EmbeddedDataBlock",
    "EntryPoint", "Gadget", "IntervalSet", "Metrics", "Monitor",
    "ReadRequest", "TraceReport", "Verdict", "XomLists",
    "attach_xom_section", "build_lists", "code_coverage", "compute_superset",
    "count_static_refs", "detect_entry_points", "edb_stats",
    "executable_ranges", "gadget_scan", "is_xom_enabled", "load_elf",
    "metrics", "new_monitor", "overall_coverage", "parse_trace",
    "parse_xom_section", "protect_binary", "protect_image",
    "read_intensity", "set_xom_flag", "wrpkru_scan",
]
