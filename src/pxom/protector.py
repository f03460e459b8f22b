"""User-space protection pipeline: disassemble, build lists, emit binary."""

from bisect import bisect_right

from .blocks import EmbeddedDataBlock, XomLists
from .disasm import collector_paused, compute_superset
from .image import attach_xom_section, load_elf, set_xom_flag

STATIC_REF_THRESHOLD = 10    # blocks referenced more than this go optimization


def count_static_refs(report):
    """Per-block count of statically visible memory references, one per
    superset block, in start order.

    Only direct RIP-relative and absolute-address operands are counted,
    as the report's refs list them; register-indexed accesses are
    invisible to static analysis and are handled by the monitor's
    dynamic promotion instead.
    """
    blocks = list(report.superset.pairs())
    starts = [start for start, _ in blocks]
    counts = [0] * len(blocks)
    for target in report.refs:
        i = bisect_right(starts, target) - 1
        if i >= 0 and target < blocks[i][1]:
            counts[i] += 1
    return counts


def build_lists(report, refs):
    """Both lists, each in start order, as the superset iterates; refs
    holds one count per superset block, in the same order."""
    regular = []
    optimization = []
    for iv, count in zip(report.superset, refs):
        block = EmbeddedDataBlock(iv, count)
        if count > STATIC_REF_THRESHOLD:
            optimization.append(block)
        else:
            regular.append(block)
    return XomLists(regular=regular, optimization=optimization)


def protect_image(image):
    """Protected image plus the report it was built from."""
    report = compute_superset(image)
    lists = build_lists(report, count_static_refs(report))
    protected = attach_xom_section(set_xom_flag(image), lists)
    return protected, report, lists


def protect_binary(data):
    """The protected ELF bytes of data.

    Runs with the cyclic garbage collector paused, like
    `compute_superset`, and resumes it only once the report and the
    block lists are freed, so no collection scans them.
    """
    with collector_paused():
        return protect_image(load_elf(data))[0].raw
