"""Evaluation metrics and attack-surface analyses."""

import re
from collections import namedtuple

from . import x86
from .errors import EmptyGroundTruth

DEFAULT_GADGET_DEPTH = 10
WRPKRU_BYTES = b"\x0f\x01\xef"

_TERMINATORS = {
    x86.RETURN: "ret",
    x86.INDIRECT_JUMP: "jmp_reg",
    x86.INDIRECT_CALL: "call_reg",
}
# opcode bytes of every terminator: ret (C2, C3, CA, CB), and FF when
# the next byte's ModRM reg field is 2-5, the indirect calls and jumps
_TERMINATOR_OPCODE = re.compile(
    b"[\xc2\xc3\xca\xcb]|\xff(?=[\x10-\x2f\x50-\x6f\x90-\xaf\xd0-\xef])")


class Metrics(namedtuple("Metrics", "code_coverage overall_coverage "
                                   "edb_count avg_edb_size")):
    __slots__ = ()

    @property
    def readable_fraction(self):
        return 1.0 - self.overall_coverage


Gadget = namedtuple("Gadget", "start length instruction_count terminator")


def code_coverage(report, ground_truth_code):
    if not ground_truth_code:
        raise EmptyGroundTruth("ground-truth code set is empty")
    hit = report.code.intersection_size(ground_truth_code)
    return hit / ground_truth_code.total_bytes


def overall_coverage(report):
    return report.code.total_bytes / report.executable_total


def edb_stats(report):
    count = len(report.superset)
    if count == 0:
        return 0, 0
    return count, report.superset.total_bytes / count


def metrics(report, ground_truth_code=None):
    count, avg = edb_stats(report)
    cc = (code_coverage(report, ground_truth_code)
          if ground_truth_code is not None else None)
    return Metrics(code_coverage=cc, overall_coverage=overall_coverage(report),
                   edb_count=count, avg_edb_size=avg)


def gadget_scan(image, report, max_instructions=DEFAULT_GADGET_DEPTH):
    """Usable gadgets fully contained in readable blocks, by start address.

    A gadget is a run of fall-through instructions, at most
    max_instructions long with its terminator, that ends in a ret /
    indirect jump / indirect call without leaving its block.  Direct
    branches leave the block deterministically and end no gadget.

    One backward pass per block decodes each offset at most once: the
    chain starting at an offset is its own terminator, or one
    fall-through instruction in front of the chain stored for the offset
    it falls through to.  So the pass decodes an offset only if a
    terminator opcode byte sits at it, or a gadget starts within 15
    bytes after it (off+1 ... off+15: an instruction is at most 15 bytes
    long, and a fall-through instruction ends there).  A terminator that
    starts with a prefix is covered by the second rule: without its
    first prefix it is still a terminator, with the same end, so a
    gadget starts at off+1.  The pass skips every other offset, and so
    starts at the block's last terminator opcode byte.
    """
    if max_instructions < 1:
        return []
    # x86.walk with no start map decodes one instruction, as x86.decode
    # does, but with the block's start for base and no call in between
    walk, fallthrough = x86.walk, x86.FALLTHROUGH
    gadgets = []
    for block in report.superset:
        base = block.start
        data = image.read_vaddr(base, len(block))
        size = len(data)
        # chains[off]: (instruction count, terminator end, terminator) of
        # the gadget starting at off; chains[size] stays None, since a
        # fall-through into the next block ends every walk
        chains = [None] * (size + 1)
        found = []
        # terminator opcode bytes in address order, taken from the last;
        # the -1 in front ends the pass
        opcodes = [-1, *(m.start() for m in _TERMINATOR_OPCODE.finditer(
            data))]
        k = len(opcodes) - 1
        off = floor = size
        while off > 0:
            off -= 1
            if off < floor:
                off = floor = opcodes[k]
                if off < 0:
                    break
            if off == opcodes[k]:
                k -= 1
            ins = walk(data, off, base)
            if ins is None:
                continue
            va = base + off
            length, kind, _, _, _, _, _ = ins
            term = _TERMINATORS.get(kind)
            if term is not None:
                chain = (1, va + length, term)
            elif kind is fallthrough:
                chain = chains[off + length]
                if chain is None or chain[0] >= max_instructions:
                    continue
                chain = (chain[0] + 1, chain[1], chain[2])
            else:
                continue
            chains[off] = chain
            found.append(Gadget(va, chain[1] - va, chain[0], chain[2]))
            floor = off - x86.MAX_INSN_LEN
        found.reverse()
        gadgets.extend(found)
    return gadgets


def wrpkru_scan(image, report):
    """All WRPKRU byte sequences in executable memory, with location label."""
    hits = []
    for start, _ in image.exec_ranges.pairs():
        _, data = image.code_at(start)
        pos = data.find(WRPKRU_BYTES)
        while pos >= 0:
            va = start + pos
            label = ("inside_superset"
                     if report.superset.contains_range(va, 1)
                     else "inside_code")
            hits.append((va, label))
            pos = data.find(WRPKRU_BYTES, pos + 1)
    return hits
