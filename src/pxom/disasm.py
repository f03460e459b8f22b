"""Unidirectional disassembly: compute the embedded-data superset.

The executable bytes start out all-readable ("superset") and only ever
move to the code set when a control-flow traversal proves them to be
instructions.  A data byte can therefore never be classified as code;
the price is that unreachable code stays readable.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from struct import unpack_from

from . import x86
from .ehframe import fde_initial_locations
from .errors import NoExecutableCode
from .image import executable_ranges
from .intervals import IntervalSet

SOURCE_ORDER = ("program_entry", "jump_table", "frame_unwind",
                "address_taken", "heuristic")

_PROLOGUE_PATTERNS = (
    b"\xf3\x0f\x1e\xfa",      # endbr64
    b"\x55\x48\x89\xe5",      # push rbp; mov rbp, rsp
    b"\x48\x83\xec",          # sub rsp, imm8
    b"\x48\x81\xec",          # sub rsp, imm32
)

_PAD_BYTES = frozenset((0x90, 0xCC))

_JUMP_TABLE_WINDOW = 128      # max gap between table load and switch jump
_JUMP_TABLE_MAX_ENTRIES = 1024

_STOP_KINDS = frozenset((x86.RETURN, x86.HALT, x86.INDIRECT_JUMP,
                         x86.INDIRECT_CALL))
_PUSH_KINDS = frozenset((x86.CONDITIONAL_JUMP, x86.DIRECT_CALL))


@dataclass(frozen=True)
class EntryPoint:
    vaddr: int
    source: str


@dataclass
class DisassemblyReport:
    code: IntervalSet
    superset: IntervalSet
    entry_points: list
    executable_total: int
    instructions: dict = field(default_factory=dict, repr=False)


def _traverse(image, entry, superset, committed):
    """Claim instruction bytes reachable from entry.

    A path ends cleanly at an instruction already decoded by this
    traversal or at the start of a committed one (a key of committed).
    A path also ends cleanly at address 0 outside the superset: a static
    link resolves an undefined weak function to 0, and the code calls it
    only behind a null test.  Any invalid decode, or reaching a byte
    outside the superset anywhere else (mid-way into committed code, or
    off the executable range), fails the whole traversal (ok=False).
    Returns (claimed, insns, ok), where claimed is the union of the
    instructions in insns.

    The superset does not change while a traversal runs, so the walk
    keeps the run [lo, hi) of superset and executable bytes it is in,
    and decodes with the run end as limit: an instruction that would
    leave the run decodes to None.  It looks a run up again only when a
    path leaves the current one.  Each straight-line stretch it decodes
    is one (start, end) pair, so claimed merges those pairs, not every
    instruction.
    """
    insns = {}
    stretches = []
    stack = [entry]
    ok = True
    decode = x86.decode
    lo = hi = base = limit = 0
    buf = b""
    while stack:
        va = start = stack.pop()
        while va not in insns:
            if not lo <= va < hi:
                run = superset.run_at(va)
                if run is None:
                    if va and va not in committed:
                        ok = False
                    break
                base, buf = image.code_at(va)
                lo = max(run[0], base)
                hi = min(run[1], base + len(buf))
                limit = hi - base
            ins = decode(buf, va - base, va, limit)
            if ins is None:
                ok = False
                break
            insns[va] = ins
            va += ins.length
            kind = ins.kind
            if kind in _STOP_KINDS:
                break
            if kind == x86.DIRECT_JUMP:
                stretches.append((start, va))
                va = start = ins.direct_targets[0]
            elif kind in _PUSH_KINDS:
                stack.append(ins.direct_targets[0])
        if va != start:
            stretches.append((start, va))
    return IntervalSet.from_pairs(stretches), insns, ok


def _finders(image):
    """Source name -> targets(superset, code, instructions), the source's
    candidate addresses, sorted.  The sources that read only the image
    find theirs here, once, and return the same list every time; the
    heuristic finds its aligned prologues here too, and each call keeps
    those still in the superset."""
    # load_elf keeps a nonzero entry inside the executable ranges
    program_entry = [image.entry_point] if image.entry_point else []
    frame_unwind = sorted(set(_frame_unwind_targets(image)))
    address_taken = sorted(set(_address_taken_targets(image)))
    prologues = _prologue_starts(image)
    prologue_ends = [va + 1 for va in prologues]

    def jump_table(superset, code, instructions):
        return sorted(set(_jump_table_targets(image, superset, instructions)))

    def heuristic(superset, code, instructions):
        aligned = compress(prologues,
                           superset.contains_each(prologues, prologue_ends))
        return sorted({*aligned, *_padded_prologues(image, superset, code)})

    return {"program_entry": lambda *_: program_entry,
            "jump_table": jump_table,
            "frame_unwind": lambda *_: frame_unwind,
            "address_taken": lambda *_: address_taken,
            "heuristic": heuristic}


def detect_entry_points(image, superset, known_code, instructions):
    """Candidate code entry points, ordered by source then address.

    An address goes to the first source in SOURCE_ORDER that proposes it,
    and must lie in the superset or the known code.  instructions are
    the committed ones, where the jump-table finder looks for tables."""
    finders = _finders(image)
    found = {}
    for source in SOURCE_ORDER:
        for va in finders[source](superset, known_code, instructions):
            if va not in found and (superset.contains_range(va, 1)
                                    or known_code.contains_range(va, 1)):
                found[va] = source
    return [EntryPoint(va, src) for va, src in found.items()]


def _jump_table_targets(image, superset, instructions):
    """Targets of the bounded rel32 tables in the superset that committed
    code dispatches through: a lea of the table, the first indirect jump
    at most _JUMP_TABLE_WINDOW bytes after it, and a bound check before
    that jump.  instructions maps vaddr -> committed instruction."""
    # indirect jumps are few; bisecting them is cheaper than looking up
    # every window address for each lea of an island in the superset
    jumps = sorted(va for va, ins in instructions.items()
                   if ins.kind == x86.INDIRECT_JUMP)
    targets = []
    for va, ins in instructions.items():
        if ins.opcode != (0x8D,):  # lea
            continue
        table = ins.rip_relative_data_target
        if table is None or not superset.contains_range(table, 4):
            continue
        k = bisect_right(jumps, va)
        if k < len(jumps) and jumps[k] <= va + _JUMP_TABLE_WINDOW:
            count = _bound_before(instructions, va, jumps[k])
            if count is not None:
                targets.extend(_rel32_table(image, superset, table, count))
    return targets


def _bound_before(instructions, lo, hi):
    """Entry count set by the last cmp/and bound check in [lo-32, hi),
    or None if there is none."""
    bound = None
    for va in range(lo - 32, hi):
        ins = instructions.get(va)
        if ins is None or ins.immediate is None:
            continue
        reg_field = (ins.modrm >> 3) & 7 if ins.modrm is not None else None
        if ins.opcode in ((0x81,), (0x83,)) and reg_field in (4, 7):
            bound = ins.immediate
        elif ins.opcode in ((0x3D,), (0x25,)):
            bound = ins.immediate
    if bound is not None and 0 <= bound < _JUMP_TABLE_MAX_ENTRIES:
        return bound + 1
    return None


def _rel32_table(image, superset, table, count):
    """The targets of the count rel32 entries at table, or [] unless the
    whole table lies in the superset and every target is executable."""
    if not superset.contains_range(table, 4 * count):
        return []
    raw = image.read_vaddr(table, 4 * count)
    targets = [(table + rel) & 0xFFFFFFFFFFFFFFFF
               for rel in unpack_from("<%di" % count, raw)]
    exec_ranges = executable_ranges(image)
    if all(exec_ranges.contains_range(va, 1) for va in targets):
        return targets
    return []


def _frame_unwind_targets(image):
    sec = image.section_by_name(".eh_frame")
    if sec is None or not sec.size:
        return []
    locs = fde_initial_locations(sec.data(image.raw), sec.vaddr)
    exec_ranges = executable_ranges(image)
    return [va for va in locs if exec_ranges.contains_range(va, 1)]


def _address_taken_targets(image):
    exec_ranges = executable_ranges(image)
    targets = []
    for sec in image.sections:
        if sec.sh_type == 4 and sec.entsize >= 24:  # SHT_RELA
            data = sec.data(image.raw)
            for off in range(0, len(data) - 23, sec.entsize or 24):
                addend = int.from_bytes(data[off + 16:off + 24], "little",
                                        signed=True)
                if exec_ranges.contains_range(addend, 1):
                    targets.append(addend)
        elif sec.name in (".init_array", ".fini_array", ".preinit_array",
                          ".got", ".got.plt"):
            data = sec.data(image.raw)
            for off in range(0, len(data) - 7, 8):
                value = int.from_bytes(data[off:off + 8], "little")
                if exec_ranges.contains_range(value, 1):
                    targets.append(value)
        elif sec.name in (".rodata", ".data.rel.ro"):
            data = sec.data(image.raw)
            start = -sec.vaddr % 8
            for off in range(start, len(data) - 7, 8):
                value = int.from_bytes(data[off:off + 8], "little")
                if exec_ranges.contains_range(value, 1):
                    targets.append(value)
    return targets


def _prologue_starts(image):
    """Sorted 16-aligned addresses where a prologue pattern starts; the
    pattern and 4 bytes lie inside the address's executable range."""
    found = set()
    for iv in executable_ranges(image):
        base, buf = image.code_at(iv.start)
        for pattern in _PROLOGUE_PATTERNS:
            pos = buf.find(pattern, -base % 16)
            while pos >= 0:
                if (base + pos) % 16 == 0 and pos + 4 <= len(buf):
                    found.add(base + pos)
                pos = buf.find(pattern, pos + 1)
    return sorted(found)


def _padded_prologues(image, superset, known_code):
    """Prologues right after the int3/nop padding that starts a superset
    block and follows committed code."""
    targets = []
    for start, end in superset.pairs():
        if known_code.contains_range(start - 1, 1):
            va = start
            while va < end:
                raw = image.read_vaddr(va, 1)
                if raw is None or raw[0] not in _PAD_BYTES:
                    break
                va += 1
            if start < va < end and _matches_prologue(image, va):
                targets.append(va)
    return targets


def _matches_prologue(image, va):
    raw = image.read_vaddr(va, 4)
    if raw is None:
        return False
    return any(raw.startswith(p) for p in _PROLOGUE_PATTERNS)


def compute_superset(image):
    """Partition the executable bytes into identified code and superset.

    A fixpoint: each round walks SOURCE_ORDER, asks each source for its
    targets when its turn comes, and commits every traversal from a
    target that succeeds.  The rounds stop when one commits nothing.

    A traversal that fails still fails after later commits: a commit
    cannot put a committed start on a failing path, because its own
    traversal would follow that path to the same failure.  So a target
    that a later source proposes again is rejected again.
    """
    exec_ranges = executable_ranges(image)
    if not exec_ranges:
        raise NoExecutableCode("image has no executable segment")

    finders = _finders(image)
    superset = exec_ranges.copy()
    code = IntervalSet()
    instructions = {}
    accepted = []
    progress = True
    while progress:
        progress = False
        for source in SOURCE_ORDER:
            for va in finders[source](superset, code, instructions):
                if not superset.contains_range(va, 1):
                    continue
                claimed, insns, ok = _traverse(image, va, superset,
                                               instructions)
                if ok:
                    for start, end in claimed.pairs():
                        superset.remove(start, end)
                        code.add(start, end)
                    instructions.update(insns)
                    accepted.append(EntryPoint(va, source))
                    progress = True

    return DisassemblyReport(code=code, superset=superset,
                             entry_points=accepted,
                             executable_total=exec_ranges.total_bytes,
                             instructions=instructions)
