"""Unidirectional disassembly: compute the embedded-data superset.

The executable bytes start out all-readable ("superset") and only ever
move to the code set when a control-flow traversal proves them to be
instructions.  A data byte can therefore never be classified as code;
the price is that unreachable code stays readable.
"""

import gc
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress
from struct import unpack_from

from . import x86
from .ehframe import fde_initial_locations
from .errors import NoExecutableCode
from .image import executable_ranges
from .intervals import IntervalSet

SOURCE_ORDER = ("program_entry", "frame_unwind", "address_taken",
                "heuristic", "jump_table")

_PROLOGUE_PATTERNS = (
    b"\xf3\x0f\x1e\xfa",      # endbr64
    b"\x55\x48\x89\xe5",      # push rbp; mov rbp, rsp
    b"\x48\x83\xec",          # sub rsp, imm8
    b"\x48\x81\xec",          # sub rsp, imm32
)

_JUMP_TABLE_WINDOW = 128      # max gap between table load and switch jump
_JUMP_TABLE_MAX_ENTRIES = 1024
_BOUND_GROUP = ((0x80,), (0x81,), (0x83,))     # /4 and, /7 cmp
_BOUND_ACC = ((0x24,), (0x25,), (0x3C,), (0x3D,))          # al, eax

_STOP_KINDS = frozenset((x86.RETURN, x86.HALT, x86.INDIRECT_JUMP,
                         x86.INDIRECT_CALL))


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


def _traverse(image, entry, superset, committed, memo):
    """Claim instruction bytes reachable from entry.

    A path ends cleanly at an instruction already decoded by this
    traversal or at the start of a committed one (a key of committed).
    A path also ends cleanly at address 0 outside the superset: a static
    link resolves an undefined weak function to 0, and the code calls it
    only behind a null test.  Any invalid decode, or reaching a byte
    outside the superset anywhere else (mid-way into committed code, or
    off the executable range), fails the whole traversal: the walk stops
    there and returns None.  Otherwise it returns (stretches, insns),
    where the (start, end) pairs of stretches cover exactly the
    instructions in insns.

    The superset does not change while a traversal runs, so the walk
    keeps the run [lo, hi) of superset and executable bytes it is in,
    and decodes with the run end as limit: an instruction that would
    leave the run decodes to None.  It looks a run up again only when a
    path leaves the current one.  Each straight-line stretch it decodes
    is one (start, end) pair, not one per instruction.

    memo maps the 4 bytes at an instruction start to the record decoded
    there, for records of at most 4 bytes with no branch or RIP target:
    such a record depends on its bytes only, so equal instructions share
    one tuple.  A stored record is reused only if it ends within the
    limit; if it does not, decode would return None there too.
    """
    insns = {}
    stretches = []
    stack = [entry]
    decode, shared = x86.decode, memo.get
    fallthrough, direct_jump = x86.FALLTHROUGH, x86.DIRECT_JUMP
    lo = hi = base = limit = 0
    buf = b""
    while stack:
        va = start = stack.pop()
        while va not in insns:
            if not lo <= va < hi:
                run = superset.run_at(va)
                if run is None:
                    if va and va not in committed:
                        return None
                    break
                base, buf = image.code_at(va)
                lo = max(run[0], base)
                hi = min(run[1], base + len(buf))
                limit = hi - base
            off = va - base
            key = buf[off:off + 4]
            ins = shared(key)
            if ins is None:
                ins = decode(buf, off, va, limit)
                if ins is None:
                    return None
                if ins[0] <= 4 and ins[2] is None and ins[3] is None:
                    memo[key] = ins
            elif off + ins[0] > limit:
                return None
            insns[va] = ins
            length, kind, target, _, _, _, _ = ins
            va += length
            if kind is fallthrough:
                continue
            if kind in _STOP_KINDS:
                break
            if kind is direct_jump:
                stretches.append((start, va))
                va = start = target
            else:                       # conditional jump or direct call
                stack.append(target)
        if va != start:
            stretches.append((start, va))
    return stretches, insns


def _sources(image, superset, instructions):
    """(source, targets) for each source in SOURCE_ORDER, each list
    sorted and found only when its turn comes.  All but the program
    entry's lie in the image's code sections if it has any, since an R+X
    segment may hold data sections too."""
    code = image.code_sections or image.exec_ranges
    # load_elf keeps a nonzero entry inside the executable ranges
    yield "program_entry", [image.entry_point] if image.entry_point else []
    yield "frame_unwind", sorted(set(_frame_unwind_targets(image, code)))
    yield "address_taken", sorted(set(_address_taken_targets(image, code)))
    yield "heuristic", _prologue_starts(image, code)
    yield "jump_table", _jump_table_targets(image, superset, instructions)


def detect_entry_points(image, superset, known_code, instructions):
    """Candidate code entry points, ordered by source then address.

    An address goes to the first source in SOURCE_ORDER that proposes it,
    and must lie in the superset or the known code.  instructions are
    the committed ones, where the jump-table finder looks for tables."""
    found = {}
    for source, targets in _sources(image, superset, instructions):
        for va in targets:
            if va not in found and (superset.contains_range(va, 1)
                                    or known_code.contains_range(va, 1)):
                found[va] = source
    return [EntryPoint(va, src) for va, src in found.items()]


def _jump_table_targets(image, superset, instructions):
    """Sorted targets of the bounded rel32 tables in the superset that
    committed code (instructions, by vaddr) dispatches through.  Each
    indirect jump reads the table of the last lea of one at most
    _JUMP_TABLE_WINDOW bytes before it and after the previous indirect
    jump; if such a lea comes before the window's last movsxd (the entry
    read), of the last lea before that movsxd.
    A bound check before the jump sets the entry count, but a table ends
    where the next one read begins: a mask bounds the index only."""
    # indirect jumps are few; each walks its window once.  Records are
    # read by index, which costs less than unpacking all seven fields: 1
    # is the kind, 3 the RIP-relative target, 4 the opcode, 5 the ModRM
    indirect_jump = x86.INDIRECT_JUMP
    reads = []
    lo = 0
    for jump in sorted(va for va, ins in instructions.items()
                       if ins[1] is indirect_jump):
        lea = before_read = None
        for va in range(max(lo, jump - _JUMP_TABLE_WINDOW), jump):
            ins = instructions.get(va)
            if ins is None:
                continue
            if ins[4] == (0x8D,):
                if ins[3] is not None and superset.contains_range(ins[3], 4):
                    lea = va, ins[3]
            elif ins[4] == (0x63,) and ins[5] < 0xC0:   # movsxd r, [m]
                # a lea after the entry read loads something else
                before_read = lea
        if lea is not None:
            va, table = before_read or lea
            reads.append((table, _bound_before(instructions, va, jump)))
        lo = jump + 1
    starts = sorted({table for table, _ in reads}) + [1 << 64]
    targets = []
    for table, count in reads:
        if count is not None:
            count = min(count, (starts[bisect_right(starts, table)] - table)
                        // 4)
            targets.extend(_rel32_table(image, superset, table, count))
    return sorted(set(targets))


def _bound_before(instructions, lo, hi):
    """Entry count set by the last cmp/and with an imm8 or imm32 in
    [lo-32, hi), or None.  An 8-bit check counts only on a register,
    as byte compares of memory are common in string code.  Its imm8
    decodes sign-extended, so one of 0x80 or more reads no table: 8-bit
    bounds are capped at 128 entries."""
    bound = None
    for va in range(lo - 32, hi):
        ins = instructions.get(va)
        if ins is None or ins[6] is None:
            continue
        _, _, _, _, opcode, modrm, immediate = ins
        if (opcode in _BOUND_ACC or opcode in _BOUND_GROUP
                and (modrm >> 3) & 7 in (4, 7)          # and, cmp
                and (opcode != (0x80,) or modrm >= 0xC0)):
            bound = immediate
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
    if all(va in image.exec_ranges for va in targets):
        return targets
    return []


def _frame_unwind_targets(image, ranges):
    sec = image.section_by_name(".eh_frame")
    if sec is None or not sec.size:
        return []
    locs = fde_initial_locations(sec.data(image.raw), sec.vaddr)
    return [va for va in locs if ranges.contains_range(va, 1)]


def _address_taken_targets(image, ranges):
    """The 8-byte values in ranges, in section then address order:
    RELA addends, the entries of the pointer arrays and the GOT, and, in
    an ET_EXEC image, the 8-aligned words of .rodata and .data.rel.ro.
    A position-independent image has no relocation for such a word, so
    a raw word that lands in code there is a coincidence."""
    targets = []
    for sec in image.sections:
        if sec.sh_type == 4 and sec.entsize >= 24:  # SHT_RELA
            values = _words(sec.data(image.raw), 16, sec.entsize, "q")
        elif sec.name in (".init_array", ".fini_array", ".preinit_array",
                          ".got", ".got.plt"):
            values = _words(sec.data(image.raw), 0, 8)
        elif (sec.name in (".rodata", ".data.rel.ro")
              and image.elf_type == 2):                 # ET_EXEC
            values = _words(sec.data(image.raw), -sec.vaddr % 8, 8)
        else:
            continue
        targets.extend(compress(values, ranges.contains_each(
            values, [va + 1 for va in values])))
    return targets


def _words(data, first, stride, code="Q"):
    """The little-endian 8-byte words at first, first + stride, ... that
    lie wholly in data, in one unpack; code is the struct code, "Q" or
    "q" (signed, as a RELA addend)."""
    count = (len(data) - first - 8) // stride + 1
    if count <= 0:
        return ()
    if stride == 8:
        return unpack_from("<%dx%d%s" % (first, count, code), data)
    gap = "%dx%s" % (stride - 8, code)
    return unpack_from("<%dx%s" % (first, code) + gap * (count - 1), data)


def _prologue_starts(image, ranges):
    """The sorted 16-aligned prologue pattern starts with 4 bytes inside
    their range of ranges, each of which lies in one executable range."""
    starts = set()
    for iv in ranges:
        base, buf = image.code_at(iv.start)
        end = iv.end - base
        for pattern in _PROLOGUE_PATTERNS:
            pos = buf.find(pattern, iv.start - base, end)
            while pos >= 0:
                if pos + 4 <= end and (base + pos) % 16 == 0:
                    starts.add(base + pos)
                pos = buf.find(pattern, pos + 1, end)
    return sorted(starts)


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector; restore the caller's state.

    The disassembly keeps one instruction record per committed
    instruction alive (261k on libc, in 153k distinct tuples), and the
    collector would rescan them again and again while they pile up.
    pxom builds no reference cycles, so reference counting frees all of
    it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@collector_paused()
def compute_superset(image):
    """Partition the executable bytes into identified code and superset.

    One pass over the sources in SOURCE_ORDER (`_sources`), whose last
    is the jump-table finder, then that finder again after every call
    that committed anything.  Each commits every traversal from its
    targets that succeeds.

    A traversal that fails still fails after later commits: a commit
    cannot put a committed start on a failing path, because its own
    traversal would follow that path to the same failure.  So each
    target is traversed at most once, and a second pass over the
    image-only targets would commit nothing.

    The traversals of one call share one memo of short instruction
    records (see `_traverse`), so equal instructions share one tuple;
    it is dropped when the call returns.  Records are immutable: compare
    them by value, never by identity.

    Runs with the cyclic garbage collector paused (`collector_paused`).
    """
    superset = executable_ranges(image)
    if not superset:
        raise NoExecutableCode("image has no executable segment")

    instructions = {}
    accepted = []
    traversed = set()
    memo = {}

    def commit(source, targets):
        """Commit each new target's traversal; True when one succeeded."""
        committed = False
        for va in targets:
            if va in traversed or not superset.contains_range(va, 1):
                continue
            traversed.add(va)
            result = _traverse(image, va, superset, instructions, memo)
            if result is not None:
                stretches, insns = result
                for start, end in stretches:
                    superset.remove(start, end)
                instructions.update(insns)
                accepted.append(EntryPoint(va, source))
                committed = True
        return committed

    for source, targets in _sources(image, superset, instructions):
        progress = commit(source, targets)
    # the last source is the jump-table finder: code it committed can
    # dispatch through new tables
    while progress:
        progress = commit(source, _jump_table_targets(
            image, superset, instructions))

    # commits only move executable bytes out of the superset, so the code
    # is the executable bytes it no longer holds.  In address order, each
    # removal edits code only near its end: one linear pass
    code = executable_ranges(image)
    for start, end in superset.pairs():
        code.remove(start, end)
    return DisassemblyReport(code=code, superset=superset,
                             entry_points=accepted,
                             executable_total=image.exec_ranges.total_bytes,
                             instructions=instructions)
