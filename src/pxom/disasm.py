"""Unidirectional disassembly: compute the embedded-data superset.

The executable bytes start out all-readable ("superset") and only ever
move to the code set when a control-flow traversal proves them to be
instructions.  A data byte can therefore never be classified as code;
the price is that unreachable code stays readable.
"""

import gc
from bisect import bisect_left, bisect_right
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
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
# first opcode bytes of the records the jump-table finder reads (lea,
# movsxd, the bound checks).  No opcode of two bytes or more starts with
# one, so the first byte after the prefixes decides
_KEPT_BYTES = frozenset((0x8D, 0x63,
                         *(op[0] for op in _BOUND_GROUP + _BOUND_ACC)))

_INDIRECT_JUMP = x86.INDIRECT_JUMP


EntryPoint = namedtuple("EntryPoint", "vaddr source")


@dataclass
class DisassemblyReport:
    """What `compute_superset` found, with no instruction records.

    starts maps the start of each executable range to a bytearray with a
    1 at the offset of each committed instruction start.  refs is the
    sorted list of the committed instructions' static references: each
    RIP-relative target and each A0-A3 moffs address.  Neither the
    traversal nor the jump-table finder keeps a record past the call.
    instructions decodes the marked starts when it is first read; tests
    and benchmark probes read it, no pxom command does.
    """
    code: IntervalSet
    superset: IntervalSet
    entry_points: list
    executable_total: int
    starts: dict = field(repr=False)
    refs: list = field(repr=False)
    image: object = field(repr=False, compare=False)

    @cached_property
    def instructions(self):
        """The record of each committed start, by vaddr, in address
        order: what `x86.decode` returns there."""
        decode = x86.decode
        found = {}
        for base, marks in self.starts.items():
            _, buf = self.image.code_at(base)
            for va in compress(range(base, base + len(marks)), marks):
                found[va] = decode(buf, va - base, va)
        return found


def _traverse(image, entry, superset, starts):
    """Claim the instruction bytes reachable from entry, marking each
    start it decodes in the start map starts (see `DisassemblyReport`).

    Committed starts lie outside the superset, so a 1 inside it marks a
    start this walk decoded.  A path ends cleanly there, at a committed
    start, or at address 0 outside the superset (a static link resolves
    an undefined weak function to 0, called only behind a null test).
    An invalid decode or any other exit from the superset fails the
    whole traversal: the walk clears its marks and returns None.  Else it
    returns (stretches, refs, jumps): (start, end) pairs covering exactly
    the decoded instructions, their RIP targets and A0-A3 moffs addresses
    in decode order, and the addresses of their indirect jumps, which the
    jump-table finder reads.

    Each call of `x86.walk` decodes one run up to an unconditional
    transfer: it marks the starts, appends the references and indirect
    jumps, and pushes the targets of conditional jumps and direct calls
    onto the stack itself, so the order is depth-first with the
    fall-through first.  It returns at the run's last instruction, at a
    marked start, at an invalid byte, or at the end of the superset run.
    That run lies in one executable range of exactly as many bytes (see
    load_elf), so an instruction that would leave it is invalid, and the
    range's buffer and start map change only when a path leaves the
    range.  A path that reaches a marked start of the range, by a direct
    jump or from the stack, ends there with no call.
    """
    stretches, refs, jumps = [], [], []
    stack = [entry]
    walk = x86.walk
    fallthrough, direct_jump = x86.FALLTHROUGH, x86.DIRECT_JUMP
    lo = hi = base = top = limit = 0
    buf = marks = b""
    while stack:
        va = start = stack.pop()
        while True:
            if base <= va < top and marks[va - base]:
                break                   # a marked start ends the path
            if not lo <= va < hi:
                run = superset.run_at(va)
                if run is None:
                    if va:
                        run = image.exec_ranges.run_at(va)
                        if run is None or not starts[run[0]][va - run[0]]:
                            return _unmark(image, starts, stretches, start, va)
                    break
                lo, hi = run
                if not base <= va < top:
                    base, buf = image.code_at(va)
                    marks = starts[base]
                    top = base + len(buf)
                limit = hi - base
            kind, target, end = walk(buf, va - base, base, limit, marks, refs,
                                     jumps, stack)
            va = base + end
            if kind is fallthrough:
                if end < limit:         # a marked start
                    break
                continue                # the end of the superset run
            if kind is direct_jump:
                stretches.append((start, va))
                va = start = target
                continue
            if kind is None:
                return _unmark(image, starts, stretches, start, va)
            break                       # return, halt, indirect transfer
        if va != start:
            stretches.append((start, va))
    return stretches, refs, jumps


def _unmark(image, starts, stretches, start, end):
    """Zero stretches and [start, end) in the start map; return None."""
    for lo, hi in (*stretches, (start, end)):
        if lo < hi:                 # so lo starts a decoded instruction
            base, _ = image.code_at(lo)
            starts[base][lo - base:hi - base] = bytes(hi - lo)


def _sources(image, superset, starts, jumps, cache, commits=()):
    """(source, targets) for each source in SOURCE_ORDER, each list
    sorted and found only when its turn comes; jump_table comes again
    while the round before it grew commits, the list of committed
    entries, as new code can dispatch through new tables.  starts, jumps
    and cache are the jump-table finder's (`_jump_table_targets`).  All
    but the program entry's lie in the image's code sections if it has
    any, since an R+X segment may hold data sections too."""
    code = image.code_sections or image.exec_ranges
    # load_elf keeps a nonzero entry inside the executable ranges
    yield "program_entry", [image.entry_point] if image.entry_point else []
    yield "frame_unwind", sorted(set(_frame_unwind_targets(image, code)))
    yield "address_taken", sorted(set(_address_taken_targets(image, code)))
    yield "heuristic", _prologue_starts(image, code)
    count = -1
    while count != len(commits):
        count = len(commits)
        yield "jump_table", _jump_table_targets(image, superset, starts,
                                                jumps, cache)


def detect_entry_points(image, superset, known_code, instructions):
    """Candidate code entry points, ordered by source then address.

    An address goes to the first source in SOURCE_ORDER that proposes it,
    and must lie in the superset or the known code.  instructions are
    the committed ones, by vaddr, where the jump-table finder looks for
    tables; it reads their records and decodes none."""
    starts = {base: bytearray(end - base)
              for base, end in image.exec_ranges.pairs()}
    bases = list(starts)
    jumps = []
    for va, ins in instructions.items():
        base = bases[bisect_right(bases, va) - 1]
        starts[base][va - base] = 1
        if ins[1] is _INDIRECT_JUMP:
            jumps.append(va)
    found = {}
    for source, targets in _sources(image, superset, starts, jumps,
                                    instructions):
        for va in targets:
            if va not in found and (superset.contains_range(va, 1)
                                    or known_code.contains_range(va, 1)):
                found[va] = source
    return [EntryPoint(va, src) for va, src in found.items()]


def _jump_table_targets(image, superset, starts, jumps, cache):
    """Sorted targets of the bounded rel32 tables in the superset that
    committed code dispatches through: jumps are the committed indirect
    jumps, starts the start map (see `DisassemblyReport`), and cache the
    records of committed starts by vaddr, which the finder fills as it
    decodes them.  Only the lea, movsxd and bound-check (_BOUND_GROUP,
    _BOUND_ACC) records count (`_kept_records`).
    Each indirect jump reads the table of the last lea of one at most
    _JUMP_TABLE_WINDOW bytes before it and after the previous indirect
    jump; if such a lea comes before the window's last movsxd (the entry
    read), of the last lea before that movsxd.
    A bound check before the jump sets the entry count, but a table ends
    where the next one read begins: a mask bounds the index only."""
    # indirect jumps are few; each reads its window's records once, in
    # address order.  Records are read by index, which costs less than
    # unpacking all seven fields: 3 is the RIP-relative target, 4 the
    # opcode, 5 the ModRM
    bases = sorted(starts)
    reads = []
    lo = 0
    for jump in sorted(jumps):
        first = max(lo, jump - _JUMP_TABLE_WINDOW)
        # the bound check may come up to 32 bytes before the lea
        records = _kept_records(image, starts, bases, cache,
                                jump - _JUMP_TABLE_WINDOW - 32, jump)
        lea = before_read = None
        for va, ins in records:
            if va < first:
                continue
            if ins[4] == (0x8D,):
                if ins[3] is not None and superset.contains_range(ins[3], 4):
                    lea = va, ins[3]
            elif ins[4] == (0x63,) and ins[5] < 0xC0:   # movsxd r, [m]
                # a lea after the entry read loads something else
                before_read = lea
        if lea is not None:
            va, table = before_read or lea
            reads.append((table, _bound_before(records, va - 32)))
        lo = jump + 1
    tables = sorted({table for table, _ in reads}) + [1 << 64]
    targets = []
    for table, count in reads:
        if count is not None:
            count = min(count, (tables[bisect_right(tables, table)] - table)
                        // 4)
            targets.extend(_rel32_table(image, superset, table, count))
    return sorted(set(targets))


def _kept_records(image, starts, bases, cache, lo, hi):
    """(va, record) of each start that the start map starts marks in
    [lo, hi), in address order, whose first byte after its prefixes is
    in _KEPT_BYTES; bases are the range starts, sorted.  A window may
    cross into the executable ranges before the one that holds hi - 1.
    Each record comes from cache, or is decoded and stored there."""
    found = []
    decode, prefixes = x86.decode, x86.PREFIXES
    for k in range(max(bisect_right(bases, lo) - 1, 0),
                   bisect_left(bases, hi)):
        base = bases[k]
        marks = starts[base]
        first, end = max(lo - base, 0), min(hi - base, len(marks))
        if first >= end:
            continue
        _, buf = image.code_at(base)
        for off in compress(range(first, end), marks[first:end]):
            at = off
            while buf[at] in prefixes:
                at += 1
            if buf[at] in _KEPT_BYTES:
                va = base + off
                ins = cache.get(va)
                if ins is None:
                    ins = cache[va] = decode(buf, off, va)
                found.append((va, ins))
    return found


def _bound_before(records, lo):
    """Entry count set by the last cmp/and with an imm8 or imm32 of
    records at lo or later, or None.  An 8-bit check counts only on a
    register, as byte compares of memory are common in string code.  Its
    imm8 decodes sign-extended, so one of 0x80 or more reads no table:
    8-bit bounds are capped at 128 entries."""
    bound = None
    for va, ins in records:
        if va < lo or ins[6] is None:
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

    The disassembly keeps few objects alive: the traversal builds no
    record, and the jump-table finder decodes about 1.5k on libc.  With
    the collector running, one `compute_superset` on libc sets off 8
    young collections and no older one, and its time is within noise of
    the paused call (0.98 to 1.01 times it, medians of 15 alternating in
    one process, three processes; Python 3.11).  The commands allocate
    an object per gadget or block (see `cli.main`), which the collector
    would rescan.  pxom builds no reference cycles, so reference
    counting frees all of it.
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

    Commits every traversal that succeeds from a target of `_sources`.
    A traversal that fails still fails after later commits: a commit
    cannot put a committed start on a failing path, because its own
    traversal would follow that path to the same failure.  So each
    target is traversed at most once, and a second pass over the
    image-only targets would commit nothing.

    Each traversal marks its starts in the report's start map itself
    and returns its static references and indirect jumps; a commit only
    stores them.  The jump-table finder decodes the few committed starts
    it reads from the start map, and keeps each record for its later
    rounds, so no record outlives the call.

    Runs with the cyclic garbage collector paused (`collector_paused`).
    """
    superset = executable_ranges(image)
    if not superset:
        raise NoExecutableCode("image has no executable segment")

    ranges = image.exec_ranges
    starts = {start: bytearray(end - start) for start, end in ranges.pairs()}
    refs, jumps = [], []
    cache = {}
    accepted = []
    traversed = set()
    for source, targets in _sources(image, superset, starts, jumps, cache,
                                    accepted):
        for va in targets:
            if va in traversed or not superset.contains_range(va, 1):
                continue
            traversed.add(va)
            result = _traverse(image, va, superset, starts)
            if result is not None:
                stretches, walk_refs, walk_jumps = result
                for start, end in stretches:
                    superset.remove(start, end)
                refs += walk_refs
                jumps += walk_jumps
                accepted.append(EntryPoint(va, source))

    # commits only move executable bytes out of the superset, so the code
    # is the executable bytes it no longer holds
    refs.sort()
    return DisassemblyReport(code=ranges.difference(superset),
                             superset=superset,
                             entry_points=accepted,
                             executable_total=ranges.total_bytes,
                             starts=starts, refs=refs, image=image)
