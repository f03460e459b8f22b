"""Reference versions of the disassembler's fixpoint, traversal and
jump-table search.

`reference_compute_superset` is the fixpoint's earlier form: a lenient
traversal from the program entry first, which keeps a path's bytes even
when another path runs into an undecodable byte, then rounds that take
every source's targets at the round's start, give each address to the
first source that proposes it, and traverse strictly.  On compiler
output the program entry's traversal succeeds strictly too, so the two
fixpoints agree there.  Its image-only sources propose targets across
the executable ranges, where `disasm` keeps them inside the code
sections; the two agree where no such target lies outside the code
sections, as on the corpus and ls.

`reference_traverse` is the traversal's earlier form: it asks the
superset about every byte it decodes (the instruction start, then the
whole instruction) and decodes through `decode_at`.  It is slower
than `disasm._traverse`, which keeps the superset run it walks in, but
simple enough to serve as its reference.  In lenient mode a failure
ends only its own path.

`reference_union` merges a traversal's instructions one by one, where
`disasm._traverse` returns the straight-line stretches it walked.

`reference_starts` and `reference_refs` build a report's start map and
sorted static references from committed records, one record at a time,
where `disasm._traverse` marks each start and gathers each reference as
it decodes the instruction, and `disasm.compute_superset` stores what
the traversal returns.  `reference_kept` gives a traversal's
references and its indirect jumps, which the jump-table finder reads,
from its records' fields.

`reference_heuristic_targets` is the heuristic finder's earlier form:
it searches each superset block for 16-aligned prologues in every
round, where `disasm` finds the aligned prologues of the whole image
once per `compute_superset` call, and `compute_superset` skips those no
longer in the superset.

`reference_address_taken_targets` reads and checks the address_taken
source's 8-byte values one at a time, where `disasm` unpacks each
section's values at once and checks them in one call.

`reference_jump_table_targets` is the jump-table finder with linear
searches over the instructions sorted by address: for each indirect
jump, every table load and entry read for the last ones before it,
every instruction for the bound check, and every table read for the
next one that starts inside a table.  It shares `_rel32_table` with
the finder under test, since only the searches differ.
"""

from pxom import x86
from pxom.disasm import (_JUMP_TABLE_MAX_ENTRIES, _JUMP_TABLE_WINDOW,
                         _PROLOGUE_PATTERNS, SOURCE_ORDER,
                         DisassemblyReport, EntryPoint,
                         _frame_unwind_targets, _rel32_table)
from pxom.errors import NoExecutableCode
from pxom.image import executable_ranges
from pxom.intervals import IntervalSet


def decode_at(image, va):
    """The instruction at va, decoded up to the end of its executable
    range; OutOfRange when va is not executable."""
    base, buf = image.code_at(va)
    return x86.decode(buf, va - base, va)


def reference_compute_superset(image):
    """A DisassemblyReport with the semantics of disasm.compute_superset
    before the program entry became one more source."""
    exec_ranges = executable_ranges(image)
    if not exec_ranges:
        raise NoExecutableCode("image has no executable segment")

    superset = exec_ranges.copy()
    committed = []
    instructions = {}
    accepted = []

    def commit(claimed, insns, ep):
        for start, end in claimed.pairs():
            superset.remove(start, end)
        committed.extend(claimed.pairs())
        instructions.update(insns)
        accepted.append(ep)

    entry = image.entry_point
    if entry and superset.contains_range(entry, 1):
        claimed, insns, _ok = reference_traverse(image, entry, superset,
                                                 set().__contains__,
                                                 strict=False)
        if claimed:
            commit(claimed, insns, EntryPoint(entry, "program_entry"))

    image_targets = {
        "frame_unwind": sorted(set(_frame_unwind_targets(image,
                                                         exec_ranges))),
        "address_taken": sorted(set(reference_address_taken_targets(
            image)))}
    while True:
        code = IntervalSet.from_pairs(committed)
        targets = {**image_targets,
                   "jump_table": sorted(set(reference_jump_table_targets(
                       image, superset, instructions))),
                   "heuristic": sorted(set(reference_heuristic_targets(
                       image, superset)))}
        found = {}
        for source in SOURCE_ORDER:
            for va in targets.get(source, ()):
                if va not in found and (superset.contains_range(va, 1)
                                        or code.contains_range(va, 1)):
                    found[va] = source
        progress = False
        for va, source in found.items():
            if va in instructions or not superset.contains_range(va, 1):
                continue
            claimed, insns, ok = reference_traverse(image, va, superset,
                                                    instructions.__contains__,
                                                    strict=True)
            if ok and claimed:
                commit(claimed, insns, EntryPoint(va, source))
                progress = True
        if not progress:
            break

    return DisassemblyReport(code=IntervalSet.from_pairs(committed),
                             superset=superset, entry_points=accepted,
                             executable_total=exec_ranges.total_bytes,
                             starts=reference_starts(image, instructions),
                             refs=reference_refs(instructions.values()),
                             image=image)


def reference_starts(image, addresses):
    """The start map of a report whose committed starts are addresses:
    a bytearray per executable range, by its start, with a 1 at each
    address's offset, set one address at a time."""
    starts = {start: bytearray(end - start)
              for start, end in image.exec_ranges.pairs()}
    for va in addresses:
        base, _ = image.code_at(va)
        starts[base][va - base] = 1
    return starts


def reference_refs(records):
    """The sorted static references of records (`ordered_refs`)."""
    return sorted(ordered_refs(records))


def ordered_refs(records):
    """The static references of records, in their order: each
    RIP-relative target, and the absolute address of each A0-A3 moffs
    mov."""
    refs = []
    for _, _, _, rip, opcode, _, immediate in records:
        if rip is not None:
            refs.append(rip)
        elif opcode in ((0xA0,), (0xA1,), (0xA2,), (0xA3,)):
            refs.append(immediate)
    return refs


def reference_kept(insns):
    """(refs, jumps), what disasm._traverse returns besides its
    stretches, from insns, a traversal's instructions by vaddr in decode
    order: the ordered_refs of insns, and the vaddrs of its indirect
    jumps, in its order."""
    jumps = [va for va, ins in insns.items() if ins[1] == x86.INDIRECT_JUMP]
    return ordered_refs(insns.values()), jumps


def reference_traverse(image, entry, superset, is_start, strict):
    """(claimed, insns, ok) with the semantics of disasm._traverse,
    where claimed is the IntervalSet that its stretches cover."""
    insns = {}
    stack = [entry]
    ok = True
    while stack:
        va = stack.pop()
        while va not in insns:
            if not superset.contains_range(va, 1):
                if strict and va != 0 and not is_start(va):
                    ok = False
                break
            ins = decode_at(image, va)
            if ins is None or not superset.contains_range(va, ins[0]):
                if strict:
                    ok = False
                break
            insns[va] = ins
            length, kind, target = ins[:3]
            if kind in (x86.RETURN, x86.HALT, x86.INDIRECT_JUMP,
                        x86.INDIRECT_CALL):
                break
            if kind == x86.DIRECT_JUMP:
                va = target
                continue
            if kind in (x86.CONDITIONAL_JUMP, x86.DIRECT_CALL):
                stack.append(target)
            va += length
    return reference_union(insns), insns, ok


def reference_union(insns):
    """IntervalSet of the bytes of insns, merged one instruction at a
    time in address order."""
    runs = []
    for va in sorted(insns):
        end = va + insns[va][0]
        if runs and va <= runs[-1][1]:
            if end > runs[-1][1]:
                runs[-1][1] = end
        else:
            runs.append([va, end])
    return IntervalSet.from_pairs(runs)


def reference_heuristic_targets(image, superset):
    """Targets of the heuristic source, found by one scan per superset
    block and pattern for 16-aligned prologues, in the order found."""
    targets = []
    for iv in superset:
        # a 16-aligned prologue starting in iv; it may run past iv.end,
        # but needs 4 bytes inside its executable range
        first = (iv.start + 15) & ~15
        if first < iv.end:
            base, buf = image.code_at(first)
            for pattern in _PROLOGUE_PATTERNS:
                stop = iv.end - base + len(pattern) - 1
                pos = buf.find(pattern, first - base, stop)
                while pos >= 0:
                    if (base + pos) % 16 == 0 and pos + 4 <= len(buf):
                        targets.append(base + pos)
                    pos = buf.find(pattern, pos + 1, stop)
    return targets


def reference_address_taken_targets(image):
    """The address_taken source's targets, read one value at a time with
    int.from_bytes and checked one at a time; raw .rodata and
    .data.rel.ro words only in an ET_EXEC image."""
    exec_ranges = executable_ranges(image)
    targets = []
    for sec in image.sections:
        if sec.sh_type == 4 and sec.entsize >= 24:  # SHT_RELA
            data = sec.data(image.raw)
            for off in range(0, len(data) - 23, sec.entsize):
                addend = int.from_bytes(data[off + 16:off + 24], "little",
                                        signed=True)
                if exec_ranges.contains_range(addend, 1):
                    targets.append(addend)
        elif (sec.name in (".init_array", ".fini_array", ".preinit_array",
                           ".got", ".got.plt")
              or sec.name in (".rodata", ".data.rel.ro")
              and image.elf_type == 2):
            data = sec.data(image.raw)
            start = (-sec.vaddr % 8 if sec.name in (".rodata", ".data.rel.ro")
                     else 0)
            for off in range(start, len(data) - 7, 8):
                value = int.from_bytes(data[off:off + 8], "little")
                if exec_ranges.contains_range(value, 1):
                    targets.append(value)
    return targets


def reference_jump_table_targets(image, superset, instructions):
    """Targets of disasm._jump_table_targets, found by linear search, in
    address order of the indirect jumps."""
    insn_list = sorted(instructions.items())
    indirect_jumps = [va for va, ins in insn_list
                      if ins[1] == x86.INDIRECT_JUMP]
    leas = [(va, table) for va, (_, _, _, table, opcode, _, _) in insn_list
            if opcode == (0x8D,)  # lea
            and table is not None and superset.contains_range(table, 4)]
    loads = [va for va, ins in insn_list
             if ins[4] == (0x63,) and ins[5] < 0xC0]  # movsxd r, [m]
    reads = []
    previous = -1
    for jmp in indirect_jumps:
        first = max(previous + 1, jmp - _JUMP_TABLE_WINDOW)
        previous = jmp
        window = [va for va, _ in leas if first <= va < jmp]
        end = max((va for va in loads if window and window[0] <= va < jmp),
                  default=jmp)
        before = [(va, table) for va, table in leas if first <= va < end]
        if before:
            va, table = before[-1]
            reads.append((table, _reference_bound_before(insn_list, va,
                                                         jmp)))
    targets = []
    for table, count in reads:
        if count is None:
            continue
        for other, _ in reads:
            if table < other < table + 4 * count:
                count = (other - table) // 4  # the next table starts
        targets.extend(_rel32_table(image, superset, table, count))
    return targets


def _reference_bound_before(insn_list, lo, hi):
    bound = None
    for va, (_, _, _, _, opcode, modrm, immediate) in insn_list:
        if not lo - 32 <= va < hi or immediate is None:
            continue
        reg_field = (modrm >> 3) & 7 if modrm is not None else None
        if opcode in ((0x81,), (0x83,)) and reg_field in (4, 7):
            bound = immediate
        elif opcode == (0x80,) and reg_field in (4, 7) and modrm >= 0xC0:
            bound = immediate  # 8-bit: only on a register
        elif opcode in ((0x24,), (0x25,), (0x3C,), (0x3D,)):
            bound = immediate
    if bound is not None and 0 <= bound < _JUMP_TABLE_MAX_ENTRIES:
        return bound + 1
    return None
