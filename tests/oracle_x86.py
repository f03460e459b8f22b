"""The table-driven x86-64 decoder in its earlier form, kept as the
reference for `pxom.x86.decode`.

`reference_decode` is that decoder's `decode`: a prefix loop, separate
branches for the 0F and VEX escapes, and ModRM, SIB and displacement
read field by field.  It is unchanged but for fixes made in both
decoders: after a 67 prefix, the A0-A3 address is 4 bytes,
zero-extended; 0F 0E (femms) and 0F 37 (getsec) have no ModRM; no
VEX map-2 opcode takes an imm8; the moves to and from control and
debug registers (0F 20-23) ignore the ModRM mod field; and after a 66
or F2 prefix 0F 78 (SSE4a extrq, insertq) takes two imm8s, read as one
imm16.  The differential tests in
test_x86.py compare every field of its result with `pxom.x86.decode`.
It shares only the kind names and the layout of the result, the 7-tuple
the `pxom.x86` docstring describes, with the decoder under test.

`reference_walk` is the run mode, `pxom.x86.walk`, built from repeated
one-instruction decodes: by `reference_decode`, or by `pxom.x86.decode`
where a test checks that the run mode and the one-instruction mode of
the same decoder agree.
"""

from pxom.x86 import (CONDITIONAL_JUMP, DIRECT_CALL, DIRECT_JUMP,
                      FALLTHROUGH, HALT, INDIRECT_CALL, INDIRECT_JUMP,
                      MAX_INSN_LEN, RETURN)

_LEGACY_PREFIXES = frozenset(
    [0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67, 0xF0, 0xF2, 0xF3])

_RELATIVE = frozenset([DIRECT_JUMP, CONDITIONAL_JUMP, DIRECT_CALL])

# mov to/from CRn and DRn: the ModRM byte always names two registers
_MOV_CR_DR = frozenset((0x0F, op) for op in range(0x20, 0x24))

# operand size classes
_Z = -1         # imm16, or imm32 without a 66 prefix or with REX.W
_V = -2         # imm64 with REX.W, else as _Z (mov r, imm: B8-BF)
_MOFFS = -3     # unsigned absolute address (A0-A3): 64-bit, 32 after 67
_ENTER = -4     # imm16 frame size, then the imm8 nesting level (C8)

_GROUP = "group"

# ModRM reg field -> (operand, kind), or None when invalid
_GROUPS = {
    0xF6: ((1, FALLTHROUGH),) * 2 + ((0, FALLTHROUGH),) * 6,
    0xF7: ((_Z, FALLTHROUGH),) * 2 + ((0, FALLTHROUGH),) * 6,
    0xFE: ((0, FALLTHROUGH),) * 2 + (None,) * 6,
    0xFF: ((0, FALLTHROUGH), (0, FALLTHROUGH),
           (0, INDIRECT_CALL), (0, INDIRECT_CALL),      # call near, far
           (0, INDIRECT_JUMP), (0, INDIRECT_JUMP),      # jmp near, far
           (0, FALLTHROUGH), None),
}


def _one_byte_map():
    rows = [None] * 256

    def put(ops, has_modrm, operand, kind=FALLTHROUGH):
        for op in ops:
            rows[op] = (has_modrm, operand, kind)

    for base in range(0x00, 0x40, 8):     # add/or/adc/sbb/and/sub/xor/cmp
        put(range(base, base + 4), True, 0)
        put([base + 4], False, 1)
        put([base + 5], False, _Z)
    put(range(0x50, 0x60), False, 0)
    put([0x63, *range(0x84, 0x90), *range(0xD0, 0xD4), *range(0xD8, 0xE0)],
        True, 0)
    put([0x6B, 0x80, 0x83, 0xC0, 0xC1, 0xC6], True, 1)
    put([0x69, 0x81, 0xC7], True, _Z)
    put([0x6A, 0xA8, 0xCD, *range(0xB0, 0xB8), *range(0xE4, 0xE8)], False, 1)
    put([0x68, 0xA9], False, _Z)
    put([*range(0x6C, 0x70), *range(0x90, 0x9A), *range(0x9B, 0xA0),
         *range(0xA4, 0xA8), *range(0xAA, 0xB0), 0xC9, 0xCF, 0xD7,
         *range(0xEC, 0xF0), 0xF1, 0xF5, *range(0xF8, 0xFE)], False, 0)
    put(range(0xA0, 0xA4), False, _MOFFS)
    put(range(0xB8, 0xC0), False, _V)
    put([0xC8], False, _ENTER)
    put([*range(0x70, 0x80), *range(0xE0, 0xE4)], False, 1, CONDITIONAL_JUMP)
    put([0xE8], False, 4, DIRECT_CALL)
    put([0xE9], False, 4, DIRECT_JUMP)
    put([0xEB], False, 1, DIRECT_JUMP)
    put([0xC2, 0xCA], False, 2, RETURN)
    put([0xC3, 0xCB], False, 0, RETURN)
    put([0xCC, 0xF4], False, 0, HALT)
    put([0xF6, 0xF7, 0xFE, 0xFF], True, 0, _GROUP)
    return _with_opcodes(rows, ())


def _two_byte_map():
    rows = [(True, 0, FALLTHROUGH)] * 256
    for op in (0x05, 0x06, 0x07, 0x08, 0x09, 0x0E, 0x30, 0x31, 0x32, 0x33,
               0x34, 0x35, 0x37, 0x77, 0xA0, 0xA1, 0xA2, 0xA8, 0xA9, 0xAA,
               *range(0xC8, 0xD0)):                        # bswap
        rows[op] = (False, 0, FALLTHROUGH)
    for op in (0x3A, 0x70, 0x71, 0x72, 0x73, 0xA4, 0xAC, 0xBA,
               0xC2, 0xC4, 0xC5, 0xC6):
        rows[op] = (True, 1, FALLTHROUGH)
    for op in range(0x80, 0x90):                            # jcc rel32
        rows[op] = (False, 4, CONDITIONAL_JUMP)
    rows[0x0B] = (False, 0, HALT)                           # ud2
    return _with_opcodes(rows, (0x0F,))


def _vex_maps():
    """VEX map number -> 256 rows, as in `_ONE_BYTE`, with opcode
    `("vex", map, op)`.

    Every opcode has ModRM except vzeroupper / vzeroall (map 1, 0x77).
    Map 3, and a few map-1 opcodes (70-73, C2, C4-C6), carry an imm8; no
    map-2 (0F 38) opcode does.
    """
    rows = [(True, 0, FALLTHROUGH)] * 256
    map2 = list(rows)
    for op in (0x70, 0x71, 0x72, 0x73, 0xC2, 0xC4, 0xC5, 0xC6):
        rows[op] = (True, 1, FALLTHROUGH)
    rows[0x77] = (False, 0, FALLTHROUGH)
    return {1: _with_opcodes(rows, ("vex", 1)),
            2: _with_opcodes(map2, ("vex", 2)),
            3: _with_opcodes([(True, 1, FALLTHROUGH)] * 256, ("vex", 3))}


def _with_opcodes(rows, prefix):
    """rows with the opcode tuple `prefix + (op,)` appended to each
    valid row."""
    return tuple(None if row is None else (*row, (*prefix, op))
                 for op, row in enumerate(rows))


_ONE_BYTE = _one_byte_map()
_TWO_BYTE = _two_byte_map()
_VEX_MAPS = _vex_maps()


def reference_decode(data, offset, vaddr, limit=None):
    """Decode one instruction at data[offset], mapped at vaddr.

    Returns the 7-tuple of `pxom.x86.decode`, or None.  limit bounds
    the readable region (defaults to len(data), and never reaches past
    it).
    """
    end = len(data)
    if limit is not None and limit < end:
        end = limit
    if end > offset + MAX_INSN_LEN:
        end = offset + MAX_INSN_LEN
    # Reads past `end` are only rejected once the length is known: any
    # such read leaves pos > end, and one past the buffer raises
    # IndexError.
    try:
        pos = offset
        rex = 0
        opsize16 = addr32 = repne = False
        while True:
            if pos >= end:
                return None
            op = data[pos]
            pos += 1
            if 0x40 <= op <= 0x4F:
                rex = op
            elif op in _LEGACY_PREFIXES:
                opsize16 = opsize16 or op == 0x66
                addr32 = addr32 or op == 0x67
                repne = repne or op == 0xF2
                rex = 0
            else:
                break

        if op == 0x0F:
            op2 = data[pos]
            pos += 1
            row = _TWO_BYTE[op2]
            if op2 == 0x38 or op2 == 0x3A:     # three-byte opcode
                row = (*row[:3], (0x0F, op2, data[pos]))
                pos += 1
            elif op2 == 0x78 and (opsize16 or repne):
                row = (True, 2, FALLTHROUGH, (0x0F, 0x78))
        elif op == 0xC4 or op == 0xC5:
            if op == 0xC4:
                vmap = data[pos] & 0x1F
                pos += 2
            else:
                vmap = 1
                pos += 1
            vex_rows = _VEX_MAPS.get(vmap)
            if vex_rows is None:
                return None
            op = data[pos]
            pos += 1
            row = vex_rows[op]
        else:
            row = _ONE_BYTE[op]
            if row is None:
                return None
        has_modrm, operand, kind, opcode = row

        modrm = rip_disp = None
        if has_modrm:
            modrm = data[pos]
            pos += 1
            mod = 3 if opcode in _MOV_CR_DR else modrm >> 6
            if mod != 3:
                rm = modrm & 7
                if rm == 4:                     # SIB byte
                    sib_base = data[pos] & 7
                    pos += 1
                if mod == 1:
                    pos += 1
                elif mod == 2:
                    pos += 4
                elif rm == 5:                   # mod 0: RIP + disp32
                    rip_disp = int.from_bytes(data[pos:pos + 4], "little",
                                              signed=True)
                    pos += 4
                elif rm == 4 and sib_base == 5:  # mod 0: no base, disp32
                    pos += 4
            if kind is _GROUP:
                row = _GROUPS[op][(modrm >> 3) & 7]
                if row is None:
                    return None
                operand, kind = row

        value = None
        if operand:
            if operand > 0:
                size = operand
            elif operand == _Z:
                size = 2 if opsize16 and not rex & 8 else 4
            elif operand == _V:
                size = 8 if rex & 8 else 2 if opsize16 else 4
            elif operand == _MOFFS:
                size = 4 if addr32 else 8
            else:                               # _ENTER
                pos += 2
                size = 1
            value = int.from_bytes(data[pos:pos + size], "little",
                                   signed=True)
            pos += size
            if operand == _MOFFS:
                value &= (1 << 8 * size) - 1
    except IndexError:
        return None
    if pos > end:
        return None

    length = pos - offset
    target = None
    if kind in _RELATIVE:
        target = vaddr + length + value
        value = None
    rip_target = None if rip_disp is None else vaddr + length + rip_disp
    return (length, kind, target, rip_target, opcode, modrm, value)


_MOFFS_OPCODES = frozenset([(0xA0,), (0xA1,), (0xA2,), (0xA3,)])


def reference_walk(data, offset, base, limit, marks, refs, records, kept,
                   decode=reference_decode):
    """What `pxom.x86.walk` returns and appends, one decode at a time.

    Decodes from data[offset], mapped at base, up to the first
    instruction that does not fall through, a start marked in marks,
    limit, or an invalid encoding; marks each start decoded, and
    appends the RIP targets and A0-A3 addresses to refs and the records
    of indirect jumps and of kept first opcode bytes to records.
    """
    stop = len(data) if limit is None else min(limit, len(data))
    off = offset
    while off < stop and not marks[off]:
        ins = decode(data, off, base + off, limit)
        if ins is None:
            return None, None, off
        marks[off] = 1
        length, kind, target, rip, opcode, _, immediate = ins
        if rip is not None:
            refs.append(rip)
        if kind == FALLTHROUGH:
            if opcode[0] in kept:
                records.append((base + off, ins))
            elif opcode in _MOFFS_OPCODES:
                refs.append(immediate)
        elif kind == INDIRECT_JUMP:
            records.append((base + off, ins))
        off += length
        if kind != FALLTHROUGH:
            return kind, target, off
    return FALLTHROUGH, None, off
