"""Minimal x86-64 instruction decoder.

Decodes lengths, control-flow kind, direct branch targets, and
RIP-relative memory-operand targets for the instruction subset emitted
by mainstream compilers.  An invalid encoding decodes to None, and an
undecodable byte is never claimed as code.  Undefined two-byte and VEX
opcodes, and `8D` (lea) on a register, still decode to a record.

`decode` returns None or a plain 7-tuple, one per instruction:

    (length, kind, target, rip_relative_data_target, opcode, modrm,
     immediate)

- length: 1 to MAX_INSN_LEN bytes.
- kind: one of the control-flow kinds below.
- target: the int target of a relative branch (direct jump,
  conditional jump, direct call), else None.
- rip_relative_data_target: the address a RIP-relative memory operand
  names, else None.
- opcode: a tuple, e.g. `(0x8D,)`, `(0x0F, 0x84)` or `("vex", 1, 0x77)`.
- modrm: the ModRM byte, or None.
- immediate: the immediate operand, signed except the absolute address
  of A0-A3 (64-bit, or 32-bit zero-extended after a 67 prefix), or None;
  a relative branch's displacement is in target.

There is no address field: the caller knows the address and keys its
records by it.  A tuple rather than an object, because building an
object cost about a third of a decode.

`walk` is the run mode, for the disassembly's traversal: one call
decodes a straight-line run forward from an offset, so that a run pays
one Python call and no record for most of its instructions.  It marks
each start it decodes in the caller's start map (a bytearray indexed
like data), appends each RIP-relative target and each A0-A3 moffs
address to the caller's refs list, and appends (vaddr, record) to the
caller's records list for an indirect jump and for each fall-through
instruction whose first opcode byte is in the caller's kept set.  It
returns (kind, target, end), where end is an offset:

- after the first instruction that does not fall through: its kind,
  its target if it is a relative branch (else None), and its end;
- at a start already marked, or at limit: FALLTHROUGH, None and that
  offset;
- at an invalid encoding: None, None and the offset where it starts.

An instruction that would reach past limit is invalid, as in `decode`.
`decode` is `walk` with no start map: the same loop body decodes one
instruction and returns its record.

The decoder is table-driven and dispatches on table entries, not on
byte values.  `_FIRST` holds an entry for each first byte: an opcode
row, None (invalid in 64-bit mode), or one of the markers `_REX`,
`_LEGACY`, `_OPSIZE` (prefixes), `_ESC_0F`, `_VEX3`, `_VEX2` (escapes).
The escapes lead to `_TWO_BYTE` and `_VEX_MAPS`, whose entries are all
opcode rows but in the undefined VEX maps (0 and 4-31), where they are
None; the `0F 38` and `0F 3A` rows of `_TWO_BYTE` serve every
three-byte opcode after them.  After a 66 or F2 prefix, `0F` leads to
`_TWO_BYTE_66_F2` instead, which differs in one row: there 0F 78 is
AMD's SSE4a extrq or insertq, whose two imm8s decode as one imm16.
A row is a tuple `(modrm_size, operand, kind, opcode)`:

- modrm_size: None if no ModRM byte follows the opcode, else the table
  that sizes it: `_MODRM_SIZE`, or `_MODRM_ONLY` for the moves to and
  from control and debug registers (0F 20-23), which ignore the mod
  field and are register-only.
- operand: the immediate after ModRM, as a byte count (0 for none) or
  one of the size classes `_Z`, `_V`, `_MOFFS`, `_ENTER`.  For the
  relative branch kinds it is the size of the rel8/rel32 displacement.
  For `_GROUP` rows it is the tuple, indexed by the ModRM reg field, of
  `(operand, kind)` pairs, or None where the encoding is invalid.
- kind: the control-flow kind, or `_GROUP`.
- opcode: the opcode field of the result, built once per table entry so
  that decoding allocates none.  Only the three-byte 0F 38 / 0F 3A
  opcodes are built per call.

`_MODRM_SIZE` gives, for each ModRM byte, how many bytes the ModRM byte
and the SIB byte and displacement after it take, or `_RIP` (mod 0,
rm 5: a RIP-relative disp32 follows) or `_SIB0` (mod 0, rm 4: the SIB
base decides whether a disp32 follows).  The SIB byte is read only in
that last case.  `_MODRM_ONLY` gives 1 for every ModRM byte.
"""

import struct

FALLTHROUGH = "fallthrough"
DIRECT_JUMP = "direct_jump"
CONDITIONAL_JUMP = "conditional_jump"
DIRECT_CALL = "direct_call"
INDIRECT_JUMP = "indirect_jump"
INDIRECT_CALL = "indirect_call"
RETURN = "return"
HALT = "halt"

MAX_INSN_LEN = 15


_RELATIVE = frozenset([DIRECT_JUMP, CONDITIONAL_JUMP, DIRECT_CALL])

# operand size classes
_Z = -1         # imm16, or imm32 without a 66 prefix or with REX.W
_V = -2         # imm64 with REX.W, else as _Z (mov r, imm: B8-BF)
_MOFFS = -3     # unsigned absolute address (A0-A3): 64-bit, 32 after 67
_ENTER = -4     # imm16 frame size, then the imm8 nesting level (C8)

_GROUP = "group"

# `_FIRST` markers; those below `_ESC_0F` are prefixes
_REX = 1        # 40-4F
_LEGACY = 2     # segment, address-size, lock and rep prefixes
_OPSIZE = 3     # 66
_ESC_0F = 4
_VEX3 = 5       # C4: two payload bytes, the first one names the map
_VEX2 = 6       # C5: one payload byte, map 1

# `_MODRM_SIZE` markers
_RIP = -1
_SIB0 = -2


def _readers(codes):
    """Size -> precompiled little-endian `unpack_from`, one per struct
    format code: a disp32 or an immediate is read without slicing."""
    readers = [None] * 9
    for code in codes:
        layout = struct.Struct("<" + code)
        readers[layout.size] = layout.unpack_from
    return tuple(readers)


_SIGNED = _readers("bhiq")      # displacements and immediates
_UNSIGNED = _readers("IQ")      # moffs (A0-A3)


def _modrm_sizes():
    sizes = []
    for modrm in range(256):
        mod, rm = modrm >> 6, modrm & 7
        if mod == 3:
            sizes.append(1)
        elif mod == 0:
            sizes.append(_RIP if rm == 5 else _SIB0 if rm == 4 else 1)
        else:
            sizes.append(1 + (rm == 4) + (1 if mod == 1 else 4))
    return tuple(sizes)


_MODRM_SIZE = _modrm_sizes()
_MODRM_ONLY = (1,) * 256        # the mod field is ignored


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


def _first_byte_map():
    rows = [None] * 256

    def put(ops, has_modrm, operand, kind=FALLTHROUGH):
        for op in ops:
            rows[op] = (_MODRM_SIZE if has_modrm else None, operand, kind)

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
    for op, group in _GROUPS.items():
        rows[op] = (_MODRM_SIZE, group, _GROUP)
    rows = list(_with_opcodes(rows, ()))
    for op in range(0x40, 0x50):
        rows[op] = _REX
    for op in (0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x67, 0xF0, 0xF2, 0xF3):
        rows[op] = _LEGACY
    rows[0x66] = _OPSIZE
    rows[0x0F] = _ESC_0F
    rows[0xC4] = _VEX3
    rows[0xC5] = _VEX2
    return tuple(rows)


def _two_byte_map():
    rows = [(_MODRM_SIZE, 0, FALLTHROUGH)] * 256
    for op in (0x05, 0x06, 0x07, 0x08, 0x09, 0x0E, 0x30, 0x31, 0x32, 0x33,
               0x34, 0x35, 0x37, 0x77, 0xA0, 0xA1, 0xA2, 0xA8, 0xA9, 0xAA,
               *range(0xC8, 0xD0)):                        # bswap
        rows[op] = (None, 0, FALLTHROUGH)
    for op in range(0x20, 0x24):            # mov to/from CRn and DRn
        rows[op] = (_MODRM_ONLY, 0, FALLTHROUGH)
    for op in (0x3A, 0x70, 0x71, 0x72, 0x73, 0xA4, 0xAC, 0xBA,
               0xC2, 0xC4, 0xC5, 0xC6):
        rows[op] = (_MODRM_SIZE, 1, FALLTHROUGH)
    for op in range(0x80, 0x90):                            # jcc rel32
        rows[op] = (None, 4, CONDITIONAL_JUMP)
    rows[0x0B] = (None, 0, HALT)                            # ud2
    return _with_opcodes(rows, (0x0F,))


def _vex_maps():
    """VEX map number (0-31) -> 256 rows, as in `_TWO_BYTE`, with opcode
    `("vex", map, op)`; every row of an undefined map is None.

    Every opcode has ModRM except vzeroupper / vzeroall (map 1, 0x77).
    Map 3, and a few map-1 opcodes (70-73, C2, C4-C6), carry an imm8; no
    map-2 (0F 38) opcode does.
    """
    rows = [(_MODRM_SIZE, 0, FALLTHROUGH)] * 256
    map2 = list(rows)
    for op in (0x70, 0x71, 0x72, 0x73, 0xC2, 0xC4, 0xC5, 0xC6):
        rows[op] = (_MODRM_SIZE, 1, FALLTHROUGH)
    rows[0x77] = (None, 0, FALLTHROUGH)
    maps = [(None,) * 256] * 32
    maps[1] = _with_opcodes(rows, ("vex", 1))
    maps[2] = _with_opcodes(map2, ("vex", 2))
    maps[3] = _with_opcodes([(_MODRM_SIZE, 1, FALLTHROUGH)] * 256,
                            ("vex", 3))
    return tuple(maps)


def _with_opcodes(rows, prefix):
    """rows with the opcode tuple `prefix + (op,)` appended to each
    valid row."""
    return tuple(None if row is None else (*row, (*prefix, op))
                 for op, row in enumerate(rows))


_FIRST = _first_byte_map()
_TWO_BYTE = _two_byte_map()
_TWO_BYTE_66_F2 = tuple(
    (_MODRM_SIZE, 2, FALLTHROUGH, (0x0F, 0x78)) if op == 0x78 else row
    for op, row in enumerate(_TWO_BYTE))
_VEX_MAPS = _vex_maps()


def decode(data, offset, vaddr, limit=None):
    """Decode one instruction at data[offset], mapped at vaddr.

    Returns the 7-tuple described above, or None.  limit bounds the
    readable region (defaults to len(data), and never reaches past it).
    """
    return walk(data, offset, vaddr - offset, limit, None, None, None, None)


def walk(data, offset, base, limit, marks, refs, records, kept):
    """Decode forward from data[offset], where data is mapped at base:
    the run mode described above, with marks the start map, refs and
    records the lists it appends to, and kept the set of first opcode
    bytes whose records it keeps.  limit bounds the readable region, as
    in `decode`.  With marks None, decode the one instruction at offset
    instead and return its record or None: that is `decode`.
    """
    stop = len(data)
    if limit is not None and limit < stop:
        stop = limit
    pos = offset
    if marks is not None and (pos >= stop or marks[pos]):
        return FALLTHROUGH, None, pos
    while True:
        start = pos
        end = start + MAX_INSN_LEN
        if end > stop:
            end = stop
        # Reads past `end` are only rejected once the length is known:
        # any such read leaves pos > end, and one past the buffer raises
        # IndexError.  Every invalid encoding leaves the loop by `break`.
        try:
            op = data[pos]
            pos += 1
            row = _FIRST[op]
            rex = 0
            opsize16 = addr32 = False
            if row is _REX:     # on about half of compiled instructions
                rex = op
                op = data[pos]
                pos += 1
                row = _FIRST[op]
            if row.__class__ is int:
                two_byte = _TWO_BYTE
                while row < _ESC_0F:
                    if row == _REX:
                        rex = op
                    else:
                        rex = 0
                        if row == _OPSIZE:
                            opsize16 = True
                            two_byte = _TWO_BYTE_66_F2
                        elif op == 0x67:
                            addr32 = True
                        elif op == 0xF2:
                            two_byte = _TWO_BYTE_66_F2
                    if pos >= end:
                        row = None
                        break
                    op = data[pos]
                    pos += 1
                    row = _FIRST[op]
                    if row.__class__ is not int:
                        break
                else:                           # an escape
                    if row == _ESC_0F:
                        op = data[pos]
                        row = two_byte[op]
                        if op == 0x38 or op == 0x3A:    # three-byte opcode
                            row = (*row[:3], (0x0F, op, data[pos + 1]))
                            pos += 1
                        pos += 1
                    elif row == _VEX3:
                        row = _VEX_MAPS[data[pos] & 0x1F][data[pos + 2]]
                        pos += 3
                    else:
                        row = _VEX_MAPS[1][data[pos + 1]]
                        pos += 2
            if row is None:
                break
            modrm_size, operand, kind, opcode = row

            modrm = rip_disp = None
            if modrm_size:
                modrm = data[pos]
                size = modrm_size[modrm]
                if size > 0:
                    pos += size
                elif size == _RIP:
                    rip_disp, = _SIGNED[4](data, pos + 1)
                    pos += 5
                else:                           # _SIB0: base 5 is disp32
                    pos += 6 if data[pos + 1] & 7 == 5 else 2
                if kind is _GROUP:
                    row = operand[(modrm >> 3) & 7]
                    if row is None:
                        break
                    operand, kind = row

            value = None
            if operand:
                if operand == 1:
                    value = data[pos]
                    if value > 127:
                        value -= 256
                    pos += 1
                else:
                    unpack = _SIGNED
                    if operand > 0:
                        size = operand
                    elif operand == _Z:
                        size = 2 if opsize16 and not rex & 8 else 4
                    elif operand == _V:
                        size = 8 if rex & 8 else 2 if opsize16 else 4
                    elif operand == _MOFFS:
                        size = 4 if addr32 else 8
                        unpack = _UNSIGNED
                    else:                       # _ENTER
                        pos += 2
                        size = 1
                    value, = unpack[size](data, pos)
                    pos += size
        except (IndexError, struct.error):
            break
        if pos > end:
            break

        # pos is now the end of the instruction, and base + pos the
        # address that relative branches and RIP operands count from
        rip = None if rip_disp is None else base + pos + rip_disp
        if marks is None:
            # most instructions fall through: test that first
            if kind is not FALLTHROUGH and kind in _RELATIVE:
                return (pos - start, kind, base + pos + value, rip, opcode,
                        modrm, None)
            return pos - start, kind, None, rip, opcode, modrm, value
        marks[start] = 1
        if rip is not None:
            refs.append(rip)
        if kind is FALLTHROUGH:
            if opcode[0] in kept:
                records.append((base + start, (pos - start, kind, None, rip,
                                               opcode, modrm, value)))
            elif operand == _MOFFS:
                refs.append(value)
            if pos >= stop or marks[pos]:
                return FALLTHROUGH, None, pos
            continue
        if kind in _RELATIVE:
            return kind, base + pos + value, pos
        if kind is INDIRECT_JUMP:
            records.append((base + start, (pos - start, kind, None, rip,
                                           opcode, modrm, value)))
        return kind, None, pos
    return None if marks is None else (None, None, start)
