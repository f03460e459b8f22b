import os
import random
import re
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxom import x86
from pxom.image import executable_ranges, load_elf

from conftest import require_tool
from oracle_x86 import reference_decode, reference_walk


# positions of the fields of the tuple x86.decode returns
LENGTH, KIND, TARGET, RIP_TARGET, OPCODE, MODRM, IMMEDIATE = range(7)


def d(code, vaddr=0x1000):
    return x86.decode(bytes(code), 0, vaddr)


class TestBasics:
    def test_ret(self):
        ins = d(b"\xc3")
        assert ins[:2] == (1, x86.RETURN)

    def test_ret_imm16(self):
        ins = d(b"\xc2\x08\x00")
        assert ins[KIND] == x86.RETURN and ins[LENGTH] == 3

    def test_wrpkru(self):
        ins = d(b"\x0f\x01\xef")
        assert ins[KIND] == x86.FALLTHROUGH and ins[LENGTH] == 3

    def test_truncated_ff(self):
        assert d(b"\xff") is None

    def test_jmp_rel8(self):
        ins = d(b"\xeb\x02")
        assert ins[KIND] == x86.DIRECT_JUMP
        assert ins[TARGET] == 0x1004

    def test_jcc_rel32(self):
        ins = d(b"\x0f\x84\x10\x00\x00\x00")
        assert ins[KIND] == x86.CONDITIONAL_JUMP
        assert ins[TARGET] == 0x1016

    def test_call_rel32_backward(self):
        ins = d(b"\xe8\xfb\xff\xff\xff")
        assert ins[KIND] == x86.DIRECT_CALL
        assert ins[TARGET] == 0x1000

    def test_indirect_call_and_jump(self):
        assert d(b"\xff\xd0")[KIND] == x86.INDIRECT_CALL
        assert d(b"\xff\xe0")[KIND] == x86.INDIRECT_JUMP
        assert d(b"\xff\x25\x00\x00\x00\x00")[KIND] == x86.INDIRECT_JUMP

    def test_halt_kinds(self):
        assert d(b"\xf4")[KIND] == x86.HALT
        assert d(b"\xcc")[KIND] == x86.HALT
        assert d(b"\x0f\x0b")[KIND] == x86.HALT

    def test_endbr64(self):
        ins = d(b"\xf3\x0f\x1e\xfa")
        assert ins[LENGTH] == 4 and ins[KIND] == x86.FALLTHROUGH

    def test_rip_relative_lea(self):
        ins = d(b"\x48\x8d\x35\x04\x00\x00\x00")
        assert ins[RIP_TARGET] == 0x1000 + 7 + 4

    def test_rip_relative_negative_disp(self):
        ins = d(b"\x8b\x05\xf0\xff\xff\xff")  # mov eax, [rip-0x10]
        assert ins[RIP_TARGET] == 0x1000 + 6 - 0x10

    def test_mov_imm64(self):
        ins = d(b"\x48\xb8" + b"\x11" * 8)
        assert ins[LENGTH] == 10

    def test_operand_size_prefix(self):
        ins = d(b"\x66\x81\xc0\x34\x12")  # add ax, 0x1234
        assert ins[LENGTH] == 5

    def test_moffs_absolute_target(self):
        ins = d(b"\xa1" + (0x2000).to_bytes(8, "little"))
        assert ins[LENGTH] == 9 and ins[IMMEDIATE] == 0x2000

    def test_length_cap(self):
        # prefix spam beyond 15 bytes is invalid
        assert d(b"\x66" * 15 + b"\x90") is None

    def test_prefix_run_reads_at_most_max_insn_len(self):
        # only the end test inside the prefix loop bounds it: without it
        # a 4 KiB run of prefixes is read to its end before the final
        # length check rejects it
        class Counted(bytes):
            reads = 0

            def __getitem__(self, key):
                self.reads += 1
                return super().__getitem__(key)

        for prefix in (0x66, 0x48, 0xF2):
            data = Counted(bytes([prefix]) * 4096)
            assert x86.decode(data, 0, 0x1000) is None
            assert 0 < data.reads <= x86.MAX_INSN_LEN
            # the run mode stops at the same invalid start
            data = Counted(bytes([prefix]) * 4096)
            marks = bytearray(4096)
            assert x86.walk(data, 0, 0x1000, None, marks, [], [],
                            frozenset()) == (None, None, 0)
            assert 0 < data.reads <= x86.MAX_INSN_LEN
            assert not any(marks)

    def test_invalid_in_64bit(self):
        assert d(b"\x06") is None
        assert d(b"\x27") is None

    def test_nop_multibyte(self):
        ins = d(b"\x66\x0f\x1f\x84\x00\x00\x00\x00\x00")
        assert ins[LENGTH] == 9

    def test_limit_stops_decode(self):
        data = b"\x00\xe8\x00\x00\x00\x00"
        assert x86.decode(data, 1, 0x1000, limit=3) is None

    def test_limit_past_buffer_is_clamped(self):
        # mov eax, imm32 cut off after one immediate byte
        assert x86.decode(b"\xb8\x01", 0, 0, limit=5) is None
        assert x86.decode(b"\xb8\x01\x00\x00\x00", 0, 0, limit=9)[LENGTH] == 5


def walk(code, offset=0, limit=None, marks=None, kept=frozenset()):
    """(result, marks, refs, records) of x86.walk over code at 0x1000,
    from a fresh start map unless marks is given."""
    marks = bytearray(len(code)) if marks is None else marks
    refs, records = [], []
    result = x86.walk(bytes(code), offset, 0x1000, limit, marks, refs,
                      records, kept)
    return result, marks, refs, records


def marked(code_length, *offsets):
    marks = bytearray(code_length)
    for off in offsets:
        marks[off] = 1
    return marks


class TestWalk:
    """The run mode: one call per straight-line run."""

    # nop; mov eax, 1; lea rax, [rip+0x10]; jz +2; ret
    RUN = bytes.fromhex("90 b801000000 488d0510000000 7402 c3")

    def test_stops_after_branch(self):
        result, marks, refs, records = walk(self.RUN)
        assert result == (x86.CONDITIONAL_JUMP, 0x1000 + 15 + 2, 15)
        assert marks == marked(len(self.RUN), 0, 1, 6, 13)
        assert refs == [0x1000 + 13 + 0x10]
        assert records == []

    def test_keeps_records_of_kept_bytes(self):
        result, _, _, records = walk(self.RUN, kept=frozenset([0x8D]))
        assert result[0] == x86.CONDITIONAL_JUMP
        assert records == [(0x1006, d(self.RUN[6:13], 0x1006))]

    def test_stops_at_marked_start(self):
        marks = marked(len(self.RUN), 6)
        result, marks, refs, _ = walk(self.RUN, marks=marks)
        assert result == (x86.FALLTHROUGH, None, 6)
        assert marks == marked(len(self.RUN), 0, 1, 6)
        assert refs == []
        # a walk that starts at a marked start decodes nothing
        assert walk(self.RUN, 6, marks=marks)[0] == (x86.FALLTHROUGH, None, 6)

    def test_ends_exactly_at_limit(self):
        # the mov ends at 6, the limit: no instruction is cut
        result, marks, _, _ = walk(self.RUN, limit=6)
        assert result == (x86.FALLTHROUGH, None, 6)
        assert marks == marked(len(self.RUN), 0, 1)

    def test_instruction_straddles_limit(self):
        # the lea at 6 would end at 13, past the limit: invalid there
        for limit in (7, 12):
            result, marks, refs, _ = walk(self.RUN, limit=limit)
            assert result == (None, None, 6)
            assert marks == marked(len(self.RUN), 0, 1)
            assert refs == []

    def test_invalid_byte(self):
        result, marks, _, _ = walk(b"\x90\x90\x06\xc3")
        assert result == (None, None, 2)
        assert marks == marked(4, 0, 1)

    def test_runs_to_buffer_end(self):
        assert walk(b"\x90\x90")[0] == (x86.FALLTHROUGH, None, 2)

    def test_moffs_address_and_indirect_jump(self):
        # mov eax, [0x2000]; jmp [rip+0]: the moffs address and the RIP
        # target are references; the indirect jump keeps its record
        code = (b"\xa1" + (0x2000).to_bytes(8, "little")
                + b"\xff\x25" + bytes(4))
        result, _, refs, records = walk(code)
        assert result == (x86.INDIRECT_JUMP, None, 15)
        assert refs == [0x2000, 0x1000 + 15]
        assert records == [(0x1009, d(code[9:], 0x1009))]

    def test_direct_call_target(self):
        result, _, _, _ = walk(b"\x90\xe8\xfb\xff\xff\xff")
        assert result == (x86.DIRECT_CALL, 0x1001, 6)


F, ICALL, IJMP = x86.FALLTHROUGH, x86.INDIRECT_CALL, x86.INDIRECT_JUMP

# Rows that need code beyond the opcode tables.  Each expected value is
# the full field tuple (length, kind, target, rip target, opcode, modrm,
# immediate) at vaddr 0x1000, or None for invalid.
SPECIAL_ROWS = [
    ("f6 reg0 imm8", "f6c07f", (3, F, None, None, (0xF6,), 0xC0, 127)),
    ("f6 reg1 imm8", "f6c880", (3, F, None, None, (0xF6,), 0xC8, -128)),
    ("f6 reg2 no imm", "f6d0", (2, F, None, None, (0xF6,), 0xD0, None)),
    ("f6 reg7 no imm", "f6f8", (2, F, None, None, (0xF6,), 0xF8, None)),
    ("f7 reg0 imm32", "f7c078563412",
     (6, F, None, None, (0xF7,), 0xC0, 0x12345678)),
    ("f7 reg0 imm16", "66f7c03412", (5, F, None, None, (0xF7,), 0xC0, 0x1234)),
    ("f7 reg1 rex.w imm32", "48f7c8ffffffff",
     (7, F, None, None, (0xF7,), 0xC8, -1)),
    ("f7 reg3 no imm", "f7d8", (2, F, None, None, (0xF7,), 0xD8, None)),
    ("fe reg0", "fec0", (2, F, None, None, (0xFE,), 0xC0, None)),
    ("fe reg2 invalid", "fed0", None),
    ("fe reg7 invalid", "fef8", None),
    ("ff reg6 push", "ff30", (2, F, None, None, (0xFF,), 0x30, None)),
    ("ff reg2 call rip", "ff15f0ffffff",
     (6, ICALL, None, 0xFF6, (0xFF,), 0x15, None)),
    ("ff reg3 far call", "ff18", (2, ICALL, None, None, (0xFF,), 0x18, None)),
    ("ff reg5 far jmp", "ff2d10000000",
     (6, IJMP, None, 0x1016, (0xFF,), 0x2D, None)),
    ("ff reg7 invalid", "fff8", None),
    ("enter", "c8100001", (4, F, None, None, (0xC8,), None, 1)),
    ("enter level signed", "c81000ff", (4, F, None, None, (0xC8,), None, -1)),
    ("a1 moffs", "a1efcdab8967452301",
     (9, F, None, None, (0xA1,), None, 0x0123456789ABCDEF)),
    ("a1 moffs unsigned", "a100000000000000ff",
     (9, F, None, None, (0xA1,), None, 0xFF00000000000000)),
    # 67: a 4-byte address; the ret after it is not swallowed
    ("67 a1 moffs32", "67a100100000c3",
     (6, F, None, None, (0xA1,), None, 0x1000)),
    ("67 a3 moffs32 zero-extended at buffer end", "67a3ffffffff",
     (6, F, None, None, (0xA3,), None, 0xFFFFFFFF)),
    ("48 b8 imm64", "48b88877665544332211",
     (10, F, None, None, (0xB8,), None, 0x1122334455667788)),
    ("66 b8 imm16", "66b83412", (4, F, None, None, (0xB8,), None, 0x1234)),
    ("b8 imm32", "b8ffffffff", (5, F, None, None, (0xB8,), None, -1)),
    ("66 48 b8 imm64", "6648b80100000000000080",
     (11, F, None, None, (0xB8,), None, -(1 << 63) + 1)),
    ("c4 map3 imm8", "c4e37d18c101",
     (6, F, None, None, ("vex", 3, 0x18), 0xC1, 1)),
    ("c4 map4 invalid", "c4e47d18c1", None),
    ("c4 map2 rip", "c4e27d5805f0ffffff",
     (9, F, None, 0xFF9, ("vex", 2, 0x58), 0x05, None)),
    # no map-2 (0F 38) opcode takes an imm8: vcvtneps2bf16 ends here
    ("c4 map2 72 no imm8", "c4e27e72c1cc",
     (5, F, None, None, ("vex", 2, 0x72), 0xC1, None)),
    ("c5", "c5f828c1", (4, F, None, None, ("vex", 1, 0x28), 0xC1, None)),
    ("c5 imm8", "c5f970c81b", (5, F, None, None, ("vex", 1, 0x70), 0xC8, 27)),
    ("c5 vzeroupper no modrm", "c5f877",
     (3, F, None, None, ("vex", 1, 0x77), None, None)),
    ("c5 vzeroall no modrm", "c5fc77",
     (3, F, None, None, ("vex", 1, 0x77), None, None)),
    ("c4 map1 vzeroupper no modrm", "c4e17877",
     (4, F, None, None, ("vex", 1, 0x77), None, None)),
    ("0f 0e femms no modrm", "0f0ec3",
     (2, F, None, None, (0x0F, 0x0E), None, None)),
    ("0f 37 getsec no modrm", "0f37c3",
     (2, F, None, None, (0x0F, 0x37), None, None)),
    # mov to/from CRn and DRn ignore mod: no SIB or displacement
    ("0f 20 mod 0 rm 5", "0f2005ffffffff",
     (3, F, None, None, (0x0F, 0x20), 0x05, None)),
    ("0f 21 mod 0 rm 4", "0f210425",
     (3, F, None, None, (0x0F, 0x21), 0x04, None)),
    ("66 0f 22 mod 1", "660f224424",
     (4, F, None, None, (0x0F, 0x22), 0x44, None)),
    ("0f 23 mod 2", "0f2384",
     (3, F, None, None, (0x0F, 0x23), 0x84, None)),
    # SSE4a extrq / insertq: two imm8s after 66 or F2, in either order
    ("66 0f 78 extrq", "660f78c11122",
     (6, F, None, None, (0x0F, 0x78), 0xC1, 0x2211)),
    ("f2 0f 78 insertq", "f20f78c1ffff",
     (6, F, None, None, (0x0F, 0x78), 0xC1, -1)),
    ("66 f2 0f 78", "66f20f78c11122",
     (7, F, None, None, (0x0F, 0x78), 0xC1, 0x2211)),
    ("f2 66 0f 78", "f2660f78c11122",
     (7, F, None, None, (0x0F, 0x78), 0xC1, 0x2211)),
    ("0f 78 vmread", "0f78c11122",
     (3, F, None, None, (0x0F, 0x78), 0xC1, None)),
    ("0f 38", "660f3800c1",
     (5, F, None, None, (0x0F, 0x38, 0x00), 0xC1, None)),
    ("0f 3a imm8", "660f3a0fc108",
     (6, F, None, None, (0x0F, 0x3A, 0x0F), 0xC1, 8)),
    ("0f 3a rip", "660f3a0f0510000000ff",
     (10, F, None, 0x101A, (0x0F, 0x3A, 0x0F), 0x05, -1)),
    ("rex then legacy resets rex", "4866b83412",
     (5, F, None, None, (0xB8,), None, 0x1234)),
    ("62 invalid", "62f17c4828c1", None),
    ("sib no base disp32", "8b042510000000",
     (7, F, None, None, (0x8B,), 0x04, None)),
    ("sib disp8", "8b4424f8", (4, F, None, None, (0x8B,), 0x44, None)),
]


@pytest.mark.parametrize("hexbytes,expected",
                         [row[1:] for row in SPECIAL_ROWS],
                         ids=[row[0] for row in SPECIAL_ROWS])
def test_special_rows(hexbytes, expected):
    assert d(bytes.fromhex(hexbytes)) == expected


@settings(max_examples=1000, deadline=None)
@given(data=st.binary(max_size=24), offset=st.integers(0, 28),
       limit=st.none() | st.integers(0, 48), vaddr=st.integers(0, 1 << 48))
def test_decode_never_raises_and_stays_in_bounds(data, offset, limit, vaddr):
    ins = x86.decode(data, offset, vaddr, limit)
    if ins is not None:
        bound = len(data) if limit is None else limit
        assert 1 <= ins[LENGTH] <= min(x86.MAX_INSN_LEN, bound - offset)
        # the address enters only the two targets
        moved = x86.decode(data, offset, vaddr + 0x100, limit)
        assert moved == tuple(
            field + 0x100 if k in (TARGET, RIP_TARGET) and field is not None
            else field for k, field in enumerate(ins))


def _objdump_lengths(path, section=".text"):
    out = subprocess.run(["objdump", "-d", "--section=%s" % section, path],
                         capture_output=True, text=True, check=True).stdout
    rows = []
    for line in out.splitlines():
        m = re.match(r"\s+([0-9a-f]+):\s+((?:[0-9a-f]{2} )+)\s*\t?(.*)", line)
        if not m:
            continue
        addr, nbytes, text = int(m.group(1), 16), len(m.group(2).split()), \
            m.group(3)
        if not text.strip() and rows:
            rows[-1] = (rows[-1][0], rows[-1][1] + nbytes, rows[-1][2])
        else:
            rows.append((addr, nbytes, text))
    return rows


def _section_bytes(path, name=".text"):
    out = subprocess.run(["readelf", "-S", "--wide", path],
                         capture_output=True, text=True, check=True).stdout
    for line in out.splitlines():
        if " %s " % name in line:
            parts = line.split()
            i = parts.index(name)
            vaddr, off, size = (int(parts[i + 2], 16), int(parts[i + 3], 16),
                                int(parts[i + 4], 16))
            with open(path, "rb") as fh:
                data = fh.read()
            return vaddr, data[off:off + size]
    raise AssertionError("no %s section" % name)


def test_agrees_with_objdump_on_compiled_code(tmp_path):
    require_tool("gcc")
    require_tool("objdump")
    src = tmp_path / "sample.c"
    src.write_text(
        "#include <string.h>\n"
        "double mix(double x, int n) {\n"
        "  double acc = x;\n"
        "  for (int i = 0; i < n; i++) acc = acc * 1.5 + i;\n"
        "  return acc;\n"
        "}\n"
        "int dispatch(int op, int a, int b) {\n"
        "  switch (op) {\n"
        "  case 0: return a + b;\n"
        "  case 1: return a - b;\n"
        "  case 2: return a * b;\n"
        "  case 3: return b ? a / b : 0;\n"
        "  case 4: return a ^ b;\n"
        "  case 5: return a << (b & 31);\n"
        "  default: return memcmp(&a, &b, sizeof a);\n"
        "  }\n"
        "}\n")
    obj = tmp_path / "sample.o"
    subprocess.run(["gcc", "-O2", "-c", "-o", str(obj), str(src)], check=True)
    assert _objdump_mismatches(str(obj)) == []


def test_agrees_with_objdump_on_address_size_moffs(tmp_path):
    require_tool("gcc")
    require_tool("objdump")
    src = tmp_path / "moffs.s"
    src.write_text(
        ".text\n"
        ".byte 0x67, 0xa0, 0x00, 0x10, 0x00, 0x00\n"      # addr32 mov al
        ".byte 0x67, 0xa1, 0x00, 0x10, 0x00, 0x00\n"      # addr32 mov eax
        "ret\n"
        ".byte 0x67, 0x48, 0xa2, 0xf0, 0xff, 0xff, 0xff\n"
        ".byte 0x67, 0xa3, 0xff, 0xff, 0xff, 0xff\n")     # at .text end
    obj = tmp_path / "moffs.o"
    subprocess.run(["gcc", "-c", "-o", str(obj), str(src)], check=True)
    assert len(_objdump_lengths(str(obj))) == 5
    assert _objdump_mismatches(str(obj)) == []


def test_agrees_with_objdump_on_system_binary():
    require_tool("objdump")
    require_tool("readelf")
    if not os.path.exists("/usr/bin/ls"):
        pytest.skip("/usr/bin/ls not available")
    assert _objdump_mismatches("/usr/bin/ls") == []


def test_opcode_maps_agree_with_objdump(tmp_path):
    # every 0F xx, 0F 38 xx and 0F 3A xx with no prefix, 66, F2 and F3,
    # and every three-byte VEX opcode of maps 1-3 for each pp, L and W.
    # The legacy opcodes take the register ModRM c1 and four memory
    # forms: RIP disp32, SIB with no base and disp32, disp8, and disp32;
    # the VEX opcodes take c1 and the SIB form.  Each sits in its own
    # 16-byte slot, padded with int3, so any displacement or immediate
    # that decode or objdump reads past the code is int3 bytes; one
    # objdump run per 2,048 slots.  -M intel64: Intel 64 ignores a 66
    # prefix on a near branch, as decode does, where objdump's default
    # AMD64 reading takes a rel16
    require_tool("objdump")
    modrms = (b"\xc1", b"\x05", b"\x04\x25", b"\x44\x24\x08", b"\x84\x24")
    sweep = [prefix + escape + bytes((op,)) + modrm
             for modrm in modrms
             for prefix in (b"", b"\x66", b"\xf2", b"\xf3")
             for escape in (b"\x0f", b"\x0f\x38", b"\x0f\x3a")
             for op in range(256)] + [
        bytes((0xC4, 0xE0 | vmap, w << 7 | 0x78 | vlen << 2 | pp, op)) + modrm
        for modrm in modrms[:3:2] for vmap in (1, 2, 3) for w in (0, 1)
        for vlen in (0, 1) for pp in range(4) for op in range(256)]
    slot = 16
    line = re.compile(r"\s*([0-9a-f]+):\t((?:[0-9a-f]{2} )+)\s*\t?(.*)")
    mismatches = []
    checked = 0
    for first in range(0, len(sweep), 2048):
        chunk = sweep[first:first + 2048]
        buf = b"".join(code.ljust(slot, b"\xcc") for code in chunk)
        path = tmp_path / "sweep.bin"
        path.write_bytes(buf)
        out = subprocess.run(
            ["objdump", "-D", "-b", "binary", "-m", "i386:x86-64",
             "-M", "intel64", "--insn-width=16", str(path)],
            capture_output=True, text=True, check=True).stdout
        lengths = {}
        for m in map(line.match, out.splitlines()):
            if m and int(m.group(1), 16) % slot == 0:
                lengths[int(m.group(1), 16)] = (len(m.group(2).split()),
                                                m.group(3))
        for k, code in enumerate(chunk):
            length, asm = lengths[k * slot]
            if "(bad)" in asm:
                continue
            checked += 1
            ins = x86.decode(buf, k * slot, 0)
            if (ins[LENGTH] if ins else None) != length:
                mismatches.append(code.hex())
    assert checked > 5000           # 6,796 with binutils 2.40
    assert mismatches == []


def _objdump_mismatches(path):
    vaddr, text = _section_bytes(path)
    mismatches = []
    for addr, length, asm in _objdump_lengths(path):
        off = addr - vaddr
        if not 0 <= off < len(text):
            continue
        ins = x86.decode(text, off, addr)
        got = ins[LENGTH] if ins else None
        if got != length:
            mismatches.append((hex(addr), asm, length, got))
    return mismatches


def _same_as_reference(data, offset, vaddr, limit=None):
    return x86.decode(data, offset, vaddr, limit) == reference_decode(
        data, offset, vaddr, limit)


@pytest.mark.parametrize("field", ["opcode", "modrm", "immediate"])
def test_equality_compares_every_field(field):
    # cmp eax, 5: opcode 83, ModRM F8, immediate 5
    ins = d(b"\x83\xf8\x05")
    assert ins == d(b"\x83\xf8\x05")
    k = {"opcode": OPCODE, "modrm": MODRM, "immediate": IMMEDIATE}[field]
    assert ins[:k] + (0x3D,) + ins[k + 1:] != ins


def test_layout():
    # an exact tuple of the seven fields; a relative branch carries its
    # int target, and no immediate
    for code in (b"\x83\xf8\x05", b"\xe8\xfb\xff\xff\xff", b"\x74\x10"):
        ins = d(code)
        assert type(ins) is tuple and len(ins) == 7
    assert d(b"\x83\xf8\x05") == (3, x86.FALLTHROUGH, None, None, (0x83,),
                                   0xF8, 5)
    call = d(b"\xe8\xfb\xff\xff\xff")
    assert type(call[TARGET]) is int and call[TARGET] == 0x1000
    assert call == (5, x86.DIRECT_CALL, 0x1000, None, (0xE8,), None, None)


class TestAgainstReferenceDecoder:
    """`decode` against the earlier table-driven decoder, every field."""

    def test_every_offset_of_ls(self):
        if not os.path.exists("/usr/bin/ls"):
            pytest.skip("/usr/bin/ls not available")
        with open("/usr/bin/ls", "rb") as fh:
            image = load_elf(fh.read())
        rng = random.Random(12)
        mismatches = []
        for iv in executable_ranges(image):
            base, buf = image.code_at(iv.start)
            for off in range(len(buf)):
                limit = off + rng.randint(0, 16)
                if not _same_as_reference(buf, off, base + off, limit):
                    mismatches.append((hex(base + off), limit))
        assert mismatches == []

    def test_every_tail_of_a_buffer(self):
        # each special row cut at every length, with every start that
        # an instruction reaching the cut can have
        buf = bytes.fromhex("".join(row[1] for row in SPECIAL_ROWS))
        for end in range(len(buf) + 1):
            tail = buf[:end]
            for off in range(max(0, end - x86.MAX_INSN_LEN - 1), end + 1):
                assert _same_as_reference(tail, off, 0x1000 + off), (end, off)

    @settings(max_examples=1000, deadline=None)
    @given(data=st.binary(max_size=24), offset=st.integers(0, 26),
           limit=st.none() | st.integers(0, 40),
           vaddr=st.integers(0, 1 << 48))
    def test_random_bytes(self, data, offset, limit, vaddr):
        assert _same_as_reference(data, offset, vaddr, limit)

    def test_walk_from_every_offset_of_ls(self):
        # one start map per range, shared by the walks from its offsets
        # in order, as a traversal shares it: most walks end at a start
        # an earlier one marked
        if not os.path.exists("/usr/bin/ls"):
            pytest.skip("/usr/bin/ls not available")
        with open("/usr/bin/ls", "rb") as fh:
            image = load_elf(fh.read())
        rng = random.Random(13)
        kept = frozenset([0x8D, 0x63, 0x83])
        for iv in executable_ranges(image):
            base, buf = image.code_at(iv.start)
            # (marks, refs, records) of each side
            got = bytearray(len(buf)), [], []
            want = bytearray(len(buf)), [], []
            for off in range(len(buf)):
                limit = rng.choice((None, off + rng.randint(0, 64)))
                assert x86.walk(buf, off, base, limit, *got, kept) == \
                    reference_walk(buf, off, base, limit, *want, kept), \
                    hex(base + off)
            assert got == want

    @settings(max_examples=1000, deadline=None)
    @given(data=st.binary(max_size=40), offset=st.integers(0, 42),
           limit=st.none() | st.integers(0, 48),
           marked=st.sets(st.integers(0, 39), max_size=4),
           base=st.integers(0, 1 << 48),
           kept=st.frozensets(st.integers(0, 255)))
    def test_walk_random_bytes(self, data, offset, limit, marked, base,
                               kept):
        marks = bytes(off in marked for off in range(len(data)))
        got = bytearray(marks), [], []
        want = bytearray(marks), [], []
        assert x86.walk(data, offset, base, limit, *got, kept) == \
            reference_walk(data, offset, base, limit, *want, kept)
        assert got == want
