import json
import os
import struct
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxom.blocks import EmbeddedDataBlock, XomLists
from pxom.cli import main
from pxom.errors import (CorruptXom, InvariantViolation, Malformed,
                         NoXomSection, NotElf, OutOfRange, SectionExists,
                         Unsupported)
from pxom.image import (XOM_FLAG_INDEX, attach_xom_section,
                        deserialize_lists, executable_ranges, is_xom_enabled,
                        load_elf, parse_xom_section, serialize_lists,
                        set_xom_flag)
from pxom.intervals import ByteInterval, IntervalSet
from pxom.protector import protect_image

from conftest import exec_elf, make_elf, require_tool


def blocks(*triples):
    return [EmbeddedDataBlock(ByteInterval(s, e), n) for s, e, n in triples]


class TestLoadElf:
    def test_minimal_executable(self):
        image = load_elf(exec_elf(b"\xc3" * 16))
        assert len(executable_ranges(image)) == 1
        assert image.entry_point == 0x1000

    def test_wrong_magic(self):
        with pytest.raises(NotElf):
            load_elf(b"MZ" + b"\x00" * 100)

    def test_32bit_rejected(self):
        data = bytearray(exec_elf(b"\xc3"))
        data[4] = 1
        with pytest.raises(Unsupported):
            load_elf(bytes(data))

    def test_relocatable_rejected(self):
        with pytest.raises(Unsupported):
            load_elf(make_elf([(0x1000, 5, b"\xc3")], elf_type=1))

    def test_truncated_header(self):
        with pytest.raises(Malformed, match="truncated ELF header"):
            load_elf(exec_elf(b"\xc3")[:63])

    def test_entry_outside_code(self):
        with pytest.raises(Malformed, match="entry point 0x2000 outside"):
            load_elf(exec_elf(b"\xc3" * 16, entry=0x2000))

    def test_truncated_phdr_table(self):
        data = bytearray(exec_elf(b"\xc3"))
        struct.pack_into("<H", data, 0x38, 40)  # e_phnum
        with pytest.raises(Malformed):
            load_elf(bytes(data))

    @pytest.mark.parametrize("flags, ok", [(5, False), (6, True)])
    def test_zero_fill_only_outside_code(self, flags, ok):
        data = bytearray(make_elf([(0x1000, 5, b"\xc3" * 16),
                                   (0x3000, flags, b"\x00" * 16)],
                                  entry=0x1000))
        struct.pack_into("<Q", data, 0x40 + 0x38 + 40, 1 << 40)  # p_memsz
        if ok:
            assert load_elf(bytes(data)).segments[1].memsz == 1 << 40
        else:
            with pytest.raises(Malformed, match="zero fill"):
                load_elf(bytes(data))

    # only overlaps with an executable PT_LOAD are malformed
    @pytest.mark.parametrize("segments", [
        [(0x1000, 4, b"\x00" * 16), (0x1010, 5, b"\xc3" * 16)],
        [(0x1010, 5, b"\xc3" * 16), (0x1020, 6, b"\x00" * 16)],
        [(0x1010, 5, b"\xc3" * 16), (0x2000, 4, b"\x00" * 16),
         (0x2008, 6, b"\x00" * 16)],
    ], ids=["data-touches-code", "code-touches-data", "data-over-data"])
    def test_segments_may_touch_code(self, segments):
        image = load_elf(make_elf(segments, entry=0x1010))
        assert image.read_vaddr(0x1010, 16) == b"\xc3" * 16

    def test_system_binary_matches_readelf(self):
        # obj2yaml maps .rodata into its R+X segment, so its code
        # sections are not its executable ranges
        require_tool("readelf")
        paths = [path for path in SYSTEM_BINARIES if os.path.exists(path)]
        if not paths:
            pytest.skip("no system binary available")
        for path in paths:
            with open(path, "rb") as fh:
                image = load_elf(fh.read())
            segments, sections = readelf_code_layout(path)
            assert image.entry_point in image.exec_ranges
            assert image.exec_ranges == IntervalSet.from_pairs(segments)
            assert image.code_sections == IntervalSet.from_pairs(sections)


SYSTEM_BINARIES = ("/bin/true", "/usr/bin/ls", "/usr/bin/gcc-12",
                   "/lib/x86_64-linux-gnu/libc.so.6",
                   "/usr/lib/llvm-14/bin/obj2yaml")


def readelf_code_layout(path):
    """The (start, end) pairs of the executable LOAD segments and of the
    AX sections, each of nonzero size, as readelf lists them."""
    def lines(option):
        return subprocess.run(["readelf", option, path], capture_output=True,
                              text=True, check=True).stdout.splitlines()

    segments = []
    for line in lines("-lW"):
        # LOAD Offset VirtAddr PhysAddr FileSiz MemSiz Flg Align, where
        # the flags "R E" are two fields
        parts = line.split()
        if parts and parts[0] == "LOAD" and "E" in "".join(parts[6:-1]):
            vaddr, memsz = int(parts[2], 16), int(parts[5], 16)
            if memsz:
                segments.append((vaddr, vaddr + memsz))
    sections = []
    for line in lines("-SW"):
        # [Nr] Name Type Address Off Size ES Flg Lk Inf Al; a section
        # without flags has one field less
        parts = line.partition("]")[2].split()
        if (line.lstrip().startswith("[") and len(parts) == 10
                and "A" in parts[6] and "X" in parts[6]):
            addr, size = int(parts[2], 16), int(parts[4], 16)
            if size:
                sections.append((addr, addr + size))
    return segments, sections


class TestExecutableRanges:
    def test_single_segment(self):
        image = load_elf(exec_elf(b"\xc3" * 0x1000, vaddr=0x1000))
        assert [(iv.start, iv.end) for iv in executable_ranges(image)] == \
            [(0x1000, 0x2000)]

    def test_adjacent_segments_merge(self):
        data = make_elf([(0x1000, 5, b"\xc3" * 0x800),
                         (0x1800, 5, b"\xc3" * 0x800)], entry=0x1000)
        assert [(iv.start, iv.end) for iv in
                executable_ranges(load_elf(data))] == [(0x1000, 0x2000)]

    def test_no_exec_segment(self):
        data = make_elf([(0x1000, 4, b"\x00" * 16)])
        assert not executable_ranges(load_elf(data))

    def test_section_less_image_has_no_code_sections(self):
        image = load_elf(exec_elf(b"\xc3" * 16))
        assert not image.sections
        assert not image.code_sections
        assert image.exec_ranges == IntervalSet.from_pairs([(0x1000, 0x1010)])

    def test_returns_a_copy(self):
        image = load_elf(exec_elf(b"\xc3" * 16))
        ranges = executable_ranges(image)
        ranges.remove(0x1000, 0x1008)
        expected = IntervalSet.from_pairs([(0x1000, 0x1010)])
        assert image.exec_ranges == expected
        assert executable_ranges(image) == expected


class TestCodeBytes:
    def test_touching_segments_read_in_address_order(self):
        # program headers list the higher segment first
        image = load_elf(make_elf([(0x1008, 5, b"\xcc" * 8),
                                   (0x1000, 5, b"\x90" * 8)], entry=0x1000))
        assert image.read_vaddr(0x1004, 8) == b"\x90" * 4 + b"\xcc" * 4
        assert image.code_at(0x100f) == (0x1000, b"\x90" * 8 + b"\xcc" * 8)

    def test_read_past_range_end_is_none(self):
        image = load_elf(make_elf([(0x1000, 5, b"\xc3" * 16),
                                   (0x1020, 5, b"\xc3" * 16)], entry=0x1000))
        assert image.read_vaddr(0x1008, 8) == b"\xc3" * 8
        assert image.read_vaddr(0x1008, 9) is None
        assert image.read_vaddr(0x1010, 1) is None

    def test_non_executable_segment_is_not_read(self):
        image = load_elf(make_elf([(0x1000, 5, b"\xc3" * 16),
                                   (0x2000, 4, b"\x00" * 16)], entry=0x1000))
        assert image.read_vaddr(0x2000, 4) is None
        with pytest.raises(OutOfRange):
            image.code_at(0x2000)

    def test_code_is_built_once(self):
        image = load_elf(exec_elf(b"\xc3" * 16))
        assert image.code_at(0x1000)[1] is image.code_at(0x100f)[1]


class TestXomFlag:
    def test_fresh_binary_not_enabled(self):
        assert not is_xom_enabled(load_elf(exec_elf(b"\xc3")))

    def test_set_flag(self):
        image = set_xom_flag(load_elf(exec_elf(b"\xc3")))
        assert is_xom_enabled(image)
        assert image.raw[XOM_FLAG_INDEX] == 0x01

    def test_idempotent(self):
        image = set_xom_flag(set_xom_flag(load_elf(exec_elf(b"\xc3"))))
        assert image.raw[XOM_FLAG_INDEX] == 0x01


class TestXomSection:
    def test_empty_lists_round_trip(self):
        image = load_elf(exec_elf(b"\xc3" * 64))
        out = attach_xom_section(image, XomLists([], []))
        sec = out.section_by_name(".xom")
        assert sec is not None
        parsed = parse_xom_section(out)
        assert parsed.regular == [] and parsed.optimization == []

    def test_round_trip(self):
        image = load_elf(exec_elf(b"\xc3" * 64))
        lists = XomLists(regular=blocks((0x1000, 0x1008, 3),
                                        (0x1020, 0x1030, 0)),
                         optimization=blocks((0x1010, 0x1018, 12)))
        out = attach_xom_section(image, lists)
        assert parse_xom_section(out) == lists

    def test_attach_twice_rejected(self):
        image = load_elf(exec_elf(b"\xc3" * 64))
        out = attach_xom_section(image, XomLists([], []))
        with pytest.raises(SectionExists):
            attach_xom_section(out, XomLists([], []))

    def test_no_section(self):
        with pytest.raises(NoXomSection):
            parse_xom_section(load_elf(exec_elf(b"\xc3")))

    def test_truncated_entry_table(self):
        image = load_elf(exec_elf(b"\xc3" * 64))
        out = attach_xom_section(
            image, XomLists(regular=blocks((0x1000, 0x1008, 0)),
                            optimization=[]))
        raw = bytearray(out.raw)
        sec = out.section_by_name(".xom")
        # shrink the section without touching the entry count
        shoff, = struct.unpack_from("<Q", raw, 0x28)       # e_shoff
        shnum, = struct.unpack_from("<H", raw, 0x3C)       # e_shnum
        for i in range(shnum):
            off = shoff + i * 64
            if struct.unpack_from("<Q", raw, off + 24)[0] == sec.offset:
                struct.pack_into("<Q", raw, off + 32, sec.size - 8)
        with pytest.raises(CorruptXom):
            parse_xom_section(load_elf(bytes(raw)))

    @pytest.mark.parametrize("entry, message", [
        ((0x1010, 0x1010, 0), "empty block [0x1010, 0x1010)"),
        ((0x1018, 0x1010, 0), "empty block [0x1018, 0x1010)"),
    ])
    def test_empty_block_entry(self, entry, message):
        payload = bytearray(serialize_lists(XomLists(
            regular=blocks((0x1000, 0x1008, 3), (0x1020, 0x1030, 0)),
            optimization=blocks((0x1010, 0x1018, 12)))))
        struct.pack_into("<QQQ", payload, 24 + 24 * 2, *entry)   # 3rd entry
        with pytest.raises(CorruptXom) as exc:
            deserialize_lists(bytes(payload))
        assert str(exc.value) == message

    @pytest.mark.parametrize("payload, message", [
        (b"XOM1" + b"\x00" * 19, "payload shorter than header"),
        (b"XOM2" + b"\x01" + b"\x00" * 19, "bad magic b'XOM2'"),
        (b"XOM1" + b"\x02" + b"\x00" * 19, "unsupported version 2"),
    ], ids=["short", "magic", "version"])
    def test_bad_payload_header(self, payload, message):
        with pytest.raises(CorruptXom) as exc:
            deserialize_lists(payload)
        assert str(exc.value) == message

    def test_negative_static_ref_count_rejected(self):
        with pytest.raises(InvariantViolation):
            EmbeddedDataBlock(ByteInterval(0x1000, 0x1008), -1)

    def test_overlapping_blocks_rejected(self):
        image = load_elf(exec_elf(b"\xc3" * 64))
        lists = XomLists(regular=blocks((0x1000, 0x1008, 0),
                                        (0x1004, 0x100c, 0)),
                         optimization=[])
        with pytest.raises(InvariantViolation):
            attach_xom_section(image, lists)

    def test_block_outside_exec_range_rejected(self):
        image = load_elf(exec_elf(b"\xc3" * 64))
        with pytest.raises(InvariantViolation):
            attach_xom_section(
                image, XomLists(regular=blocks((0x9000, 0x9008, 0)),
                                optimization=[]))

    def test_hand_built_fixture_layout(self):
        # byte-layout oracle built by hand: header + 3 entries
        payload = (b"XOM1" + struct.pack("<I", 1)
                   + struct.pack("<QQ", 1, 2)
                   + struct.pack("<QQQ", 0x1010, 0x1018, 12)
                   + struct.pack("<QQQ", 0x1000, 0x1008, 3)
                   + struct.pack("<QQQ", 0x1020, 0x1030, 0))
        image = load_elf(exec_elf(b"\xc3" * 64))
        lists = XomLists(regular=blocks((0x1000, 0x1008, 3),
                                        (0x1020, 0x1030, 0)),
                         optimization=blocks((0x1010, 0x1018, 12)))
        assert serialize_lists(lists) == payload
        out = attach_xom_section(image, lists)
        assert out.section_by_name(".xom").data(out.raw) == payload

    def test_segment_bytes_untouched(self):
        image = load_elf(exec_elf(b"\xc3" * 64))
        out = attach_xom_section(
            set_xom_flag(image),
            XomLists(regular=blocks((0x1000, 0x1010, 1)), optimization=[]))
        for seg in image.segments:
            assert out.raw[seg.offset:seg.offset + seg.filesz] == \
                image.raw[seg.offset:seg.offset + seg.filesz]


@st.composite
def random_lists(draw):
    n = draw(st.integers(0, 12))
    starts = sorted(draw(st.sets(st.integers(0, 62), min_size=n, max_size=n)))
    blocks_ = []
    for i, s in enumerate(starts):
        limit = starts[i + 1] if i + 1 < len(starts) else 64
        end = draw(st.integers(s + 1, limit))
        blocks_.append(EmbeddedDataBlock(
            ByteInterval(0x1000 + s, 0x1000 + end),
            draw(st.integers(0, 50))))
    split = draw(st.integers(0, len(blocks_)))
    return XomLists(regular=blocks_[split:], optimization=blocks_[:split])


@settings(max_examples=200, deadline=None)
@given(lists=random_lists())
def test_round_trip_property(lists):
    image = load_elf(exec_elf(b"\xc3" * 64))
    assert parse_xom_section(attach_xom_section(image, lists)) == lists


def with_shdr_table(data, count, shstrndx):
    """data with a table of count zeroed section headers at its end."""
    out = bytearray(data) + bytes(64 * count)
    struct.pack_into("<Q", out, 0x28, len(data))
    struct.pack_into("<3H", out, 0x3A, 64, count, shstrndx)
    return bytes(out)


def relaid(data, entsize, pad):
    """data with a copy of its section header table at the file end, at
    entsize-byte entries padded with the byte pad; the old table stays
    where it was."""
    out = bytearray(data)
    shoff, = struct.unpack_from("<Q", out, 0x28)
    shnum, = struct.unpack_from("<H", out, 0x3C)
    out += b"\x00" * (-len(out) % 8)
    new_shoff = len(out)
    for i in range(shnum):
        out += out[shoff + i * 64:shoff + (i + 1) * 64]
        out += bytes([pad]) * (entsize - 64)
    struct.pack_into("<Q", out, 0x28, new_shoff)
    struct.pack_into("<H", out, 0x3A, entsize)
    return bytes(out)


def with_shstrndx(data, value):
    out = bytearray(data)
    shnum, = struct.unpack_from("<H", out, 0x3C)
    struct.pack_into("<H", out, 0x3E, value(shnum))
    return bytes(out)


class TestSectionTable:
    """`protect` keeps the input's section headers, as load_elf reads
    them, whatever their stride or name table."""

    INPUTS = {
        "80-byte-entries": lambda d: relaid(d, 80, 0x00),
        "80-byte-entries-padded": lambda d: relaid(d, 80, 0xAA),
        "shstrndx-undef": lambda d: with_shstrndx(d, lambda n: 0),
        "shstrndx-past-end": lambda d: with_shstrndx(d, lambda n: n + 5),
    }

    @pytest.mark.parametrize("change", INPUTS)
    def test_protect_keeps_headers(self, corpus, change):
        data = self.INPUTS[change](corpus[0].binary.read_bytes())
        image = load_elf(data)
        assert len(image.sections) > 3
        out, _, lists = protect_image(image)
        appended = [] if image.shstrndx else [".shstrtab"]
        assert [sec.name for sec in out.sections] == \
            [sec.name for sec in image.sections] + appended + [".xom"]
        kept = range(len(image.sections))
        if image.shstrndx:          # its table moved to the file end
            kept = [i for i in kept if i != image.shstrndx]
        assert [out.sections[i] for i in kept] == \
            [image.sections[i] for i in kept]
        assert out.sections[out.shstrndx].name == ".shstrtab"
        assert parse_xom_section(out) == lists

    @pytest.mark.parametrize("strtab", [b"", b"\x00.text"],
                             ids=["empty", "unterminated"])
    def test_name_table_without_final_nul(self, strtab):
        # null, then the name table, named .text when it can be
        data = bytearray(exec_elf(b"\xc3" * 64))
        table = len(data)
        data += strtab
        shoff = len(data)
        data += bytes(64) + struct.pack("<IIQQQQIIQQ", 1, 3, 0, 0, table,
                                        len(strtab), 0, 0, 1, 0)
        struct.pack_into("<Q", data, 0x28, shoff)
        struct.pack_into("<3H", data, 0x3A, 64, 2, 1)
        image = load_elf(bytes(data))
        lists = XomLists(regular=blocks((0x1000, 0x1008, 0)), optimization=[])
        out = attach_xom_section(image, lists)
        assert [sec.name for sec in out.sections] == \
            [sec.name for sec in image.sections] + [".xom"]
        assert parse_xom_section(out) == lists

    @pytest.mark.parametrize("distinct, ok", [(False, True), (True, False)],
                             ids=["one-offset", "distinct-offsets"])
    def test_names_bounded_by_file_size(self, distinct, ok):
        # 200 headers name offsets into a 16 KB table whose only NUL is
        # its last byte: one offset is one 16 KB name, 200 distinct ones
        # would decode 3 MB of names from a 30 KB file
        count, size = 200, 0x4000
        data = bytearray(exec_elf(b"\xc3" * 64))
        table = len(data)
        data += b"A" * (size - 1) + b"\x00"
        shoff = len(data)
        data += bytes(64) + struct.pack("<IIQQQQIIQQ", 0, 3, 0, 0, table,
                                        size, 0, 0, 1, 0)
        for i in range(2, count):
            data += struct.pack("<I", i if distinct else 0) + bytes(60)
        struct.pack_into("<Q", data, 0x28, shoff)
        struct.pack_into("<3H", data, 0x3A, 64, count, 1)
        if ok:
            names = {sec.name for sec in load_elf(bytes(data)).sections}
            assert names == {"A" * (size - 1)}
        else:
            with pytest.raises(Malformed, match="section names exceed"):
                load_elf(bytes(data))

    def test_sectionless_input_gets_name_table(self):
        out = attach_xom_section(load_elf(exec_elf(b"\xc3" * 64)),
                                 XomLists([], []))
        assert [sec.name for sec in out.sections] == \
            ["", ".shstrtab", ".xom"]
        assert out.shstrndx == 1

    @pytest.mark.parametrize("count, shstrndx, ok", [
        (0xFEFD, 0, True),
        (0xFEFE, 0, False),         # + .shstrtab + .xom = 0xFF00
        (0xFEFF, 1, False),         # + .xom
    ])
    def test_section_count_fits_e_shnum(self, count, shstrndx, ok):
        image = load_elf(with_shdr_table(exec_elf(b"\xc3" * 64), count,
                                         shstrndx))
        if ok:
            out = attach_xom_section(image, XomLists([], []))
            assert len(out.sections) == count + 2
        else:
            with pytest.raises(Unsupported, match="do not fit e_shnum"):
                attach_xom_section(image, XomLists([], []))


def with_escapes(data):
    """data in the gABI's extended section numbering: e_shnum 0 with the
    count in section header 0's sh_size, and e_shstrndx SHN_XINDEX with
    the name table's index in its sh_link."""
    out = bytearray(data)
    shoff, = struct.unpack_from("<Q", out, 0x28)
    shnum, shstrndx = struct.unpack_from("<2H", out, 0x3C)
    struct.pack_into("<2H", out, 0x3C, 0, 0xFFFF)
    struct.pack_into("<Q", out, shoff + 0x20, shnum)
    struct.pack_into("<I", out, shoff + 0x28, shstrndx)
    return bytes(out)


class TestExtendedNumbering:
    def test_escaped_input_reads_as_plain(self, corpus, tmp_path):
        data = corpus[0].binary.read_bytes()
        plain, escaped = load_elf(data), load_elf(with_escapes(data))
        assert len(plain.sections) > 3
        assert escaped.shstrndx == plain.shstrndx
        assert escaped.sections[1:] == plain.sections[1:]
        assert escaped.sections[0].size == len(plain.sections)

        reports = []
        for name, raw in (("plain", data), ("escaped", with_escapes(data))):
            (tmp_path / name).write_bytes(raw)
            out = tmp_path / (name + ".json")
            assert main(["analyze", "-i", str(tmp_path / name),
                         "--ground-truth", str(corpus[0].ground_truth),
                         "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            for key in ("input", "sha256", "seconds"):
                del report[key]
            reports.append(report)
        # address_taken reads only the code sections, so it finds
        # nothing in an image read as having none
        assert reports[0] == reports[1]
        assert reports[0]["entry_points"]["address_taken"] > 0

    def test_protect_writes_plain_numbering(self, corpus):
        data = corpus[0].binary.read_bytes()
        out, _, lists = protect_image(load_elf(data))
        escaped_out, _, escaped_lists = protect_image(
            load_elf(with_escapes(data)))
        assert escaped_lists == lists
        assert escaped_out.sections == out.sections
        assert parse_xom_section(escaped_out) == lists
        # the bytes differ only in the input's own header 0, which the
        # new table no longer points at
        shoff, = struct.unpack_from("<Q", data, 0x28)
        assert [i for i, (a, b) in enumerate(zip(out.raw, escaped_out.raw))
                if a != b] == [shoff + 0x20, shoff + 0x28]
        assert len(escaped_out.raw) == len(out.raw)

    def test_header_0_outside_file_rejected(self):
        data = bytearray(exec_elf(b"\xc3" * 64))
        struct.pack_into("<Q", data, 0x28, len(data) - 32)
        struct.pack_into("<3H", data, 0x3A, 64, 0, 0)
        with pytest.raises(Malformed, match="section header table"):
            load_elf(bytes(data))


class TestKeptImage:
    """attach_xom_section derives its output image from the header table
    it packs, with no second parse: it must equal what load_elf reads
    from the output's bytes."""

    SHAPES = {
        "plain": lambda d: d,
        "80-byte-entries": lambda d: relaid(d, 80, 0xAA),
        "shstrndx-undef": lambda d: with_shstrndx(d, lambda n: 0),
        "extended-numbering": with_escapes,
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_header_shapes(self, corpus, shape):
        image = load_elf(self.SHAPES[shape](corpus[0].binary.read_bytes()))
        out, _, lists = protect_image(image)
        assert out == load_elf(out.raw)
        assert attach_xom_section(image, lists) == load_elf(
            attach_xom_section(image, lists).raw)

    def test_no_section_headers(self):
        image = load_elf(exec_elf(b"\xc3" * 64))
        assert image.shdrs == ()
        lists = XomLists(regular=blocks((0x1001, 0x1040, 0)),
                         optimization=[])
        out = attach_xom_section(image, lists)
        assert out == load_elf(out.raw)
        assert parse_xom_section(out) == lists

    def test_corpus(self, corpus):
        for entry in corpus:
            out = protect_image(load_elf(entry.binary.read_bytes()))[0]
            assert out == load_elf(out.raw)

    def test_ls(self):
        if not os.path.exists("/usr/bin/ls"):
            pytest.skip("/usr/bin/ls not available")
        with open("/usr/bin/ls", "rb") as fh:
            out = protect_image(load_elf(fh.read()))[0]
        assert out == load_elf(out.raw)
        assert out.sections[-1].name == ".xom"


def test_from_pairs_rejects_empty_pair():
    with pytest.raises(ValueError, match="empty interval"):
        IntervalSet.from_pairs([(0x1000, 0x1008), (0x1010, 0x1010)])
