"""ELF64 loading, modeling, and rewriting.

Only 64-bit little-endian ET_EXEC/ET_DYN files are supported.  Rewriting
never touches program-header-mapped bytes: the protection metadata lives
in one reserved e_ident byte plus an appended, non-allocated `.xom`
section, so stock loaders keep working.
"""

import struct
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from operator import attrgetter, ge

from .blocks import EmbeddedDataBlock, XomLists
from .errors import (CorruptXom, Malformed, NoXomSection, NotElf,
                     OutOfRange, SectionExists, Unsupported)
from .intervals import ByteInterval, IntervalSet

ELF_MAGIC = b"\x7fELF"
XOM_FLAG_INDEX = 10          # second byte of e_ident's padding area
XOM_FLAG_VALUE = 0x01
XOM_SECTION_NAME = ".xom"
XOM_MAGIC = b"XOM1"
XOM_VERSION = 1

_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_PHDR = struct.Struct("<IIQQQQQQ")
_SHDR = struct.Struct("<IIQQQQIIQQ")
_XOM_HEADER = struct.Struct("<4sIQQ")
_XOM_ENTRY = struct.Struct("<QQQ")

PT_LOAD = 1
PF_X = 1
SHT_PROGBITS = 1
SHT_SYMTAB = 2
SHT_STRTAB = 3
SHF_CODE = 0x6               # SHF_ALLOC | SHF_EXECINSTR
SHN_LORESERVE = 0xFF00       # e_shnum and e_shstrndx escape at and above
SHN_XINDEX = 0xFFFF          # e_shstrndx: the index is header 0's sh_link


class Section(namedtuple("Section", "name sh_type flags vaddr offset size "
                                   "entsize link info addralign")):
    __slots__ = ()

    def data(self, raw):
        if self.sh_type == 8:  # SHT_NOBITS
            return b""
        return raw[self.offset:self.offset + self.size]


class Segment(namedtuple("Segment", "p_type flags offset vaddr filesz memsz")):
    __slots__ = ()

    @property
    def executable(self):
        return bool(self.flags & PF_X)


@dataclass(frozen=True)
class BinaryImage:
    """A loaded ELF; only load_elf builds one.  Not a slots class: the
    cached executable bytes live in the instance __dict__.  The two
    IntervalSets are read-only (`executable_ranges` copies), and make
    the image unhashable."""

    raw: bytes
    elf_type: int
    entry_point: int
    sections: tuple
    segments: tuple
    shdrs: tuple        # the section headers' 10 fields, in file order
    shstrndx: int       # 0 (SHN_UNDEF) unless it names a header in shdrs
    exec_ranges: IntervalSet    # merged executable PT_LOAD ranges
    # merged SHF_CODE sections of nonzero size, inside exec_ranges
    code_sections: IntervalSet

    def section_by_name(self, name):
        for sec in self.sections:
            if sec.name == name:
                return sec
        return None

    @cached_property
    def _code(self):
        """The bytes of each executable range by its start, built on
        first use.  load_elf rejects zero fill in executable segments and
        any overlap with them, so a range's bytes are the file bytes of
        its segments, joined in address order."""
        pieces = {start: [] for start, _ in self.exec_ranges.pairs()}
        for seg in sorted(_code_segments(self.segments),
                          key=attrgetter("vaddr")):
            pieces[self.exec_ranges.run_at(seg.vaddr)[0]].append(
                self.raw[seg.offset:seg.offset + seg.memsz])
        return {start: b"".join(p) for start, p in pieces.items()}

    def code_at(self, vaddr):
        """(start, bytes) of the executable range holding vaddr."""
        run = self.exec_ranges.run_at(vaddr)
        if run is None:
            raise OutOfRange("%#x is not executable" % vaddr)
        return run[0], self._code[run[0]]

    def read_vaddr(self, addr, size):
        """The size bytes at addr, or None unless one executable range
        holds all of them."""
        run = self.exec_ranges.run_at(addr)
        if run is None or addr + size > run[1]:
            return None
        off = addr - run[0]
        return self._code[run[0]][off:off + size]


def _code_segments(segments):
    return [seg for seg in segments
            if seg.p_type == PT_LOAD and seg.executable and seg.memsz]


def load_elf(data):
    data = bytes(data)
    if len(data) < 4 or data[:4] != ELF_MAGIC:
        raise NotElf("bad ELF magic")
    if len(data) < _EHDR.size:
        raise Malformed("truncated ELF header")
    if data[4] != 2 or data[5] != 1:
        raise Unsupported("only 64-bit little-endian ELF is supported")
    (_ident, e_type, e_machine, _ver, e_entry, e_phoff, e_shoff, _flags,
     _ehsize, e_phentsize, e_phnum, e_shentsize, e_shnum,
     e_shstrndx) = _EHDR.unpack_from(data, 0)
    if e_type not in (2, 3):  # ET_EXEC, ET_DYN
        raise Unsupported("unsupported ELF type %d" % e_type)

    segments = []
    if e_phnum:
        if e_phentsize < _PHDR.size or e_phoff + e_phnum * e_phentsize > len(data):
            raise Malformed("program header table out of bounds")
        for i in range(e_phnum):
            p_type, p_flags, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, _al = \
                _PHDR.unpack_from(data, e_phoff + i * e_phentsize)
            if p_type == PT_LOAD and p_offset + p_filesz > len(data):
                raise Malformed("segment %d exceeds file size" % i)
            # zero-fill executable bytes would be materialized per byte
            # and per page downstream; real code segments have none
            if p_type == PT_LOAD and p_flags & PF_X and p_memsz > p_filesz:
                raise Malformed("executable segment %d has %d bytes of "
                                "zero fill" % (i, p_memsz - p_filesz))
            segments.append(Segment(p_type, p_flags, p_offset, p_vaddr,
                                    p_filesz, p_memsz))
    _check_code_segments_disjoint(segments)

    sections = []
    shdrs = ()
    if e_shoff and (e_shnum == 0 or e_shstrndx == SHN_XINDEX):
        # extended numbering: a count or index that does not fit the ELF
        # header is header 0's sh_size or sh_link
        if e_shentsize < _SHDR.size or e_shoff + e_shentsize > len(data):
            raise Malformed("section header table out of bounds")
        size0, link0 = _SHDR.unpack_from(data, e_shoff)[5:7]
        e_shnum = e_shnum or size0
        e_shstrndx = link0 if e_shstrndx == SHN_XINDEX else e_shstrndx
    if not e_shstrndx < e_shnum:
        e_shstrndx = 0
    if e_shnum:
        if e_shentsize < _SHDR.size or e_shoff + e_shnum * e_shentsize > len(data):
            raise Malformed("section header table out of bounds")
        shdrs = tuple(_SHDR.unpack_from(data, e_shoff + i * e_shentsize)
                      for i in range(e_shnum))
        names = {}
        if e_shstrndx:
            stroff, strsize = shdrs[e_shstrndx][4], shdrs[e_shstrndx][5]
            if stroff + strsize > len(data):
                raise Malformed("section string table out of bounds")
            strtab = data[stroff:stroff + strsize]
            # each distinct offset is decoded once, and the names together
            # may not outgrow the file: every name runs to the next NUL,
            # so headers x table size could exhaust memory
            total = 0
            for name_off in {sh[0] for sh in shdrs}:
                end = strtab.find(b"\x00", name_off)
                end = end if end >= 0 else max(strsize, name_off)
                total += end - name_off
                if total > len(data):
                    raise Malformed("section names exceed the file size")
                names[name_off] = strtab[name_off:end].decode("latin-1")
        for (sh_name, sh_type, sh_flags, sh_addr, sh_offset, sh_size,
             sh_link, sh_info, sh_align, sh_entsize) in shdrs:
            if sh_type not in (8, 0) and sh_offset + sh_size > len(data):
                raise Malformed("section exceeds file size")
            sections.append(Section(names.get(sh_name, ""), sh_type, sh_flags,
                                    sh_addr, sh_offset, sh_size, sh_entsize,
                                    sh_link, sh_info, sh_align))

    exec_ranges = IntervalSet.from_pairs(
        (seg.vaddr, seg.vaddr + seg.memsz) for seg in _code_segments(segments))
    code_pairs = []
    for sec in sections:
        if sec.flags & SHF_CODE == SHF_CODE and sec.size:
            if not exec_ranges.contains_range(sec.vaddr, sec.size):
                raise Malformed("executable section %s outside executable "
                                "segments" % sec.name)
            code_pairs.append((sec.vaddr, sec.vaddr + sec.size))
    if e_entry and exec_ranges and e_entry not in exec_ranges:
        raise Malformed("entry point %#x outside executable ranges" % e_entry)
    return BinaryImage(raw=data, elf_type=e_type, entry_point=e_entry,
                       sections=tuple(sections), segments=tuple(segments),
                       shdrs=shdrs, shstrndx=e_shstrndx,
                       exec_ranges=exec_ranges,
                       code_sections=IntervalSet.from_pairs(code_pairs))


def _check_code_segments_disjoint(segments):
    """No PT_LOAD may overlap an executable one, though they may touch:
    an overlapping code byte would have two file offsets, and so two
    possible contents.

    One sweep by start: a segment overlaps an earlier one exactly when
    it starts before that one's end."""
    loads = sorted((seg.vaddr, seg.vaddr + seg.memsz, seg.executable)
                   for seg in segments if seg.p_type == PT_LOAD and seg.memsz)
    any_end = code_end = 0
    for start, end, executable in loads:
        if executable and start < code_end:
            raise Malformed("executable segments overlap at %#x" % start)
        if start < (any_end if executable else code_end):
            raise Malformed("a segment overlaps an executable segment at %#x"
                            % start)
        any_end = max(any_end, end)
        if executable:
            code_end = max(code_end, end)


def executable_ranges(image):
    """A copy of image.exec_ranges, for the caller to change."""
    return image.exec_ranges.copy()


def is_xom_enabled(image):
    return image.raw[XOM_FLAG_INDEX] == XOM_FLAG_VALUE


def set_xom_flag(image):
    """The image with the XOM flag set in its e_ident padding.  The new
    file bytes are one join over views of the old: one copy."""
    raw = memoryview(image.raw)
    # load_elf reads nothing of e_ident past its class and data bytes
    return replace(image, raw=b"".join((
        raw[:XOM_FLAG_INDEX], bytes((XOM_FLAG_VALUE,)),
        raw[XOM_FLAG_INDEX + 1:])))


def serialize_lists(lists):
    out = bytearray()
    out += _XOM_HEADER.pack(XOM_MAGIC, XOM_VERSION,
                            len(lists.optimization), len(lists.regular))
    for block in lists.all_blocks():
        out += _XOM_ENTRY.pack(block.interval.start, block.interval.end,
                               block.static_ref_count)
    return bytes(out)


def deserialize_lists(payload):
    if len(payload) < _XOM_HEADER.size:
        raise CorruptXom("payload shorter than header")
    magic, version, opt_count, regr_count = _XOM_HEADER.unpack_from(payload, 0)
    if magic != XOM_MAGIC:
        raise CorruptXom("bad magic %r" % magic)
    if version != XOM_VERSION:
        raise CorruptXom("unsupported version %d" % version)
    expected = _XOM_HEADER.size + (opt_count + regr_count) * _XOM_ENTRY.size
    if len(payload) != expected:
        raise CorruptXom("entry table size mismatch: %d != %d"
                         % (len(payload), expected))
    # one unpack of the whole table: no tuple per entry
    table = struct.unpack_from("<%dQ" % (3 * (opt_count + regr_count)),
                               payload, _XOM_HEADER.size)
    starts, ends, refs = table[0::3], table[1::3], table[2::3]
    for start, end in compress(zip(starts, ends), map(ge, starts, ends)):
        raise CorruptXom("empty block [%#x, %#x)" % (start, end))
    blocks = list(map(EmbeddedDataBlock, map(ByteInterval, starts, ends),
                      refs))
    optimization = blocks[:opt_count]
    del blocks[:opt_count]
    return XomLists(regular=blocks, optimization=optimization)


def attach_xom_section(image, lists):
    """The image with lists in a `.xom` section, the last header after
    the input's own, and after a new `.shstrtab` if the input has none.
    Each header keeps the name load_elf gave it.  The output's bytes are
    one join over a view of the input's, which copies them once."""
    if image.section_by_name(XOM_SECTION_NAME) is not None:
        raise SectionExists(".xom section already present")
    lists.validate(image.exec_ranges)
    payload = serialize_lists(lists)

    shdrs = [list(sh) for sh in image.shdrs] or [[0] * 10]
    # the output's ELF header holds the count and the name table's index
    # itself, so header 0 drops the extended-numbering escapes
    fields = list(_EHDR.unpack_from(image.raw, 0))
    if fields[12] == 0 or fields[13] == SHN_XINDEX:
        shdrs[0][5:7] = 0, 0
    shstrndx = image.shstrndx
    strtab = image.sections[shstrndx].data(image.raw) if shstrndx else b""
    for sh in shdrs:
        if sh[0] >= len(strtab):
            sh[0] = 0           # it names nothing, as load_elf read it
    if not shstrndx:
        shstrndx = len(shdrs)
        shdrs.append([1, SHT_STRTAB, 0, 0, 0, 0, 0, 0, 1, 0])
        strtab = b"\x00.shstrtab\x00"
    elif not strtab.endswith(b"\x00"):    # `.xom` would extend its last name
        strtab += b"\x00"
    name_off = len(strtab)
    strtab += XOM_SECTION_NAME.encode() + b"\x00"
    shdrs.append([name_off, SHT_PROGBITS, 0, 0, 0, 0, 0, 0, 8,
                  _XOM_ENTRY.size])
    if len(shdrs) >= SHN_LORESERVE:
        raise Unsupported("%d section headers do not fit e_shnum"
                          % len(shdrs))

    # the new ELF header, the rest of the input, then the name table, the
    # payload and the header table, each 8-aligned; segments are
    # untouched.  One join over a view of the input builds the output
    strtab_off = _aligned(len(image.raw))
    payload_off = _aligned(strtab_off + len(strtab))
    shoff = _aligned(payload_off + len(payload))
    shdrs[shstrndx][4:6] = strtab_off, len(strtab)
    shdrs[-1][4:6] = payload_off, len(payload)
    fields[6] = shoff            # e_shoff
    fields[11] = _SHDR.size      # e_shentsize
    fields[12] = len(shdrs)      # e_shnum
    fields[13] = shstrndx        # e_shstrndx
    return load_elf(b"".join((
        _EHDR.pack(*fields), memoryview(image.raw)[_EHDR.size:],
        bytes(strtab_off - len(image.raw)), strtab,
        bytes(payload_off - strtab_off - len(strtab)), payload,
        bytes(shoff - payload_off - len(payload)),
        *[_SHDR.pack(*sh) for sh in shdrs])))


def _aligned(offset):
    """offset rounded up to a multiple of 8."""
    return offset + -offset % 8


def parse_xom_section(image):
    sec = image.section_by_name(XOM_SECTION_NAME)
    if sec is None:
        raise NoXomSection("no .xom section in image")
    lists = deserialize_lists(sec.data(image.raw))
    lists.validate(image.exec_ranges)
    return lists
