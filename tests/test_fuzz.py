"""Hostile-input fuzzing of the loaders.

Property: `load_elf`, `parse_xom_section`, `compute_superset` and
`fde_initial_locations` each either succeed or raise a `PxomError`, in
bounded time, on mutated corpus ELFs, on their protected outputs, and on
truncated or mutated `.eh_frame` data.
"""

import struct
import time
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxom.disasm import compute_superset
from pxom.ehframe import fde_initial_locations
from pxom.errors import PxomError
from pxom.image import PF_X, PT_LOAD, load_elf, parse_xom_section
from pxom.protector import protect_binary

from conftest import EHDR, PHDR, range_bytes_fit

SECONDS_PER_EXAMPLE = 5
FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def elfs(corpus):
    """Corpus programs and their protected outputs, as bytes."""
    plain = [entry.binary.read_bytes() for entry in corpus[:3]]
    return plain + [protect_binary(data) for data in plain]


def load_everything(data):
    start = time.monotonic()
    with suppress(PxomError):
        image = load_elf(data)
        assert range_bytes_fit(image)
        for step in (parse_xom_section, compute_superset):
            with suppress(PxomError):
                step(image)
    assert time.monotonic() - start < SECONDS_PER_EXAMPLE


def header_offsets(data):
    """Offsets worth flipping: ELF and program headers, the section
    header table, or anywhere in the file."""
    fields = EHDR.unpack_from(data, 0)
    phoff, shoff, phnum = fields[5], fields[6], fields[10]
    last = len(data) - 1
    return st.one_of(st.integers(0, min(last, phoff + phnum * PHDR.size)),
                     st.integers(min(shoff, last), last),
                     st.integers(0, last))


@FUZZ
@given(choice=st.data())
def test_byte_flips(elfs, choice):
    data = bytearray(choice.draw(st.sampled_from(elfs)))
    flips = choice.draw(st.lists(
        st.tuples(header_offsets(data), st.integers(0, 255)),
        min_size=1, max_size=8))
    for offset, value in flips:
        data[offset] = value
    load_everything(bytes(data))


@FUZZ
@given(choice=st.data())
def test_moved_load_segment(elfs, choice):
    """Move one PT_LOAD onto, next to or into the code segment.

    Random flips almost never produce executable segments that touch or
    overlap, so this strategy aims at them directly."""
    data = bytearray(choice.draw(st.sampled_from(elfs)))
    fields = EHDR.unpack_from(data, 0)
    phdrs = {off: PHDR.unpack_from(data, off)
             for off in range(fields[5], fields[5] + fields[10] * PHDR.size,
                              PHDR.size)}
    loads = [off for off, ph in phdrs.items() if ph[0] == PT_LOAD]
    code = next(phdrs[off] for off in loads if phdrs[off][1] & PF_X)
    code_vaddr, code_memsz = code[3], code[6]
    at = choice.draw(st.sampled_from(loads))
    vaddr = code_vaddr + choice.draw(st.integers(-0x400, code_memsz + 0x400))
    struct.pack_into("<I", data, at + 4, choice.draw(st.integers(0, 7)))
    struct.pack_into("<Q", data, at + 16, max(vaddr, 0))
    load_everything(bytes(data))


@pytest.fixture(scope="module")
def eh_frame():
    path = Path("/usr/bin/ls")
    if not path.is_file():
        pytest.skip("/usr/bin/ls not available")
    try:
        image = load_elf(path.read_bytes())
    except PxomError as exc:
        pytest.skip("/usr/bin/ls does not load: %s" % exc)
    sec = image.section_by_name(".eh_frame")
    if sec is None or not sec.size:
        pytest.skip("/usr/bin/ls has no .eh_frame")
    return sec.data(image.raw), sec.vaddr


def record_starts(data):
    """Offsets of the .eh_frame records, up to the terminator."""
    starts = []
    pos = 0
    while pos + 4 <= len(data):
        starts.append(pos)
        length = struct.unpack_from("<I", data, pos)[0]
        if length in (0, 0xFFFFFFFF):
            break
        pos += 4 + length
    return starts


@settings(FUZZ, max_examples=500)
@given(choice=st.data())
def test_eh_frame_prefixes(eh_frame, choice):
    """Rewrite one record's length, cut the data near that record, and
    flip bytes.  A short or 64-bit length at the very end of the data is
    the edge case that plain byte flips almost never reach."""
    data, vaddr = eh_frame
    data = bytearray(data)
    record = choice.draw(st.sampled_from(record_starts(data)))
    length = choice.draw(st.one_of(
        st.sampled_from([None, 1, 2, 3, 4, 0xFFFFFFFF]),
        st.integers(0, 0xFFFFFFFF)))
    if length is not None:
        struct.pack_into("<I", data, record, length)
    del data[choice.draw(st.one_of(st.integers(record, record + 12),
                                   st.integers(0, len(data)))):]
    if data:
        flips = choice.draw(st.lists(
            st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
            max_size=8))
        for offset, value in flips:
            data[offset] = value
    start = time.monotonic()
    locations = []
    with suppress(PxomError):
        locations = fde_initial_locations(bytes(data), vaddr)
    assert all(0 <= va < 1 << 64 for va in locations)
    assert time.monotonic() - start < SECONDS_PER_EXAMPLE
