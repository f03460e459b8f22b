"""`fde_initial_locations` on hand-built .eh_frame blobs.

Each blob is built record by record: a CIE with version 1, code
alignment 1, data alignment -8 and return-address register 16, and FDEs
whose CIE pointer and pc_begin the builder computes from their offsets.
"""

import struct

import pytest

from pxom.ehframe import (DW_EH_PE_absptr, DW_EH_PE_datarel,
                          DW_EH_PE_indirect, DW_EH_PE_pcrel, DW_EH_PE_sdata4,
                          DW_EH_PE_sleb128, DW_EH_PE_uleb128,
                          fde_initial_locations)

VADDR = 0x2000                  # the section's vaddr
PCREL_SDATA4 = DW_EH_PE_pcrel | DW_EH_PE_sdata4


def append(data, payload, extended=False):
    """Append one record to data: a 4-byte length, or the 64-bit length
    escape, then payload(pos), where pos is the offset of the payload's
    first byte.  Returns the record's offset."""
    start = len(data)
    body = payload(start + (12 if extended else 4))
    if extended:
        data += struct.pack("<IQ", 0xFFFFFFFF, len(body))
    else:
        data += struct.pack("<I", len(body))
    data += body
    return start


def leb128(value):
    """value in signed LEB128, which reads the same as unsigned LEB128
    when value >= 0."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value in (0, -1) and (byte & 0x40) == (value & 0x40):
            return bytes(out + bytes([byte]))
        out.append(byte | 0x80)


def cie(data, augmentation=b"zR", encoding=PCREL_SDATA4, extended=False,
        version=1, ra_register=b"\x10"):
    """Append a CIE; with a "z" augmentation, its augmentation data is
    the FDE pointer encoding.  The return-address register is one byte
    in version 1 and a uleb128 in version 3."""
    body = (b"\x00" * 4 + bytes([version]) + augmentation + b"\x00\x01\x78"
            + ra_register)
    if augmentation.startswith(b"z"):
        body += b"\x01" + bytes([encoding])
    return append(data, lambda pos: body, extended)


def fde(data, cie_start, target, encoding=PCREL_SDATA4, extended=False):
    """Append an FDE for target whose CIE pointer names cie_start."""
    def payload(pos):
        pc = VADDR + pos + 4
        if encoding == PCREL_SDATA4:
            pc_begin = struct.pack("<i", target - pc)
        elif encoding == DW_EH_PE_uleb128:
            pc_begin = leb128(target)
        elif encoding == DW_EH_PE_pcrel | DW_EH_PE_sleb128:
            pc_begin = leb128(target - pc)
        else:
            pc_begin = struct.pack("<Q", target)
        return (struct.pack("<I", (pos - cie_start) & 0xFFFFFFFF)
                + pc_begin + struct.pack("<I", 0x10) + b"\x00")
    return append(data, payload, extended)


def test_pcrel_sdata4():
    # targets on both sides of the section
    data = bytearray()
    c = cie(data)
    fde(data, c, 0x5678)
    fde(data, c, 0x1000)
    assert fde_initial_locations(bytes(data), VADDR) == [0x5678, 0x1000]


def test_no_augmentation_is_absptr():
    data = bytearray()
    c = cie(data, augmentation=b"")
    fde(data, c, 0x401000, encoding=DW_EH_PE_absptr)
    assert fde_initial_locations(bytes(data), VADDR) == [0x401000]


def test_64_bit_length_escape():
    data = bytearray()
    c = cie(data, extended=True)
    fde(data, c, 0x1234, extended=True)
    fde(data, c, 0x5678)
    assert fde_initial_locations(bytes(data), VADDR) == [0x1234, 0x5678]


def test_zero_terminator_ends_the_blob():
    data = bytearray()
    c = cie(data)
    fde(data, c, 0x1234)
    data += b"\x00" * 4
    fde(data, c, 0x5678)
    assert fde_initial_locations(bytes(data), VADDR) == [0x1234]


def test_fde_of_unparsable_cie_is_skipped():
    # a "zP" CIE whose personality encoding (5) is unsupported
    data = bytearray()
    bad = append(data, lambda pos: b"\x00" * 4 + b"\x01zP\x00\x01\x78\x10"
                 b"\x02\x05\x00")
    fde(data, bad, 0x1234)
    good = cie(data)
    fde(data, good, 0x5678)
    assert fde_initial_locations(bytes(data), VADDR) == [0x5678]


@pytest.mark.parametrize("names", ["mid-cie", "fde", "after", "before-blob"])
def test_fde_naming_no_cie_is_skipped(names):
    # the pointer names a byte inside the CIE, another FDE, a record
    # after it, or an offset before the blob: none is a CIE, so the
    # FDE's 8 bytes must not be read as an absptr pc_begin
    data = bytearray()
    c = cie(data)
    first = fde(data, c, 0x1111)
    cie_start = {"mid-cie": c + 1, "fde": first,
                 "after": len(data) + 32, "before-blob": -16}[names]
    fde(data, cie_start, 0x2222, encoding=DW_EH_PE_absptr)
    assert fde_initial_locations(bytes(data), VADDR) == [0x1111]


@pytest.mark.parametrize("encoding", [
    DW_EH_PE_uleb128, DW_EH_PE_pcrel | DW_EH_PE_sleb128])
def test_leb128_pointer_encodings(encoding):
    # multi-byte values; pcrel ones on both sides of the section
    data = bytearray()
    c = cie(data, encoding=encoding)
    fde(data, c, 0x401000, encoding=encoding)
    fde(data, c, 0x1000, encoding=encoding)
    assert fde_initial_locations(bytes(data), VADDR) == [0x401000, 0x1000]


def test_datarel_fde_is_skipped():
    # pxom knows no data base, so a datarel pc_begin cannot be resolved
    data = bytearray()
    c = cie(data, encoding=DW_EH_PE_datarel | DW_EH_PE_sdata4)
    fde(data, c, 0x1234)
    good = cie(data)
    fde(data, good, 0x5678)
    assert fde_initial_locations(bytes(data), VADDR) == [0x5678]


def test_version_3_return_register_is_uleb128():
    # register 128 takes two uleb128 bytes; read as version 1's single
    # byte, the rest would shift the augmentation data by one
    data = bytearray()
    c = cie(data, version=3, ra_register=leb128(128))
    fde(data, c, 0x5678)
    assert fde_initial_locations(bytes(data), VADDR) == [0x5678]


def test_signal_frame_starts_one_byte_later():
    # glibc's __restore_rt: a "zRS" CIE, whose FDE starts at the last
    # byte of the nop before the trampoline
    data = bytearray()
    signal = cie(data, augmentation=b"zRS")
    fde(data, signal, 0x3C04F)
    plain = cie(data)
    fde(data, plain, 0x5678)
    assert fde_initial_locations(bytes(data), VADDR) == [0x3C050, 0x5678]


def test_indirect_fde_pointer_is_skipped():
    # R = 0x9b: pc_begin holds the address of a pointer to the function,
    # not the function
    data = bytearray()
    c = cie(data, encoding=DW_EH_PE_indirect | PCREL_SDATA4)
    fde(data, c, 0x1234)
    good = cie(data)
    fde(data, good, 0x5678)
    assert fde_initial_locations(bytes(data), VADDR) == [0x5678]


def test_indirect_personality_pointer_is_read():
    # a C++ "zPLR" CIE reads its personality pointer with P = 0x9b; only
    # R decides how pc_begin is read
    data = bytearray()
    aug = (bytes([DW_EH_PE_indirect | PCREL_SDATA4]) + struct.pack("<i", 64)
           + bytes([PCREL_SDATA4, PCREL_SDATA4]))
    c = append(data, lambda pos: b"\x00" * 4 + b"\x01zPLR\x00\x01\x78\x10"
               + leb128(len(aug)) + aug)
    fde(data, c, 0x1234)
    fde(data, c, 0x5678)
    assert fde_initial_locations(bytes(data), VADDR) == [0x1234, 0x5678]
