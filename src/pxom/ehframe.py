"""Minimal .eh_frame reader: FDE initial locations only.

Parses CIE augmentation data far enough to learn each FDE's pointer
encoding, then decodes pc_begin.  Unknown encodings skip the record
rather than fail: entry-point detection degrades, never crashes.
"""

import struct

DW_EH_PE_absptr = 0x00
DW_EH_PE_uleb128 = 0x01
DW_EH_PE_udata2 = 0x02
DW_EH_PE_udata4 = 0x03
DW_EH_PE_udata8 = 0x04
DW_EH_PE_sleb128 = 0x09
DW_EH_PE_sdata2 = 0x0A
DW_EH_PE_sdata4 = 0x0B
DW_EH_PE_sdata8 = 0x0C
DW_EH_PE_pcrel = 0x10
DW_EH_PE_datarel = 0x30
DW_EH_PE_indirect = 0x80

_SIZES = {DW_EH_PE_absptr: 8, DW_EH_PE_udata2: 2, DW_EH_PE_udata4: 4,
          DW_EH_PE_udata8: 8, DW_EH_PE_sdata2: 2, DW_EH_PE_sdata4: 4,
          DW_EH_PE_sdata8: 8}
_SIGNED = {DW_EH_PE_sleb128, DW_EH_PE_sdata2, DW_EH_PE_sdata4,
           DW_EH_PE_sdata8}


def _uleb(data, pos):
    result = shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def _sleb(data, pos):
    result = shift = 0
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        shift += 7
        if not b & 0x80:
            if b & 0x40:
                result -= 1 << shift
            return result, pos


def _read_encoded(data, pos, encoding, pc):
    fmt = encoding & 0x0F
    if fmt == DW_EH_PE_uleb128:
        value, pos = _uleb(data, pos)
    elif fmt == DW_EH_PE_sleb128:
        value, pos = _sleb(data, pos)
    elif fmt in _SIZES:
        size = _SIZES[fmt]
        value = int.from_bytes(data[pos:pos + size], "little",
                               signed=fmt in _SIGNED)
        pos += size
    else:
        raise ValueError("unsupported pointer encoding %#x" % encoding)
    if encoding & 0x70 == DW_EH_PE_pcrel:
        value += pc
    elif encoding & 0x70 not in (0,):
        raise ValueError("unsupported pointer application %#x" % encoding)
    return value & 0xFFFFFFFFFFFFFFFF, pos


def fde_initial_locations(data, section_vaddr):
    """The first instruction of every FDE in a .eh_frame blob, as a list:
    pc_begin, or pc_begin + 1 for a signal frame (CIE augmentation "S"),
    whose FDE starts one byte early, because an unwinder looks the
    handler's return address, the trampoline, up at address - 1.

    An FDE is skipped when its CIE pointer names no CIE record before
    it, or a CIE that could not be parsed."""
    locations = []
    cies = {}
    pos = 0
    n = len(data)
    while pos + 4 <= n:
        record_start = pos
        length = struct.unpack_from("<I", data, pos)[0]
        pos += 4
        if length == 0:
            break
        if length == 0xFFFFFFFF:
            if pos + 8 > n:
                break
            length = struct.unpack_from("<Q", data, pos)[0]
            pos += 8
        record_end = pos + length
        if length < 4 or record_end > n:    # no room for the CIE id
            break
        cie_id = struct.unpack_from("<I", data, pos)[0]
        body = pos + 4
        if cie_id == 0:
            try:
                cies[record_start] = _parse_cie(data, body, record_end)
            except (ValueError, IndexError):
                cies[record_start] = None
        elif cies.get(pos - cie_id) is not None:
            encoding, signal_frame = cies[pos - cie_id]
            try:
                value, _ = _read_encoded(data, body, encoding,
                                         section_vaddr + body)
                locations.append(value + signal_frame)
            except (ValueError, IndexError):
                pass
        pos = record_end
    return locations


def _parse_cie(data, pos, end):
    version = data[pos]
    pos += 1
    aug_end = data.index(b"\x00", pos)
    augmentation = data[pos:aug_end].decode("latin-1")
    pos = aug_end + 1
    _, pos = _uleb(data, pos)        # code alignment
    _, pos = _sleb(data, pos)        # data alignment
    if version == 1:
        pos += 1                     # return-address register
    else:
        _, pos = _uleb(data, pos)
    encoding = DW_EH_PE_absptr
    if augmentation.startswith("z"):
        aug_len, pos = _uleb(data, pos)
        aug_data_end = pos + aug_len
        for ch in augmentation[1:]:
            if ch == "L":
                pos += 1
            elif ch == "P":
                penc = data[pos]
                pos += 1
                _, pos = _read_encoded(data, pos, penc, 0)
            elif ch == "R":
                encoding = data[pos]
                pos += 1
                # DW_EH_PE_omit (0xff) too: no pc_begin to read
                if encoding & DW_EH_PE_indirect:
                    raise ValueError("indirect FDE pointers %#x" % encoding)
            if pos > aug_data_end:
                break
    return encoding, "S" in augmentation
