import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxom import x86
from pxom.blocks import EmbeddedDataBlock, XomLists
from pxom.disasm import compute_superset
from pxom.errors import EmptyGroundTruth
from pxom.image import load_elf
from pxom.intervals import ByteInterval, IntervalSet
from pxom.monitor import new_monitor
from pxom.surface import (_TERMINATOR_OPCODE, _TERMINATORS, Gadget,
                          code_coverage, edb_stats, gadget_scan, metrics,
                          overall_coverage, wrpkru_scan)

from conftest import build_static_switch, exec_elf, require_tool
from oracle_gadgets import brute_force_gadgets, walk_gadgets


class FakeReport:
    def __init__(self, code, superset, total):
        self.code = code
        self.superset = superset
        self.executable_total = total


def report_of(code_pairs, superset_pairs, total):
    return FakeReport(IntervalSet.from_pairs(code_pairs),
                      IntervalSet.from_pairs(superset_pairs), total)


class TestCoverage:
    def test_code_coverage_arithmetic(self):
        report = report_of([(0, 9707)], [], 10000)
        gt = IntervalSet.from_pairs([(0, 10000)])
        assert code_coverage(report, gt) == pytest.approx(0.9707, rel=1e-12)

    def test_identity(self):
        report = report_of([(0, 100)], [], 100)
        gt = IntervalSet.from_pairs([(0, 100)])
        assert code_coverage(report, gt) == 1.0

    def test_empty_code(self):
        report = report_of([], [(0, 100)], 100)
        gt = IntervalSet.from_pairs([(0, 100)])
        assert code_coverage(report, gt) == 0.0

    def test_empty_ground_truth(self):
        with pytest.raises(EmptyGroundTruth):
            code_coverage(report_of([(0, 10)], [], 10), IntervalSet())

    def test_overall_coverage(self):
        report = report_of([(0, 95290)], [(95290, 100000)], 100000)
        assert overall_coverage(report) == pytest.approx(0.9529, rel=1e-12)

    def test_overall_coverage_no_superset(self):
        assert overall_coverage(report_of([(0, 50)], [], 50)) == 1.0

    def test_readable_fraction_complement(self):
        report = report_of([(0, 95290)], [(95290, 100000)], 100000)
        m = metrics(report)
        assert m.readable_fraction == pytest.approx(0.0471, rel=1e-12)
        assert m.readable_fraction + m.overall_coverage == 1.0


class TestEdbStats:
    def test_two_blocks(self):
        count, avg = edb_stats(report_of([], [(0, 10), (20, 52)], 100))
        assert (count, avg) == (2, 21)

    def test_empty(self):
        assert edb_stats(report_of([], [], 100)) == (0, 0)


def read_intensity(reads, executed):
    """The read_intensity that Monitor.run_trace reports for a trace of
    `reads` allowed reads of one block and `executed` instructions."""
    lists = XomLists(regular=[EmbeddedDataBlock(ByteInterval(0x1000, 0x1010),
                                                0)], optimization=[])
    trace = [("R", 0x1000, 8)] * reads + [("I", executed)]
    return new_monitor(lists).run_trace(trace).read_intensity


class TestReadIntensity:
    def test_basic(self):
        assert read_intensity(1, 10_000_000) == pytest.approx(1e-7, rel=1e-12)

    def test_zero_reads(self):
        assert read_intensity(0, 100) == 0.0

    def test_openssl_scale(self):
        assert read_intensity(14, 10**8) == pytest.approx(1.4e-7, rel=1e-12)

    def test_zero_instructions(self):
        assert read_intensity(1, 0) is None


def planted_image(block_bytes):
    """ret at entry, then an unreachable data block."""
    code = b"\xc3" + bytes(block_bytes)
    return load_elf(exec_elf(code))


class TestGadgetScan:
    def test_pop_ret_two_gadgets(self):
        image = planted_image(b"\x58\xc3")
        report = compute_superset(image)
        gadgets = gadget_scan(image, report)
        assert {(g.start, g.terminator, g.instruction_count)
                for g in gadgets} == {(0x1001, "ret", 2), (0x1002, "ret", 1)}

    def test_no_terminators(self):
        image = planted_image(b"\x90" * 8)
        report = compute_superset(image)
        assert gadget_scan(image, report) == []

    def test_gadget_never_leaves_block(self):
        # ret placed outside the superset block is unreachable for gadgets
        image = planted_image(b"\x58")  # pop rax, no terminator in block
        report = compute_superset(image)
        assert gadget_scan(image, report) == []

    @pytest.mark.parametrize("payload", [
        b"\x58\xc3",
        b"\x00" * 6,
        b"\x0f\x01\xef\xc3",
        b"\x90\x55\x5d\xc3\x90",
        b"\xff\xe0",
        b"\xff\xd3\x90",
    ])
    def test_matches_brute_force_oracle(self, payload):
        require_tool("objdump")
        image = planted_image(payload)
        report = compute_superset(image)
        got = {(g.start, g.terminator) for g in gadget_scan(image, report)}
        expected = set()
        for block in report.superset:
            data = image.read_vaddr(block.start, len(block))
            expected |= brute_force_gadgets(data, block.start)
        assert got == expected

    def test_random_fixture_matches_oracle(self):
        require_tool("objdump")
        rng = random.Random(9)
        units = [b"\x90", b"\x53", b"\x55", b"\x58", b"\x5b", b"\x5d",
                 b"\xc3", b"\xff\xe0", b"\xff\xd0", b"\x0f\x01\xef"]
        payload = b"".join(rng.choice(units) for _ in range(24))
        image = planted_image(payload)
        report = compute_superset(image)
        got = {(g.start, g.terminator) for g in gadget_scan(image, report)}
        expected = set()
        for block in report.superset:
            data = image.read_vaddr(block.start, len(block))
            expected |= brute_force_gadgets(data, block.start)
        assert got == expected


@pytest.fixture(scope="module")
def ls_report():
    if not os.path.exists("/usr/bin/ls"):
        pytest.skip("/usr/bin/ls not available")
    with open("/usr/bin/ls", "rb") as fh:
        image = load_elf(fh.read())
    return image, compute_superset(image)


@pytest.fixture(scope="module")
def static_report(tmp_path_factory):
    binary = build_static_switch(tmp_path_factory.mktemp("static"),
                                 ["-O2", "-static"])
    image = load_elf(binary.read_bytes())
    return image, compute_superset(image)


# byte strings that make terminators, fall-throughs and branches common
_UNITS = [b"\xc3", b"\xc2\x08\x00", b"\xff\xe0", b"\xff\xd3", b"\xff\x25",
          b"\x58", b"\x5d", b"\x90", b"\x48", b"\x66", b"\x0f\x05",
          b"\xeb\x01", b"\x74\x02", b"\xe8\x00\x00", b"\xcc",
          b"\xc5\xf8\x77"]


class TestOnePassScan:
    # ls, and the static build of tests/static_switch.c: its superset
    # holds 101 single-instruction gadgets whose terminator starts with
    # a prefix (40 C3, 26 C3, F0 C3, ...), ls only 9
    @pytest.mark.parametrize("binary, depth", [
        *(pytest.param("ls_report", d, id=str(d)) for d in (0, 1, 3, 10)),
        *(pytest.param("static_report", d, id="static-O2-%d" % d)
          for d in (0, 1, 3, 10))])
    def test_equals_forward_walk_on_ls(self, request, binary, depth):
        image, report = request.getfixturevalue(binary)
        assert gadget_scan(image, report, depth) == \
            walk_gadgets(image, report, depth)

    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(st.sampled_from(_UNITS) | st.binary(max_size=3),
                          min_size=1, max_size=40),
           depth=st.integers(-1, 12))
    def test_equals_forward_walk_on_random_blocks(self, parts, depth):
        image = planted_image(b"".join(parts))
        report = compute_superset(image)
        assert gadget_scan(image, report, depth) == \
            walk_gadgets(image, report, depth)

    def test_decodes_each_superset_byte_at_most_once(self, monkeypatch):
        rng = random.Random(5)
        payload = b"".join(rng.choice(_UNITS) + bytes([rng.randrange(256)])
                           for _ in range(1000))
        image = planted_image(payload)
        report = compute_superset(image)
        real = x86.decode
        calls = []

        def counting(data, offset, vaddr, limit=None):
            calls.append(vaddr)
            return real(data, offset, vaddr, limit)

        monkeypatch.setattr(x86, "decode", counting)
        gadgets = gadget_scan(image, report)
        assert gadgets
        assert len(calls) == len(set(calls)) <= report.superset.total_bytes

    def test_starts_at_last_terminator_byte(self, monkeypatch):
        # nop, mov eax imm32 (no C2/C3/CA/CB/FF byte), then pop; ret; nops
        plain = b"\x90" * 8 + b"\xb8\x01\x02\x03\x04"
        image = planted_image(plain)
        tail_image = planted_image(plain + b"\x58\xc3" + b"\x90" * 6)
        reports = [compute_superset(image), compute_superset(tail_image)]
        assert reports[0].superset.total_bytes == len(plain)
        real = x86.decode
        calls = []

        def counting(data, offset, vaddr, limit=None):
            calls.append(vaddr)
            return real(data, offset, vaddr, limit)

        monkeypatch.setattr(x86, "decode", counting)
        assert gadget_scan(image, reports[0]) == []
        assert calls == []
        gadgets = gadget_scan(tail_image, reports[1])
        pop = 0x1001 + len(plain)
        assert max(calls) == pop + 1        # the ret; no nop after it
        assert [g.start for g in gadgets][-2:] == [pop, pop + 1]


def counted_scan(monkeypatch, image, report, depth=10):
    """(gadgets, vaddrs decoded) of one gadget_scan."""
    real = x86.decode
    calls = []

    def counting(data, offset, vaddr, limit=None):
        calls.append(vaddr)
        return real(data, offset, vaddr, limit)

    monkeypatch.setattr(x86, "decode", counting)
    gadgets = gadget_scan(image, report, depth)
    monkeypatch.setattr(x86, "decode", real)
    return gadgets, calls


class TestSkippedOffsets:
    """The scan skips an offset unless a terminator opcode byte (C2, C3,
    CA, CB, or FF before a ModRM reg field of 2-5) sits at it, or a
    gadget starts in the 15 bytes after it (off+1 ... off+15)."""

    def test_gadget_fifteen_bytes_ahead(self, monkeypatch):
        # a 15-byte add (66, ten 2E, 81 C0 imm16) falls through to a ret
        # 15 bytes on; only the gadget bound reaches back to the add
        code = b"\x66" + b"\x2e" * 10 + b"\x81\xc0\x05\xe9\xc3"
        image = load_elf(exec_elf(code))
        report = report_of([], [(0x1000, 0x1010)], len(code))
        gadgets, calls = counted_scan(monkeypatch, image, report)
        assert gadgets == [Gadget(0x1000, 16, 2, "ret"),
                           Gadget(0x100F, 1, 1, "ret")]
        assert gadgets == walk_gadgets(image, report)
        assert 0x1000 in calls

    def test_terminator_opcode_fourteen_bytes_ahead(self, monkeypatch):
        # nops, then an FF byte that starts no gadget: only its own
        # offset is decoded, none of the 14 before it; an FF whose ModRM
        # is past the block end, or whose reg field is 0 (inc), is not
        # a terminator opcode byte and is not decoded at all
        for tail, decoded in ((b"\xff\x15", [0x1014]),    # call [rip+...]
                              (b"\xff", []), (b"\xff\xc0", [])):
            code = b"\x90" * 20 + tail
            image = load_elf(exec_elf(code))
            report = report_of([], [(0x1000, 0x1000 + len(code))], len(code))
            gadgets, calls = counted_scan(monkeypatch, image, report)
            assert gadgets == walk_gadgets(image, report) == []
            assert calls == decoded

    def test_prefixed_terminator(self, monkeypatch):
        # 66 48 FF E0 (jmp rax behind two prefixes) after invalid bytes:
        # the gadget at each prefix is found through the one after it
        code = b"\x06" * 20 + b"\x66\x48\xff\xe0"
        image = load_elf(exec_elf(code))
        report = report_of([], [(0x1000, 0x1000 + len(code))], len(code))
        gadgets, calls = counted_scan(monkeypatch, image, report)
        assert gadgets == [Gadget(va, 0x1018 - va, 1, "jmp_reg")
                           for va in (0x1014, 0x1015, 0x1016)]
        assert gadgets == walk_gadgets(image, report)
        assert calls == list(range(0x1016, 0x1014 - 16, -1))

    def test_mostly_data_block_decodes_fewer_offsets(self, monkeypatch):
        rng = random.Random(3)
        data = bytearray(rng.randrange(0xC2) for _ in range(4000))
        for at in rng.sample(range(len(data)), 12):
            data[at] = 0xC3
        image = planted_image(bytes(data))
        report = compute_superset(image)
        gadgets, calls = counted_scan(monkeypatch, image, report)
        assert gadgets == walk_gadgets(image, report)
        assert gadgets
        assert len(calls) == len(set(calls))
        assert len(calls) < report.superset.total_bytes // 2


# every prefix x86.decode reads: legacy, 66 and REX
_PREFIX_BYTES = [0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67, 0xF0, 0xF2,
                 0xF3, *range(0x40, 0x50)]
_FF_TERMINATOR_MODRM = st.builds(lambda mod, reg, rm: mod << 6 | reg << 3 | rm,
                                 st.integers(0, 3), st.integers(2, 5),
                                 st.integers(0, 7))
_TERMINATOR_BYTES = st.one_of(
    st.sampled_from([b"\xc3", b"\xcb"]),
    st.builds(lambda op, imm: bytes([op]) + imm,
              st.sampled_from([0xC2, 0xCA]), st.binary(min_size=2,
                                                        max_size=2)),
    st.builds(lambda modrm, rest: bytes([0xFF, modrm]) + rest,
              _FF_TERMINATOR_MODRM, st.binary(min_size=5, max_size=5)))


class TestTerminatorOpcodes:
    """What the scan's skip rule relies on in x86.decode."""

    @settings(max_examples=500, deadline=None)
    @given(prefixes=st.lists(st.sampled_from(_PREFIX_BYTES), min_size=1,
                             max_size=15),
           body=_TERMINATOR_BYTES)
    def test_dropping_a_prefix_keeps_the_terminator(self, prefixes, body):
        # a terminator one byte later, with the same end
        length, kind = x86.decode(body, 0, 0)[:2]
        assert kind in _TERMINATORS
        data = bytes(prefixes) + body
        ins = x86.decode(data, 0, 0x1000)
        if len(prefixes) + length > x86.MAX_INSN_LEN:
            assert ins is None
            return
        assert ins[:2] == (len(prefixes) + length, kind)
        after = x86.decode(data, 1, 0x1001, ins[0])
        # the same kind, and the same end
        assert after[:2] == (ins[0] - 1, kind)

    def test_ff_modrm_exhaustive(self):
        # FF is an indirect call or jump exactly for ModRM reg 2-5
        for modrm in range(256):
            data = bytes((0xFF, modrm)) + bytes(6)
            ins = x86.decode(data, 0, 0x1000)
            terminator = ins is not None and ins[1] in _TERMINATORS
            assert terminator == ((modrm >> 3) & 7 in (2, 3, 4, 5))
            assert bool(_TERMINATOR_OPCODE.match(data)) == terminator

    def test_unprefixed_terminators_exhaustive(self):
        # the pattern matches at the first byte exactly when a terminator
        # without prefixes decodes there
        for first in range(256):
            if first in _PREFIX_BYTES:
                continue
            for second in range(256):
                data = bytes((first, second)) + bytes(6)
                ins = x86.decode(data, 0, 0x1000)
                assert bool(_TERMINATOR_OPCODE.match(data)) == (
                    ins is not None and ins[1] in _TERMINATORS)


class TestWrpkruScan:
    def test_planted_in_data(self):
        image = planted_image(b"\x0f\x01\xef")
        report = compute_superset(image)
        assert wrpkru_scan(image, report) == [(0x1001, "inside_superset")]

    def test_absent(self):
        image = planted_image(b"\x90" * 4)
        report = compute_superset(image)
        assert wrpkru_scan(image, report) == []

    def test_overlapping_plant(self):
        image = planted_image(b"\x0f\x0f\x01\xef")
        report = compute_superset(image)
        assert wrpkru_scan(image, report) == [(0x1002, "inside_superset")]

    def test_inside_code_label(self):
        # reachable code: wrpkru; ret
        image = load_elf(exec_elf(b"\x0f\x01\xef\xc3"))
        report = compute_superset(image)
        assert wrpkru_scan(image, report) == [(0x1000, "inside_code")]
