import os
import re
import struct
import subprocess
import time
from functools import partial
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxom import disasm, x86
from pxom.corpus import build_corpus, build_program, load_ground_truth
from pxom.disasm import (_JUMP_TABLE_WINDOW, EntryPoint, _jump_table_targets,
                         _traverse, compute_superset, detect_entry_points)
from pxom.errors import NoExecutableCode, OutOfRange
from pxom.image import executable_ranges, load_elf
from pxom.intervals import IntervalSet
from pxom.protector import count_static_refs
from pxom.surface import overall_coverage

from conftest import (CORPUS_TOOLS, build_static_switch, exec_elf, make_elf,
                      range_bytes_fit, require_tool)
from oracle_x86 import reference_walk
from oracle_disasm import (decode_at, reference_address_taken_targets,
                           reference_compute_superset,
                           reference_heuristic_targets,
                           reference_jump_table_targets, reference_kept,
                           reference_refs, reference_starts,
                           reference_traverse)

LS = "/usr/bin/ls"
SYSTEM = (LS, "/usr/bin/gcc-12", "/lib/x86_64-linux-gnu/libc.so.6")


def read_system():
    """The bytes of each SYSTEM binary that is present."""
    datas = []
    for path in SYSTEM:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                datas.append(fh.read())
    return datas


def read_ls():
    return read_or_skip(LS)


def read_or_skip(path):
    if not os.path.exists(path):
        pytest.skip("%s not available" % path)
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def corpus20(tmp_path_factory):
    require_tool(*CORPUS_TOOLS)
    return build_corpus(tmp_path_factory.mktemp("corpus20"), count=20, seed=5)


@pytest.fixture(scope="module")
def system_reports():
    """path -> (image, report) of each SYSTEM binary that is present,
    computed once for the tests that check whole reports."""
    reports = {}
    for path in SYSTEM:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                image = load_elf(fh.read())
            reports[path] = image, compute_superset(image)
    return reports


def image_of(code, vaddr=0x1000, entry=None):
    return load_elf(exec_elf(code, vaddr=vaddr, entry=entry))


class TestDecodeAt:
    """Decoding at one address through the image's code bytes."""

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            image_of(b"\xc3").code_at(0x9000)

    def test_decodes(self):
        ins = decode_at(image_of(b"\xc3"), 0x1000)
        assert ins[:2] == (1, x86.RETURN)

    def test_invalid_at_range_end(self):
        assert decode_at(image_of(b"\x90\xff"), 0x1001) is None


def traverse_fresh(code, superset=None):
    """traverse_from 0x1000 over an image of code, with nothing
    committed; the superset defaults to its executable range."""
    image = image_of(code)
    if superset is None:
        superset = executable_ranges(image)
    return traverse_from(image, 0x1000, superset)


def executable_less(image, superset):
    """The executable ranges of image that superset leaves: the code."""
    rest = executable_ranges(image)
    for start, end in superset.pairs():
        rest.remove(start, end)
    return rest


def reference_violations(report):
    """(vaddr, rule) of each committed record whose static reference
    contradicts the code set: a direct branch target or a lea's
    RIP-relative target in code that is not a committed instruction
    start, or any other RIP-relative target or A0-A3 moffs address in
    code (a read of code that the monitor would deny at run time)."""
    code, insns = report.code, report.instructions
    bad = []
    for va, ins in insns.items():
        _, _, target, rip, opcode, _, immediate = ins
        if target is not None and target in code and target not in insns:
            bad.append((va, "branch"))
        if rip is not None and rip in code:
            if opcode != (0x8D,):
                bad.append((va, "rip"))
            elif rip not in insns:
                bad.append((va, "lea"))
        if opcode[0] in (0xA0, 0xA1, 0xA2, 0xA3) and immediate in code:
            bad.append((va, "moffs"))
    return bad


def is_marked(image, starts, va):
    """Whether the start map starts has a 1 at va."""
    run = image.exec_ranges.run_at(va)
    return run is not None and starts[run[0]][va - run[0]] == 1


def checked_traverse(image, va, superset, starts):
    """_traverse(image, va, superset, starts), checked against the strict
    reference traversal, whose committed starts are the ones that starts
    marks before the call.  Where the reference fails, _traverse returns
    None and leaves starts byte-identical; where it succeeds, the
    stretches cover the reference's claimed bytes, the call marks exactly
    the reference's instruction starts, none of them marked before, and
    its references and indirect jumps, in order, are reference_kept of
    them.
    Returns (the _traverse result, the reference's instructions by
    vaddr, or None where it fails)."""
    before = {base: bytes(marks) for base, marks in starts.items()}
    result = _traverse(image, va, superset, starts)
    claimed, insns, ok = reference_traverse(
        image, va, superset, partial(is_marked, image, before), strict=True)
    if not ok:
        assert result is None
        assert starts == before
        return None, None
    assert result is not None
    stretches, refs, jumps = result
    assert IntervalSet.from_pairs(stretches) == claimed
    want = {base: bytearray(marks) for base, marks in before.items()}
    for at in insns:
        assert not is_marked(image, before, at)
        base, _ = image.code_at(at)
        want[base][at - base] = 1
    assert starts == want
    assert (refs, jumps) == reference_kept(insns)
    return result, insns


def traverse_from(image, va, superset, committed=(), starts=None):
    """checked_traverse from va over a fresh start map that marks the
    committed starts, or over a copy of the start map starts: None where
    it fails, else (claimed, insns), the IntervalSet that its stretches
    cover and the instructions, by vaddr, whose starts it marked."""
    if starts is None:
        starts = reference_starts(image, committed)
    else:
        starts = {base: bytearray(marks) for base, marks in starts.items()}
    result, insns = checked_traverse(image, va, superset, starts)
    if result is None:
        return None
    return IntervalSet.from_pairs(result[0]), insns


class TestRecursiveDisassemble:
    """Recursive traversal from one entry, through `_traverse`."""

    def test_single_ret(self):
        claimed, _ = traverse_fresh(b"\xc3")
        assert [(iv.start, iv.end) for iv in claimed] == \
            [(0x1000, 0x1001)]

    def test_jump_over_data(self):
        claimed, _ = traverse_fresh(b"\xeb\x02\xde\xad\xc3")
        assert [(iv.start, iv.end) for iv in claimed] == \
            [(0x1000, 0x1002), (0x1004, 0x1005)]

    def test_entry_not_in_superset(self):
        superset = IntervalSet.from_pairs([(0x1001, 0x1002)])
        assert traverse_fresh(b"\xc3\xc3", superset) is None

    def test_conditional_covers_both_arms(self):
        # jz +1; nop; ret
        claimed, _ = traverse_fresh(b"\x74\x01\x90\xc3")
        assert claimed.total_bytes == 4

    def test_stops_at_indirect_jump(self):
        claimed, _ = traverse_fresh(b"\xff\xe0\xde\xad")
        assert claimed.total_bytes == 2

    def test_call_to_zero_ends_its_path(self):
        # call 0 (an undefined weak function); ret
        rel = (0 - 0x1005).to_bytes(4, "little", signed=True)
        claimed, insns = traverse_fresh(b"\xe8" + rel + b"\xc3")
        assert sorted(insns) == [0x1000, 0x1005]
        assert claimed.total_bytes == 6

    def test_invalid_decode_fails_traversal(self):
        # call +1 reaches a ret; the fall-through hits an invalid byte,
        # which fails the whole traversal, not only its path
        assert traverse_fresh(b"\xe8\x01\x00\x00\x00\x06\xc3") is None

    def test_stops_at_first_failure(self, monkeypatch):
        # call 0x1100; an invalid byte; at 0x1100, 200 nops and a ret:
        # the walk pushes the callee and fails at the fall-through, so
        # the callee is never decoded
        rel = (0x1100 - 0x1005).to_bytes(4, "little", signed=True)
        code = (b"\xe8" + rel + b"\x06").ljust(0x100, b"\xcc")
        image = image_of(code + b"\x90" * 200 + b"\xc3")
        starts = reference_starts(image, ())
        walks = count_walks(monkeypatch)
        assert _traverse(image, 0x1000, executable_ranges(image),
                         starts) is None
        assert walks == [0x1000]


class TestWalkCalls:
    """Cost guards, in calls: one x86.walk call per run up to an
    unconditional transfer."""

    def test_branches_take_one_walk(self, monkeypatch):
        # k rounds of test eax, eax; jz rel32 and call rel32 to the ret
        # after them: the first walk decodes every instruction, and each
        # target it pushed is marked by the time it is popped
        k = 40
        ret = 0x1000 + 13 * k
        code = bytearray()
        for _ in range(k):
            at = 0x1000 + len(code)
            code += b"\x85\xc0\x0f\x84" + (ret - at - 8).to_bytes(4, "little")
            code += b"\xe8" + (ret - at - 13).to_bytes(4, "little")
        image = image_of(bytes(code + b"\xc3"))
        walks = count_walks(monkeypatch)
        claimed, insns = traverse_from(image, 0x1000,
                                       executable_ranges(image))
        assert walks == [0x1000]
        assert len(insns) == 3 * k + 1 and claimed.total_bytes == len(code) + 1

    def test_ls(self, monkeypatch):
        data = read_ls()
        walks = count_walks(monkeypatch)
        compute_superset(load_elf(data))
        assert 0 < len(walks) <= 2000


def count_walks(monkeypatch):
    """The vaddr where each later x86.walk call with a start map starts,
    in call order: one call decodes one run up to an unconditional
    transfer.  x86.decode's calls, with none, are not counted."""
    walk = x86.walk
    seen = []

    def counting(buf, off, base, limit=None, marks=None, *rest):
        if marks is not None:
            seen.append(base + off)
        return walk(buf, off, base, limit, marks, *rest)

    monkeypatch.setattr(x86, "walk", counting)
    return seen


class TestComputeSuperset:
    def test_all_code(self):
        image = image_of(b"\x90\x90\xc3")
        report = compute_superset(image)
        assert report.superset.total_bytes == 0
        assert report.code.total_bytes == 3

    def test_unreferenced_island_stays_data(self):
        code = b"\xc3" + b"\xaa" * 10 + b"\x90" * 89
        image = image_of(code)
        report = compute_superset(image)
        assert report.superset.contains_range(0x1001, 10)

    def test_partition_exact(self):
        image = image_of(b"\xeb\x02\xde\xad\xc3" + b"\x00" * 11)
        report = compute_superset(image)
        total = IntervalSet.from_pairs([*report.code.pairs(),
                                        *report.superset.pairs()])
        assert total == executable_ranges(image)
        assert report.code.intersection_size(report.superset) == 0

    @pytest.mark.parametrize("target, accepted", [(0x1002, False),
                                                  (0x1005, True)],
                             ids=["mid-instruction", "instruction-start"])
    def test_path_into_committed_code(self, target, accepted):
        # the program entry commits mov eax, imm32 and a ret; the
        # prologue at 0x1010 then jumps into the mov or onto the ret
        rel = (target - 0x1019).to_bytes(4, "little", signed=True)
        code = (b"\xb8\x90\x90\x90\x90\xc3".ljust(16, b"\xcc")
                + b"\x55\x48\x89\xe5\xe9" + rel + b"\xcc" * 7)
        report = compute_superset(image_of(code))
        heuristic = [EntryPoint(0x1010, "heuristic")] if accepted else []
        assert report.entry_points == [EntryPoint(0x1000, "program_entry"),
                                       *heuristic]
        assert report.superset.contains_range(0x1010, 9) is not accepted
        assert report == reference_compute_superset(image_of(code))

    def test_no_exec_segment(self):
        image = load_elf(make_elf([(0x1000, 4, b"\x00" * 16)]))
        with pytest.raises(NoExecutableCode):
            compute_superset(image)

    def test_program_entry_into_invalid_byte_is_rejected(self):
        # call +1 reaches a ret, but the fall-through is undecodable: the
        # program entry proves nothing, like any other source's target
        report = compute_superset(image_of(b"\xe8\x01\x00\x00\x00\x06\xc3"))
        assert report.entry_points == []
        assert report.code.total_bytes == 0

    def test_equals_reference_fixpoint(self, corpus, corpus20,
                                       system_reports):
        # the SYSTEM binaries that are present
        cases = list(system_reports.values())
        for entry in (*corpus, *corpus20):
            image = load_elf(entry.binary.read_bytes())
            cases.append((image, compute_superset(image)))
        for image, report in cases:
            # every compared field: the code and superset, the entry
            # points, the start map and the static references
            assert report == reference_compute_superset(image)

    def test_each_target_traversed_once(self, monkeypatch, corpus):
        # ret at the program entry; at 0x1010 a prologue that runs into
        # an invalid byte, which the heuristic proposes
        planted = exec_elf(b"\xc3" + b"\xcc" * 15 + b"\x55\x48\x89\xe5\x06")
        datas = [planted, *(e.binary.read_bytes() for e in corpus)]
        traverse = disasm._traverse
        seen = []

        def spy(image, entry, superset, starts):
            seen.append(entry)
            return traverse(image, entry, superset, starts)

        monkeypatch.setattr(disasm, "_traverse", spy)
        for data in datas:
            seen.clear()
            report = compute_superset(load_elf(data))
            assert len(seen) == len(set(seen))
            assert report == reference_compute_superset(load_elf(data))
            if data is planted:
                assert seen == [0x1000, 0x1010]
                assert report.entry_points == [
                    EntryPoint(0x1000, "program_entry")]

    def test_failed_traversals_stop_at_their_failure(self, monkeypatch):
        # a fan: n 16-aligned entries, each push rbp; mov rbp, rsp;
        # call g; an invalid byte, placed before a chain g of m
        # functions, each call next; ret.  Every entry fails at its
        # invalid byte before it reaches g, so the walks grow with
        # n + m, not with n * m
        n = m = 200
        g = 0x1000 + 16 * n
        code = bytearray()
        for k in range(n):
            rel = g - (0x1000 + 16 * k + 9)
            code += (b"\x55\x48\x89\xe5\xe8"
                     + rel.to_bytes(4, "little", signed=True)
                     + b"\x06").ljust(16, b"\xcc")
        code += b"\xe8\x01\x00\x00\x00\xc3" * (m - 1) + b"\xc3"
        walks = count_walks(monkeypatch)
        report = compute_superset(image_of(bytes(code)))
        assert report.entry_points == [] and report.code.total_bytes == 0
        assert len(walks) <= 4 * (n + m)

    def test_deterministic(self, corpus):
        data = corpus[0].binary.read_bytes()
        r1 = compute_superset(load_elf(data))
        r2 = compute_superset(load_elf(data))
        assert r1.code == r2.code and r1.superset == r2.superset
        assert r1.entry_points == r2.entry_points

    def test_corpus_soundness_and_partition(self, corpus, system_reports):
        cases = []
        for entry in corpus:
            image = load_elf(entry.binary.read_bytes())
            cases.append((image, compute_superset(image), entry.ground_truth))
        cases += [(image, report, None)
                  for image, report in system_reports.values()]
        for image, report, ground_truth in cases:
            if ground_truth is not None:
                gt_data = load_ground_truth(ground_truth)
                assert report.code.intersection_size(gt_data) == 0
            union = IntervalSet.from_pairs([*report.code.pairs(),
                                            *report.superset.pairs()])
            assert union == executable_ranges(image)
            assert report.code == executable_less(image, report.superset)
            # the program's own references agree with the code set
            assert reference_violations(report) == []

    def test_linear_sweep_oracle_on_pure_code(self, corpus):
        # on fully-identified corpus code, an independent linear sweep by
        # objdump must partition the same code bytes
        require_tool("objdump")
        entry = corpus[0]
        image = load_elf(entry.binary.read_bytes())
        report = compute_superset(image)
        out = subprocess.run(
            ["objdump", "-d", "--section=.text", str(entry.binary)],
            capture_output=True, text=True, check=True).stdout
        swept = []
        for line in out.splitlines():
            m = re.match(r"\s+([0-9a-f]+):\s+((?:[0-9a-f]{2} )+)", line)
            if m:
                addr = int(m.group(1), 16)
                swept.append((addr, addr + len(m.group(2).split())))
        objdump_bytes = IntervalSet.from_pairs(swept)
        # every byte we identified as code is also swept by objdump
        assert report.code.intersection_size(objdump_bytes) == \
            report.code.total_bytes


class TestHeuristicSource:
    def test_equals_per_block_scan_every_round(self, corpus):
        # the finder returns the image's aligned prologues once per call,
        # and compute_superset skips those no longer in the superset; the
        # ones left must equal a scan of every superset block, in the
        # fresh superset and in the one compute_superset leaves.  The
        # first image's prologue at 0x1010 runs into an invalid byte and
        # stays in the superset
        planted = exec_elf(b"\xc3" + b"\xcc" * 15 + b"\x55\x48\x89\xe5\x06")
        datas = [planted, *(e.binary.read_bytes() for e in corpus)]
        if os.path.exists(LS):
            datas.append(read_ls())
        found = []
        for data in datas:
            image = load_elf(data)
            exec_ranges = executable_ranges(image)
            starts = disasm._prologue_starts(image, exec_ranges)
            for superset in (exec_ranges, compute_superset(image).superset):
                kept = [va for va in starts
                        if superset.contains_range(va, 1)]
                assert kept == sorted(set(reference_heuristic_targets(
                    image, superset)))
                found.append(len(kept))
        assert all(found[::2]) and any(found[1::2])


class TestEntryPointDetection:
    def test_jump_table_targets_found(self, corpus):
        for entry in corpus:
            report = compute_superset(load_elf(entry.binary.read_bytes()))
            sources = {ep.source for ep in report.entry_points}
            assert "jump_table" in sources
            break

    def test_table_bytes_stay_in_superset(self, corpus):
        # every corpus program has exactly one jump table; its bytes must
        # remain readable (they are ground-truth data)
        entry = corpus[0]
        report = compute_superset(load_elf(entry.binary.read_bytes()))
        gt_data = load_ground_truth(entry.ground_truth)
        assert report.code.intersection_size(gt_data) == 0

    def test_frame_unwind_against_readelf(self, corpus):
        require_tool("readelf")
        for entry in corpus:
            image = load_elf(entry.binary.read_bytes())
            out = subprocess.run(
                ["readelf", "--debug-dump=frames", str(entry.binary)],
                capture_output=True, text=True, check=True).stdout
            expected = {int(m.group(1), 16) for m in
                        re.finditer(r"pc=([0-9a-f]+)\.\.", out)}
            if not expected:
                continue
            superset = executable_ranges(image)
            eps = detect_entry_points(image, superset, IntervalSet(), {})
            # the program entry is an FDE start too, but its own source
            # comes first in SOURCE_ORDER
            got = {ep.vaddr for ep in eps if ep.source == "frame_unwind"}
            assert got == expected - {image.entry_point}
            assert EntryPoint(image.entry_point, "program_entry") in eps
            return
        pytest.skip("corpus sample contained no FDEs")

    def test_degrades_without_metadata(self):
        # stripped-down image: no sections at all, only the program entry
        image = image_of(b"\xaa" * 64, entry=0x1000)
        superset = executable_ranges(image)
        eps = detect_entry_points(image, superset, IntervalSet(), {})
        assert eps[0] == EntryPoint(0x1000, "program_entry")
        assert all(ep.source == "heuristic" for ep in eps[1:])

    def test_sources_follow_source_order(self):
        # every source has its turn, even on an image with no sections
        image = image_of(b"\x90\x90\xc3", entry=0x1000)
        superset = executable_ranges(image)
        assert [source for source, _ in disasm._sources(
            image, superset, reference_starts(image, ()), [], {})
                ] == list(disasm.SOURCE_ORDER)

    def test_heuristic_prologue_at_aligned_address(self):
        # 16 bytes of data, then push rbp; mov rbp,rsp; ret at 0x1010
        code = b"\xaa" * 16 + b"\x55\x48\x89\xe5\x5d\xc3"
        image = image_of(code, entry=None)
        superset = executable_ranges(image)
        eps = detect_entry_points(image, superset, IntervalSet(), {})
        assert any(ep.vaddr == 0x1010 and ep.source == "heuristic"
                   for ep in eps)

    def test_candidates_inside_superset_or_code(self, corpus):
        image = load_elf(corpus[0].binary.read_bytes())
        superset = executable_ranges(image)
        for ep in detect_entry_points(image, superset, IntervalSet(), {}):
            assert superset.contains_range(ep.vaddr, 1)


class TestAddressTaken:
    def test_equals_one_value_at_a_time(self, corpus):
        # the same values in the same order, duplicates included
        datas = [e.binary.read_bytes() for e in corpus] + read_system()
        found = 0
        for data in datas:
            image = load_elf(data)
            targets = disasm._address_taken_targets(
                image, executable_ranges(image))
            assert targets == reference_address_taken_targets(image)
            found += len(targets)
        assert found

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=120), first=st.integers(0, 24),
           stride=st.integers(8, 40), code=st.sampled_from("Qq"))
    def test_words_at_any_stride(self, data, first, stride, code):
        assert disasm._words(data, first, stride, code) == tuple(
            int.from_bytes(data[off:off + 8], "little", signed=code == "q")
            for off in range(first, len(data) - 7, stride))


def check_records_are_decodes(data):
    """Each marked start decodes, and the committed instructions cover
    exactly the code set."""
    image = load_elf(data)
    report = compute_superset(image)
    assert report.instructions
    assert [hex(va) for va, ins in report.instructions.items()
            if ins is None] == []
    assert union_of(report.instructions) == report.code


@pytest.fixture(scope="module")
def corpus_seed1(tmp_path_factory):
    """The 100 programs of the seed-1 corpus."""
    require_tool(*CORPUS_TOOLS)
    return build_corpus(tmp_path_factory.mktemp("corpus_seed1"), count=100,
                        seed=1)


def test_kept_starts_decoded_at_most_once(monkeypatch, corpus_seed1):
    # the traversal decodes through x86.walk; x86.decode is called only
    # by the jump-table finder, for committed starts whose first opcode
    # byte is kept, and at most once each: later rounds read its cache
    decode = x86.decode
    seen = []

    def counting(data, offset, vaddr, limit=None):
        seen.append(vaddr)
        return decode(data, offset, vaddr, limit)

    decoded = 0
    for entry in corpus_seed1:
        seen.clear()
        monkeypatch.setattr(x86, "decode", counting)
        report = compute_superset(load_elf(entry.binary.read_bytes()))
        monkeypatch.setattr(x86, "decode", decode)
        assert len(seen) == len(set(seen))
        insns = report.instructions
        assert [hex(va) for va in seen
                if insns[va][4][0] not in disasm._KEPT_BYTES] == []
        decoded += len(seen)
    assert decoded


class TestRecordsAreDecodes:
    def test_ls(self):
        check_records_are_decodes(read_ls())

    def test_static_glibc_program(self, tmp_path):
        binary = build_static_switch(tmp_path, ["-O2", "-static"])
        check_records_are_decodes(binary.read_bytes())

    def test_corpus(self, corpus):
        for entry in corpus:
            check_records_are_decodes(entry.binary.read_bytes())

    def test_libc(self):
        check_records_are_decodes(read_or_skip(SYSTEM[2]))


def check_walks_are_decodes(data):
    """From every committed start, x86.walk marks the starts, appends
    the references and indirect jumps, pushes the branch targets, and
    stops where repeated x86.decode does; returns the number of walks.
    Each walk starts from a clear start map: its marks are cleared after
    it."""
    image = load_elf(data)
    report = compute_superset(image)
    walks = 0
    for base, starts in report.starts.items():
        _, buf = image.code_at(base)
        got, want = bytearray(len(buf)), bytearray(len(buf))
        for off in compress(range(len(starts)), starts):
            got_lists, want_lists = ([], [], []), ([], [], [])
            result = x86.walk(buf, off, base, None, got, *got_lists)
            assert result == reference_walk(
                buf, off, base, None, want, *want_lists,
                decode=x86.decode), hex(base + off)
            end = result[2]
            assert got[off:end] == want[off:end]
            assert got_lists == want_lists
            got[off:end] = want[off:end] = bytes(end - off)
            walks += 1
        # neither marked a start outside [off, end)
        assert not any(got) and not any(want)
    return walks


class TestWalksAreDecodes:
    def test_ls(self):
        assert check_walks_are_decodes(read_ls()) > 10000

    def test_corpus(self, corpus):
        for entry in corpus:
            assert check_walks_are_decodes(entry.binary.read_bytes())


@pytest.mark.parametrize("flags", [
    ["-O2", "-static"],
    ["-Os", "-static", "-no-pie", "-fcf-protection=none"],
], ids=["O2", "Os-no-pie"])
def test_static_glibc_program(tmp_path, flags):
    # glibc's static archive calls undefined weak functions, resolved to
    # 0, behind null tests; a path to 0 must not fail their callers
    binary = build_static_switch(tmp_path, flags)
    image = load_elf(binary.read_bytes())
    start = time.monotonic()
    report = compute_superset(image)
    assert time.monotonic() - start < 10
    assert overall_coverage(report) >= 0.75


# an instruction line of `objdump -d -w`: its address and first byte
OBJDUMP_INSN = re.compile(rb"(?m)^ *([0-9a-f]+):\t([0-9a-f]{2}) ")


def non_objdump_starts(path, image, report):
    """The committed starts inside the image's code sections that are
    neither an objdump start nor one byte past an objdump instruction
    that begins with f0 (glibc's `je +1; lock cmpxchg` jumps over the
    lock prefix), and the committed starts outside every code section.

    `-z` is needed: without it objdump prints a run of zero bytes as
    `...` and lists no instruction start in it."""
    require_tool("objdump")
    out = subprocess.run(["objdump", "-d", "-z", "-w", str(path)],
                         capture_output=True, check=True).stdout
    starts, locked = set(), set()
    for addr, first in OBJDUMP_INSN.findall(out):
        starts.add(int(addr, 16))
        if first == b"f0":
            locked.add(int(addr, 16) + 1)
    sections = image.code_sections
    inside = [va for va in report.instructions if va in sections]
    assert inside
    return (sorted(hex(va) for va in inside
                   if va not in starts and va not in locked),
            sorted(hex(va) for va in report.instructions
                   if va not in sections))


# Only gcc-built binaries: on the LLVM tools objdump's linear sweep loses
# sync in the zero runs that share their code sections, so its list is
# no oracle there.  In llvm-objdump, `00 31` at 0x41270f swallows
# `_start` at 0x412710, and `00 55 41` at 0x43b83f swallows the FDE
# start at 0x43b840; 5 of its 16 mismatches are such losses.  (The other
# 11 follow three jump-table entries that start inside instructions: a
# table bounded only by an `and` mask is read past its end.)
@pytest.mark.parametrize("path", SYSTEM)
def test_starts_are_objdump_starts(system_reports, path):
    if path not in system_reports:
        pytest.skip("%s not available" % path)
    image, report = system_reports[path]
    assert non_objdump_starts(path, image, report) == ([], [])


@pytest.mark.parametrize("path", SYSTEM)
def test_range_bytes_fit(system_reports, path):
    if path not in system_reports:
        pytest.skip("%s not available" % path)
    image, _ = system_reports[path]
    assert range_bytes_fit(image)


def test_starts_are_objdump_starts_static(tmp_path):
    binary = build_static_switch(tmp_path, ["-O2", "-static"])
    image = load_elf(binary.read_bytes())
    report = compute_superset(image)
    wrong, outside = non_objdump_starts(binary, image, report)
    assert wrong == []
    # a known defect, kept visible: an address_taken walk runs off the
    # end of .plt into the padding before .text and commits it.  When
    # that is mended, this list is empty and the assertion flips
    assert outside
    assert reference_violations(report) == []


class TestMonotonicity:
    def test_superset_shrinks_code_grows(self, corpus):
        # re-run compute_superset but snapshot via entry_points ordering:
        # code size after including the first k accepted entry points is
        # non-decreasing by construction; assert end state consistency
        image = load_elf(corpus[0].binary.read_bytes())
        report = compute_superset(image)
        assert report.code.total_bytes + report.superset.total_bytes == \
            report.executable_total


def test_ground_truth_file_grammar(tmp_path):
    path = tmp_path / "x.gt"
    path.write_text("# comment\n0x1000 0x1010\n0x2000 0x2004\n")
    ivs = load_ground_truth(path)
    assert [(iv.start, iv.end) for iv in ivs] == \
        [(0x1000, 0x1010), (0x2000, 0x2004)]


def union_of(insns):
    return IntervalSet.from_pairs((va, va + ins[0])
                                  for va, ins in insns.items())


def check_traversals(image, starts_per_superset=200):
    """_traverse claims exactly its instructions and matches the strict
    reference (traverse_from): from the entry points of a fresh
    superset, and from the block starts of the superset left after
    compute_superset, over a copy of its start map.  Returns the set of
    outcomes, True where a traversal succeeds."""
    fresh = executable_ranges(image)
    report = compute_superset(image)
    outcomes = set()
    eps = detect_entry_points(image, fresh, IntervalSet(), {})
    for superset, starts, targets in (
            (fresh, None, [ep.vaddr for ep in eps]),
            (report.superset, report.starts,
             [iv.start for iv in report.superset])):
        for va in targets[:starts_per_superset]:
            result = traverse_from(image, va, superset, starts=starts)
            if result is not None:
                claimed, insns = result
                assert claimed == union_of(insns)
            outcomes.add(result is not None)
    return outcomes


class TestTraverse:
    def test_claimed_is_union_of_insns_on_corpus(self, corpus):
        outcomes = set()
        for entry in corpus:
            outcomes |= check_traversals(load_elf(entry.binary.read_bytes()))
        assert outcomes == {True, False}

    def test_claimed_is_union_of_insns_on_ls(self):
        outcomes = check_traversals(load_elf(read_ls()), 30)
        assert outcomes == {True, False}

    def test_failure_persists_after_commits(self, corpus):
        # an address whose traversal fails on the fresh superset fails on
        # the one compute_superset leaves: compute_superset relies on it
        # when a later source or jump-table call proposes an address again
        datas = [e.binary.read_bytes() for e in corpus]
        if os.path.exists(LS):
            datas.append(read_ls())
        failed = 0
        for data in datas:
            image = load_elf(data)
            fresh = executable_ranges(image)
            report = compute_superset(image)
            for iv in list(report.superset)[:100]:
                for va in range(iv.start, min(iv.end, iv.start + 4)):
                    if traverse_from(image, va, fresh) is not None:
                        continue
                    failed += 1
                    assert traverse_from(image, va, report.superset,
                                         starts=report.starts) is None
        assert failed

    def test_strict_fails_mid_committed_instruction(self):
        # 0x1003 starts a committed 2-byte jmp: jz +1 lands on its start,
        # jz +2 in its middle
        superset = IntervalSet.from_pairs([(0x1000, 0x1003)])
        image = image_of(b"\x74\x01\x90\xeb\xfe\xc3")
        _, insns = traverse_from(image, 0x1000, superset, {0x1003})
        assert sorted(insns) == [0x1000, 0x1002]
        image = image_of(b"\x74\x02\x90\xeb\xfe\xc3")
        assert traverse_from(image, 0x1000, superset, {0x1003}) is None

    # code at 0x1000; superset runs; committed starts; instruction starts
    # claimed, or None where the traversal fails
    @pytest.mark.parametrize("code, runs, committed, starts", [
        # mov rbp, rsp at 0x1002 straddles the run end at 0x1003
        (b"\x90\x90\x48\x89\xe5\xc3", [(0x1000, 0x1003)], (), None),
        # ... and would end where a committed instruction starts
        (b"\x90\x90\x48\x89\xe5\xc3", [(0x1000, 0x1003)], (0x1005,),
         None),
        # jmp +2 from one run to the next, over two bytes outside both
        (b"\xeb\x02\xde\xad\x90\xc3", [(0x1000, 0x1002), (0x1004, 0x1006)],
         (), [0x1000, 0x1004, 0x1005]),
        # jz +1 and its fall-through reach a committed start
        (b"\x74\x01\x90\xeb\xfe\xc3", [(0x1000, 0x1003)], (0x1003,),
         [0x1000, 0x1002]),
        # jz +2 lands in the middle of a committed instruction
        (b"\x74\x02\x90\xeb\xfe\xc3", [(0x1000, 0x1003)], (0x1003,), None),
        # falls through past the end of the executable range
        (b"\x90\x90", None, (), None),
        # mov rbp, rsp cut off by the end of the executable range
        (b"\x90\x48\x89", None, (), None),
    ], ids=["straddles-run-end", "straddles-onto-committed", "run-to-run",
            "committed-start", "mid-committed", "off-exec-range",
            "cut-by-exec-end"])
    def test_edges_match_reference(self, code, runs, committed, starts):
        image = image_of(code)
        superset = (executable_ranges(image) if runs is None
                    else IntervalSet.from_pairs(runs))
        # traverse_from checks the call against the strict reference
        result = traverse_from(image, 0x1000, superset, committed)
        if starts is None:
            assert result is None
        else:
            assert sorted(result[1]) == starts

    # failing traversals over a start map that marks the committed starts
    @pytest.mark.parametrize("data, runs, committed", [
        (exec_elf(b"\x90\x90\x48\x89\xe5\xc3"), [(0x1000, 0x1003)], ()),
        (exec_elf(b"\x90\x90\x48\x89\xe5\xc3"), [(0x1000, 0x1003)],
         (0x1005,)),
        (exec_elf(b"\x74\x02\x90\xeb\xfe\xc3"), [(0x1000, 0x1003)],
         (0x1003,)),
        (exec_elf(b"\x90\x90"), None, ()),
        (exec_elf(b"\x90\x48\x89"), None, ()),
        # jmp +2 over two bytes, onto an invalid byte
        (exec_elf(b"\xeb\x02\xcc\xcc\x06"), None, ()),
        # 64 nops fall through onto an invalid byte, before a committed ret
        (exec_elf(b"\x90" * 64 + b"\x06\xc3"), [(0x1000, 0x1041)],
         (0x1041,)),
        # call 0x3000 in the first range; at 0x3000 three nops and an
        # invalid byte: a stretch in each range
        (make_elf([(0x1000, 5, b"\xe8" + (0x1ffb).to_bytes(4, "little")
                    + b"\xc3"), (0x3000, 5, b"\x90\x90\x90\x06")],
                  entry=0x1000), None, ()),
    ], ids=["straddles-run-end", "straddles-onto-committed", "mid-committed",
            "off-exec-range", "cut-by-exec-end", "after-direct-jump",
            "after-long-fall-through", "across-ranges"])
    def test_failure_leaves_the_start_map(self, data, runs, committed):
        image = load_elf(data)
        superset = (executable_ranges(image) if runs is None
                    else IntervalSet.from_pairs(runs))
        starts = reference_starts(image, committed)
        want = {base: bytes(marks) for base, marks in starts.items()}
        assert _traverse(image, 0x1000, superset, starts) is None
        assert starts == want
        assert [len(marks) for marks in starts.values()] == [
            end - start for start, end in image.exec_ranges.pairs()]

    def test_run_end_holds_after_a_whole_range_traversal(self):
        # mov rbp, rsp; jmp 0x1007, and at 0x1007 mov rbp, rsp; jmp $.
        # In the run [0x1000, 0x1009) the second mov, equal to the
        # first, crosses the run end onto the committed jmp at 0x100a, so
        # the traversal fails there, as the reference does, also after a
        # traversal over the whole range has decoded both movs
        image = image_of(b"\x48\x89\xe5\xeb\x02\xcc\xcc"
                         b"\x48\x89\xe5\xeb\xfe")
        short = IntervalSet.from_pairs([(0x1000, 0x1009)])
        assert traverse_from(image, 0x1000, short, {0x100a}) is None
        _, insns = traverse_from(image, 0x1000, executable_ranges(image))
        assert sorted(insns) == [0x1000, 0x1003, 0x1007, 0x100a]
        assert insns[0x1007] == insns[0x1000] == (
            3, x86.FALLTHROUGH, None, None, (0x89,), 0xE5, None)
        assert traverse_from(image, 0x1000, short, {0x100a}) is None

    def test_compute_superset_equals_reference_traversal(self, monkeypatch,
                                                         corpus20):
        datas = [e.binary.read_bytes() for e in corpus20]
        if os.path.exists(LS):
            datas.append(read_ls())
        reports = [compute_superset(load_elf(d)) for d in datas]

        def traverse(image, entry, superset, starts):
            # the reference traversal, marking the map as _traverse does
            claimed, insns, ok = reference_traverse(
                image, entry, superset, partial(is_marked, image, starts),
                strict=True)
            if not ok:
                return None
            for va in insns:
                base, _ = image.code_at(va)
                starts[base][va - base] = 1
            return (list(claimed.pairs()), *reference_kept(insns))

        monkeypatch.setattr(disasm, "_traverse", traverse)
        for data, report in zip(datas, reports):
            assert compute_superset(load_elf(data)) == report


def jump_table_image(cmp_at, jmp_at, lea_at, abs64=False,
                     bound=b"\x83\xf8\x03", extra=(), other_leas=()):
    """The bound check, cmp eax, 3 by default, at cmp_at; lea rax,
    [rip + table] at lea_at; jmp rax at jmp_at; then a table of six
    executable targets and one entry that leaves the image, rel32 or
    abs64.  extra holds more (offset, bytes) instructions, and
    other_leas (offset, delta) pairs, each a lea rax, [rip + table +
    delta].  Returns (image, instructions), the instructions up to the
    jmp by vaddr."""
    code = bytearray(b"\x90" * (jmp_at + 3))
    for at, insn in ((cmp_at, bound), *extra):
        code[at:at + len(insn)] = insn
    code[jmp_at:jmp_at + 3] = b"\xff\xe0\xc3"
    code += b"\x00" * (-len(code) % 8)
    table = 0x1000 + len(code)
    for at, delta in ((lea_at, 0), *other_leas):
        code[at:at + 7] = b"\x48\x8d\x05" + (
            table + delta - (0x1000 + at + 7)).to_bytes(4, "little",
                                                      signed=True)
    for k in range(6):
        if abs64:
            code += (0x1000 + k).to_bytes(8, "little")
        else:
            code += (0x1000 + k - table).to_bytes(4, "little", signed=True)
    code += (0x7FFFFFFF).to_bytes(8 if abs64 else 4, "little")
    image = image_of(bytes(code))
    instructions = {}
    va = 0x1000
    while va < 0x1000 + jmp_at + 3:
        instructions[va] = decode_at(image, va)
        va += instructions[va][0]
    return image, instructions


def find_tables(image, superset, instructions):
    """_jump_table_targets over the start map and the indirect jumps of
    instructions, by vaddr, with an empty cache: the finder decodes each
    record it reads."""
    jumps = [va for va, ins in instructions.items()
             if ins[1] == x86.INDIRECT_JUMP]
    return _jump_table_targets(image, superset,
                               reference_starts(image, instructions), jumps,
                               {})


class TestJumpTable:
    LEA = 40

    @pytest.mark.parametrize("cmp_at, jmp_at, found", [
        (LEA - 32, LEA + _JUMP_TABLE_WINDOW, 4),       # bounded by cmp
        (LEA - 33, LEA + _JUMP_TABLE_WINDOW, 0),       # cmp out of reach
        (LEA - 32, LEA + _JUMP_TABLE_WINDOW + 1, 0),   # jmp out of reach
    ])
    def test_search_window_edges(self, cmp_at, jmp_at, found):
        # a table without a bound check is not read
        image, instructions = jump_table_image(cmp_at, jmp_at, self.LEA)
        superset = executable_ranges(image)
        targets = find_tables(image, superset, instructions)
        assert targets == [0x1000 + k for k in range(found)]
        assert targets == reference_jump_table_targets(image, superset,
                                                       instructions)

    @pytest.mark.parametrize("bound", [b"\x3d\x03\x00\x00\x00",
                                       b"\x25\x03\x00\x00\x00",
                                       b"\x80\xf9\x03", b"\x80\xe1\x03",
                                       b"\x3c\x03", b"\x24\x03"],
                             ids=["cmp-eax-imm32", "and-eax-imm32",
                                  "cmp-cl-imm8", "and-cl-imm8",
                                  "cmp-al-imm8", "and-al-imm8"])
    def test_eax_bound_forms(self, bound):
        # the one-byte-opcode forms without ModRM, and the 8-bit forms,
        # bound the table too
        image, instructions = jump_table_image(self.LEA - 32, self.LEA + 16,
                                               self.LEA, bound=bound)
        superset = executable_ranges(image)
        targets = find_tables(image, superset, instructions)
        assert targets == [0x1000 + k for k in range(4)]
        assert targets == reference_jump_table_targets(image, superset,
                                                       instructions)

    @pytest.mark.parametrize("bound", [b"\x3c\x80", b"\x80\xf9\xff"],
                             ids=["cmp-al-0x80", "cmp-cl-0xff"])
    def test_imm8_from_0x80_bounds_nothing(self, bound):
        # an 8-bit bound of 0x80 or more decodes sign-extended, so the
        # finder caps 8-bit bounds at 128 entries and reads no table
        image, instructions = jump_table_image(self.LEA - 32, self.LEA + 16,
                                               self.LEA, bound=bound)
        superset = executable_ranges(image)
        assert find_tables(image, superset, instructions) == []
        assert reference_jump_table_targets(image, superset,
                                            instructions) == []

    def test_byte_bound_after_the_lea(self):
        # llvm-tblgen's shape: cmp r13d, 0x100 before the lea, then
        # cmp cl, 5 between the lea and the jump; the later check bounds
        # the table at six entries, where 257 would run off the image
        image, instructions = jump_table_image(
            self.LEA - 27, self.LEA + 16, self.LEA,
            bound=b"\x41\x81\xfd\x00\x01\x00\x00",
            extra=[(self.LEA + 8, b"\x80\xf9\x05")])
        superset = executable_ranges(image)
        targets = find_tables(image, superset, instructions)
        assert targets == [0x1000 + k for k in range(6)]
        assert targets == reference_jump_table_targets(image, superset,
                                                       instructions)

    def test_byte_compare_of_memory_bounds_nothing(self):
        # cmp byte [rdi], 0x2f between the bound check and the jump is
        # string code, not a bound: the table keeps cmp eax, 3's four
        image, instructions = jump_table_image(
            self.LEA - 32, self.LEA + 16, self.LEA,
            extra=[(self.LEA + 8, b"\x80\x3f\x2f")])
        superset = executable_ranges(image)
        targets = find_tables(image, superset, instructions)
        assert targets == [0x1000 + k for k in range(4)]
        assert targets == reference_jump_table_targets(image, superset,
                                                       instructions)

    # movsxd rdx, [rax + rcx*4], the read of an entry
    MOVSXD = b"\x48\x63\x14\x88"

    @pytest.mark.parametrize("other_leas, extra, code_committed", [
        # obj2yaml's shape: leas of pointer tables (here the table's
        # second entry onwards) come before the table's own lea
        ([(LEA - 16, 4)], [], False),
        # llvm-exegesis's shape: lea, the read of the entry, then a lea
        # of a pointer table before the jump
        ([(LEA + 11, 4)], [(LEA + 7, MOVSXD)], False),
        # a read of memory before the window's first table lea leaves
        # that lea the table's
        ([], [(LEA - 8, MOVSXD)], False),
        # a lea of committed code (here the jump's own function, 64
        # bytes before the table) after the table's lea: its target has
        # left the superset, so it reads no table
        ([(LEA + 11, -64)], [], True),
    ], ids=["lea-before", "lea-after-entry-read", "entry-read-before-lea",
            "lea-of-code-after"])
    def test_one_table_per_jump(self, other_leas, extra, code_committed):
        # the bound check bounds both leas' tables
        image, instructions = jump_table_image(self.LEA - 20, self.LEA + 24,
                                               self.LEA, extra=extra,
                                               other_leas=other_leas)
        superset = executable_ranges(image)
        if code_committed:
            superset.remove(0x1000, 0x1000 + self.LEA + 27)
        targets = find_tables(image, superset, instructions)
        assert targets == [0x1000 + k for k in range(4)]
        assert targets == reference_jump_table_targets(image, superset,
                                                       instructions)

    def test_table_ends_where_the_next_begins(self):
        # and eax, 7 lets eight entries be read, but another jump reads
        # a table that starts at the fourth: the first table has three
        image, instructions = jump_table_image(
            self.LEA - 8, self.LEA + 16, self.LEA, bound=b"\x83\xe0\x07",
            extra=[(self.LEA - 10, b"\xff\xe0")],
            other_leas=[(self.LEA - 20, 12)])
        superset = executable_ranges(image)
        targets = find_tables(image, superset, instructions)
        assert targets == [0x1000 + k for k in range(3)]
        assert targets == reference_jump_table_targets(image, superset,
                                                       instructions)

    def test_abs64_table_is_not_read(self):
        # bounded, in an ET_EXEC image, but its entries are abs64
        image, instructions = jump_table_image(self.LEA - 32,
                                               self.LEA + 16, self.LEA,
                                               abs64=True)
        assert image.elf_type == 2
        superset = executable_ranges(image)
        assert find_tables(image, superset, instructions) == []
        assert reference_jump_table_targets(image, superset,
                                            instructions) == []

    def test_equals_linear_search_on_corpus(self, corpus20):
        found = 0
        for entry in corpus20:
            image = load_elf(entry.binary.read_bytes())
            report = compute_superset(image)
            exec_ranges = executable_ranges(image)
            for superset in (exec_ranges, report.superset):
                targets = find_tables(image, superset, report.instructions)
                # the finder walks the instructions in commit order
                assert sorted(targets) == sorted(reference_jump_table_targets(
                    image, superset, report.instructions))
                found += len(targets)
        assert found

    @pytest.mark.parametrize("lea_first", [False, True],
                             ids=["bound-in-earlier-range",
                                  "lea-in-earlier-range"])
    def test_window_crosses_into_earlier_range(self, lea_first):
        # cmp eax, 3 at 0x1000, then lea rax, [rip + table] if lea_first,
        # and a jmp to the next executable range at 0x1020.  There: the
        # lea unless lea_first, jmp rax, the table of four entries and
        # the four rets they point to.  The jump's window, or the 32
        # bytes before the lea that the bound check may take, reaches
        # back into the first range
        table = 0x1028 if lea_first else 0x1030
        lea_at = 0x1003 if lea_first else 0x1020
        lea = b"\x48\x8d\x05" + (table - lea_at - 7).to_bytes(4, "little")
        first = b"\x83\xf8\x03" + (lea if lea_first else b"")
        first += b"\xe9" + (0x1020 - 0x1000 - len(first) - 5).to_bytes(
            4, "little")
        second = ((b"" if lea_first else lea) + b"\xff\xe0").ljust(
            table - 0x1020, b"\xcc")
        second += b"".join((16 + k).to_bytes(4, "little") for k in range(4))
        second += b"\xc3" * 4
        image = load_elf(make_elf([(0x1000, 5, first.ljust(16, b"\xcc")),
                                   (0x1020, 5, second)], entry=0x1000))
        assert len(image.exec_ranges) == 2
        report = compute_superset(image)
        assert [ep for ep in report.entry_points
                if ep.source == "jump_table"] == [
            EntryPoint(table + 16 + k, "jump_table") for k in range(4)]
        assert report == reference_compute_superset(image)
        fresh = executable_ranges(image)
        targets = find_tables(image, fresh, report.instructions)
        assert targets == [table + 16 + k for k in range(4)]
        assert targets == sorted(reference_jump_table_targets(
            image, fresh, report.instructions))


def spy_traversals(monkeypatch):
    """Check every later _traverse call against the strict reference
    (checked_traverse), and that each stretch of one that succeeds lies
    in one run of the superset as the call found it; returns the dict,
    by vaddr, that gathers the reference's instructions of each
    traversal that succeeds."""
    committed = {}

    def spy(image, entry, superset, starts):
        runs = superset.copy()
        result, insns = checked_traverse(image, entry, superset, starts)
        if result is not None:          # every success is committed
            for start, end in result[0]:
                run = runs.run_at(start)
                assert run is not None and end <= run[1]
            committed.update(insns)
        return result

    monkeypatch.setattr(disasm, "_traverse", spy)
    return committed


class TestStartMap:
    """compute_superset keeps no instruction record: its start map and
    references are those of the traversals it commits, each checked
    against the reference traversal, and its instructions decode to the
    records those traversals committed."""

    def check(self, monkeypatch, data):
        committed = spy_traversals(monkeypatch)

        image = load_elf(data)
        report = compute_superset(image)
        assert committed
        assert report.starts == reference_starts(image, committed)
        assert report.refs == reference_refs(committed.values())
        assert report.instructions == committed
        assert list(report.instructions) == sorted(committed)
        counts = {start: 0 for start, _ in report.superset.pairs()}
        for target in reference_refs(report.instructions.values()):
            run = report.superset.run_at(target)
            if run is not None:
                counts[run[0]] += 1
        assert count_static_refs(report) == list(counts.values())
        return report

    def test_corpus(self, monkeypatch, corpus):
        counted = 0
        for entry in corpus:
            report = self.check(monkeypatch, entry.binary.read_bytes())
            counted += sum(count_static_refs(report))
        assert counted

    def test_ls(self, monkeypatch):
        assert self.check(monkeypatch, read_ls()).refs

    def finder_calls(self, monkeypatch, data):
        """(targets, same) for each jump-table finder call in
        compute_superset, where same says whether the finder returns the
        same targets from the start map and indirect jumps of every
        instruction committed so far, decoded afresh (find_tables)."""
        finder = disasm._jump_table_targets
        committed = spy_traversals(monkeypatch)
        calls = []

        def finder_spy(image, superset, starts, jumps, cache):
            targets = finder(image, superset, starts, jumps, cache)
            # and every record the finder keeps is the committed one
            calls.append((targets,
                          targets == find_tables(image, superset, committed)
                          and all(committed[va] == ins
                                  for va, ins in cache.items())))
            return targets

        monkeypatch.setattr(disasm, "_jump_table_targets", finder_spy)
        compute_superset(load_elf(data))
        # so that a later call wraps the finder itself, not this spy
        monkeypatch.undo()
        assert calls
        return calls

    def test_finder_records_suffice_on_corpus_and_ls(self, monkeypatch,
                                                     corpus):
        datas = [e.binary.read_bytes() for e in corpus]
        if os.path.exists(LS):
            datas.append(read_ls())
        for data in datas:
            assert all(same for _, same in
                       self.finder_calls(monkeypatch, data))

    # jump_table_image shapes, as in TestJumpTable, where the entry read,
    # a second lea or the bound's form decides the table
    @pytest.mark.parametrize("bound, extra, other_leas", [
        (b"\x83\xf8\x03", [], [(TestJumpTable.LEA - 16, 4)]),
        (b"\x83\xf8\x03", [(TestJumpTable.LEA + 7, TestJumpTable.MOVSXD)],
         [(TestJumpTable.LEA + 11, 4)]),
        (b"\x83\xf8\x03", [(TestJumpTable.LEA - 8, TestJumpTable.MOVSXD)],
         []),
        (b"\x3d\x03\x00\x00\x00", [], []),
        (b"\x3c\x03", [], []),
        (b"\x80\xf9\x03", [], []),
    ], ids=["lea-before", "lea-after-entry-read", "entry-read-before-lea",
            "cmp-eax-imm32", "cmp-al-imm8", "cmp-cl-imm8"])
    def test_finder_records_suffice_on_tables(self, monkeypatch, bound,
                                              extra, other_leas):
        lea = TestJumpTable.LEA
        image, _ = jump_table_image(lea - 20, lea + 24, lea, bound=bound,
                                    extra=extra, other_leas=other_leas)
        calls = self.finder_calls(monkeypatch, image.raw)
        assert calls[0] == ([0x1000 + k for k in range(4)], True)
        assert all(same for _, same in calls)

    def test_two_executable_ranges(self, monkeypatch):
        # 0x1000: call 0x3000; mov eax, [0x100f]; ret; one int3
        # 0x1010: push rbp; mov rbp, rsp; jmp 0x3000; int3 padding
        # 0x3000: lea rax, [rip - 0x1ff8] (0x100f); ret; a data island.
        # The heuristic's traversal from 0x1010 ends at the committed
        # start 0x3000 in the other range
        first = (b"\xe8" + (0x1ffb).to_bytes(4, "little")
                 + b"\xa1" + (0x100f).to_bytes(8, "little") + b"\xc3\xcc"
                 + b"\x55\x48\x89\xe5\xe9" + (0x1fe7).to_bytes(4, "little")
                 + b"\xcc" * 7)
        second = (b"\x48\x8d\x05" + (-0x1ff8).to_bytes(4, "little",
                                                      signed=True)
                  + b"\xc3" + b"\xaa" * 8)
        data = make_elf([(0x1000, 5, first), (0x3000, 5, second)],
                        entry=0x1000)
        report = self.check(monkeypatch, data)
        assert report.entry_points == [EntryPoint(0x1000, "program_entry"),
                                       EntryPoint(0x1010, "heuristic")]
        assert list(report.instructions) == [0x1000, 0x1005, 0x100e, 0x1010,
                                             0x1011, 0x1014, 0x3000, 0x3007]
        assert report.refs == [0x100f, 0x100f]
        assert list(report.superset.pairs()) == [
            (0x100f, 0x1010), (0x1019, 0x1020), (0x3008, 0x3010)]
        assert count_static_refs(report) == [2, 0, 0]


# A switch function that no call reaches and no prologue pattern
# marks: only its FDE proposes it, in the image pass.  The jump-table
# finder's first call reads its table, and one of its cases holds a
# second switch, whose table the second call reads once that case is
# committed.
NESTED_SWITCH = """\
\t.text
\t.globl _start
\t.p2align 4
gtf_0_s:
_start:
\tmovl $60, %eax
\txorl %edi, %edi
\tsyscall
\tud2
gtf_0_e:
\t.p2align 4
gtf_1_s:
\t.cfi_startproc
\tmovl %edi, %ecx
\tcmpl $3, %ecx
\tja done
\tleaq gtd_0_s(%rip), %rax
\tmovslq (%rax,%rcx,4), %rdx
\taddq %rdx, %rax
\tjmp *%rax
outer0:
\tmovl $10, %eax
\tjmp done
outer1:
\tmovl %esi, %ecx
\tcmpl $2, %ecx
\tja done
\tleaq gtd_1_s(%rip), %rax
\tmovslq (%rax,%rcx,4), %rdx
\taddq %rdx, %rax
\tjmp *%rax
inner0:
\tmovl $20, %eax
\tjmp done
inner1:
\tmovl $21, %eax
\tjmp done
inner2:
\tmovl $22, %eax
\tjmp done
outer2:
\tmovl $12, %eax
\tjmp done
outer3:
\tmovl $13, %eax
done:
\tret
\t.cfi_endproc
gtf_1_e:
gtd_0_s:
\t.long outer0 - gtd_0_s, outer1 - gtd_0_s, outer2 - gtd_0_s, outer3 - gtd_0_s
gtd_1_s:
\t.long inner0 - gtd_1_s, inner1 - gtd_1_s, inner2 - gtd_1_s
gtd_1_e:
"""


def count_jump_table_calls(monkeypatch):
    """The list that each later `_jump_table_targets` call appends its
    result to."""
    finder = disasm._jump_table_targets
    calls = []

    def counting(*args):
        calls.append(finder(*args))
        return calls[-1]

    monkeypatch.setattr(disasm, "_jump_table_targets", counting)
    return calls


def test_jump_tables_found_in_later_rounds(monkeypatch, tmp_path):
    require_tool(*CORPUS_TOOLS)
    entry = build_program(NESTED_SWITCH, tmp_path, "nested_switch")
    image = load_elf(entry.binary.read_bytes())
    calls = count_jump_table_calls(monkeypatch)
    report = compute_superset(image)
    # the first finder call reads the outer table and the second adds
    # the inner one.  The inner cases add no indirect jump and lie
    # outside both windows and table loads, so a third call would read
    # what the second did: it is skipped
    assert [len(targets) for targets in calls] == [4, 7]
    # the two tables, 4 and 3 entries, are the data after the function
    gt_data = load_ground_truth(entry.ground_truth)
    *_, (outer, end) = gt_data.pairs()
    assert end - outer == 28
    targets = [[table + rel for rel in struct.unpack(
        "<%di" % count, image.read_vaddr(table, 4 * count))]
        for table, count in ((outer, 4), (outer + 16, 3))]
    # accepted in commit order: the image pass, then each table's call
    assert [(ep.source, ep.vaddr) for ep in report.entry_points] == [
        ("program_entry", image.entry_point),
        ("frame_unwind", image.entry_point + 16),
        *[("jump_table", va) for va in sorted(targets[0])],
        *[("jump_table", va) for va in sorted(targets[1])]]
    assert report.code.intersection_size(gt_data) == 0
    assert report.superset.contains_range(outer, 28)
    assert report == reference_compute_superset(image)
    # detect_entry_points commits nothing: one finder call
    calls.clear()
    detect_entry_points(image, report.superset, report.code,
                        report.instructions)
    assert [len(targets) for targets in calls] == [7]


def test_jump_table_finder_runs_once_without_tables(monkeypatch):
    # no committed jump reads a table, so the finder's first call
    # commits nothing and is its last
    datas = [exec_elf(b"\x90\x90\xc3")]
    if os.path.exists(LS):
        datas.append(read_ls())
    calls = count_jump_table_calls(monkeypatch)
    for data in datas:
        calls.clear()
        report = compute_superset(load_elf(data))
        assert report.entry_points
        assert calls == [[]]
        calls.clear()
        detect_entry_points(load_elf(data), report.superset, report.code,
                            report.instructions)
        assert calls == [[]]


# Switches whose table read changes once a case is committed: the
# next finder call must come.  Each function is proposed by its FDE;
# its cases are reached only through its table.
EXIT_START = """\
\t.text
\t.globl _start
\t.p2align 4
gtf_0_s:
_start:
\tmovl $60, %eax
\txorl %edi, %edi
\tsyscall
\tud2
gtf_0_e:
\t.p2align 4
"""
LATE_TABLE_READS = {
    # case1 lies in the window before the jump, and its cmp raises the
    # entry count from 2 to 4
    "bound": EXIT_START + """\
gtf_1_s:
\t.cfi_startproc
\tmovl %edi, %ecx
\tcmpl $1, %ecx
\tja done
\tleaq gtd_0_s(%rip), %rax
\tmovslq (%rax,%rcx,4), %rdx
\taddq %rdx, %rax
\tjmp dispatch
case1:
\tcmpl $3, %esi
\tmovl $11, %eax
\tjmp done
dispatch:
\tjmp *%rax
case0:
\tmovl $10, %eax
\tjmp done
case2:
\tmovl $12, %eax
\tjmp done
case3:
\tmovl $13, %eax
done:
\tret
\t.cfi_endproc
gtf_1_e:
gtd_0_s:
\t.long case0 - gtd_0_s, case1 - gtd_0_s, case2 - gtd_0_s, case3 - gtd_0_s
""",
    # case1's lea becomes the last one before the entry read, so the
    # jump reads the second table
    "lea": EXIT_START + """\
gtf_1_s:
\t.cfi_startproc
\tmovl %edi, %ecx
\tcmpl $1, %ecx
\tja done
\tleaq gtd_0_s(%rip), %rax
\tjmp read
case1:
\tleaq gtd_1_s(%rip), %rax
\tmovl $11, %esi
\tjmp done
read:
\tmovslq (%rax,%rcx,4), %rdx
\taddq %rdx, %rax
\tjmp *%rax
case0:
\tmovl $10, %eax
\tjmp done
inner0:
\tmovl $20, %eax
\tjmp done
inner1:
\tmovl $21, %eax
done:
\tret
\t.cfi_endproc
gtf_1_e:
gtd_0_s:
\t.long case0 - gtd_0_s, case1 - gtd_0_s
gtd_1_s:
\t.long inner0 - gtd_1_s, inner1 - gtd_1_s
""",
    # the first function's second lea loads the address of the second
    # function's case_x, which reads as a table of targets outside the
    # image until the second switch commits it; the first function's
    # own table is read then.  The 256-byte alignment keeps each
    # function's cases out of the other's window
    "lea-target": EXIT_START + """\
gtf_1_s:
\t.cfi_startproc
\tmovl %edi, %ecx
\tcmpl $1, %ecx
\tja done
\tleaq gtd_0_s(%rip), %rax
\tleaq case_x(%rip), %rsi
\tmovslq (%rax,%rcx,4), %rdx
\taddq %rdx, %rax
\tjmp *%rax
case0:
\tmovl $10, %eax
\tjmp done
case1:
\tmovl $11, %eax
done:
\tret
\t.cfi_endproc
gtf_1_e:
gtd_0_s:
\t.long case0 - gtd_0_s, case1 - gtd_0_s
\t.balign 256
gtf_2_s:
\t.cfi_startproc
\tmovl %edi, %ecx
\tcmpl $1, %ecx
\tja done2
\tleaq gtd_2_s(%rip), %rax
\tmovslq (%rax,%rcx,4), %rdx
\taddq %rdx, %rax
\tjmp *%rax
c2_0:
\tmovl $20, %eax
\tjmp done2
case_x:
\tmovabsq $0x7f7f, %rax
done2:
\tret
\t.cfi_endproc
gtf_2_e:
gtd_2_s:
\t.long c2_0 - gtd_2_s, case_x - gtd_2_s
""",
    # the second table's case1 is an indirect jump, first in its stretch
    # and 160 nop bytes before the second jump's window: only the new
    # jump tells that the first table is read now
    "jump": EXIT_START + """\
gtf_1_s:
\t.cfi_startproc
\tmovl %edi, %ecx
\tcmpl $1, %ecx
\tja done
\tleaq gtd_0_s(%rip), %rdx
\tmovslq (%rdx,%rcx,4), %rsi
\taddq %rsi, %rdx
\tjmp second
case1:
\tjmp *%rdx
second:
\t.fill 160, 1, 0x90
\tcmpl $1, %ecx
\tja done
\tleaq gtd_1_s(%rip), %rax
\tmovslq (%rax,%rcx,4), %r8
\taddq %r8, %rax
\tjmp *%rax
case0:
\tmovl $10, %eax
\tjmp done
inner0:
\tmovl $20, %eax
\tjmp done
inner1:
\tmovl $21, %eax
done:
\tret
\t.cfi_endproc
gtf_1_e:
gtd_0_s:
\t.long inner0 - gtd_0_s, inner1 - gtd_0_s
gtd_1_s:
\t.long case0 - gtd_1_s, case1 - gtd_1_s
""",
}


@pytest.mark.parametrize("kind, rounds", [("bound", [2, 4]),
                                          ("lea", [2, 2]),
                                          ("lea-target", [2, 4]),
                                          ("jump", [2, 4])])
def test_table_read_changed_by_a_commit(monkeypatch, tmp_path, kind,
                                        rounds):
    require_tool(*CORPUS_TOOLS)
    entry = build_program(LATE_TABLE_READS[kind], tmp_path, kind)
    image = load_elf(entry.binary.read_bytes())
    calls = count_jump_table_calls(monkeypatch)
    report = compute_superset(image)
    assert [len(targets) for targets in calls] == rounds
    # the second call proposes targets the first did not, and commits
    # them: without it the report would differ
    later = set(calls[1]) - set(calls[0])
    assert later
    assert {ep.vaddr for ep in report.entry_points
            if ep.source == "jump_table"} >= later
    assert report.code.intersection_size(
        load_ground_truth(entry.ground_truth)) == 0
    assert report == reference_compute_superset(image)
    # detect_entry_points commits nothing: one finder call
    calls.clear()
    detect_entry_points(image, report.superset, report.code,
                        report.instructions)
    assert len(calls) == 1


@pytest.mark.parametrize("stretch, changes", [
    ((0x1000, 0x1001), False),
    ((0x1000 - 8, 0x2000 - 160), False),    # ends where the window starts
    ((0x1000 - 8, 0x2000 - 159), True),
    ((0x2000 - 1, 0x2000), True),           # the window's last byte
    ((0x2000, 0x2008), False),              # the jump itself
    ((0x3000 - 8, 0x3000), False),          # ends at a lea target
    ((0x3000 - 8, 0x3001), True),
    ((0x3003, 0x3004), True),               # its fourth byte
    ((0x3004, 0x3010), False),
])
def test_changes_table_reads(stretch, changes):
    # a jump at 0x2000, and a lea (and a movsxd) record targeting 0x3000
    cache = {0x1f00: (7, None, None, 0x3000, (0x8D,), 0x05, None),
             0x1f10: (4, None, None, 0x5000, (0x63,), 0x04, None)}
    assert disasm._changes_table_reads([stretch], [0x2000],
                                       cache) is changes
    assert disasm._changes_table_reads([(0x10, 0x20), stretch],
                                       [0x800, 0x2000], cache) is changes


# The program entry dispatches through a table of two cases; the
# second case also starts an FDE.
ENTRY_SWITCH = """\
\t.text
\t.globl _start
\t.p2align 4
gtf_0_s:
_start:
\tmovl %edi, %ecx
\tcmpl $1, %ecx
\tja done
\tleaq gtd_0_s(%rip), %rax
\tmovslq (%rax,%rcx,4), %rdx
\taddq %rdx, %rax
\tjmp *%rax
case0:
\tmovl $60, %eax
\txorl %edi, %edi
\tsyscall
\tud2
case1:
\t.cfi_startproc
\tmovl $1, %eax
done:
\tret
\t.cfi_endproc
gtf_0_e:
gtd_0_s:
\t.long case0 - gtd_0_s, case1 - gtd_0_s
gtd_0_e:
"""


def test_entry_switch_case_with_fde_is_frame_unwind(tmp_path):
    # the table is read only once the image-only sources have run, so
    # the case that starts an FDE is frame_unwind's, the other the table's
    require_tool(*CORPUS_TOOLS)
    entry = build_program(ENTRY_SWITCH, tmp_path, "entry_switch")
    image = load_elf(entry.binary.read_bytes())
    report = compute_superset(image)
    gt_data = load_ground_truth(entry.ground_truth)
    *_, (table, end) = gt_data.pairs()
    assert end - table == 8
    case0, case1 = (table + rel for rel in struct.unpack(
        "<2i", image.read_vaddr(table, 8)))
    assert [(ep.source, ep.vaddr) for ep in report.entry_points] == [
        ("program_entry", image.entry_point), ("frame_unwind", case1),
        ("jump_table", case0)]
    assert report.code.intersection_size(gt_data) == 0
    assert report == reference_compute_superset(image)


# A .init_array entry points into .rodata, at bytes that decode to
# nop; ret.  Linked without separate code, .rodata shares the R+X
# segment with .text.
RODATA_POINTER = """\
\t.text
\t.globl _start
_start:
\tmovl $60, %eax
\txorl %edi, %edi
\tsyscall
\tud2
\t.section .rodata
\t.p2align 4
fake:
\tnop
\tret
\t.section .init_array, "aw"
\t.p2align 3
\t.quad fake
"""


def test_data_section_in_code_segment_stays_data(tmp_path):
    require_tool("gcc")
    src = tmp_path / "rodata_pointer.s"
    src.write_text(RODATA_POINTER)
    binary = tmp_path / "rodata_pointer"
    subprocess.run(["gcc", "-nostdlib", "-static", "-no-pie",
                    "-Wl,-z,noseparate-code", "-o", str(binary), str(src)],
                   check=True, capture_output=True)
    image = load_elf(binary.read_bytes())
    rodata = image.section_by_name(".rodata")
    exec_ranges = executable_ranges(image)
    assert exec_ranges.contains_range(rodata.vaddr, rodata.size)
    assert traverse_from(image, rodata.vaddr, exec_ranges) is not None
    report = compute_superset(image)
    assert report.entry_points == [
        EntryPoint(image.entry_point, "program_entry")]
    assert report.superset.contains_range(rodata.vaddr, rodata.size)


# A .rodata word that points 2 bytes into _start's movabs, inside its
# immediate.
RODATA_WORD = """\
\t.text
\t.globl _start
_start:
\tmovabsq $0x1122334455667788, %rax
\tmovl $60, %eax
\txorl %edi, %edi
\tsyscall
\t.section .rodata
\t.p2align 3
\t.quad _start + 2
"""


def test_rodata_word_proposes_only_in_exec_image(tmp_path):
    # linked as ET_EXEC, the word is an address: address_taken proposes
    # it.  The same image marked ET_DYN has no relocation for the word,
    # so it is a coincidence and proposes nothing
    require_tool("gcc")
    src = tmp_path / "rodata_word.s"
    src.write_text(RODATA_WORD)
    binary = tmp_path / "rodata_word"
    subprocess.run(["gcc", "-nostdlib", "-static", "-no-pie", "-o",
                    str(binary), str(src)], check=True, capture_output=True)
    data = binary.read_bytes()
    assert struct.unpack_from("<H", data, 16) == (2,)          # ET_EXEC
    pie = data[:16] + struct.pack("<H", 3) + data[18:]
    for data, proposed in ((data, True), (pie, False)):
        image = load_elf(data)
        mid = image.entry_point + 2
        rodata = image.section_by_name(".rodata").data(image.raw)
        assert struct.unpack_from("<Q", rodata) == (mid,)
        exec_ranges = executable_ranges(image)
        targets = disasm._address_taken_targets(image, exec_ranges)
        assert targets == reference_address_taken_targets(image)
        assert (mid in targets) is proposed
        eps = detect_entry_points(image, exec_ranges, IntervalSet(), {})
        assert (EntryPoint(mid, "address_taken") in eps) is proposed


LLVM_BIN = "/usr/lib/llvm-14/bin"


@pytest.mark.parametrize("name, objdump_starts", [("llvm-tblgen", True),
                                                  ("obj2yaml", False),
                                                  ("FileCheck", False),
                                                  ("yaml2obj", False)])
def test_llvm_jump_table_entries(name, objdump_starts):
    # LLVM's .rodata shares the R+X segment with .text, so its tables
    # and pointer tables are in the superset.  llvm-tblgen had entries
    # inside instructions (a table bounded by an earlier cmp r13d, 0x100
    # where cmp cl, 5 came after the lea), obj2yaml entries in .rodata
    # (pointer tables read with the bound of the jump's own table).
    # obj2yaml, FileCheck and yaml2obj committed .rodata bytes as code
    # from address_taken values that point into it
    path = os.path.join(LLVM_BIN, name)
    if not os.path.exists(path):
        pytest.skip("%s not available" % path)
    with open(path, "rb") as fh:
        image = load_elf(fh.read())
    report = compute_superset(image)
    entries = {ep.vaddr for ep in report.entry_points
               if ep.source == "jump_table"}
    assert entries
    code = IntervalSet.from_pairs(
        [(sec.vaddr, sec.vaddr + sec.size) for sec in image.sections
         if sec.flags & 0x4 and sec.size])                # SHF_EXECINSTR
    assert [va for va in sorted(entries) if va not in code] == []
    assert report.code.intersection_size(code) == report.code.total_bytes
    if objdump_starts:
        require_tool("objdump")
        out = subprocess.run(["objdump", "-d", "--no-show-raw-insn", path],
                             capture_output=True, check=True).stdout
        starts = {int(m, 16) for m in re.findall(rb"(?m)^ *([0-9a-f]+):\t",
                                                 out)}
        assert sorted(entries - starts) == []

