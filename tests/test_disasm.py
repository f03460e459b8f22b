import os
import re
import subprocess

import pytest

from pxom import disasm, x86
from pxom.corpus import build_corpus, load_ground_truth
from pxom.disasm import (_JUMP_TABLE_WINDOW, _ExecView, _jump_table_targets,
                         _linear_decode, _traverse, compute_superset,
                         decode_at, detect_entry_points,
                         recursive_disassemble)
from pxom.errors import EntryNotInSuperset, NoExecutableCode, OutOfRange
from pxom.image import executable_ranges, load_elf
from pxom.intervals import IntervalSet

from conftest import exec_elf, make_elf, require_tool
from oracle_disasm import reference_jump_table_targets, reference_traverse

LS = "/usr/bin/ls"


def read_ls():
    if not os.path.exists(LS):
        pytest.skip("%s not available" % LS)
    with open(LS, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def corpus20(tmp_path_factory):
    require_tool("gcc")
    return build_corpus(tmp_path_factory.mktemp("corpus20"), count=20, seed=5)


def image_of(code, vaddr=0x1000, entry=None):
    return load_elf(exec_elf(code, vaddr=vaddr, entry=entry))


class TestDecodeAt:
    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            decode_at(image_of(b"\xc3"), 0x9000)

    def test_decodes(self):
        ins = decode_at(image_of(b"\xc3"), 0x1000)
        assert ins.length == 1

    def test_invalid_at_range_end(self):
        assert decode_at(image_of(b"\x90\xff"), 0x1001) is None


class TestRecursiveDisassemble:
    def test_single_ret(self):
        image = image_of(b"\xc3")
        code = recursive_disassemble(image, 0x1000, executable_ranges(image))
        assert [(iv.start, iv.end) for iv in code] == [(0x1000, 0x1001)]

    def test_jump_over_data(self):
        image = image_of(b"\xeb\x02\xde\xad\xc3")
        code = recursive_disassemble(image, 0x1000, executable_ranges(image))
        assert [(iv.start, iv.end) for iv in code] == \
            [(0x1000, 0x1002), (0x1004, 0x1005)]

    def test_entry_not_in_superset(self):
        image = image_of(b"\xc3\xc3")
        superset = IntervalSet.from_pairs([(0x1001, 0x1002)])
        with pytest.raises(EntryNotInSuperset):
            recursive_disassemble(image, 0x1000, superset)

    def test_conditional_covers_both_arms(self):
        # jz +1; nop; ret
        image = image_of(b"\x74\x01\x90\xc3")
        code = recursive_disassemble(image, 0x1000, executable_ranges(image))
        assert code.total_bytes == 4

    def test_stops_at_indirect_jump(self):
        image = image_of(b"\xff\xe0\xde\xad")
        code = recursive_disassemble(image, 0x1000, executable_ranges(image))
        assert code.total_bytes == 2

    def test_invalid_decode_aborts_path_only(self):
        # call +5 reaches a ret; fallthrough hits an invalid byte
        image = image_of(b"\xe8\x01\x00\x00\x00\x06\xc3")
        code = recursive_disassemble(image, 0x1000, executable_ranges(image))
        assert code.total_bytes == 6  # call + ret, invalid byte unclaimed


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
        total = report.code.copy()
        for iv in report.superset:
            total.add(iv.start, iv.end)
        assert total == executable_ranges(image)
        assert report.code.intersection_size(report.superset) == 0

    def test_no_exec_segment(self):
        image = load_elf(make_elf([(0x1000, 4, b"\x00" * 16)]))
        with pytest.raises(NoExecutableCode):
            compute_superset(image)

    def test_deterministic(self, corpus):
        data = corpus[0].binary.read_bytes()
        r1 = compute_superset(load_elf(data))
        r2 = compute_superset(load_elf(data))
        assert r1.code == r2.code and r1.superset == r2.superset
        assert r1.entry_points == r2.entry_points

    def test_corpus_soundness_and_partition(self, corpus):
        for entry in corpus:
            image = load_elf(entry.binary.read_bytes())
            report = compute_superset(image)
            gt_data = load_ground_truth(entry.ground_truth)
            assert report.code.intersection_size(gt_data) == 0
            union = report.code.copy()
            for iv in report.superset:
                union.add(iv.start, iv.end)
            assert union == executable_ranges(image)

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
        objdump_bytes = IntervalSet()
        for line in out.splitlines():
            m = re.match(r"\s+([0-9a-f]+):\s+((?:[0-9a-f]{2} )+)", line)
            if m:
                addr = int(m.group(1), 16)
                objdump_bytes.add(addr, addr + len(m.group(2).split()))
        # every byte we identified as code is also swept by objdump
        assert report.code.intersection_size(objdump_bytes) == \
            report.code.total_bytes


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
            eps = detect_entry_points(image, superset, IntervalSet())
            got = {ep.vaddr for ep in eps if ep.source == "frame_unwind"}
            assert got == expected
            return
        pytest.skip("corpus sample contained no FDEs")

    def test_degrades_without_metadata(self):
        # stripped-down image: no sections at all, no entry point match
        image = image_of(b"\xaa" * 64, entry=0x1000)
        superset = executable_ranges(image)
        eps = detect_entry_points(image, superset, IntervalSet())
        assert all(ep.source == "heuristic" for ep in eps)

    def test_heuristic_prologue_at_aligned_address(self):
        # 16 bytes of data, then push rbp; mov rbp,rsp; ret at 0x1010
        code = b"\xaa" * 16 + b"\x55\x48\x89\xe5\x5d\xc3"
        image = image_of(code, entry=None)
        superset = executable_ranges(image)
        eps = detect_entry_points(image, superset, IntervalSet())
        assert any(ep.vaddr == 0x1010 and ep.source == "heuristic"
                   for ep in eps)

    def test_candidates_inside_superset_or_code(self, corpus):
        image = load_elf(corpus[0].binary.read_bytes())
        superset = executable_ranges(image)
        for ep in detect_entry_points(image, superset, IntervalSet()):
            assert superset.contains_range(ep.vaddr, 1)


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
    union = IntervalSet()
    for ins in insns.values():
        union.add(ins.vaddr, ins.end)
    return union


def reachable_code(view, entry, superset):
    """Reference for lenient traversal: every instruction reachable from
    entry that decodes and lies inside the superset, as intervals."""
    code = IntervalSet()
    seen = set()
    todo = [entry]
    while todo:
        va = todo.pop()
        if va in seen or not superset.contains_range(va, 1):
            continue
        seen.add(va)
        ins = view.decode(va)
        if ins is None or not superset.contains_range(va, ins.length):
            continue
        code.add(va, ins.end)
        if ins.kind in (x86.DIRECT_JUMP, x86.CONDITIONAL_JUMP,
                        x86.DIRECT_CALL):
            todo.extend(ins.direct_targets)
        if ins.kind in (x86.FALLTHROUGH, x86.CONDITIONAL_JUMP,
                        x86.DIRECT_CALL):
            todo.append(ins.end)
    return code


def check_traversals(image, starts_per_superset=200):
    """_traverse claims exactly its instructions, strict and lenient:
    from the entry points of a fresh superset, and from the block starts
    of the superset left after compute_superset."""
    view = _ExecView(image)
    fresh = executable_ranges(image)
    report = compute_superset(image)
    entry = image.entry_point
    if fresh.contains_range(entry, 1):
        claimed, insns, ok = _traverse(view, entry, fresh, frozenset(),
                                       strict=False)
        assert ok and claimed == union_of(insns)
        assert (claimed, insns, ok) == reference_traverse(
            view, entry, fresh, frozenset(), strict=False)
        assert recursive_disassemble(image, entry, fresh, view) == \
            reachable_code(view, entry, fresh)
    outcomes = set()
    eps = detect_entry_points(image, fresh, IntervalSet())
    for superset, committed, starts in (
            (fresh, frozenset(), [ep.vaddr for ep in eps]),
            (report.superset, set(report.instructions),
             [iv.start for iv in report.superset])):
        for va in starts[:starts_per_superset]:
            for strict in (True, False):
                claimed, insns, ok = _traverse(view, va, superset,
                                               committed, strict)
                assert claimed == union_of(insns)
                assert (claimed, insns, ok) == reference_traverse(
                    view, va, superset, committed, strict)
                outcomes.add((strict, ok))
                if not strict:
                    assert claimed == reachable_code(view, va, superset)
    return outcomes


class TestTraverse:
    def test_claimed_is_union_of_insns_on_corpus(self, corpus):
        outcomes = set()
        for entry in corpus:
            outcomes |= check_traversals(load_elf(entry.binary.read_bytes()))
        assert (True, True) in outcomes and (True, False) in outcomes

    def test_claimed_is_union_of_insns_on_ls(self):
        outcomes = check_traversals(load_elf(read_ls()), 30)
        assert (True, True) in outcomes and (True, False) in outcomes

    def test_strict_fails_mid_committed_instruction(self):
        # 0x1003 starts a committed 2-byte jmp: jz +1 lands on its start,
        # jz +2 in its middle
        superset = IntervalSet.from_pairs([(0x1000, 0x1003)])
        for jz, strict_ok in ((b"\x74\x01", True), (b"\x74\x02", False)):
            view = _ExecView(image_of(jz + b"\x90\xeb\xfe\xc3"))
            for strict in (True, False):
                _, insns, ok = _traverse(view, 0x1000, superset, {0x1003},
                                         strict)
                assert sorted(insns) == [0x1000, 0x1002]
                assert ok == (strict_ok or not strict)

    # code at 0x1000; superset runs; committed starts; instruction starts
    # claimed; strict outcome
    @pytest.mark.parametrize("code, runs, committed, starts, strict_ok", [
        # mov rbp, rsp at 0x1002 straddles the run end at 0x1003
        (b"\x90\x90\x48\x89\xe5\xc3", [(0x1000, 0x1003)], (),
         [0x1000, 0x1001], False),
        # jmp +2 from one run to the next, over two bytes outside both
        (b"\xeb\x02\xde\xad\x90\xc3", [(0x1000, 0x1002), (0x1004, 0x1006)],
         (), [0x1000, 0x1004, 0x1005], True),
        # jz +1 and its fall-through reach a committed start
        (b"\x74\x01\x90\xeb\xfe\xc3", [(0x1000, 0x1003)], (0x1003,),
         [0x1000, 0x1002], True),
        # jz +2 lands in the middle of a committed instruction
        (b"\x74\x02\x90\xeb\xfe\xc3", [(0x1000, 0x1003)], (0x1003,),
         [0x1000, 0x1002], False),
        # falls through past the end of the executable range
        (b"\x90\x90", None, (), [0x1000, 0x1001], False),
        # mov rbp, rsp cut off by the end of the executable range
        (b"\x90\x48\x89", None, (), [0x1000], False),
    ], ids=["straddles-run-end", "run-to-run", "committed-start",
            "mid-committed", "off-exec-range", "cut-by-exec-end"])
    def test_edges_match_reference(self, code, runs, committed, starts,
                                   strict_ok):
        image = image_of(code)
        view = _ExecView(image)
        superset = (executable_ranges(image) if runs is None
                    else IntervalSet.from_pairs(runs))
        for strict in (True, False):
            result = _traverse(view, 0x1000, superset, set(committed), strict)
            assert result == reference_traverse(view, 0x1000, superset,
                                                set(committed), strict)
            claimed, insns, ok = result
            assert sorted(insns) == starts
            assert ok == (strict_ok or not strict)

    def test_compute_superset_equals_reference_traversal(self, monkeypatch,
                                                         corpus20):
        datas = [e.binary.read_bytes() for e in corpus20]
        if os.path.exists(LS):
            datas.append(read_ls())
        reports = [compute_superset(load_elf(d)) for d in datas]
        monkeypatch.setattr(disasm, "_traverse", reference_traverse)
        for data, report in zip(datas, reports):
            assert compute_superset(load_elf(data)) == report


def jump_table_image(cmp_at, jmp_at, lea_at):
    """cmp eax, 3 at cmp_at; lea rax, [rip + table] at lea_at; jmp rax at
    jmp_at; then a rel32 table of six executable targets and one entry
    that leaves the image.  Returns (image, insn_list)."""
    code = bytearray(b"\x90" * (jmp_at + 3))
    code[cmp_at:cmp_at + 3] = b"\x83\xf8\x03"
    code[jmp_at:jmp_at + 3] = b"\xff\xe0\xc3"
    code += b"\x00" * (-len(code) % 8)
    table = 0x1000 + len(code)
    code[lea_at:lea_at + 7] = b"\x48\x8d\x05" + (
        table - (0x1000 + lea_at + 7)).to_bytes(4, "little", signed=True)
    for k in range(6):
        code += (0x1000 + k - table).to_bytes(4, "little", signed=True)
    code += (0x7FFFFFFF).to_bytes(4, "little")
    image = image_of(bytes(code))
    view = _ExecView(image)
    insns = _linear_decode(view, IntervalSet.from_pairs(
        [(0x1000, 0x1000 + jmp_at + 3)]))
    return image, [insns[va] for va in sorted(insns)]


class TestJumpTable:
    LEA = 40

    @pytest.mark.parametrize("cmp_at, jmp_at, found", [
        (LEA - 32, LEA + _JUMP_TABLE_WINDOW, 4),       # bounded by cmp
        (LEA - 33, LEA + _JUMP_TABLE_WINDOW, 6),       # cmp out of reach
        (LEA - 32, LEA + _JUMP_TABLE_WINDOW + 1, 0),   # jmp out of reach
    ])
    def test_search_window_edges(self, cmp_at, jmp_at, found):
        image, insn_list = jump_table_image(cmp_at, jmp_at, self.LEA)
        view = _ExecView(image)
        superset = executable_ranges(image)
        targets = _jump_table_targets(image, view, superset, insn_list)
        assert targets == [0x1000 + k for k in range(found)]
        assert targets == reference_jump_table_targets(image, view, superset,
                                                       insn_list)

    def test_equals_linear_search_on_corpus(self, corpus20):
        found = 0
        for entry in corpus20:
            image = load_elf(entry.binary.read_bytes())
            report = compute_superset(image)
            view = _ExecView(image)
            insn_list = [report.instructions[va]
                         for va in sorted(report.instructions)]
            for superset in (executable_ranges(image), report.superset):
                targets = _jump_table_targets(image, view, superset,
                                              insn_list)
                assert targets == reference_jump_table_targets(
                    image, view, superset, insn_list)
                found += len(targets)
        assert found
