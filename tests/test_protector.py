import pytest

from pxom.blocks import EmbeddedDataBlock, XomLists
from pxom.disasm import compute_superset
from pxom.errors import SectionExists
from pxom.image import (executable_ranges, is_xom_enabled, load_elf,
                        parse_xom_section)
from pxom.intervals import IntervalSet
from pxom.protector import (STATIC_REF_THRESHOLD, build_lists,
                            count_static_refs, protect_binary)

from conftest import exec_elf


def asm_image(code, vaddr=0x1000):
    return load_elf(exec_elf(code, vaddr=vaddr))


class TestCountStaticRefs:
    def test_two_lea_references(self):
        # two lea rsi,[rip+disp] pointing at a trailing data island, then ret
        lea = b"\x48\x8d\x35"
        code = (lea + (9).to_bytes(4, "little")        # -> 0x1010
                + lea + (2).to_bytes(4, "little")      # -> 0x1010
                + b"\xc3"
                + b"\xaa" * 8)
        image = asm_image(code)
        report = compute_superset(image)
        assert list(report.superset.pairs()) == [(0x100f, 0x1017)]
        assert count_static_refs(report) == [2]

    def test_unreferenced_island(self):
        image = asm_image(b"\xc3" + b"\xaa" * 8)
        report = compute_superset(image)
        assert count_static_refs(report) == [0]

    def test_indexed_accesses_not_counted(self):
        # one lea ref + three register-indexed reads: only the lea counts
        code = (b"\x48\x8d\x05" + (10).to_bytes(4, "little")  # lea rax,[rip+10]
                + b"\x8b\x14\x88"                             # mov edx,[rax+rcx*4]
                + b"\x8b\x14\x88"
                + b"\x8b\x14\x88"
                + b"\xc3"
                + b"\xaa" * 12)
        image = asm_image(code)
        report = compute_superset(image)
        assert list(report.superset.pairs()) == [(0x1011, 0x101d)]
        assert count_static_refs(report) == [1]

    # lea rsi,[rip+disp] at 0x1000, a jmp over the island [0x1009,
    # 0x1011), a ret at 0x1011: the reference counts only in the island
    @pytest.mark.parametrize("target, count", [
        (0x1009, 1), (0x1010, 1), (0x1011, 0), (0x1008, 0)],
        ids=["first-byte", "last-byte", "past-end", "before-start"])
    def test_rip_relative_at_block_edges(self, target, count):
        disp = (target - 0x1007).to_bytes(4, "little", signed=True)
        code = b"\x48\x8d\x35" + disp + b"\xeb\x08" + b"\xaa" * 8 + b"\xc3"
        report = compute_superset(asm_image(code))
        assert list(report.superset.pairs()) == [(0x1009, 0x1011)]
        assert count_static_refs(report) == [count]

    def test_moffs_absolute_reference(self):
        # mov eax, [0x100c] (A1 moffs64); ret; the island [0x100a, 0x1012)
        code = b"\xa1" + (0x100c).to_bytes(8, "little") + b"\xc3" + b"\xaa" * 8
        report = compute_superset(asm_image(code))
        assert list(report.superset.pairs()) == [(0x100a, 0x1012)]
        assert count_static_refs(report) == [1]

    def test_one_count_per_block_in_start_order(self):
        # lea rsi,[rip+5] to the second of two islands, which a ret splits
        code = (b"\x48\x8d\x35" + (5).to_bytes(4, "little")
                + b"\xeb\x02" + b"\xaa\xaa" + b"\xc3" + b"\xaa" * 4)
        report = compute_superset(asm_image(code))
        assert list(report.superset.pairs()) == [(0x1009, 0x100b),
                                                 (0x100c, 0x1010)]
        assert count_static_refs(report) == [0, 1]


def _report_with_blocks(counts):
    superset = IntervalSet.from_pairs(
        (0x1000 + i * 0x20, 0x1010 + i * 0x20) for i in range(len(counts)))

    class R:
        pass

    r = R()
    r.superset = superset
    return r, list(counts)


class TestBuildLists:
    def test_threshold_is_strict(self):
        report, refs = _report_with_blocks([10, 11])
        lists = build_lists(report, refs)
        assert [b.static_ref_count for b in lists.regular] == [10]
        assert [b.static_ref_count for b in lists.optimization] == [11]

    def test_all_zero_counts(self):
        report, refs = _report_with_blocks([0, 0, 0])
        lists = build_lists(report, refs)
        assert lists.optimization == [] and len(lists.regular) == 3

    def test_empty_superset(self):
        report, refs = _report_with_blocks([])
        lists = build_lists(report, refs)
        assert lists.regular == [] and lists.optimization == []

    def test_sorted_by_start(self):
        report, refs = _report_with_blocks([1, 20, 2, 15])
        lists = build_lists(report, refs)
        for blocks in (lists.regular, lists.optimization):
            starts = [b.interval.start for b in blocks]
            assert starts == sorted(starts)


class TestProtectBinary:
    def test_protect_sets_flag_and_section(self, corpus):
        data = corpus[0].binary.read_bytes()
        out = load_elf(protect_binary(data))
        assert is_xom_enabled(out)
        parse_xom_section(out)

    def test_code_bytes_unmodified(self, corpus):
        data = corpus[0].binary.read_bytes()
        image = load_elf(data)
        out = load_elf(protect_binary(data))
        for iv in executable_ranges(image):
            assert out.read_vaddr(iv.start, len(iv)) == \
                image.read_vaddr(iv.start, len(iv))

    def test_double_protect_rejected(self, corpus):
        protected = protect_binary(corpus[0].binary.read_bytes())
        with pytest.raises(SectionExists):
            protect_binary(protected)

    def test_lists_partition_superset(self, corpus):
        for entry in corpus:
            data = entry.binary.read_bytes()
            out = load_elf(protect_binary(data))
            lists = parse_xom_section(out)
            # independent recomputation of the report
            report = compute_superset(load_elf(data))
            union = IntervalSet.from_pairs(
                (b.interval.start, b.interval.end) for b in lists.all_blocks())
            assert union == report.superset

    def test_threshold_end_to_end(self):
        # 11 direct refs to one island -> optimization list
        lea = b"\x48\x8d\x35"
        n = STATIC_REF_THRESHOLD + 1
        code = b""
        for i in range(n):
            disp = (n - 1 - i) * 7 + 1  # all point at the island start
            code += lea + disp.to_bytes(4, "little")
        code += b"\xc3" + b"\xaa" * 8
        out = load_elf(protect_binary(exec_elf(code)))
        lists = parse_xom_section(out)
        assert len(lists.optimization) == 1
        assert lists.optimization[0].static_ref_count == n
