import pytest

from pxom.blocks import EmbeddedDataBlock, XomLists
from pxom.errors import MonitorTerminated, TraceParse
from pxom.intervals import ByteInterval, IntervalSet
from pxom.monitor import (ALLOWED, DENIED, EXECUTE_ONLY, OUTSIDE_LISTS,
                          OVERLAPS_CODE, PROMOTION_THRESHOLD, ReadRequest,
                          new_monitor, parse_trace)


def lists_with(regular=(), optimization=()):
    mk = lambda triples: [EmbeddedDataBlock(ByteInterval(s, e), n)
                          for s, e, n in triples]
    return XomLists(regular=mk(regular), optimization=mk(optimization))


def one_block_monitor():
    return new_monitor(lists_with(regular=[(0x1000, 0x1010, 0)]),
                       IntervalSet.from_pairs([(0x1000, 0x2000)]))


class TestCheckRead:
    def test_whole_block(self):
        v = one_block_monitor().check_read(ReadRequest(0x1000, 16))
        assert v.outcome == ALLOWED and v.matched_block is not None

    def test_strict_subrange(self):
        v = one_block_monitor().check_read(ReadRequest(0x1004, 4))
        assert v.outcome == ALLOWED

    def test_crossing_block_end(self):
        v = one_block_monitor().check_read(ReadRequest(0x100C, 8))
        assert v.outcome == DENIED and v.reason == OVERLAPS_CODE
        assert not v.promoted

    def test_outside_lists(self):
        v = one_block_monitor().check_read(ReadRequest(0x1800, 8))
        assert v.outcome == DENIED and v.reason == OUTSIDE_LISTS

    def test_empty_lists_deny_everything(self):
        m = new_monitor(lists_with(),
                        IntervalSet.from_pairs([(0x1000, 0x2000)]))
        assert m.check_read(ReadRequest(0x1000, 1)).outcome == DENIED

    def test_adjacent_blocks_spanning_read_denied(self):
        m = new_monitor(lists_with(regular=[(0x1000, 0x1008, 0),
                                            (0x1008, 0x1010, 0)]))
        v = m.check_read(ReadRequest(0x1004, 8))
        assert v.outcome == DENIED

    def test_read_size_bounds(self):
        with pytest.raises(ValueError):
            ReadRequest(0x1000, 0)
        with pytest.raises(ValueError):
            ReadRequest(0x1000, 65)
        assert ReadRequest(0x1000, 64).size == 64


class TestPromotion:
    def test_promotion_on_101st_read(self):
        m = one_block_monitor()
        req = ReadRequest(0x1000, 8)
        for i in range(PROMOTION_THRESHOLD):
            v = m.check_read(req)
            assert v.outcome == ALLOWED and not v.promoted
        v = m.check_read(req)
        assert v.promoted
        assert len(m.lists.optimization) == 1 and m.lists.regular == []

    def test_optimization_first_after_promotion(self):
        m = one_block_monitor()
        req = ReadRequest(0x1000, 8)
        for _ in range(PROMOTION_THRESHOLD + 1):
            m.check_read(req)
        m.check_read(req)
        assert m.scan_log == ["optimization"]  # regular never scanned

    def test_promotion_preserves_partition(self):
        m = new_monitor(lists_with(regular=[(0x1000, 0x1008, 0),
                                            (0x1010, 0x1018, 0)]))
        before = sorted(b.interval for b in m.lists.all_blocks())
        for _ in range(PROMOTION_THRESHOLD + 1):
            m.check_read(ReadRequest(0x1010, 4))
        after = sorted(b.interval for b in m.lists.all_blocks())
        assert before == after
        assert len(m.lists.optimization) == 1

    def test_optimization_block_never_scans_regular(self):
        m = new_monitor(lists_with(regular=[(0x2000, 0x2008, 0)],
                                   optimization=[(0x1000, 0x1008, 20)]))
        m.check_read(ReadRequest(0x1000, 4))
        assert m.scan_log == ["optimization"]


class TestFaultFlow:
    def test_legal_read_transitions(self):
        m = one_block_monitor()
        ts = m.fault_flow(ReadRequest(0x1000, 8))
        assert [t.name for t in ts] == [
            "Fault", "LegalityCheck", "SetAllowReadFlag",
            "RestorePageReadable", "SingleStepExecute",
            "RevokePageExecuteOnly", "ClearAllowReadFlag"]
        assert not m.allow_read_flag
        assert all(state == EXECUTE_ONLY for state in m.page_state.values())

    def test_page_crossing_read_covers_both_pages(self):
        m = new_monitor(lists_with(regular=[(0xFF8, 0x1010, 0)]),
                        IntervalSet.from_pairs([(0x0, 0x2000)]))
        ts = m.fault_flow(ReadRequest(0xFFC, 8))
        assert [(t.name, t.detail) for t in ts[3:-1]] == [
            ("RestorePageReadable", "0x0"), ("RestorePageReadable", "0x1"),
            ("SingleStepExecute", ""),
            ("RevokePageExecuteOnly", "0x0"), ("RevokePageExecuteOnly", "0x1")]
        assert m.page_state == {0: EXECUTE_ONLY, 1: EXECUTE_ONLY}

    def test_illegal_read_transitions(self):
        m = one_block_monitor()
        ts = m.fault_flow(ReadRequest(0x1800, 8))
        assert [t.name for t in ts] == ["Fault", "LegalityCheck", "Terminate"]
        assert m.terminated

    def test_flag_false_between_flows(self):
        m = one_block_monitor()
        m.fault_flow(ReadRequest(0x1000, 8))
        assert not m.allow_read_flag
        m.fault_flow(ReadRequest(0x1004, 4))
        assert not m.allow_read_flag


class TestTermination:
    def test_absorbing_after_denied(self):
        m = one_block_monitor()
        m.check_read(ReadRequest(0x1800, 8))
        with pytest.raises(MonitorTerminated):
            m.check_read(ReadRequest(0x1000, 1))
        with pytest.raises(MonitorTerminated):
            m.fault_flow(ReadRequest(0x1000, 1))

    def test_forensic_record_present(self):
        m = one_block_monitor()
        m.check_read(ReadRequest(0x1800, 8))
        request, timestamp, snapshot = m.forensic_record
        assert request == ReadRequest(0x1800, 8)
        assert timestamp > 0
        assert snapshot.regular[0].interval == ByteInterval(0x1000, 0x1010)

    def test_forensic_snapshot_is_independent(self):
        m = one_block_monitor()
        m.check_read(ReadRequest(0x1800, 8))
        _req, _ts, snapshot = m.forensic_record
        assert snapshot is not m.lists


class TestTraces:
    def test_parse_grammar(self):
        events = parse_trace("# header\nR 0x1000 8\nI 3000000\n\nR 1004 4\n")
        assert events == [("R", 0x1000, 8), ("I", 3000000), ("R", 0x1004, 4)]

    def test_parse_error_carries_line(self):
        with pytest.raises(TraceParse) as exc:
            parse_trace("R 0x1000 8\nbogus line\n")
        assert exc.value.lineno == 2

    def test_read_intensity_from_trace(self):
        m = one_block_monitor()
        report = m.run_trace(parse_trace(
            "R 0x1000 8\nR 0x1002 2\nR 0x1004 4\nI 3000000\n"))
        assert report.allowed == 3
        assert report.read_intensity == pytest.approx(1e-6)

    def test_intensity_unreported_without_instruction_counts(self):
        m = one_block_monitor()
        report = m.run_trace(parse_trace("R 0x1000 8\n"))
        assert report.read_intensity is None

    def test_stops_at_first_denied(self):
        m = one_block_monitor()
        lines = ["R 0x1000 1"] * 2 + ["R 0x1f00 8"] + ["R 0x1000 1"] * 5
        report = m.run_trace(parse_trace("\n".join(lines)))
        assert report.allowed == 2 and report.denied == 1
        assert report.reads == 3  # trailing events unprocessed


class TestNewMonitor:
    def test_pages_cover_executable_ranges(self):
        m = new_monitor(lists_with(regular=[(0x1000, 0x1008, 0)]),
                        IntervalSet.from_pairs([(0x1000, 0x3000)]))
        assert set(m.page_state) == {1, 2}
        assert all(v == EXECUTE_ONLY for v in m.page_state.values())

    def test_read_counts_reset(self):
        lists = lists_with(regular=[(0x1000, 0x1008, 0)])
        lists.regular[0].read_count = 55
        m = new_monitor(lists)
        assert m.lists.regular[0].read_count == 0
