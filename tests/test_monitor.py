import random
import time
from collections import Counter

import pytest

from pxom.blocks import EmbeddedDataBlock, XomLists
from pxom.errors import InvariantViolation, MonitorTerminated, TraceParse
from pxom.intervals import ByteInterval, IntervalSet
from pxom import monitor
from pxom.monitor import (ALLOWED, DENIED, MAX_READ_SIZE, OUTSIDE_LISTS,
                          OVERLAPS_CODE, PAGE_SIZE, PROMOTION_THRESHOLD,
                          Monitor, ReadRequest, new_monitor, parse_trace)

from oracle_monitor import (EXECUTE_ONLY, ShadowPages, reference_new_monitor,
                            reference_parse_trace)


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

    @pytest.mark.parametrize("read", [(0x1000, 100), (0x1010, 0),
                                      (0x1010, -8)])
    def test_plain_tuple_size_outside_bounds_raises(self, read):
        m = new_monitor(lists_with(regular=[(0x1000, 0x1100, 0)]))
        for call in (m.check_read, m.fault_flow):
            with pytest.raises(ValueError):
                call(read)
        assert m.lists.regular[0].read_count == 0 and not m.terminated


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
        request = ReadRequest(0x1000, 8)
        verdict, ts = m.fault_flow(request)
        assert [t.name for t in ts] == [
            "Fault", "LegalityCheck", "SetAllowReadFlag",
            "RestorePageReadable", "SingleStepExecute",
            "RevokePageExecuteOnly", "ClearAllowReadFlag"]
        shadow = ShadowPages()
        shadow.replay(request, verdict, ts)
        assert shadow.pages == {1: EXECUTE_ONLY}

    def test_page_crossing_read_covers_both_pages(self):
        m = new_monitor(lists_with(regular=[(0xFF8, 0x1010, 0)]),
                        IntervalSet.from_pairs([(0x0, 0x2000)]))
        request = ReadRequest(0xFFC, 8)
        verdict, ts = m.fault_flow(request)
        assert [(t.name, t.detail) for t in ts[3:-1]] == [
            ("RestorePageReadable", "0x0"), ("RestorePageReadable", "0x1"),
            ("SingleStepExecute", ""),
            ("RevokePageExecuteOnly", "0x0"), ("RevokePageExecuteOnly", "0x1")]
        shadow = ShadowPages()
        shadow.replay(request, verdict, ts)
        assert shadow.pages == {0: EXECUTE_ONLY, 1: EXECUTE_ONLY}

    def test_illegal_read_transitions(self):
        m = one_block_monitor()
        _, ts = m.fault_flow(ReadRequest(0x1800, 8))
        assert [t.name for t in ts] == ["Fault", "LegalityCheck", "Terminate"]
        assert m.terminated

    def test_returns_promoting_verdict_on_101st_read(self):
        m = one_block_monitor()
        req = ReadRequest(0x1000, 8)
        for _ in range(PROMOTION_THRESHOLD):
            verdict, _ = m.fault_flow(req)
            assert verdict.outcome == ALLOWED and not verdict.promoted
        verdict, ts = m.fault_flow(req)
        assert verdict.outcome == ALLOWED and verdict.promoted
        assert verdict.matched_block is m.lists.optimization[0]
        assert ts[1] == ("LegalityCheck", "pass")

    def test_flag_false_between_flows(self):
        m = one_block_monitor()
        shadow = ShadowPages()
        for request in (ReadRequest(0x1000, 8), ReadRequest(0x1004, 4)):
            shadow.replay(request, *m.fault_flow(request))
            assert not shadow.flag


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

    @pytest.mark.parametrize("line", ["R 1000 0", "R 1000 65", "R -10 4",
                                      "I -5"])
    def test_out_of_range_values_carry_line(self, line):
        with pytest.raises(TraceParse) as exc:
            parse_trace("R 0x1000 64\nI 0\n%s\n" % line)
        assert exc.value.lineno == 3

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


class CountingMonitor(Monitor):
    """A Monitor that records every request fault_flow is given."""

    def __init__(self, lists, executable_ranges=None):
        super().__init__(lists, executable_ranges)
        self.requests = []

    def fault_flow(self, request):
        self.requests.append(request)
        return super().fault_flow(request)


class TestRunTraceContract:
    def test_each_read_goes_through_fault_flow_once(self):
        m = CountingMonitor(lists_with(regular=[(0x1000, 0x1010, 0)]))
        report = m.run_trace([("R", 0x1000, 8), ("I", 5), ("R", 0x1004, 4),
                              ("R", 0x100C, 8), ("R", 0x1000, 1)])
        assert m.requests == [(0x1000, 8), (0x1004, 4), (0x100C, 8)]
        assert report.reads == 3 and report.denied == 1

    @pytest.mark.parametrize("size", [0, MAX_READ_SIZE + 1])
    def test_read_size_outside_bounds_raises(self, size):
        m = CountingMonitor(lists_with(regular=[(0x1000, 0x1100, 0)]))
        with pytest.raises(ValueError):
            m.run_trace([("R", 0x1000, 4), ("R", 0x1000, size)])
        assert m.requests == [(0x1000, 4)]

    def test_denial_holds_a_read_request(self):
        report = one_block_monitor().run_trace([("R", 0x100C, 8)])
        request = report.denial[0]
        assert type(request) is ReadRequest
        assert (request.addr, request.size) == (0x100C, 8)

    def test_forensic_record_holds_a_read_request(self):
        m = one_block_monitor()
        assert m.check_read((0x1800, 8)).outcome == DENIED
        request = m.forensic_record[0]
        assert type(request) is ReadRequest
        assert (request.addr, request.size) == (0x1800, 8)


class TestNewMonitor:
    @pytest.mark.parametrize("end, ok", [(0x3000, True), (0x3001, False)])
    def test_blocks_checked_against_executable_ranges(self, end, ok):
        lists = lists_with(regular=[(0x1000, 0x1008, 0)],
                           optimization=[(0x2FF0, end, 20)])
        ranges = IntervalSet.from_pairs([(0x1000, 0x3000)])
        if ok:
            assert new_monitor(lists, ranges).lists is lists
        else:
            with pytest.raises(InvariantViolation, match="outside executable"):
                new_monitor(lists, ranges)

    def test_read_counts_reset(self):
        lists = lists_with(regular=[(0x1000, 0x1008, 0)])
        lists.regular[0].read_count = 55
        m = new_monitor(lists)
        assert m.lists.regular[0].read_count == 0

    def test_overlapping_lists_rejected(self):
        lists = lists_with(regular=[(0x1000, 0x1010, 0)],
                           optimization=[(0x100C, 0x1020, 20)])
        with pytest.raises(InvariantViolation):
            new_monitor(lists)


@pytest.mark.parametrize("first", ["regular", "optimization"])
@pytest.mark.parametrize("second", ["regular", "optimization"])
@pytest.mark.parametrize("end, ok", [(0x1010, True), (0x1011, False)])
def test_validate_touching_and_one_byte_overlap(first, second, end, ok):
    placed = {"regular": [], "optimization": []}
    placed[second].append((0x1010, 0x1020, 0))
    placed[first].append((0x1000, end, 0))
    lists = lists_with(**placed)
    if ok:
        assert lists.validate() is lists
    else:
        with pytest.raises(InvariantViolation, match="overlapping"):
            lists.validate()


def test_index_follows_list_changes():
    lists = lists_with(regular=[(0x1000, 0x1010, 0), (0x1020, 0x1030, 0)],
                       optimization=[(0x1040, 0x1050, 20)])
    lists.validate()
    lists.regular[1] = EmbeddedDataBlock(ByteInterval(0x1020, 0x1048), 0)
    with pytest.raises(InvariantViolation, match="overlapping"):
        new_monitor(lists)
    lists.regular[1] = EmbeddedDataBlock(ByteInterval(0x1020, 0x1040), 0)
    m = new_monitor(lists)
    assert m.check_read(ReadRequest(0x1038, 8)).matched_block \
        is lists.regular[1]


class BruteForceMonitor:
    """Per-byte block ids, read counts and a tier set; no index."""

    def __init__(self, regular, optimization, space):
        self.regular = list(range(len(regular)))
        self.optimization = list(range(len(regular),
                                       len(regular) + len(optimization)))
        self.intervals = list(regular) + list(optimization)
        self.owner = [-1] * (space + 64)
        for i, (start, end) in enumerate(self.intervals):
            for addr in range(start, end):
                self.owner[addr] = i
        self.reads = [0] * len(self.intervals)
        self.tier = set(self.optimization)

    def check(self, addr, size):
        """(outcome, reason, promoted, scan_log)"""
        ids = set(self.owner[addr:addr + size])
        if len(ids) != 1 or ids == {-1}:
            reason = OUTSIDE_LISTS if ids == {-1} else OVERLAPS_CODE
            return DENIED, reason, False, ["optimization", "regular"]
        (i,) = ids
        self.reads[i] += 1
        if i in self.tier:
            return ALLOWED, None, False, ["optimization"]
        promoted = self.reads[i] > PROMOTION_THRESHOLD
        if promoted:
            self.regular.remove(i)
            self.optimization.append(i)
            self.tier.add(i)
        return ALLOWED, None, promoted, ["optimization", "regular"]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_calls_match_model(self, seed):
        rng = random.Random(seed)
        space = 0x2000
        n = rng.randint(1, 24)
        points = sorted(rng.sample(range(space + 1), 2 * n))
        pairs = list(zip(points[::2], points[1::2]))
        rng.shuffle(pairs)
        split = rng.randint(1, len(pairs))
        regular, optimization = pairs[:split], pairs[split:]
        model = BruteForceMonitor(regular, optimization, space)
        m = new_monitor(lists_with(regular=[p + (0,) for p in regular],
                                   optimization=[p + (0,) for p in
                                                 optimization]))
        hot = rng.sample(regular, min(3, len(regular))) + optimization[:1]
        promotions = 0
        for _ in range(1500):
            if rng.random() < 0.8:
                start, end = rng.choice(hot)
                size = rng.randint(1, min(64, end - start))
                addr = rng.randint(start, end - size)
            else:
                addr, size = rng.randrange(space), rng.randint(1, 64)
            if rng.random() < 0.5:
                verdict = m.check_read(ReadRequest(addr, size))
            else:
                verdict, _ = m.fault_flow(ReadRequest(addr, size))
            expected = model.check(addr, size)
            assert (verdict.outcome, verdict.reason, verdict.promoted,
                    m.scan_log) == expected, (seed, addr, size)
            for name in ("regular", "optimization"):
                got = [(b.interval.start, b.interval.end, b.read_count)
                       for b in getattr(m.lists, name)]
                want = [model.intervals[i] + (model.reads[i],)
                        for i in getattr(model, name)]
                assert got == want, (seed, name)
            promotions += verdict.promoted
            if verdict.outcome == DENIED:
                m.terminated = False        # test-only revive
        assert promotions > 0


def _state(m):
    """What a monitor shows of its lists and flags."""
    return ([_rows(getattr(m.lists, name)) for name in LIST_NAMES],
            m.terminated, m.scan_log)


def _rows(blocks):
    return [(b.interval.start, b.interval.end, b.static_ref_count,
             b.read_count) for b in blocks]


LIST_NAMES = ("regular", "optimization")


def _compare_with_reference(seed, totals):
    rng = random.Random(seed)
    space = 0x3000
    n = rng.randint(1, 20)
    points = sorted(rng.sample(range(space + 1), 2 * n))
    pairs = list(zip(points[::2], points[1::2]))
    split = rng.randint(0, len(pairs))
    if seed % 2:
        rng.shuffle(pairs)      # an unsorted regular list
    triples = [p + (rng.randint(0, 20),) for p in pairs]
    regular, optimization = triples[:split], triples[split:]
    # no ranges, ranges that hold every block, and ranges that hold
    # half the space, which a monitor refuses when a block lies outside
    ranges = [None, IntervalSet.from_pairs([(0, space)]),
              IntervalSet.from_pairs([(0, space // 2)])][seed % 3]
    if seed % 3 == 2 and any(end > space // 2 for _, end, _ in triples):
        with pytest.raises(InvariantViolation, match="outside executable"):
            new_monitor(lists_with(regular, optimization), ranges)
        totals["outside ranges refused"] += 1
        ranges = None
    m = new_monitor(lists_with(regular, optimization), ranges)
    ref = reference_new_monitor(lists_with(regular, optimization), ranges)
    mine = {b.interval.start: b for b in m.lists.all_blocks()}
    hot = rng.sample(pairs, min(3, len(pairs)))
    denial = None           # (request, lists, earliest, latest stamp)
    for step in range(2000):
        where = (seed, step)
        if rng.random() < 0.85:
            start, end = rng.choice(hot)
            size = rng.randint(1, min(MAX_READ_SIZE, end - start))
            addr = rng.randint(start, end - size)
        else:
            addr = rng.randrange(space)
            size = rng.randint(1, MAX_READ_SIZE)
        request = ReadRequest(addr, size)
        call = rng.choice(("check_read", "fault_flow", "run_trace"))
        if denial is not None and rng.random() < 0.1:
            # the record describes the lists at denial, however many
            # reads the revived monitor has made since
            got_request, stamp, snapshot = m.forensic_record
            assert (got_request, [_rows(getattr(snapshot, name))
                                  for name in LIST_NAMES]) \
                == denial[:2], where
            assert denial[2] <= stamp <= denial[3], where
            totals["records read after later reads"] += not m.terminated
        if m.terminated:
            with pytest.raises(MonitorTerminated):
                getattr(m, call)(request if call != "run_trace"
                                 else [("R", addr, size)])
            m.terminated = ref.terminated = False     # test-only revive
            totals["revived"] += 1
            continue
        earliest = time.time()
        if call == "run_trace":
            events = [("I", rng.randrange(100)), ("R", addr, size)]
            got = m.run_trace(events)
            want = ref.run_trace(events)
            assert {k: getattr(got, k) for k in want} == want, where
            promoted = [b.interval.start for b in ref.lists.optimization]
            assert got.promoted == promoted[len(promoted) - got.promotions:]
            totals["promotions"] += got.promotions
        else:
            if call == "check_read":
                verdict = m.check_read(request)
                want_verdict = ref.check_read(request)
            else:
                verdict, transitions = m.fault_flow(request)
                want_verdict, want_transitions = ref.fault_flow(request)
                assert transitions == want_transitions, where
                if (verdict.outcome == ALLOWED and addr // PAGE_SIZE
                        != (addr + size - 1) // PAGE_SIZE):
                    totals["page-crossing reads"] += 1
            assert (verdict.outcome, verdict.promoted, verdict.reason) == (
                want_verdict.outcome, want_verdict.promoted,
                want_verdict.reason), where
            block = want_verdict.matched_block
            assert verdict.matched_block is (
                None if block is None else mine[block.interval.start]), where
            totals["promotions"] += verdict.promoted
        latest = time.time()
        assert _state(m) == _state(ref), where
        # the reference still models pages and the flag: a call ends
        # with every page execute-only and the flag clear
        assert set(ref.page_state.values()) <= {EXECUTE_ONLY}, where
        assert not ref.allow_read_flag, where
        if m.terminated:
            totals["denials"] += 1
            want_request, _, snapshot = ref.forensic_record
            denial = (want_request, [_rows(getattr(snapshot, name))
                                     for name in LIST_NAMES],
                      earliest, latest)
            if rng.random() < 0.3:
                m.forensic_record = ref.forensic_record = None
                denial = None
                assert m.forensic_record is None


def test_random_calls_match_reference():
    """Mixed check_read / fault_flow / run_trace calls against the
    reference monitor: verdicts, matched blocks, transitions, both lists
    with read counts, flags and forensic records."""
    totals = Counter()
    for seed in range(40):
        _compare_with_reference(seed, totals)
    for what in ("promotions", "denials", "revived", "page-crossing reads",
                 "records read after later reads", "outside ranges refused"):
        assert totals[what] > 0, (what, totals)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except TraceParse as exc:
        return type(exc), exc.lineno, str(exc)


def test_parse_trace_matches_reference(monkeypatch):
    """Events, or the error and its line, equal the reference parser's,
    for texts in canonical form and for texts that take the line parser."""
    line_parsed = []
    parse_lines = monitor._parse_lines

    def counted(text):
        line_parsed.append(text)
        return parse_lines(text)

    monkeypatch.setattr(monitor, "_parse_lines", counted)
    rng = random.Random(5)
    pieces = ["R", "I", "0x10", "1f", "-4", "+8", "1_0", "64", "65", "0",
              "zz", "#", "# c", "\t", "  ", "　", "١", "R 10 4",
              "I 7", "R 10 4 # x", "R 10 4#x", "I 3#", "",
              "R 10 04", "R 10 64", "R 10 65", "R 1F 4",
              "R %x 4" % (1 << 64), "I 0", "I 0007",
              "I " + "9" * 4400]     # past int()'s default digit limit
    canonical = 0
    for trial in range(3000):
        lines = [" ".join(rng.choice(pieces)
                          for _ in range(rng.randint(0, 4)))
                 for _ in range(rng.randint(0, 6))]
        sep = rng.choice(["\n", "\r\n", "\x0c"])
        text = sep.join(lines) + (sep if trial % 2 else "")
        calls = len(line_parsed)
        assert _parse_outcome(parse_trace, text) \
            == _parse_outcome(reference_parse_trace, text), repr(text)
        canonical += len(line_parsed) == calls
    assert canonical > 50, canonical


@pytest.mark.parametrize("text", [
    "R -4 8\n", "R +4 8\n", "R 1_0 8\n", "R 0x10 8\n", "R 10 +8\n",
    "R 10 8 \n", " R 10 8\n", "R  10 8\n", "I -5\n", "I +5\n", "I 1_0\n",
    "R 10 8\r\n", "# a\x0cR 10 4\n", "# a\rI 5\n", "# a\x85R 10 4\n",
    "# a\u2028I 3\n", "R 10 4\x0bI 2\n", "R 10 4\n\nI 2\n\n# end\n"])
def test_near_canonical_text_matches_reference(text):
    """Texts one character away from the canonical form: a sign, an
    underscore, a prefix, extra blanks or another line break."""
    assert _parse_outcome(parse_trace, text) \
        == _parse_outcome(reference_parse_trace, text)


def test_long_canonical_trace_matches_reference(monkeypatch):
    """A 13,500-line trace laid out as the benchmark writes them is read
    in one pass, to the reference parser's events."""
    rng = random.Random(11)
    lines = ["# benchmark-style trace: 12000 reads"]
    for i in range(12000):
        lines.append("R %x %d" % (rng.randrange(1 << 48),
                                  rng.randint(1, MAX_READ_SIZE)))
        if i % 8 == 7:
            lines.append("I %d" % rng.randint(1, 5000))
    text = "\n".join(lines) + "\n"
    assert len(lines) == 13501
    monkeypatch.setattr(monitor, "_parse_lines", None)   # not reached
    events = parse_trace(text)
    assert len(events) == 13500
    assert events == reference_parse_trace(text)


@pytest.mark.parametrize("addr, size, nearest", [
    (0x1000, 8, (0x1000, 0x1010)),      # contained
    (0x100C, 8, (0x1000, 0x1010)),      # runs off the end
    (0x0FFC, 8, (0x1000, 0x1010)),      # runs into the start
    (0x1012, 4, (0x1000, 0x1010)),      # 2 bytes after, 10 before the next
    (0x101C, 2, (0x1020, 0x1030)),      # 2 bytes before the next
    (0x1017, 2, (0x1000, 0x1010)),      # a tie goes to the lower block
    (0x0800, 4, (0x1000, 0x1010)),      # before every block
    (0x3000, 4, (0x1020, 0x1030)),      # after every block
])
def test_nearest_block(addr, size, nearest):
    m = new_monitor(lists_with(regular=[(0x1000, 0x1010, 0)],
                               optimization=[(0x1020, 0x1030, 20)]))
    block = m.nearest_block(addr, size)
    assert (block.interval.start, block.interval.end) == nearest


def test_nearest_block_without_blocks():
    assert new_monitor(lists_with()).nearest_block(0x1000, 4) is None
