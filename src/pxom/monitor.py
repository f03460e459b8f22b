"""Userspace simulation of the kernel-side read-legality enforcement.

A Monitor owns the two block lists, a page permission map, and the
allow-read flag.  Reads fully contained in one listed block are allowed
via an explicit restore / single-step / revoke flow; anything else
terminates the monitor and freezes a forensic record.
"""

import time
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass

from .blocks import EmbeddedDataBlock, XomLists
from .errors import MonitorTerminated, TraceParse

PAGE_SIZE = 4096
PROMOTION_THRESHOLD = 100    # reads beyond this promote a regular block
MAX_READ_SIZE = 64

EXECUTE_ONLY = "execute_only"
READABLE = "readable"

ALLOWED = "Allowed"
DENIED = "Denied"
OVERLAPS_CODE = "OverlapsCode"
OUTSIDE_LISTS = "OutsideLists"


@dataclass(frozen=True)
class ReadRequest:
    addr: int
    size: int

    def __post_init__(self):
        if not 1 <= self.size <= MAX_READ_SIZE:
            raise ValueError("read size %d outside 1..%d"
                             % (self.size, MAX_READ_SIZE))


@dataclass(frozen=True)
class Verdict:
    outcome: str
    matched_block: object = None
    promoted: bool = False
    reason: str = None


StateTransition = namedtuple("StateTransition", "name detail", defaults=("",))

_CHECK_PASS = StateTransition("LegalityCheck", "pass")
_CHECK_FAIL = StateTransition("LegalityCheck", "fail")
_SET_FLAG = StateTransition("SetAllowReadFlag")
_SINGLE_STEP = StateTransition("SingleStepExecute")
_CLEAR_FLAG = StateTransition("ClearAllowReadFlag")


@dataclass
class TraceReport:
    allowed: int = 0
    denied: int = 0
    promotions: int = 0
    reads: int = 0
    executed_instructions: int = 0
    read_intensity: float = None
    optimization_size: int = 0


def _pages(start, end):
    """Page numbers that the bytes [start, end) touch."""
    return range(start // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1)


def _snapshot(lists):
    """Frozen copy of both block lists for the forensic record."""
    def dup(blocks):
        return [EmbeddedDataBlock(b.interval, b.static_ref_count,
                                  b.read_count) for b in blocks]

    return XomLists(regular=dup(lists.regular),
                    optimization=dup(lists.optimization))


class Monitor:
    """Read monitor over disjoint block lists.

    One index sorted by start covers both lists, and a block's tier is
    whether its start is in `_optimized`.  The last block that starts at
    or before a read's last byte is the only one that can contain the
    read, and it overlaps the read exactly when some block does.
    """

    def __init__(self, lists, executable_ranges=None):
        lists.validate()
        self.lists = lists
        self.allow_read_flag = False
        self.terminated = False
        self.forensic_record = None
        self.scan_log = []
        ranges = executable_ranges
        if ranges is None:
            ranges = [b.interval for b in lists.all_blocks()]
        self.page_state = {page: EXECUTE_ONLY for iv in ranges
                           for page in _pages(iv.start, iv.end)}
        self._blocks = sorted(lists.all_blocks(),
                              key=lambda b: b.interval.start)
        self._starts = [b.interval.start for b in self._blocks]
        self._optimized = {b.interval.start for b in lists.optimization}

    def _require_live(self):
        if self.terminated:
            raise MonitorTerminated("monitor already terminated")

    def check_read(self, request):
        self._require_live()
        addr = request.addr
        i = bisect_right(self._starts, addr + request.size - 1) - 1
        block = self._blocks[i] if i >= 0 else None
        if block is None or not block.interval.contains(addr, request.size):
            self.scan_log = ["optimization", "regular"]
            overlaps = block is not None and addr < block.interval.end
            self.terminated = True
            self.forensic_record = (request, time.time(),
                                    _snapshot(self.lists))
            return Verdict(DENIED, reason=(OVERLAPS_CODE if overlaps
                                           else OUTSIDE_LISTS))
        block.read_count += 1
        start = block.interval.start
        if start in self._optimized:
            self.scan_log = ["optimization"]
            return Verdict(ALLOWED, matched_block=block)
        self.scan_log = ["optimization", "regular"]
        if block.read_count <= PROMOTION_THRESHOLD:
            return Verdict(ALLOWED, matched_block=block)
        regular = self.lists.regular
        del regular[next(j for j, b in enumerate(regular) if b is block)]
        self.lists.optimization.append(block)
        self._optimized.add(start)
        return Verdict(ALLOWED, matched_block=block, promoted=True)

    def fault_flow(self, request):
        """Transition sequence for one faulting read.

        Returns (verdict, transitions).
        """
        self._require_live()
        fault = StateTransition("Fault", "%#x+%d" % (request.addr,
                                                     request.size))
        verdict = self.check_read(request)
        if verdict.outcome == DENIED:
            return verdict, [fault, _CHECK_FAIL,
                             StateTransition("Terminate", verdict.reason)]
        transitions = [fault, _CHECK_PASS, _SET_FLAG]
        self.allow_read_flag = True
        # restore-read / single-step / revoke is atomic w.r.t. the event
        # stream: no caller can observe a page readable.  A read that
        # crosses a page boundary needs every page it touches.
        pages = _pages(request.addr, request.addr + request.size)
        for page in pages:
            self.page_state[page] = READABLE
            transitions.append(StateTransition("RestorePageReadable",
                                               "%#x" % page))
        transitions.append(_SINGLE_STEP)
        for page in pages:
            self.page_state[page] = EXECUTE_ONLY
            transitions.append(StateTransition("RevokePageExecuteOnly",
                                               "%#x" % page))
        self.allow_read_flag = False
        transitions.append(_CLEAR_FLAG)
        return verdict, transitions

    def run_trace(self, events):
        """Process parsed trace events; stops at the first denied read."""
        report = TraceReport()
        for event in events:
            if event[0] == "I":
                report.executed_instructions += event[1]
                continue
            _, addr, size = event
            report.reads += 1
            verdict, _ = self.fault_flow(ReadRequest(addr, size))
            if verdict.outcome == DENIED:
                report.denied += 1
                break
            report.allowed += 1
            if verdict.promoted:
                report.promotions += 1
        if report.executed_instructions > 0:
            report.read_intensity = (report.reads
                                     / report.executed_instructions)
        report.optimization_size = len(self.lists.optimization)
        return report


def new_monitor(lists, executable_ranges=None):
    for block in lists.all_blocks():
        block.read_count = 0
    return Monitor(lists, executable_ranges)


def parse_trace(text):
    """Trace grammar: `R <hex addr> <decimal size>`, `I <count>`, `#` comments."""
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        try:
            if parts[0] == "R" and len(parts) == 3:
                event = ("R", int(parts[1], 16), int(parts[2], 10))
                valid = event[1] >= 0 and 1 <= event[2] <= MAX_READ_SIZE
            elif parts[0] == "I" and len(parts) == 2:
                event = ("I", int(parts[1], 10))
                valid = event[1] >= 0
            else:
                raise ValueError
        except ValueError:
            raise TraceParse("unrecognized event %r" % line.strip(), lineno)
        if not valid:
            raise TraceParse("value out of range in %r" % line.strip(),
                             lineno)
        events.append(event)
    return events
