"""Userspace simulation of the kernel-side read-legality enforcement.

A Monitor owns the two block lists, a page permission map, and the
allow-read flag.  Reads fully contained in one listed block are allowed
via an explicit restore / single-step / revoke flow; anything else
terminates the monitor and freezes a forensic record.
"""

import time
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import MonitorTerminated, TraceParse

PAGE_SIZE = 4096
PROMOTION_THRESHOLD = 100    # reads beyond this promote a regular block

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
        if not 1 <= self.size <= 64:
            raise ValueError("read size %d outside 1..64" % self.size)


@dataclass(frozen=True)
class Verdict:
    outcome: str
    matched_block: object = None
    promoted: bool = False
    reason: str = None


@dataclass(frozen=True)
class StateTransition:
    name: str
    detail: str = ""


@dataclass
class TraceReport:
    allowed: int = 0
    denied: int = 0
    promotions: int = 0
    reads: int = 0
    executed_instructions: int = 0
    read_intensity: float = None
    optimization_size: int = 0


class _ListIndex:
    """Sorted containment index over one block list."""

    __slots__ = ("starts", "blocks")

    def __init__(self, blocks):
        self.blocks = sorted(blocks, key=lambda b: b.interval.start)
        self.starts = [b.interval.start for b in self.blocks]

    def find(self, addr, size):
        i = bisect_right(self.starts, addr) - 1
        if i >= 0:
            block = self.blocks[i]
            if addr + size <= block.interval.end:
                return block
        return None


def _snapshot(lists):
    """Frozen copy of both block lists for the forensic record."""
    from .blocks import EmbeddedDataBlock, XomLists

    def dup(blocks):
        return [EmbeddedDataBlock(b.interval, b.static_ref_count,
                                  b.read_count) for b in blocks]

    return XomLists(regular=dup(lists.regular),
                    optimization=dup(lists.optimization))


class Monitor:
    def __init__(self, lists, executable_ranges=None):
        self.lists = lists
        self.allow_read_flag = False
        self.terminated = False
        self.forensic_record = None
        self.scan_log = []
        self.page_state = {}
        if executable_ranges is not None:
            for iv in executable_ranges:
                for page in range(iv.start // PAGE_SIZE,
                                  (iv.end - 1) // PAGE_SIZE + 1):
                    self.page_state[page] = EXECUTE_ONLY
        else:
            for block in lists.all_blocks():
                iv = block.interval
                for page in range(iv.start // PAGE_SIZE,
                                  (iv.end - 1) // PAGE_SIZE + 1):
                    self.page_state[page] = EXECUTE_ONLY
        self._reindex()

    def _reindex(self):
        self._opt_index = _ListIndex(self.lists.optimization)
        self._regr_index = _ListIndex(self.lists.regular)

    def _require_live(self):
        if self.terminated:
            raise MonitorTerminated("monitor already terminated")

    def check_read(self, request):
        self._require_live()
        self.scan_log = ["optimization"]
        block = self._opt_index.find(request.addr, request.size)
        promoted = False
        if block is None:
            self.scan_log.append("regular")
            block = self._regr_index.find(request.addr, request.size)
            if block is not None:
                block.read_count += 1
                if block.read_count > PROMOTION_THRESHOLD:
                    self.lists.regular.remove(block)
                    self.lists.optimization.append(block)
                    self._reindex()
                    promoted = True
        else:
            block.read_count += 1
        if block is not None:
            return Verdict(ALLOWED, matched_block=block, promoted=promoted)
        reason = OUTSIDE_LISTS
        for b in self.lists.all_blocks():
            if b.interval.start < request.addr + request.size and \
                    request.addr < b.interval.end:
                reason = OVERLAPS_CODE
                break
        self.terminated = True
        self.forensic_record = (request, time.time(), _snapshot(self.lists))
        return Verdict(DENIED, reason=reason)

    def fault_flow(self, request):
        """Explicit transition sequence for one faulting read."""
        self._require_live()
        transitions = [StateTransition("Fault", "%#x+%d" % (request.addr,
                                                            request.size))]
        verdict = self.check_read(request)
        self.last_verdict = verdict
        if verdict.outcome == DENIED:
            transitions.append(StateTransition("LegalityCheck", "fail"))
            transitions.append(StateTransition("Terminate", verdict.reason))
            return transitions
        transitions.append(StateTransition("LegalityCheck", "pass"))
        self.allow_read_flag = True
        transitions.append(StateTransition("SetAllowReadFlag"))
        # restore-read / single-step / revoke is atomic w.r.t. the event
        # stream: no caller can observe a page readable.  A read that
        # crosses a page boundary needs every page it touches.
        pages = range(request.addr // PAGE_SIZE,
                      (request.addr + request.size - 1) // PAGE_SIZE + 1)
        for page in pages:
            self.page_state[page] = READABLE
            transitions.append(StateTransition("RestorePageReadable",
                                               "%#x" % page))
        transitions.append(StateTransition("SingleStepExecute"))
        for page in pages:
            self.page_state[page] = EXECUTE_ONLY
            transitions.append(StateTransition("RevokePageExecuteOnly",
                                               "%#x" % page))
        self.allow_read_flag = False
        transitions.append(StateTransition("ClearAllowReadFlag"))
        return transitions

    def run_trace(self, events):
        """Process parsed trace events; stops at the first denied read."""
        report = TraceReport()
        for event in events:
            if event[0] == "I":
                report.executed_instructions += event[1]
                continue
            _, addr, size = event
            report.reads += 1
            self.fault_flow(ReadRequest(addr, size))
            verdict = self.last_verdict
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
                events.append(("R", int(parts[1], 16), int(parts[2], 10)))
            elif parts[0] == "I" and len(parts) == 2:
                events.append(("I", int(parts[1], 10)))
            else:
                raise ValueError
        except ValueError:
            raise TraceParse("unrecognized event %r" % line.strip(), lineno)
    return events
