"""Reference version of the read monitor and the trace parser.

`ReferenceMonitor` is the monitor's earlier form: it builds a new
verdict, `scan_log` list and transition list on every read, copies every
block into the forensic record at denial, and finds a promoted block in
the regular list with a Python-level identity scan.  It is slower than
`monitor.Monitor`, which shares immutable verdicts and transition tails
and records a denial without copying blocks, but simple enough to serve
as its reference.

It still keeps the page permission map and the allow-read flag that
`monitor.Monitor` no longer keeps, so the tests can check that both end
execute-only and clear after every call.  `ShadowPages` replays one
fault flow's transitions on the same model and checks the restore /
single-step / revoke discipline.

`reference_parse_trace` is the line-by-line trace parser that
`monitor.parse_trace` must agree with, errors and line numbers included.
"""

import time
from bisect import bisect_right
from dataclasses import dataclass

from pxom.blocks import EmbeddedDataBlock, XomLists
from pxom.errors import MonitorTerminated, TraceParse
from pxom.monitor import (ALLOWED, DENIED, MAX_READ_SIZE, OUTSIDE_LISTS,
                          OVERLAPS_CODE, PAGE_SIZE, PROMOTION_THRESHOLD,
                          ReadRequest, StateTransition)

EXECUTE_ONLY = "execute_only"
READABLE = "readable"


@dataclass(frozen=True)
class ReferenceVerdict:
    outcome: str
    matched_block: object = None
    promoted: bool = False
    reason: str = None


def _pages(start, end):
    return range(start // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1)


class ShadowPages:
    """The allow-read flag and page states that fault-flow transitions
    imply, carried from one replayed flow to the next."""

    def __init__(self):
        self.flag = False
        self.pages = {}             # page -> state; unlisted is EXECUTE_ONLY

    def replay(self, request, verdict, transitions):
        """Assert that transitions are the paper's flow for request.

        Fault, then LegalityCheck.  A pass sets the allow-read flag,
        restores each page the read touches once, in ascending order,
        single-steps while the flag is set and every touched page is
        readable, revokes the same pages and clears the flag.  A fail
        terminates with the verdict's reason.  Between flows the flag is
        clear and no page is readable.
        """
        addr, size = request
        touched = range(addr // PAGE_SIZE, (addr + size - 1) // PAGE_SIZE + 1)
        assert transitions[0] == ("Fault", "%#x+%d" % (addr, size))
        assert transitions[1].name == "LegalityCheck"
        if transitions[1].detail == "fail":
            assert verdict.outcome == DENIED
            assert transitions[2:] == [("Terminate", verdict.reason)]
        else:
            assert transitions[1].detail == "pass"
            assert verdict.outcome == ALLOWED
            names = [t.name for t in transitions[2:]]
            assert names == ["SetAllowReadFlag",
                             *["RestorePageReadable"] * len(touched),
                             "SingleStepExecute",
                             *["RevokePageExecuteOnly"] * len(touched),
                             "ClearAllowReadFlag"], names
        restored = []
        for name, detail in transitions[2:]:
            if name == "SetAllowReadFlag":
                assert not self.flag
                self.flag = True
            elif name == "RestorePageReadable":
                page = int(detail, 16)
                assert self.flag and self.pages.get(page) != READABLE
                self.pages[page] = READABLE
                restored.append(page)
            elif name == "SingleStepExecute":
                assert restored == list(touched)
                assert self.flag and all(self.pages[page] == READABLE
                                         for page in touched)
            elif name == "RevokePageExecuteOnly":
                page = int(detail, 16)
                assert self.flag and self.pages[page] == READABLE
                assert restored[:1] == [page]       # in ascending order
                self.pages[page] = EXECUTE_ONLY
                del restored[0]
            elif name == "ClearAllowReadFlag":
                assert self.flag and not restored
                self.flag = False
        assert not self.flag
        assert READABLE not in self.pages.values()


def _snapshot(lists):
    def dup(blocks):
        return [EmbeddedDataBlock(b.interval, b.static_ref_count,
                                  b.read_count) for b in blocks]

    return XomLists(regular=dup(lists.regular),
                    optimization=dup(lists.optimization))


class ReferenceMonitor:
    """`monitor.Monitor` semantics, one fresh object per step."""

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

    def check_read(self, request):
        if self.terminated:
            raise MonitorTerminated("monitor already terminated")
        addr = request.addr
        i = bisect_right(self._starts, addr + request.size - 1) - 1
        block = self._blocks[i] if i >= 0 else None
        if block is None or not block.interval.contains(addr, request.size):
            self.scan_log = ["optimization", "regular"]
            overlaps = block is not None and addr < block.interval.end
            self.terminated = True
            self.forensic_record = (request, time.time(),
                                    _snapshot(self.lists))
            return ReferenceVerdict(DENIED, reason=(OVERLAPS_CODE if overlaps
                                                    else OUTSIDE_LISTS))
        block.read_count += 1
        start = block.interval.start
        if start in self._optimized:
            self.scan_log = ["optimization"]
            return ReferenceVerdict(ALLOWED, matched_block=block)
        self.scan_log = ["optimization", "regular"]
        if block.read_count <= PROMOTION_THRESHOLD:
            return ReferenceVerdict(ALLOWED, matched_block=block)
        regular = self.lists.regular
        del regular[next(j for j, b in enumerate(regular) if b is block)]
        self.lists.optimization.append(block)
        self._optimized.add(start)
        return ReferenceVerdict(ALLOWED, matched_block=block, promoted=True)

    def fault_flow(self, request):
        if self.terminated:
            raise MonitorTerminated("monitor already terminated")
        fault = StateTransition("Fault", "%#x+%d" % (request.addr,
                                                     request.size))
        verdict = self.check_read(request)
        if verdict.outcome == DENIED:
            return verdict, [fault, StateTransition("LegalityCheck", "fail"),
                             StateTransition("Terminate", verdict.reason)]
        transitions = [fault, StateTransition("LegalityCheck", "pass"),
                       StateTransition("SetAllowReadFlag")]
        self.allow_read_flag = True
        pages = _pages(request.addr, request.addr + request.size)
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
        return verdict, transitions

    def run_trace(self, events):
        """The `TraceReport` fields of a trace run, as a dict."""
        report = dict(allowed=0, denied=0, promotions=0, reads=0,
                      executed_instructions=0, read_intensity=None)
        for event in events:
            if event[0] == "I":
                report["executed_instructions"] += event[1]
                continue
            _, addr, size = event
            report["reads"] += 1
            verdict, _ = self.fault_flow(ReadRequest(addr, size))
            if verdict.outcome == DENIED:
                report["denied"] += 1
                break
            report["allowed"] += 1
            if verdict.promoted:
                report["promotions"] += 1
        if report["executed_instructions"] > 0:
            report["read_intensity"] = (report["reads"]
                                        / report["executed_instructions"])
        report["optimization_size"] = len(self.lists.optimization)
        return report


def reference_new_monitor(lists, executable_ranges=None):
    for block in lists.all_blocks():
        block.read_count = 0
    return ReferenceMonitor(lists, executable_ranges)


_DIGITS = {16: "0123456789abcdefABCDEF", 10: "0123456789"}


def _number(token, base):
    """int(token, base) for ASCII digits, hex ones with an optional 0x."""
    digits = token[2:] if base == 16 and token[:2] in ("0x", "0X") else token
    if not digits or any(c not in _DIGITS[base] for c in digits):
        raise ValueError(token)
    return int(digits, base)


def reference_parse_trace(text):
    """Trace grammar: `R <hex addr> <decimal size>`, `I <count>`, `#` comments."""
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        try:
            if parts[0] == "R" and len(parts) == 3:
                event = ("R", _number(parts[1], 16), _number(parts[2], 10))
                valid = 1 <= event[2] <= MAX_READ_SIZE
            elif parts[0] == "I" and len(parts) == 2:
                event = ("I", _number(parts[1], 10))
                valid = True
            else:
                raise ValueError
        except ValueError:
            raise TraceParse("unrecognized event %r" % line.strip(), lineno)
        if not valid:
            raise TraceParse("value out of range in %r" % line.strip(),
                             lineno)
        events.append(event)
    return events
