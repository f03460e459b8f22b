"""Userspace simulation of the kernel-side read-legality enforcement.

A Monitor owns the two block lists.  Reads fully contained in one listed
block are allowed via a restore / single-step / revoke flow, which
`fault_flow` returns as transitions; anything else terminates the
monitor and freezes a forensic record.

The first occurrence of a read costs a bisect, a read-count increment
and its transition list: its `Fault` transition, then the transitions
after `Fault`, built once per page pair.  `fault_flow` keeps each
distinct allowed request's block index and transition list, so a repeat
costs one dict lookup plus the read count, `scan_log` and promotion of
its block, and returns the same list: callers compare transition lists,
never mutate them.  One entry per distinct allowed read, so the trace
being run bounds the dict; denials and invalid sizes are never kept.
Verdicts and `scan_log` lists are shared values built once per monitor.
`run_trace` hands each read to `fault_flow` as a plain (addr, size)
tuple and builds a `ReadRequest` only for a denial.  `parse_trace` reads
a trace in canonical form in one pass over its tokens; any other text
takes the line parser.
"""

import re
import time
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import attrgetter, is_

from .blocks import EmbeddedDataBlock, XomLists
from .errors import MonitorTerminated, TraceParse

PAGE_SIZE = 4096
PROMOTION_THRESHOLD = 100    # reads beyond this promote a regular block
MAX_READ_SIZE = 64

ALLOWED = "Allowed"
DENIED = "Denied"
OVERLAPS_CODE = "OverlapsCode"
OUTSIDE_LISTS = "OutsideLists"


class ReadRequest(namedtuple("ReadRequest", "addr size")):
    """One faulting read of 1..MAX_READ_SIZE bytes at addr."""

    __slots__ = ()

    def __new__(cls, addr, size):
        if not 1 <= size <= MAX_READ_SIZE:
            raise ValueError("read size %d outside 1..%d"
                             % (size, MAX_READ_SIZE))
        return tuple.__new__(cls, (addr, size))


Verdict = namedtuple("Verdict", "outcome matched_block promoted reason",
                     defaults=(None, False, None))

StateTransition = namedtuple("StateTransition", "name detail", defaults=("",))

_CHECK_PASS = StateTransition("LegalityCheck", "pass")
_CHECK_FAIL = StateTransition("LegalityCheck", "fail")
_SET_FLAG = StateTransition("SetAllowReadFlag")
_SINGLE_STEP = StateTransition("SingleStepExecute")
_CLEAR_FLAG = StateTransition("ClearAllowReadFlag")
_TERMINATE = {reason: StateTransition("Terminate", reason)
              for reason in (OVERLAPS_CODE, OUTSIDE_LISTS)}

_DENIED = {True: Verdict(DENIED, reason=OVERLAPS_CODE),
           False: Verdict(DENIED, reason=OUTSIDE_LISTS)}

# scan_log values; shared by every read, so callers compare, never mutate
_SCAN_OPTIMIZATION = ["optimization"]
_SCAN_BOTH = ["optimization", "regular"]

_START = attrgetter("interval.start")
_READS = attrgetter("read_count")


@dataclass
class TraceReport:
    allowed: int = 0
    denied: int = 0
    promotions: int = 0
    reads: int = 0
    executed_instructions: int = 0
    read_intensity: float = None
    optimization_size: int = 0
    denial: tuple = None        # (request, reason, nearest block or None)
    promoted: list = field(default_factory=list)   # starts, in order


def _allowed_tail(first_page, last_page):
    """Transitions after Fault for an allowed read over these pages."""
    pages = range(first_page, last_page + 1)
    return (_CHECK_PASS, _SET_FLAG,
            *[StateTransition("RestorePageReadable", "%#x" % p)
              for p in pages],
            _SINGLE_STEP,
            *[StateTransition("RevokePageExecuteOnly", "%#x" % p)
              for p in pages],
            _CLEAR_FLAG)


class Monitor:
    """Read monitor over disjoint block lists, also named `new_monitor`.

    One index sorted by start covers both lists, and `_scans` holds each
    block's tier.  The last block that starts before a read's end is the
    only one that can contain the read, and it overlaps the read exactly
    when some block does.

    While it runs, the monitor owns the lists: each block's read_count
    is its count, starting at 0, and the list order changes only by
    promotion.  The lists must be disjoint and, given executable_ranges,
    lie inside them; InvariantViolation says which block is not.
    """

    def __init__(self, lists, executable_ranges=None):
        self._blocks, self._starts, self._ends = \
            lists.validate(executable_ranges).index()
        for block in self._blocks:
            block.read_count = 0
        self.lists = lists
        self.terminated = False
        self.scan_log = []
        self._record = None
        self._denial = None
        # a read's scan_log is its block's tier: which lists were scanned
        self._scans = [_SCAN_BOTH] * len(self._blocks)
        for block in lists.optimization:
            self._scans[bisect_left(self._starts, _START(block))] = \
                _SCAN_OPTIMIZATION
        self._allowed = [None] * len(self._blocks)   # verdicts, built lazily
        self._tails = {}
        # request -> (block index, transitions) of each distinct allowed
        # read; the requests of the trace being run bound it
        self._flows = {}

    @property
    def forensic_record(self):
        """(request, timestamp, XomLists copy at denial), or None.

        A denial records the list orders and read counts; the copy is
        built from them when first read.
        """
        if self._denial is not None:
            request, stamp, (regular, optimization, reads) = self._denial
            self._denial = None
            counts = dict(zip(map(id, self._blocks), reads))
            copy = lambda blocks: [
                EmbeddedDataBlock(b.interval, b.static_ref_count,
                                  counts[id(b)]) for b in blocks]
            self._record = (request, stamp, XomLists(
                regular=copy(regular), optimization=copy(optimization)))
        return self._record

    @forensic_record.setter
    def forensic_record(self, value):
        self._denial = None
        self._record = value

    def check_read(self, request):
        return self._check(request)[1]

    def _check(self, request):
        """(block index or None, verdict) for one read."""
        if self.terminated:
            raise MonitorTerminated("monitor already terminated")
        addr, size = request
        end = addr + size
        i = bisect_left(self._starts, end) - 1
        if i < 0 or addr < self._starts[i] or end > self._ends[i]:
            # the request as a ReadRequest, which rejects a size outside
            # 1..MAX_READ_SIZE, list orders and read counts; the copy is
            # built on first use
            self._denial = (ReadRequest(*request), time.time(), (
                tuple(self.lists.regular), tuple(self.lists.optimization),
                tuple(map(_READS, self._blocks))))
            self.terminated = True
            self.scan_log = _SCAN_BOTH
            return None, _DENIED[i >= 0 and addr < self._ends[i]]
        # a plain tuple can name a size that fits the block but is no read
        if not 1 <= size <= MAX_READ_SIZE:
            ReadRequest(addr, size)             # raises its ValueError
        return i, self._allow(i)

    def _allow(self, i):
        """Verdict for an allowed read of block i: count it, set scan_log
        and promote the block past PROMOTION_THRESHOLD reads."""
        block = self._blocks[i]
        reads = block.read_count = block.read_count + 1
        verdict = self._allowed[i]
        if verdict is None:
            verdict = self._allowed[i] = Verdict(ALLOWED, block)
        scan = self.scan_log = self._scans[i]
        if scan is _SCAN_OPTIMIZATION or reads <= PROMOTION_THRESHOLD:
            return verdict
        # the regular list is sorted by start unless the caller built it
        # otherwise; then a C-level identity scan finds the block
        regular = self.lists.regular
        j = bisect_left(regular, self._starts[i], key=_START)
        if j == len(regular) or regular[j] is not block:
            j = next(compress(count(), map(is_, regular, repeat(block))))
        del regular[j]
        self.lists.optimization.append(block)
        self._scans[i] = _SCAN_OPTIMIZATION
        return Verdict(ALLOWED, block, True)

    def fault_flow(self, request):
        """Transition sequence for one faulting read.

        Returns (verdict, transitions).  The transitions of an allowed
        read are kept and returned again for every repeat of its
        request, so callers compare them, never mutate them.
        """
        stored = self._flows.get(request)
        if stored is not None and not self.terminated:
            i, flow = stored
            return self._allow(i), flow
        # tuple.__new__ builds the same value without the namedtuple's
        # Python-level __new__
        fault = tuple.__new__(StateTransition,
                              ("Fault", "%#x+%d" % request))
        i, verdict = self._check(request)
        if i is None:
            return verdict, [fault, _CHECK_FAIL, _TERMINATE[verdict.reason]]
        # a read that crosses a page boundary needs every page it touches
        addr, size = request
        key = (addr // PAGE_SIZE, (addr + size - 1) // PAGE_SIZE)
        steps = self._tails.get(key)
        if steps is None:
            steps = self._tails[key] = _allowed_tail(*key)
        flow = [fault, *steps]
        self._flows[request] = (i, flow)
        return verdict, flow

    def nearest_block(self, addr, size):
        """The block a read overlaps, else the closest one, else None."""
        end = addr + size
        i = bisect_left(self._starts, end) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._blocks[i]
        before = addr - self._ends[i] if i >= 0 else None
        after = (self._starts[i + 1] - end if i + 1 < len(self._starts)
                 else None)
        if after is not None and (before is None or after < before):
            return self._blocks[i + 1]
        return self._blocks[i] if before is not None else None

    def run_trace(self, events):
        """Process parsed trace events; stops at the first denied read."""
        report = TraceReport()
        fault_flow = self.fault_flow
        promoted = report.promoted
        reads = allowed = executed = 0
        for event in events:
            if event[0] == "I":
                executed += event[1]
                continue
            _, addr, size = event
            if not 1 <= size <= MAX_READ_SIZE:
                ReadRequest(addr, size)         # raises its ValueError
            reads += 1
            verdict, _ = fault_flow((addr, size))
            if verdict.outcome == DENIED:
                report.denied = 1
                report.denial = (ReadRequest(addr, size), verdict.reason,
                                 self.nearest_block(addr, size))
                break
            allowed += 1
            if verdict.promoted:
                promoted.append(verdict.matched_block.interval.start)
        report.reads = reads
        report.allowed = allowed
        report.promotions = len(promoted)
        report.executed_instructions = executed
        if executed > 0:
            report.read_intensity = reads / executed
        report.optimization_size = len(self.lists.optimization)
        return report


new_monitor = Monitor


# A line feed followed by a line that is not in canonical form, searched
# for with a line feed put in front of the text so that its first line is
# checked too.  The digit bounds keep numbers clear of int()'s limit.
_NOT_CANONICAL = re.compile(
    r"\n(?!(?:R [0-9a-fA-F]{1,16} (?:[1-9]|[1-5][0-9]|6[0-4])"
    r"|I [0-9]{1,18}|#[ -~]*|)$)", re.M)
_COMMENT = re.compile("#[^\n]*")


def parse_trace(text):
    """Trace grammar: `R <hex addr> <decimal size>`, `I <count>`, `#` comments.

    Numbers are ASCII digits, and an address may start with 0x.  A text
    in canonical form, where every line ends in a line feed and is
    `R <1-16 hex digits> <1..64, no leading zero>`, `I <1-18 digits>`,
    `#` and printable ASCII, or empty, is read as one stream of tokens.
    Any other text goes to the line parser, which gives the same events
    and is the only source of TraceParse errors.
    """
    if not text.endswith("\n") or _NOT_CANONICAL.search("\n" + text):
        return _parse_lines(text)
    if "#" in text:
        text = _COMMENT.sub("", text)   # only a comment line holds a "#"
    tokens = iter(text.split())
    return [("R", int(next(tokens), 16), int(next(tokens))) if kind == "R"
            else ("I", int(next(tokens))) for kind in tokens]


def _parse_lines(text):
    """parse_trace for any text, one line at a time."""
    events = []
    append = events.append
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = (line.split("#", 1)[0] if "#" in line else line).split()
        if not parts:
            continue
        try:
            if parts[0] == "R" and len(parts) == 3:
                addr = TraceParse.number(parts[1], 16)
                size = TraceParse.number(parts[2], 10)
                if 1 <= size <= MAX_READ_SIZE:
                    append(("R", addr, size))
                    continue
            elif parts[0] == "I" and len(parts) == 2:
                append(("I", TraceParse.number(parts[1], 10)))
                continue
            else:
                raise ValueError
        except ValueError:
            raise TraceParse("unrecognized event %r" % line.strip(), lineno)
        raise TraceParse("value out of range in %r" % line.strip(), lineno)
    return events
