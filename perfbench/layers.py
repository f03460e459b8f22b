"""Traced run: spans around the calls pxom's layers make to each other.

While a traced pass runs, `instrumented` replaces the layer functions
that `pxom.cli` and `pxom.protector` call, and two `Monitor` methods,
with wrappers that record a span around the original call; it restores
them afterwards.  The wrappers live here, in the benchmark: nothing in
`pxom` is edited, and only public functions are wrapped.  A few
quantities have no call of their own inside a command; probes measure
them by calling the layer once more on the final state.
"""

import contextlib
import random
import time
from bisect import bisect_right
from collections import Counter
from statistics import mean

from pxom import cli, monitor, protector, x86
from pxom.blocks import EmbeddedDataBlock, XomLists
from pxom.disasm import SOURCE_ORDER, compute_superset, detect_entry_points
from pxom.ehframe import fde_initial_locations
from pxom.image import executable_ranges, load_elf, parse_xom_section
from pxom.intervals import IntervalSet
from pxom.monitor import PROMOTION_THRESHOLD, ReadRequest, new_monitor
from pxom.surface import metrics

PROBE_PROMOTIONS = 10      # promoting reads timed per target
PROBE_DENIALS = 3          # denied reads timed per target, one monitor each

# (owner, attribute, span name): the layer calls a traced pass records
WRAPPED = (
    (cli, "load_elf", "image.load_elf"),
    (cli, "parse_xom_section", "image.parse_xom"),
    (cli, "executable_ranges", "image.executable_ranges"),
    (cli, "compute_superset", "disasm.compute_superset"),
    (cli, "protect_image", "protector.protect_image"),
    (cli, "load_ground_truth", "corpus.load_ground_truth"),
    (cli, "metrics", "surface.metrics"),
    (cli, "gadget_scan", "surface.gadget_scan"),
    (cli, "wrpkru_scan", "surface.wrpkru_scan"),
    (cli, "new_monitor", "monitor.new_monitor"),
    (cli, "parse_trace", "monitor.parse_trace"),
    (protector, "compute_superset", "disasm.compute_superset"),
    (protector, "count_static_refs", "protector.count_static_refs"),
    (protector, "build_lists", "protector.build_lists"),
    (protector, "set_xom_flag", "image.set_xom_flag"),
    (protector, "attach_xom_section", "image.attach_xom"),
    (monitor.Monitor, "run_trace", "monitor.run_trace"),
)

# name -> (unit, better); the traced run reports exactly these
PER_LAYER = {
    "image.load_elf_ms": ("ms", "lower"),
    "image.set_xom_flag_ms": ("ms", "lower"),
    "image.attach_xom_ms": ("ms", "lower"),
    "image.parse_xom_ms": ("ms", "lower"),
    "x86.decode_us_per_insn": ("us", "lower"),
    "disasm.compute_superset_s": ("s", "lower"),
    "disasm.entry_round_ms": ("ms", "lower"),
    "disasm.instructions": ("count", "higher"),
    **{"disasm.accepted.%s" % s: ("count", "higher") for s in SOURCE_ORDER},
    "disasm.rejected": ("count", "lower"),
    "disasm.accept_ratio": ("ratio", "higher"),
    "ehframe.fde_ms": ("ms", "lower"),
    "ehframe.fdes": ("count", "higher"),
    "intervals.superset_blocks": ("count", "lower"),
    "protector.count_static_refs_ms": ("ms", "lower"),
    "protector.build_lists_ms": ("ms", "lower"),
    "protector.opt_blocks": ("count", "higher"),
    "surface.gadget_scan_s": ("s", "lower"),
    "surface.gadget_us_per_superset_byte": ("us", "lower"),
    "surface.gadgets": ("count", "lower"),
    "surface.gadgets_per_superset_kB": ("count/kB", "higher"),
    "surface.wrpkru_ms": ("ms", "lower"),
    "surface.metrics_ms": ("ms", "lower"),
    "monitor.parse_trace_us_per_line": ("us", "lower"),
    "monitor.new_monitor_ms": ("ms", "lower"),
    "monitor.read_allowed_us": ("us", "lower"),
    "monitor.read_promoting_us": ("us", "lower"),
    "monitor.read_denied_ms": ("ms", "lower"),
    "monitor.promotions": ("count", "lower"),
    "monitor.opt_hit_share": ("ratio", "higher"),
    "cli.residual_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def add(self, name, start, end):
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, start, end, parent))

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def durations(self, name, parent=None):
        """Durations of spans called name (under a span called parent)."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and (
            parent is None or s[3] >= 0 and self.spans[s[3]][0] == parent)]

    def table(self):
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rows = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(rows.items())}


def _wrap(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return traced


def _wrap_fault_flow(tracer, fault_flow):
    """One span per faulting read, named by what the read did."""
    def traced(mon, request):
        before = len(mon.lists.optimization)
        start = time.perf_counter()
        result = fault_flow(mon, request)
        end = time.perf_counter()
        if mon.terminated:
            name = "monitor.read_denied"
        elif len(mon.lists.optimization) > before:
            name = "monitor.read_promoting"
        else:
            name = "monitor.read_allowed"
            tracer.counts["opt_hits"] += mon.scan_log == ["optimization"]
        tracer.add(name, start, end)
        return result
    return traced


@contextlib.contextmanager
def instrumented(tracer):
    """Record spans around pxom's layer calls until the block exits."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
    saved.append((monitor.Monitor, "fault_flow", monitor.Monitor.fault_flow))
    try:
        for owner, attr, name in WRAPPED:
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr)))
        monitor.Monitor.fault_flow = _wrap_fault_flow(
            tracer, monitor.Monitor.fault_flow)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _copy_lists(lists):
    dup = lambda blocks: [EmbeddedDataBlock(b.interval, b.static_ref_count)
                          for b in blocks]
    return XomLists(regular=dup(lists.regular),
                    optimization=dup(lists.optimization))


def _decode_probe(image, report):
    """Seconds to decode every start in report.instructions; mismatches."""
    buffers = [(iv.start, image.read_vaddr(iv.start, len(iv)))
               for iv in executable_ranges(image)]
    bases = [b for b, _ in buffers]
    wrong = 0
    begin = time.perf_counter()
    for va, ins in report.instructions.items():
        base, data = buffers[bisect_right(bases, va) - 1]
        if x86.decode(data, va - base, va) != ins:
            wrong += 1
    return time.perf_counter() - begin, wrong


def _monitor_probes(lists, ranges, rng):
    """Seconds per promoting read and per denied read, on fresh monitors."""
    promoting, denied = [], []
    regular = sorted(b.interval for b in lists.regular)
    mon = new_monitor(_copy_lists(lists), ranges)
    for iv in rng.sample(regular, min(PROBE_PROMOTIONS, len(regular))):
        request = ReadRequest(iv.start, 1)
        for _ in range(PROMOTION_THRESHOLD):
            mon.fault_flow(request)
        start = time.perf_counter()
        mon.fault_flow(request)
        promoting.append(time.perf_counter() - start)
    crossing = [iv for iv in sorted(b.interval for b in lists.all_blocks())
                if ranges.contains_range(iv.end, 4)]
    for iv in rng.sample(crossing, min(PROBE_DENIALS, len(crossing))):
        mon = new_monitor(_copy_lists(lists), ranges)
        addr = max(iv.start, iv.end - 4)
        request = ReadRequest(addr, iv.end + 4 - addr)
        start = time.perf_counter()
        mon.fault_flow(request)
        denied.append(time.perf_counter() - start)
    return promoting, denied


def probe(targets, ledger, seed):
    """Probe each target once more; totals keyed by quantity."""
    rng = random.Random(seed)
    totals = Counter()
    promoting, denied = [], []
    for t in targets:
        image = load_elf(t.binary.read_bytes())
        report = compute_superset(image)
        decode_s, wrong = _decode_probe(image, report)
        ledger.record("decode every instruction of %s" % t.name,
                      ["%d instructions decode differently" % wrong]
                      if wrong else [])
        totals["decode_s"] += decode_s
        totals["instructions"] += len(report.instructions)
        begin = time.perf_counter()
        eps = detect_entry_points(image, report.superset, report.code,
                                  report.instructions)
        totals["entry_s"] += time.perf_counter() - begin
        totals["rejected"] += sum(
            1 for ep in eps if report.superset.contains_range(ep.vaddr, 1))
        for ep in report.entry_points:
            totals["accepted." + ep.source] += 1
        totals["accepted"] += len(report.entry_points)
        sec = image.section_by_name(".eh_frame")
        if sec is not None and sec.size:
            begin = time.perf_counter()
            locs = fde_initial_locations(sec.data(image.raw), sec.vaddr)
            totals["fde_s"] += time.perf_counter() - begin
            totals["fdes"] += len(locs)
        begin = time.perf_counter()
        metrics(report, IntervalSet.from_pairs(t.known_code))
        totals["metrics_s"] += time.perf_counter() - begin
        totals["superset_bytes"] += report.superset.total_bytes
        totals["superset_blocks"] += len(report.superset)
        protected = load_elf(t.out.read_bytes())
        lists = parse_xom_section(protected)
        totals["opt_blocks"] += len(lists.optimization)
        p, d = _monitor_probes(lists, executable_ranges(protected), rng)
        promoting += p
        denied += d
    return totals, promoting, denied


def span_cost():
    """Seconds one recorded span adds to the call it wraps."""
    noop = lambda: None
    calls = 20000
    begin = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - begin
    traced = _wrap(Tracer(), "calibration", noop)
    begin = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - begin - plain) / calls


def per_layer(tracer, totals, promoting, denied, gadgets, trace_lines):
    """The PER_LAYER metrics from a traced pass and the probes."""
    mean_ms = lambda name: 1e3 * mean(tracer.durations(name))
    sum_of = lambda name: sum(tracer.durations(name))
    allowed = tracer.durations("monitor.read_allowed")
    promoted = len(tracer.durations("monitor.read_promoting"))
    scan_s = sum_of("surface.gadget_scan")
    superset = totals["superset_bytes"]
    accepted = totals["accepted"]
    table = tracer.table()
    return {
        "image.load_elf_ms": mean_ms("image.load_elf"),
        "image.set_xom_flag_ms": mean_ms("image.set_xom_flag"),
        "image.attach_xom_ms": mean_ms("image.attach_xom"),
        "image.parse_xom_ms": mean_ms("image.parse_xom"),
        "x86.decode_us_per_insn": 1e6 * totals["decode_s"]
        / totals["instructions"],
        "disasm.compute_superset_s": sum(tracer.durations(
            "disasm.compute_superset", parent="protector.protect_image")),
        "disasm.entry_round_ms": 1e3 * totals["entry_s"],
        "disasm.instructions": totals["instructions"],
        **{"disasm.accepted.%s" % s: totals["accepted." + s]
           for s in SOURCE_ORDER},
        "disasm.rejected": totals["rejected"],
        "disasm.accept_ratio": accepted / (accepted + totals["rejected"]),
        "ehframe.fde_ms": 1e3 * totals["fde_s"],
        "ehframe.fdes": totals["fdes"],
        "intervals.superset_blocks": totals["superset_blocks"],
        "protector.count_static_refs_ms":
            1e3 * sum_of("protector.count_static_refs"),
        "protector.build_lists_ms": 1e3 * sum_of("protector.build_lists"),
        "protector.opt_blocks": totals["opt_blocks"],
        "surface.gadget_scan_s": scan_s,
        "surface.gadget_us_per_superset_byte": 1e6 * scan_s / superset,
        "surface.gadgets": gadgets,
        "surface.gadgets_per_superset_kB": gadgets / (superset / 1024),
        "surface.wrpkru_ms": 1e3 * sum_of("surface.wrpkru_scan"),
        "surface.metrics_ms": 1e3 * totals["metrics_s"],
        "monitor.parse_trace_us_per_line":
            1e6 * sum_of("monitor.parse_trace") / trace_lines,
        "monitor.new_monitor_ms": mean_ms("monitor.new_monitor"),
        "monitor.read_allowed_us": 1e6 * mean(allowed),
        "monitor.read_promoting_us": 1e6 * mean(promoting),
        "monitor.read_denied_ms": 1e3 * mean(denied),
        "monitor.promotions": promoted,
        "monitor.opt_hit_share": tracer.counts["opt_hits"]
        / (len(allowed) + promoted),
        "cli.residual_s": sum(row["self_s"] for name, row in table.items()
                              if name.startswith("cli.")),
        "trace.overhead_s": len(tracer.spans) * span_cost(),
    }
