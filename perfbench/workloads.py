"""pxom benchmark workloads: set-up, measured passes and output checks.

Every workload drives pxom in-process through `pxom.cli.main`, so the
CLI layer and its JSON output are timed but interpreter start-up is not.
See README.md in this directory for the metrics and why each workload
exists.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from pxom import cli as pxom_cli
from pxom.corpus import build_corpus, load_ground_truth
from pxom.image import (executable_ranges, is_xom_enabled, load_elf,
                        parse_xom_section)
from pxom.monitor import parse_trace

from layers import PER_LAYER, Tracer, instrumented, per_layer, probe
from traces import make_trace, predict

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

SYSTEM_BINARIES = (
    ("ls", "/usr/bin/ls"),
    ("gcc-12", "/usr/bin/gcc-12"),
    ("libc.so.6", "/lib/x86_64-linux-gnu/libc.so.6"),
)
LIBC = SYSTEM_BINARIES[2]

SETUP_REPEATS = 3          # set-up runs per run; setup_s is their median
MIN_PASSES = 2             # measured passes per untraced run, at least
CORPUS_PROGRAMS = 100
TRACE_READS = 60000        # reads per trace on the trace workloads
HOT_BLOCKS = 300           # hot regular blocks on trace-hot
# reads per trace and hot regular blocks, on the workloads that protect
# in their passes; system's hot blocks all get promoted, corpus's reads
# are too few for any promotion
PASS_TRACES = {"system": (12000, 60), "corpus": (100, 0)}
GADGET_DEPTH = "10"
HOLDOUT_SEED = 7919        # kept out of development; for hold-out checks
REF_NOMINAL_S = 0.02       # one reference loop's seconds at the speed
                           # that times are reported at
REF_GAP_S = 0.5            # least time between two runs of the loop
REF_SHARE = 0.05           # seconds of loop per second since its last run

WORKLOADS = ("system", "corpus", "trace-spread", "trace-hot")

# name -> (unit, better); every untraced run reports exactly these
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "protect_s": ("s", "lower"),
    "simulate_us_per_read": ("us", "lower"),
    "oc": ("ratio", "higher"),
    "cc": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_FDE = re.compile(r"FDE cie=\S+ pc=([0-9a-f]+)\.\.([0-9a-f]+)")
_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")


@dataclass
class Target:
    """One input binary and everything derived from it."""

    name: str
    binary: Path
    out: Path                     # protected output
    known_code: list              # sorted disjoint (start, end) code ranges
    ground_truth: Path = None     # exact data ranges (*.gt), corpus only
    trace: Path = None
    reads: int = 0                # reads in the trace
    blocks: list = field(default_factory=list)   # superset of the output
    exec_ranges: list = field(default_factory=list)
    cc: float = None
    gadgets: int = None           # gadgets `pxom scan` reported
    unsound: int = None           # ground-truth data bytes taken as code
    promotions: int = None        # promotions `pxom simulate` reported


_REF_BYTES = bytes(range(256)) * 16
_REF_TABLE = {key: i for i, key in enumerate(
    random.Random(0).sample(range(1 << 24), 50000))}
_REF_ORDER = random.Random(1).sample(list(_REF_TABLE), 12000)


def _reference_loop():
    """Fixed interpreter work of the kinds pxom does.

    Byte slices counted in a small dict, which stays in cache, then
    lookups in shuffled order in a 50,000-entry dict, which does not, so
    that the loop slows under contention for the core and for the cache
    alike.  It allocates no container the garbage collector tracks beyond
    one dict and one list, so pxom's heap does not change its speed.
    """
    data = _REF_BYTES
    counts = {}
    for i in range(20000):
        key = data[i % 4000:i % 4000 + 4]
        counts[key] = counts.get(key, 0) + 1
    found = []
    for key in _REF_ORDER:
        value = _REF_TABLE[key]
        if data[value % 4000] & 1:
            found.append(value)
    found.sort()
    return len(counts) + len(found)


class Speed:
    """The host's current speed, from a reference loop run between commands.

    The shared host's speed drifts by up to 2x, in CPU time as much as in
    wall time, and the drift outlasts any run the time budget allows.  Over
    12 minutes, the medians of one `compute_superset` call taken in 10 to
    90 s windows spread by 0.22 to 0.34 of their median; that call divided
    by a reference loop run beside it spread by 0.02 to 0.06.  So the loop
    runs between commands, and each timed span is scaled by REF_NOMINAL_S
    over the loop's time around it.  Times are thus seconds at the speed
    at which one loop takes REF_NOMINAL_S.  A slower pxom still reads
    slower: the loop runs no pxom code.
    """

    def __init__(self):
        self.blocks = []     # (start, end, seconds per loop) of loop runs

    def run(self, seconds=0.0):
        """Run the loop for `seconds`, and at least once."""
        start = time.perf_counter()
        loops = 0
        while not loops or time.perf_counter() - start < seconds:
            _reference_loop()
            loops += 1
        end = time.perf_counter()
        self.blocks.append((start, end, (end - start) / loops))

    def after_command(self):
        """Run the loop for REF_SHARE of the time since it last ran.

        It runs only once REF_GAP_S have passed, so that the many short
        commands of a corpus pass do not each wait for a loop.
        """
        gap = time.perf_counter() - (self.blocks[-1][1] if self.blocks
                                     else 0.0)
        if gap >= REF_GAP_S:
            self.run(REF_SHARE * gap)

    def scaled(self, span):
        """Seconds of span (start, end) at the nominal speed.

        The loop runs inside the span are taken out of it.  Their speed
        and that of the last run before it and the first after it, each
        weighed alike, give the speed.
        """
        start, end = span
        first = max(bisect_right([b[1] for b in self.blocks], start) - 1, 0)
        last = bisect_left([b[0] for b in self.blocks], end)
        around = self.blocks[first:last + 1]
        inside = sum(e - s for s, e, _ in around if start <= s and e <= end)
        loop = statistics.fmean(per_loop for _, _, per_loop in around)
        return (end - start - inside) * REF_NOMINAL_S / loop

    def summary(self):
        loops = [per_loop for _, _, per_loop in self.blocks]
        return {"reference_blocks": len(loops),
                "reference_loop_median_s": statistics.median(loops),
                "reference_loop_min_s": min(loops),
                "reference_loop_max_s": max(loops)}


SPEED = Speed()


class Ledger:
    """Operations attempted and the ones whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append((label, problems))
            print("FAILED %s: %s" % (label, "; ".join(problems)),
                  file=sys.stderr)

    def run(self, label, fn, *args):
        """Call fn(*args) -> (value, problems); an exception is a failure."""
        try:
            value, problems = fn(*args)
        except Exception:
            traceback.print_exc()
            value, problems = None, ["raised"]
        self.record(label, problems)
        return value


# -- intervals: sorted lists of disjoint (start, end) pairs ----------------
# Kept apart from pxom.intervals, so that the checks do not rest on the
# code they check.

def merge(pairs):
    out = []
    for start, end in sorted(p for p in pairs if p[0] < p[1]):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def intersect(a, b):
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        start, end = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract(a, b):
    """Parts of a outside b."""
    out = []
    for start, end in a:
        for s, e in b:
            if e <= start or s >= end:
                continue
            if s > start:
                out.append((start, s))
            start = max(start, e)
        if start < end:
            out.append((start, end))
    return out


def total(pairs):
    return sum(e - s for s, e in pairs)


# -- set-up ---------------------------------------------------------------

def _exec_pairs(path):
    return [(iv.start, iv.end)
            for iv in executable_ranges(load_elf(path.read_bytes()))]


def _fde_code(path):
    """Code by unwind info: FDE ranges reported by readelf, within exec."""
    text = subprocess.run(["readelf", "--debug-dump=frames", str(path)],
                          check=True, capture_output=True, text=True).stdout
    pairs = [(int(a, 16), int(b, 16)) for a, b in _FDE.findall(text)]
    return intersect(merge(pairs), _exec_pairs(path))


def _copy_in(src, workdir, name):
    dst = workdir / name
    shutil.copyfile(src, dst)
    return dst


def cli(argv, tracer=None):
    """One `pxom` command in-process: ((start, end), exit code, stdout).

    With a tracer, the command is one span named cli.<command>.  The
    reference loop runs after the command for its share of the time.
    """
    argv = [str(a) for a in argv]
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = pxom_cli.main(argv)
        else:
            rc = tracer.call("cli." + argv[0], pxom_cli.main, argv)
    end = time.perf_counter()
    SPEED.after_command()
    return (start, end), rc, buf.getvalue()


def setup_system(workdir, seed, ledger):
    targets = []
    for name, src in SYSTEM_BINARIES:
        binary = _copy_in(src, workdir, name)
        targets.append(Target(name, binary, workdir / (name + ".xom"),
                              _fde_code(binary)))
    return targets, {}


def setup_corpus(workdir, seed, ledger):
    targets = []
    for entry in build_corpus(workdir, count=CORPUS_PROGRAMS, seed=seed):
        data = [(iv.start, iv.end)
                for iv in load_ground_truth(entry.ground_truth)]
        known = subtract(_exec_pairs(entry.binary), data)
        targets.append(Target(entry.binary.name, entry.binary,
                              workdir / (entry.binary.name + ".xom"), known,
                              ground_truth=entry.ground_truth))
    return targets, {}


def setup_trace(workdir, seed, ledger, hot):
    name, src = LIBC
    binary = _copy_in(src, workdir, name)
    target = Target(name, binary, workdir / (name + ".xom"), _fde_code(binary))
    span = ledger.run("protect %s" % name, protect_op, target, None)
    image = load_elf(target.out.read_bytes())
    lists = parse_xom_section(image)
    text = make_trace(lists, executable_ranges(image), random.Random(seed),
                      TRACE_READS, hot)
    target.trace = workdir / "trace.txt"
    target.trace.write_text(text)
    target.reads = TRACE_READS
    return [target], {"protect_s": span}


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _input_files(targets):
    files = []
    for t in targets:
        files += [p for p in (t.binary, t.ground_truth, t.trace) if p]
    return files


def setup(kind, workdir, seed, ledger):
    """One fresh set-up in workdir: (targets, seconds, extras, digest).

    Seconds are scaled by Speed.  extras holds the scaled seconds of
    commands inside set-up; digest identifies the inputs, which every
    set-up of one seed must reproduce byte for byte.
    """
    fn = {"system": setup_system, "corpus": setup_corpus,
          "trace-spread": lambda w, s, l: setup_trace(w, s, l, 0),
          "trace-hot": lambda w, s, l: setup_trace(w, s, l, HOT_BLOCKS)}[kind]
    workdir.mkdir(parents=True)
    SPEED.run()
    start = time.perf_counter()
    targets, spans = fn(workdir, seed, ledger)
    end = time.perf_counter()
    SPEED.run(REF_SHARE * (end - start))
    extras = {k: SPEED.scaled(span) for k, span in spans.items() if span}
    return (targets, SPEED.scaled((start, end)), extras,
            _digest(_input_files(targets)))


# -- operations and their output checks -----------------------------------

def _phdr_table(raw):
    fields = _EHDR.unpack_from(raw, 0)
    phoff, phentsize, phnum = fields[5], fields[9], fields[10]
    return raw[phoff:phoff + phentsize * phnum]


def check_protected(target):
    """Inspect a protected output; record its blocks; list the problems."""
    raw_in = target.binary.read_bytes()
    raw_out = target.out.read_bytes()
    problems = []
    image = load_elf(raw_out)
    if not is_xom_enabled(image):
        problems.append("xom flag not set")
    if _phdr_table(raw_out) != _phdr_table(raw_in):
        problems.append("program headers changed")
    ranges = executable_ranges(image)
    lists = parse_xom_section(image)
    lists.validate(ranges)
    target.blocks = sorted((b.interval.start, b.interval.end)
                           for b in lists.all_blocks())
    target.exec_ranges = [(iv.start, iv.end) for iv in ranges]
    known = total(target.known_code)
    target.cc = (known - total(intersect(target.blocks, target.known_code))) \
        / known
    if target.name == "ls":
        os.chmod(target.out, 0o755)
        run = subprocess.run([str(target.out), "--version"],
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=60)
        if run.returncode != 0:
            problems.append("protected ls --version exited %d"
                            % run.returncode)
    return problems


def protect_op(target, tracer):
    span, rc, _ = cli(["protect", "-i", target.binary, "-o", target.out],
                      tracer)
    if rc != 0:
        return span, ["exit %d" % rc]
    return span, check_protected(target)


def gadget_problems(gadgets, blocks):
    """Check that each (start, length) gadget lies inside one block.

    blocks is the sorted list of (start, end) superset blocks.
    """
    starts = [s for s, _ in blocks]
    bad = 0
    for start, length in gadgets:
        i = bisect_right(starts, start) - 1
        if i < 0 or start + length > blocks[i][1]:
            bad += 1
    return ["%d gadgets outside one superset block" % bad] if bad else []


def scan_op(target, tracer):
    out = target.out.with_suffix(".scan.json")
    span, rc, _ = cli(["scan", "-i", target.binary, "--depth", GADGET_DEPTH,
                       "--out", out], tracer)
    if rc != 0:
        return span, ["exit %d" % rc]
    gadgets = json.loads(out.read_text())["gadgets"]
    target.gadgets = len(gadgets)
    return span, gadget_problems([(g["start"], g["length"]) for g in gadgets],
                                 target.blocks)


def analyze_op(target, tracer):
    out = target.out.with_suffix(".analyze.json")
    span, rc, _ = cli(["analyze", "-i", target.binary, "--ground-truth",
                       target.ground_truth, "--out", out], tracer)
    if rc != 0:
        return span, ["exit %d" % rc]
    cc = json.loads(out.read_text())["cc"]
    return span, ([] if abs(cc - target.cc) < 1e-12
                  else ["cc %r, expected %r" % (cc, target.cc)])


def compare_op(target, tracer):
    out = target.out.with_suffix(".compare.json")
    span, rc, _ = cli(["compare", "-i", target.binary, "--ground-truth",
                       target.ground_truth, "--out", out], tracer)
    data = [(iv.start, iv.end)
            for iv in load_ground_truth(target.ground_truth)]
    unsound = total(data) - total(intersect(target.blocks, data))
    problems = [] if rc == 0 else ["exit %d" % rc]
    if rc in (0, 2):
        report = json.loads(out.read_text())
        if report["misclassified_bytes"] != unsound:
            problems.append("misclassified_bytes %d, expected %d"
                            % (report["misclassified_bytes"], unsound))
    target.unsound = unsound
    if unsound:
        problems.append("%d ground-truth data bytes classified as code"
                        % unsound)
    return span, problems


def ensure_trace(target, seed, reads, hot):
    if target.trace is None:
        image = load_elf(target.out.read_bytes())
        text = make_trace(parse_xom_section(image), executable_ranges(image),
                          random.Random("%d:%s" % (seed, target.name)), reads,
                          hot)
        target.trace = target.out.with_suffix(".trace")
        target.trace.write_text(text)
        target.reads = reads


def simulate_op(target, tracer):
    out = target.out.with_suffix(".simulate.json")
    span, rc, _ = cli(["simulate", "-i", target.out, "--trace", target.trace,
                       "--out", out], tracer)
    if rc != 0:
        return span, ["exit %d" % rc]
    report = json.loads(out.read_text())
    target.promotions = report["promotions"]
    lists = parse_xom_section(load_elf(target.out.read_bytes()))
    expected = predict(parse_trace(target.trace.read_text()), lists)
    problems = ["%s %r, oracle %r" % (k, report[k], v)
                for k, v in expected.items() if report[k] != v]
    return span, problems


# -- passes ---------------------------------------------------------------

def run_pass(kind, targets, ledger, seed, tracer=None, every_layer=False):
    """One pass of the workload's commands: (scaled, wall, reads).

    scaled and wall map each command to its seconds in the pass, scaled
    by Speed and as measured.

    With every_layer, a workload also runs those of protect and scan that
    it lacks, so that a traced pass reaches every layer on every workload.
    """
    spans = {}

    def op(command, fn, target):
        span = ledger.run("%s %s" % (command, target.name), fn, target,
                          tracer)
        spans.setdefault(command, []).extend([span] if span else [])

    trace_kind = kind.startswith("trace")
    reads = 0
    for t in targets:
        if every_layer or not trace_kind:
            op("protect", protect_op, t)
        if not trace_kind:
            ensure_trace(t, seed, *PASS_TRACES[kind])
        if kind == "system":
            # a second simulate before the long scan spreads the per-read
            # samples over the pass, which damps the machine's speed drift
            op("simulate", simulate_op, t)
            reads += t.reads
        if every_layer or kind == "system":
            op("scan", scan_op, t)
        if kind == "corpus":
            op("analyze", analyze_op, t)
            op("compare", compare_op, t)
        op("simulate", simulate_op, t)
        reads += t.reads
    SPEED.run()
    return ({c: sum(map(SPEED.scaled, s)) for c, s in spans.items()},
            {c: sum(e - b for b, e in s) for c, s in spans.items()}, reads)


def summarize(passes, targets, setup_extras):
    """End-to-end metrics, except set-up and memory, from measured passes."""
    protect = ([w["protect"] for w, _, _ in passes]
               if "protect" in passes[0][0]
               else [e["protect_s"] for e in setup_extras])
    exec_total = sum(total(t.exec_ranges) for t in targets)
    block_total = sum(total(t.blocks) for t in targets)
    return {
        "pass_s": statistics.median([sum(w.values()) for w, _, _ in passes]),
        "protect_s": statistics.median(protect),
        "simulate_us_per_read": statistics.median(
            [1e6 * w["simulate"] / reads for w, _, reads in passes]),
        "oc": (exec_total - block_total) / exec_total,
        "cc": statistics.fmean(t.cc for t in targets),
    }


# -- provenance and results -----------------------------------------------

def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def provenance(kind, seed, targets):
    gcc = subprocess.run(["gcc", "--version"], capture_output=True,
                         text=True).stdout.splitlines()
    prov = {
        "workload": kind,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "python": platform.python_version(),
        "gcc": gcc[0] if gcc else None,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    if kind == "corpus":
        prov["corpus_sha256"] = _digest(_input_files(targets))
        prov["corpus_programs"] = len(targets)
    else:
        prov["binaries_sha256"] = {t.name: _sha256(t.binary) for t in targets}
    prov["traces_sha256"] = _digest([t.trace for t in targets if t.trace])
    return prov


def run_workload(kind, seed, seconds, traced):
    workdir = WORK / ("%s-seed%d-trace%d" % (kind, seed, int(traced)))
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    ledger = Ledger()
    setup_times, extras, digests, passes = [], [], [], []
    measured = 0.0
    for i in range(SETUP_REPEATS):
        targets, took, extra, digest = setup(kind, workdir / ("setup-%d" % i),
                                             seed, ledger)
        setup_times.append(took)
        extras.append(extra)
        digests.append(digest)
        if i == 0:
            # warm up: the first pass of a process is slower; checks count
            run_pass(kind, targets[:1], ledger, seed)
        # The machine's speed drifts over tens of seconds, so the untraced
        # passes are spread over the set-up rounds rather than run at the end.
        while not traced and measured < seconds * (i + 1) / SETUP_REPEATS:
            start = time.perf_counter()
            passes.append(run_pass(kind, targets, ledger, seed))
            measured += time.perf_counter() - start
            measured_targets = targets
    ledger.record("set-up is reproducible",
                  [] if len(set(digests)) == 1
                  else ["inputs differ between set-ups of one seed"])
    detail = {"setup_s": setup_times}
    if traced:
        tracer = Tracer()
        with instrumented(tracer):
            start = time.perf_counter()
            run_pass(kind, targets, ledger, seed, tracer, every_layer=True)
            traced_s = time.perf_counter() - start
        totals, promoting, denied = probe(targets, ledger, seed)
        lines = sum(1 for t in targets
                    for line in t.trace.read_text().splitlines()
                    if line.split("#", 1)[0].strip())
        metrics = per_layer(tracer, totals, promoting, denied,
                            sum(t.gadgets for t in targets), lines)
        detail.update(traced_pass_s=traced_s, spans=tracer.table())
        expected = PER_LAYER
    else:
        while len(passes) < MIN_PASSES:
            passes.append(run_pass(kind, targets, ledger, seed))
            measured_targets = targets
        metrics = summarize(passes, measured_targets, extras)
        detail["passes"] = [w for w, _, _ in passes]
        detail["passes_wall"] = [w for _, w, _ in passes]
        detail["speed"] = SPEED.summary()
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        expected = END_TO_END
    if set(metrics) != set(expected):
        raise RuntimeError("metric set mismatch: %s"
                           % sorted(set(metrics) ^ set(expected)))
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": expected[name][0]}
                    for name in expected},
    }
    if traced:
        measured_targets = targets
    prov = provenance(kind, seed, measured_targets)
    outcomes = {}
    for key, attr in (("gadgets", "gadgets"), ("unsound_bytes", "unsound"),
                      ("promotions", "promotions")):
        values = [getattr(t, attr) for t in measured_targets]
        if None not in values:
            outcomes[key] = sum(values)
    bench = dict(result, provenance=prov, outcomes=outcomes, detail=detail,
                 failures=ledger.failures)
    (WORK / ("BENCH_%s-seed%d-trace%d.json" % (kind, seed, int(traced)))
     ).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(workdir)
    return result, prov, outcomes


# -- command line ---------------------------------------------------------

def _table(rows):
    width = max(len(r[0]) for r in rows)
    return "\n".join("  %-*s %16s %s" % (width, *r) for r in rows)


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for kind in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).with_name("run.py")),
                    "--workload", kind, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print("%s trace=%d: exit %d" % (kind, trace, proc.returncode))
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            print("%s (%s): correct=%s attempted=%d failed=%d %s"
                  % (kind, "per-layer, traced" if trace else "end-to-end",
                     result["correct"], result["attempted"],
                     result["failed"], " ".join(
                         "%s=%d" % kv for kv in info["outcomes"].items())))
            print(_table([(name, "%.6g" % m["value"], m["unit"])
                           for name, m in result["metrics"].items()]))
            if not result["correct"]:
                status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="pxom benchmark; prints one JSON result line last")
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, prov, outcomes = run_workload(args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    print(json.dumps({"provenance": prov, "outcomes": outcomes},
                     sort_keys=True))
    print(json.dumps(result))
    return 0
