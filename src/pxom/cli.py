"""Command-line front end.

Subcommands: protect, print, analyze, simulate, scan, compare,
gen-corpus.  Reports are one line of JSON with sorted keys, on stdout
(or --out).  Exit codes: 0 success, 1 input/pipeline error, 2
soundness-gate failure (compare).
"""

import argparse
import functools
import hashlib
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

from . import __version__
from .corpus import build_corpus, load_ground_truth
from .disasm import collector_paused, compute_superset
from .errors import PxomError
from .image import executable_ranges, is_xom_enabled, load_elf, parse_xom_section
from .monitor import new_monitor, parse_trace
from .protector import protect_image
from .surface import gadget_scan, metrics, wrpkru_scan

REPORT_SCHEMA = 1


def _base_report(command, path, data):
    return {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "command": command,
        "input": str(path),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def _write_output(path, data):
    """Write data to path in place; every command output goes through here.

    The path is opened without O_TRUNC, and a regular file is cut at the
    end of data afterwards.  On ext4, truncating a file that holds data
    to length 0 frees its blocks at open and starts writeback at close
    (`auto_da_alloc`): milliseconds per output when a command writes over
    its previous output.  A cut to a non-zero length does neither.  The
    inode, mode and hard links are kept and a symlink is written
    through, as with O_TRUNC.  A failed write leaves a partly rewritten
    file, as a failed truncate-then-write did.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _emit(report, out):
    text = json.dumps(report, sort_keys=True)
    if out:
        _write_output(out, (text + "\n").encode())
    else:
        print(text)


def cmd_protect(args):
    data = Path(args.input).read_bytes()
    image = load_elf(data)
    protected, report, lists = protect_image(image)
    output = Path(args.output)
    _write_output(output, protected.raw)
    # the output runs wherever the input does; no mode bit is taken away,
    # and a device or FIFO (-o /dev/null) keeps its mode
    mode = output.stat().st_mode
    wanted = mode | (Path(args.input).stat().st_mode & 0o111)
    if stat.S_ISREG(mode) and wanted != mode:
        output.chmod(wanted)
    blocks = len(lists.regular) + len(lists.optimization)
    oc = report.code.total_bytes / report.executable_total
    print("protected %s -> %s: %d blocks, overall coverage %.4f"
          % (args.input, args.output, blocks, oc))
    return 0


def cmd_print(args):
    data = Path(args.input).read_bytes()
    lists = parse_xom_section(load_elf(data))
    for name, blocks in (("optimization", lists.optimization),
                         ("regular", lists.regular)):
        for b in sorted(blocks, key=lambda b: b.interval.start):
            print("%s %#x %#x refs=%d" % (name, b.interval.start,
                                          b.interval.end, b.static_ref_count))
    return 0


def cmd_analyze(args):
    start = time.perf_counter()
    # a bad ground-truth file fails before the disassembly, not after it
    gt_data = (load_ground_truth(args.ground_truth) if args.ground_truth
               else None)
    data = Path(args.input).read_bytes()
    image = load_elf(data)
    report = compute_superset(image)
    gt_code = None
    if gt_data is not None:
        gt_code = executable_ranges(image)
        for iv in gt_data:
            gt_code.remove(iv.start, iv.end)
    m = metrics(report, gt_code)
    out = _base_report("analyze", args.input, data)
    out.update({
        "cc": m.code_coverage,
        "oc": m.overall_coverage,
        "edb_count": m.edb_count,
        "avg_edb_size": m.avg_edb_size,
        "readable_fraction": m.readable_fraction,
        "executable_bytes": report.executable_total,
        "entry_points": {
            src: sum(1 for ep in report.entry_points if ep.source == src)
            for src in sorted({ep.source for ep in report.entry_points})},
        "seconds": time.perf_counter() - start,
    })
    _emit(out, args.out)
    return 0


def cmd_simulate(args):
    start = time.perf_counter()
    data = Path(args.input).read_bytes()
    image = load_elf(data)
    lists = parse_xom_section(image)
    mon = new_monitor(lists, executable_ranges(image))
    events = parse_trace(Path(args.trace).read_text())
    trace_report = mon.run_trace(events)
    out = _base_report("simulate", args.input, data)
    out.update({
        "allowed": trace_report.allowed,
        "denied": trace_report.denied,
        "promotions": trace_report.promotions,
        "reads": trace_report.reads,
        "executed_instructions": trace_report.executed_instructions,
        "read_intensity": trace_report.read_intensity,
        "optimization_size": trace_report.optimization_size,
        "denial": _denial(trace_report.denial),
        "promoted": trace_report.promoted,
        "seconds": time.perf_counter() - start,
    })
    _emit(out, args.out)
    return 0


def _denial(denial):
    """The denied read, why, and the block nearest to it, or None."""
    if denial is None:
        return None
    request, reason, block = denial
    return {"addr": request.addr, "size": request.size, "reason": reason,
            "block": (None if block is None
                      else [block.interval.start, block.interval.end])}


def cmd_scan(args):
    start = time.perf_counter()
    data = Path(args.input).read_bytes()
    image = load_elf(data)
    report = compute_superset(image)
    gadgets = gadget_scan(image, report, args.depth)
    wrpkru = wrpkru_scan(image, report)
    out = _base_report("scan", args.input, data)
    out.update({
        "gadgets": [{"start": g.start, "length": g.length,
                     "instructions": g.instruction_count,
                     "terminator": g.terminator} for g in gadgets],
        "wrpkru": [{"vaddr": va, "where": label} for va, label in wrpkru],
        "seconds": time.perf_counter() - start,
    })
    _emit(out, args.out)
    return 0


def cmd_compare(args):
    gt_data = load_ground_truth(args.ground_truth)
    data = Path(args.input).read_bytes()
    image = load_elf(data)
    report = compute_superset(image)
    misclassified = report.code.intersection_size(gt_data)
    out = _base_report("compare", args.input, data)
    out.update({
        "ground_truth_data_bytes": gt_data.total_bytes,
        "misclassified_bytes": misclassified,
        "sound": misclassified == 0,
    })
    _emit(out, args.out)
    return 0 if misclassified == 0 else 2


def cmd_gen_corpus(args):
    entries = build_corpus(args.outdir, count=args.count, seed=args.seed)
    print("generated %d binaries in %s" % (len(entries), args.outdir))
    return 0


@functools.cache
def build_parser():
    """The pxom argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pxom",
        description="Execute-only-memory hardening toolchain and "
                    "enforcement simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protect", help="emit a protected binary")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_protect)

    p = sub.add_parser("print", help="print the block lists of a protected binary")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_print)

    p = sub.add_parser("analyze", help="disassembly coverage metrics")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--ground-truth")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run a read trace against a protected binary")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="gadget and WRPKRU surface scan")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("compare", help="soundness gate against ground truth")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen-corpus", help="generate synthetic test binaries")
    p.add_argument("--outdir", required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_gen_corpus)
    return parser


def main(argv=None):
    """Run one pxom command with the cyclic garbage collector paused.

    See `collector_paused`: every command, not only the disassembly,
    allocates one object per instruction or gadget, and none builds a
    reference cycle (the CLI tests assert `gc.collect() == 0` after
    every command).  The caller's collector state is restored.
    """
    args = build_parser().parse_args(argv)
    try:
        with collector_paused():
            return args.func(args)
    except PxomError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        # a gen-corpus toolchain step; its captured stderr says why
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        last = stderr.splitlines()[-1] if stderr else "no output"
        print("error: %s exited %d: %s" % (exc.cmd[0], exc.returncode, last),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
