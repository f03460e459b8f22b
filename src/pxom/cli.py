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
from collections import Counter
from pathlib import Path

from . import __version__
from .corpus import build_corpus, load_ground_truth
from .disasm import collector_paused, compute_superset
from .errors import PxomError, TraceParse
from .image import executable_ranges, load_elf, parse_xom_section
from .monitor import new_monitor, parse_trace
from .protector import protect_image
from .surface import (DEFAULT_GADGET_DEPTH, gadget_scan, metrics,
                      overall_coverage, wrpkru_scan)

REPORT_SCHEMA = 1


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


def _load(args):
    """The image of the ELF file named by --input."""
    return load_elf(Path(args.input).read_bytes())


def _report(command, args, data, fields):
    """Write the envelope every report shares and then fields, as one
    line of JSON with sorted keys, to --out or stdout; returns 0."""
    text = json.dumps({"schema": REPORT_SCHEMA, "tool_version": __version__,
                       "command": command, "input": str(args.input),
                       "sha256": hashlib.sha256(data).hexdigest(), **fields},
                      sort_keys=True)
    if args.out:
        _write_output(args.out, (text + "\n").encode())
    else:
        print(text)
    return 0


def cmd_protect(args):
    protected, report, lists = protect_image(_load(args))
    output = Path(args.output)
    _write_output(output, protected.raw)
    # the output runs wherever the input does; no mode bit is taken away,
    # and a device or FIFO (-o /dev/null) keeps its mode
    mode = output.stat().st_mode
    wanted = mode | (Path(args.input).stat().st_mode & 0o111)
    if stat.S_ISREG(mode) and wanted != mode:
        output.chmod(wanted)
    blocks = len(lists.regular) + len(lists.optimization)
    print("protected %s -> %s: %d blocks, overall coverage %.4f"
          % (args.input, args.output, blocks, overall_coverage(report)))
    return 0


def cmd_print(args):
    lists = parse_xom_section(_load(args))
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
    image = _load(args)
    report = compute_superset(image)
    gt_code = None
    if gt_data is not None:
        gt_code = executable_ranges(image)
        for iv in gt_data:
            gt_code.remove(iv.start, iv.end)
    m = metrics(report, gt_code)
    return _report("analyze", args, image.raw, {
        "cc": m.code_coverage,
        "oc": m.overall_coverage,
        "edb_count": m.edb_count,
        "avg_edb_size": m.avg_edb_size,
        "readable_fraction": m.readable_fraction,
        "executable_bytes": report.executable_total,
        "entry_points": Counter(ep.source for ep in report.entry_points),
        "seconds": time.perf_counter() - start,
    })


def cmd_simulate(args):
    start = time.perf_counter()
    image = _load(args)
    # parse_xom_section has checked the blocks against the image's ranges
    mon = new_monitor(parse_xom_section(image))
    text = TraceParse.decode(Path(args.trace).read_bytes())
    trace_report = mon.run_trace(parse_trace(text))
    return _report("simulate", args, image.raw, {
        **vars(trace_report),
        "denial": _denial(trace_report.denial),
        "seconds": time.perf_counter() - start,
    })


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
    image = _load(args)
    report = compute_superset(image)
    gadgets = gadget_scan(image, report, args.depth)
    wrpkru = wrpkru_scan(image, report)
    # the output needs no more of the report, which holds no instruction
    # record: free its start map (a byte per executable byte), references
    # and intervals before the gadget dicts and the JSON text are built
    del report
    return _report("scan", args, image.raw, {
        "gadgets": [{"start": g.start, "length": g.length,
                     "instructions": g.instruction_count,
                     "terminator": g.terminator} for g in gadgets],
        "wrpkru": [{"vaddr": va, "where": label} for va, label in wrpkru],
        "seconds": time.perf_counter() - start,
    })


def cmd_compare(args):
    gt_data = load_ground_truth(args.ground_truth)
    image = _load(args)
    misclassified = compute_superset(image).code.intersection_size(gt_data)
    _report("compare", args, image.raw, {
        "ground_truth_data_bytes": gt_data.total_bytes,
        "misclassified_bytes": misclassified,
        "sound": misclassified == 0,
    })
    return 0 if misclassified == 0 else 2


def cmd_gen_corpus(args):
    entries = build_corpus(args.outdir, count=args.count, seed=args.seed)
    print("generated %d binaries in %s" % (len(entries), args.outdir))
    return 0


def _at_least(floor):
    """An argparse type: an int of floor or more."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = floor - 1
        if value < floor:
            raise argparse.ArgumentTypeError(
                "expected an int of %d or more, got %r" % (floor, text))
        return value
    return parse


@functools.cache
def build_parser():
    """The pxom argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pxom",
        description="Execute-only-memory hardening toolchain and "
                    "enforcement simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("-i", "--input", required=True)
        p.set_defaults(func=func)
        return p

    p = command("protect", cmd_protect, "emit a protected binary")
    p.add_argument("-o", "--output", required=True)
    command("print", cmd_print, "print the block lists of a protected binary")
    p = command("analyze", cmd_analyze, "disassembly coverage metrics")
    p.add_argument("--ground-truth")
    p.add_argument("--out")
    p = command("simulate", cmd_simulate,
                "run a read trace against a protected binary")
    p.add_argument("--trace", required=True)
    p.add_argument("--out")
    p = command("scan", cmd_scan, "gadget and WRPKRU surface scan")
    p.add_argument("--depth", type=_at_least(1),
                   default=DEFAULT_GADGET_DEPTH)
    p.add_argument("--out")
    p = command("compare", cmd_compare, "soundness gate against ground truth")
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--out")

    p = sub.add_parser("gen-corpus", help="generate synthetic test binaries")
    p.add_argument("--outdir", required=True)
    p.add_argument("--count", type=_at_least(0), default=50)
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
