"""Seeded read traces for `pxom simulate` and an oracle for their report.

A trace is written in the grammar `pxom simulate` reads: `R <hex addr>
<decimal size>` for a faulting read, `I <count>` for executed
instructions, `#` comments.  Every read but the last lies inside one
listed block; the last one crosses a block end into code, so the
simulation always ends in exactly one denial.

`predict` works from the trace and the initial block lists alone, with
its own containment lookup and read counting, so it does not share code
with `pxom.monitor`.
"""

from bisect import bisect_right

PROMOTION_THRESHOLD = 100     # a regular block's 101st read promotes it
HOT_SHARE = 0.8               # share of reads sent to the hot set
INSN_EVERY = 8                # one `I` line after this many reads
MAX_READ = 64


def _intervals(blocks):
    return sorted((b.interval.start, b.interval.end) for b in blocks)


def make_trace(lists, exec_ranges, rng, reads, hot=0):
    """Trace text with `reads` reads over the blocks of `lists`.

    With hot > 0, HOT_SHARE of the reads go to `hot` regular blocks
    chosen by `rng`; the rest are spread uniformly over all blocks.
    `exec_ranges` is an IntervalSet of the executable ranges; the final
    read crosses the end of a block into executable bytes outside it.
    """
    if reads < 2:
        raise ValueError("a trace needs at least two reads")
    blocks = _intervals(lists.all_blocks())
    regular = _intervals(lists.regular)
    hot_set = rng.sample(regular, min(hot, len(regular))) if hot else []
    lines = ["# pxom benchmark trace: %d reads, %d hot blocks"
             % (reads, len(hot_set))]
    for i in range(reads - 1):
        if hot_set and rng.random() < HOT_SHARE:
            start, end = rng.choice(hot_set)
        else:
            start, end = rng.choice(blocks)
        size = rng.randint(1, min(MAX_READ, end - start))
        addr = rng.randrange(start, end - size + 1)
        lines.append("R %x %d" % (addr, size))
        if i % INSN_EVERY == INSN_EVERY - 1:
            lines.append("I %d" % rng.randint(1, 5000))
    lines.append("I %d" % rng.randint(1, 5000))
    crossing = [(s, e) for s, e in blocks
                if exec_ranges.contains_range(e, 4)]
    start, end = rng.choice(crossing)
    addr = max(start, end - 4)
    lines.append("R %x %d" % (addr, end + 4 - addr))
    return "\n".join(lines) + "\n"


def _containing(starts, ends, addr, size):
    i = bisect_right(starts, addr) - 1
    if i >= 0 and addr + size <= ends[i]:
        return i
    return None


def predict(events, lists):
    """The `pxom simulate` report fields that `events` must produce.

    `events` is a parsed trace: ("R", addr, size) and ("I", count)
    tuples.  A read is allowed when one block holds all of it; the
    first read that no block holds is denied and ends the trace.
    """
    opt = _intervals(lists.optimization)
    regular = set(_intervals(lists.regular))
    blocks = sorted(opt + list(regular))
    starts = [s for s, _ in blocks]
    ends = [e for _, e in blocks]
    counts = [0] * len(blocks)
    allowed = denied = reads = executed = promotions = 0
    for event in events:
        if event[0] == "I":
            executed += event[1]
            continue
        reads += 1
        i = _containing(starts, ends, event[1], event[2])
        if i is None:
            denied = 1
            break
        allowed += 1
        counts[i] += 1
        if counts[i] == PROMOTION_THRESHOLD + 1 and blocks[i] in regular:
            promotions += 1
    return {
        "allowed": allowed,
        "denied": denied,
        "promotions": promotions,
        "reads": reads,
        "executed_instructions": executed,
        "read_intensity": reads / executed if executed else None,
        "optimization_size": len(opt) + promotions,
    }
