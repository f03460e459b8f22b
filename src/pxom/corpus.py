"""Synthetic test-binary generator with exact ground truth.

Emits small freestanding assembly programs that interleave code with the
four embedded-data shapes seen in real binaries (constants, arrays,
NUL-terminated strings, jump tables), assembles each with `as` and
links it with `ld`, derives byte-exact data/code ground truth from the
marker symbols in the binary's symbol table, then strips the binaries,
up to 128 in one `strip` call.  Requires `as`, `ld` and `strip` on
PATH.
"""

import os
import random
import struct
import subprocess
from collections import namedtuple
from pathlib import Path

from .errors import GroundTruthParse, Malformed
from .image import SHT_SYMTAB, executable_ranges, load_elf
from .intervals import IntervalSet

_SYM = struct.Struct("<IBBHQQ")     # Elf64_Sym

# binaries per strip call: even at PATH_MAX each, 128 paths take 512 KiB
# of argv, well under Linux's 2 MiB ARG_MAX
_STRIP_BATCH = 128

_SAFE_OPS = (
    "mov ${imm}, %eax",
    "add ${imm}, %eax",
    "xor %edx, %edx",
    "mov %eax, %r8d",
    "imul ${imm}, %eax, %ecx",
    "sub %ecx, %eax",
    "not %rdx",
    "shl $3, %rax",
)


CorpusEntry = namedtuple("CorpusEntry", "binary ground_truth source")


def _island(rng, idx, force_kind=None):
    kind = force_kind or rng.choice(("constant", "array", "string"))
    lines = ["gtd_%d_s:" % idx]
    if kind == "constant":
        for _ in range(rng.randint(1, 4)):
            lines.append("\t.quad %#x" % rng.getrandbits(64))
    elif kind == "array":
        n = rng.randint(8, 64)
        lines.append("\t.byte " + ", ".join(
            str(rng.randrange(256)) for _ in range(n)))
    else:
        for _ in range(rng.randint(1, 3)):
            text = "".join(rng.choice("abcdefghijklmnop_0123456789")
                           for _ in range(rng.randint(4, 20)))
            lines.append('\t.asciz "%s"' % text)
    lines.append("gtd_%d_e:" % idx)
    return lines


def _body(rng, data_labels):
    lines = []
    for _ in range(rng.randint(2, 8)):
        op = rng.choice(_SAFE_OPS)
        lines.append("\t" + op.format(imm=rng.randint(1, 1 << 20)))
    for _ in range(2):
        if data_labels and rng.random() < 0.8:
            label = rng.choice(data_labels)
            lines.append("\tleaq %s(%%rip), %%rsi" % label)
            if rng.random() < 0.5:
                lines.append("\tmovl %s(%%rip), %%eax" % label)
    return lines


def generate_program(rng):
    """The assembly text of one program."""
    parts = [
        "\t.text",
        "\t.globl _start",
    ]
    n_direct = rng.randint(3, 6)
    n_heuristic = rng.randint(1, 2)
    n_addr_taken = rng.randint(0, 1)
    n_unwind = rng.randint(0, 2)

    data_labels = []
    island_idx = 0
    func_idx = 0

    def new_island(force_kind=None):
        nonlocal island_idx
        label = "gtd_%d_s" % island_idx
        lines = _island(rng, island_idx, force_kind)
        island_idx += 1
        data_labels.append(label)
        return lines

    def func(body_lines, cfi=False):
        nonlocal func_idx
        base = "gtf_%d" % func_idx
        func_idx += 1
        out = ["\t.p2align 4"]
        out.append("%s_s:" % base)
        if cfi:
            out.append("\t.cfi_startproc")
        out.append("\tendbr64")
        out.append("\tpushq %rbp")
        out.append("\tmovq %rsp, %rbp")
        out.extend(body_lines)
        out.append("\tpopq %rbp")
        out.append("\tret")
        if cfi:
            out.append("\t.cfi_endproc")
        out.append("%s_e:" % base)
        return base, out

    # a few leading islands so data precedes code too
    for _ in range(rng.randint(1, 2)):
        parts.extend(new_island())

    direct_names = []
    for _ in range(n_direct):
        name, lines = func(_body(rng, data_labels))
        direct_names.append(name)
        parts.extend(lines)
        if rng.random() < 0.6:
            parts.extend(new_island())

    # a heavily-referenced island: feeds the >10 static-ref policy
    if rng.random() < 0.5:
        hot = new_island("constant")
        parts.extend(hot)
        hot_label = data_labels[-1]
        body = ["\tmovl %s(%%rip), %%eax" % hot_label for _ in range(12)]
        name, lines = func(body)
        direct_names.append(name)
        parts.extend(lines)

    switch_name, switch_lines, table_lines = _switch_function(
        rng, func_idx, island_idx)
    func_idx += 1
    island_idx += 1
    parts.extend(switch_lines)
    parts.extend(table_lines)

    for _ in range(n_heuristic):
        _, lines = func(_body(rng, data_labels))
        parts.extend(lines)

    taken_names = []
    for _ in range(n_addr_taken):
        name, lines = func(_body(rng, data_labels))
        taken_names.append(name)
        parts.extend(lines)

    for _ in range(n_unwind):
        _, lines = func(_body(rng, data_labels), cfi=True)
        parts.extend(lines)

    entry = ["\t.p2align 4", "gtf_%d_s:" % func_idx, "_start:"]
    for name in direct_names:
        entry.append("\tcall %s_s" % name)
    entry.append("\tmovl $%d, %%edi" % rng.randrange(4))
    entry.append("\tcall %s_s" % switch_name)
    entry.append("\tmovl $60, %eax")
    entry.append("\txorl %edi, %edi")
    entry.append("\tsyscall")
    entry.append("\tud2")
    entry.append("gtf_%d_e:" % func_idx)
    parts.extend(entry)

    if taken_names:
        parts.append('\t.section .rodata')
        parts.append("\t.balign 8")
        for name in taken_names:
            parts.append("\t.quad %s_s" % name)
        parts.append("\t.text")

    return "\n".join(parts) + "\n"


def _switch_function(rng, func_idx, island_idx):
    n_cases = rng.randint(3, 8)
    base = "gtf_%d" % func_idx
    table = "gtd_%d_s" % island_idx
    lines = [
        "\t.p2align 4",
        "%s_s:" % base,
        "\tendbr64",
        "\tmovl %edi, %ecx",
        "\tcmpl $%d, %%ecx" % (n_cases - 1),
        "\tja %s_done" % base,
        "\tleaq %s(%%rip), %%rax" % table,
        "\tmovslq (%rax,%rcx,4), %rdx",
        "\taddq %rdx, %rax",
        "\tjmp *%rax",
    ]
    for i in range(n_cases):
        lines.append("%s_case%d:" % (base, i))
        lines.append("\tmovl $%d, %%eax" % rng.randint(0, 999))
        lines.append("\tjmp %s_done" % base)
    lines.append("%s_done:" % base)
    lines.append("\tret")
    lines.append("%s_e:" % base)
    table_lines = ["%s:" % table]
    for i in range(n_cases):
        table_lines.append("\t.long %s_case%d - %s" % (base, i, table))
    table_lines.append("gtd_%d_e:" % island_idx)
    return base, lines, table_lines


def _read_markers(image):
    """Name -> value of every named, defined symbol in the image's
    SHT_SYMTAB section (the unstripped binary's static symbols)."""
    for symtab in image.sections:
        if symtab.sh_type == SHT_SYMTAB:
            break
    else:
        raise Malformed("no symbol table")
    names = image.sections[symtab.link].data(image.raw)
    symbols = {}
    for st_name, _info, _other, st_shndx, st_value, _size in \
            _SYM.iter_unpack(symtab.data(image.raw)):
        if st_name and st_shndx:
            end = names.index(b"\0", st_name)
            symbols[names[st_name:end].decode()] = st_value
    return symbols


def _run(argv):
    # captured: pxom.cli reports the last stderr line of a failing tool
    subprocess.run(argv, check=True, capture_output=True)


def _link(asm_text, workdir, name):
    """Assemble and link one program, unstripped, and write its ground
    truth.  Returns a CorpusEntry."""
    workdir = Path(workdir)
    src = workdir / ("%s.s" % name)
    obj = workdir / ("%s.o" % name)
    binary = workdir / name
    gt = workdir / ("%s.gt" % name)
    src.write_text(asm_text)
    try:
        _run(["as", "-o", str(obj), str(src)])
        _run(["ld", "--build-id=none", "-o", str(binary), str(obj)])
    finally:
        obj.unlink(missing_ok=True)

    image = load_elf(binary.read_bytes())
    symbols = _read_markers(image)
    data = executable_ranges(image)
    i = 0
    while ("gtf_%d_s" % i) in symbols:
        # remove ignores an empty function
        data.remove(symbols["gtf_%d_s" % i], symbols["gtf_%d_e" % i])
        i += 1

    with gt.open("w") as fh:
        for iv in data:
            fh.write("%#x %#x\n" % (iv.start, iv.end))
    return CorpusEntry(binary=binary, ground_truth=gt, source=src)


def _strip(entries):
    """Strip the entries' binaries, _STRIP_BATCH to a strip call."""
    paths = [str(entry.binary) for entry in entries]
    for i in range(0, len(paths), _STRIP_BATCH):
        _run(["strip", *paths[i:i + _STRIP_BATCH]])


def build_program(asm_text, workdir, name):
    """Assemble, derive ground truth, strip.  Returns a CorpusEntry."""
    entry = _link(asm_text, workdir, name)
    _strip([entry])
    return entry


def build_corpus(outdir, count=50, seed=1):
    """Generate `count` programs from one seeded rng, in order, then
    link them one per usable CPU at a time and strip them all at the
    end.  Entries come back in program order, and the files do not
    depend on the build order."""
    # imported here, not at module level: pxom.cli imports this module,
    # and concurrent.futures (which pulls in logging) would add about
    # 10 ms to the start of every pxom command, not just gen-corpus
    from concurrent.futures import ThreadPoolExecutor

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    programs = [generate_program(rng) for _ in range(count)]
    if not programs:
        return []
    names = ["prog_%03d" % i for i in range(count)]
    # the threads spend their time waiting on as and ld
    workers = min(len(os.sched_getaffinity(0)), count)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        entries = list(pool.map(_link, programs, [outdir] * count, names))
    _strip(entries)
    return entries


def load_ground_truth(path):
    """Parse a `0xSTART 0xEND` per-line interval file.

    Blank lines and `#` comments are skipped.  Any other line that is
    not two hex numbers with 0 <= START < END, or a byte that is not
    UTF-8, raises GroundTruthParse.
    """
    pairs = []
    text = GroundTruthParse.decode(Path(path).read_bytes())
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            start_s, end_s = line.split()
            start, end = int(start_s, 16), int(end_s, 16)
        except ValueError:
            start = end = 0
        if not 0 <= start < end:
            raise GroundTruthParse("expected `0xSTART 0xEND` with "
                                   "0 <= START < END, got %r" % line, lineno)
        pairs.append((start, end))
    return IntervalSet.from_pairs(pairs)
