"""Reference gadget enumerations for the scanner under test.

`brute_force_gadgets` re-decodes every byte offset of a block with
objdump (binary mode) and walks forward until a gadget terminator, an
aborting instruction, or the depth limit.  It shares no code with the
scanner.

`walk_gadgets` is the scanner's earlier algorithm: the same forward walk
from every offset, with pxom's own decoder.  It decodes each byte once
per walk that crosses it, so it is slow, but it is simple enough to
serve as the reference for the scanner's one-pass version.
"""

import re
import subprocess
import tempfile

from pxom import x86
from pxom.surface import _TERMINATORS, Gadget

from oracle_disasm import decode_at

_ROW = re.compile(r"\s*([0-9a-f]+):\s+((?:[0-9a-f]{2} )+)\s*\t?(.*)")


def _objdump_binary(data, vma):
    with tempfile.NamedTemporaryFile(suffix=".bin") as fh:
        fh.write(data)
        fh.flush()
        out = subprocess.run(
            ["objdump", "-D", "-b", "binary", "-m", "i386:x86-64",
             "--adjust-vma=%#x" % vma, fh.name],
            capture_output=True, text=True, check=True).stdout
    rows = []
    for line in out.splitlines():
        m = _ROW.match(line)
        if not m:
            continue
        addr, nbytes, text = (int(m.group(1), 16),
                              len(m.group(2).split()), m.group(3).strip())
        if not text and rows:
            rows[-1] = (rows[-1][0], rows[-1][1] + nbytes, rows[-1][2])
        else:
            rows.append((addr, nbytes, text))
    return rows


def _classify(text):
    mnemonic = text.split()[0] if text.split() else "(bad)"
    operand = text.split(None, 1)[1] if len(text.split(None, 1)) > 1 else ""
    if mnemonic == "notrack" or mnemonic == "bnd":
        rest = text.split(None, 1)[1] if " " in text else ""
        return _classify(rest)
    if "(bad)" in text:
        return "bad"
    if mnemonic in ("ret", "retq", "lret", "lretq") or \
            (mnemonic == "repz" and "ret" in operand):
        return "ret"
    if mnemonic in ("jmp", "jmpq"):
        return "jmp_reg" if operand.startswith("*") else "abort"
    if mnemonic in ("call", "callq"):
        return "call_reg" if operand.startswith("*") else "abort"
    if mnemonic.startswith("j") or mnemonic in ("loop", "loope", "loopne",
                                                "jrcxz", "jecxz"):
        return "abort"
    if mnemonic in ("hlt", "int3", "ud2"):
        return "abort"
    return "continue"


def brute_force_gadgets(block_bytes, block_start, max_instructions=10):
    """Set of (start_vaddr, terminator) gadgets fully inside the block."""
    gadgets = set()
    size = len(block_bytes)
    for start in range(size):
        rows = _objdump_binary(block_bytes[start:], block_start + start)
        count = 0
        pos = 0
        for _addr, nbytes, text in rows:
            if count >= max_instructions:
                break
            cls = _classify(text)
            pos += nbytes
            if cls == "bad" or pos > size - start:
                break
            count += 1
            if cls in ("ret", "jmp_reg", "call_reg"):
                gadgets.add((block_start + start, cls))
                break
            if cls == "abort":
                break
    return gadgets


def walk_gadgets(image, report, max_instructions=10):
    """Gadget list of a forward walk from every superset offset."""
    gadgets = {}
    for block in report.superset:
        for start in range(block.start, block.end):
            va = start
            count = 0
            while count < max_instructions and va < block.end:
                ins = decode_at(image, va)
                if ins is None or va + ins[0] > block.end:
                    break
                count += 1
                end, kind = va + ins[0], ins[1]
                term = _TERMINATORS.get(kind)
                if term is not None:
                    key = (start, term)
                    if key not in gadgets:
                        gadgets[key] = Gadget(start, end - start, count,
                                              term)
                    break
                if kind != x86.FALLTHROUGH:
                    break
                va = end
    return sorted(gadgets.values(), key=lambda g: (g.start, g.terminator))
