import os
import random
import shutil
import struct
import subprocess

import pytest

from pxom.corpus import build_program, generate_program

EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
PHDR = struct.Struct("<IIQQQQQQ")


def make_elf(segments, entry=0, elf_type=2):
    """Hand-built minimal ELF64: segments = [(vaddr, flags, payload)]."""
    phoff = EHDR.size
    body_off = phoff + PHDR.size * len(segments)
    ident = b"\x7fELF" + bytes([2, 1, 1]) + b"\x00" * 9
    phdrs = b""
    body = b""
    for vaddr, flags, payload in segments:
        phdrs += PHDR.pack(1, flags, body_off + len(body), vaddr, vaddr,
                           len(payload), len(payload), 0x1000)
        body += payload
    ehdr = EHDR.pack(ident, elf_type, 62, 1, entry, phoff, 0, 0,
                     EHDR.size, PHDR.size, len(segments), 0, 0, 0)
    return ehdr + phdrs + body


def exec_elf(code, vaddr=0x1000, entry=None):
    """One-exec-segment image around raw code bytes."""
    return make_elf([(vaddr, 5, bytes(code))],
                    entry=vaddr if entry is None else entry)


def range_bytes_fit(image):
    """Whether the bytes of each executable range (image.code_at) are
    exactly as long as the range.  disasm._traverse relies on it: it
    decodes up to its superset run's end, and clears a failed walk's
    marks, without clamping either to the range's bytes."""
    return all(len(image.code_at(start)[1]) == end - start
               for start, end in image.exec_ranges.pairs())


def pytest_runtest_logreport(report):
    """One pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print("\n[%s] %s (%.1fs)" % (status, name, report.duration))


def require_tool(*names):
    for name in names:
        if shutil.which(name) is None:
            pytest.skip("%s not available" % name)


# what build_program and build_corpus run
CORPUS_TOOLS = ("as", "ld", "strip")


def fail_tool(tmp_path, monkeypatch, name):
    """Put first on PATH a `name` that prints `NAME: broken` to stderr
    and exits 1."""
    bindir = tmp_path / "bin"
    bindir.mkdir(exist_ok=True)
    fake = bindir / name
    fake.write_text("#!/bin/sh\necho '%s: broken' >&2\nexit 1\n" % name)
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", "%s:%s" % (bindir, os.environ["PATH"]))


STATIC_SWITCH = os.path.join(os.path.dirname(__file__), "static_switch.c")


def build_static_switch(outdir, flags):
    """tests/static_switch.c linked against glibc's static archive with
    gcc and flags, as outdir/static_switch; skips without gcc or
    libc.a."""
    require_tool("gcc")
    libc_a = subprocess.run(["gcc", "-print-file-name=libc.a"],
                            capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libc_a):
        pytest.skip("static libc not available")
    binary = outdir / "static_switch"
    subprocess.run(["gcc", *flags, "-o", str(binary), STATIC_SWITCH],
                   check=True)
    return binary


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Small corpus for module tests (the acceptance suite builds its own)."""
    require_tool(*CORPUS_TOOLS)
    outdir = tmp_path_factory.mktemp("corpus")
    rng = random.Random(42)
    entries = []
    for i in range(6):
        entries.append(build_program(generate_program(rng), outdir,
                                     "prog_%02d" % i))
    return entries


@pytest.fixture(scope="session")
def hello_binaries(tmp_path_factory):
    require_tool("gcc")
    workdir = tmp_path_factory.mktemp("hello")
    src = workdir / "hello.c"
    src.write_text('#include <stdio.h>\n'
                   'int main(void) { puts("hello, world"); return 0; }\n')
    binary = workdir / "hello"
    subprocess.run(["gcc", "-O2", "-o", str(binary), str(src)], check=True)
    return workdir, binary
