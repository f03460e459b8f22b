import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pxom
from pxom.corpus import (_read_markers, build_corpus, build_program,
                         generate_program)
from pxom.image import load_elf

from conftest import require_tool


def nm_markers(binary):
    """gtf_/gtd_ name -> value, as `nm` prints them."""
    out = subprocess.run(["nm", str(binary)], check=True,
                         capture_output=True, text=True).stdout
    symbols = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[2].startswith(("gtf_", "gtd_")):
            symbols[fields[2]] = int(fields[0], 16)
    return symbols


class TestMarkers:
    @pytest.mark.parametrize("seed", [1, 5, 20240824])
    def test_symtab_reader_equals_nm(self, tmp_path, seed):
        require_tool("gcc")
        require_tool("nm")
        rng = random.Random(seed)
        for i in range(3):
            asm = generate_program(rng)
            src = tmp_path / ("p%d.s" % i)
            binary = tmp_path / ("p%d" % i)
            src.write_text(asm)
            # build_program's gcc command, without its strip
            subprocess.run(
                ["gcc", "-nostdlib", "-static", "-no-pie",
                 "-Wl,--build-id=none", "-o", str(binary), str(src)],
                check=True, capture_output=True)
            ours = {name: va for name, va
                    in _read_markers(load_elf(binary.read_bytes())).items()
                    if name.startswith(("gtf_", "gtd_"))}
            assert ours == nm_markers(binary)
            assert set(re.findall(r"(?m)^(gtf_\d+_s):", asm)) <= ours.keys()


class TestBuildCorpus:
    def test_equals_sequential_build(self, tmp_path):
        require_tool("gcc")
        entries = build_corpus(tmp_path / "pool", count=8, seed=5)
        names = ["prog_%03d" % i for i in range(8)]
        assert [e.binary.name for e in entries] == names
        # reference: one build_program after the other over the same rng
        ref_dir = tmp_path / "seq"
        ref_dir.mkdir()
        rng = random.Random(5)
        for i in range(8):
            build_program(generate_program(rng), ref_dir, names[i])
        for entry, name in zip(entries, names):
            for got, suffix in ((entry.source, ".s"), (entry.binary, ""),
                                (entry.ground_truth, ".gt")):
                assert got == tmp_path / "pool" / (name + suffix)
                assert got.read_bytes() == \
                    (ref_dir / (name + suffix)).read_bytes()

    def test_zero_programs(self, tmp_path):
        assert build_corpus(tmp_path, count=0) == []


def test_cli_import_leaves_out_thread_pool():
    code = ("import sys, pxom.cli; "
            "print('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(pxom.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "False"
