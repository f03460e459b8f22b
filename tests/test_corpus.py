import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import pxom
from pxom.corpus import (_link, _read_markers, build_corpus, build_program,
                         generate_program)
from pxom.image import load_elf

from conftest import CORPUS_TOOLS, fail_tool, require_tool


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
        require_tool("as", "ld", "nm")
        rng = random.Random(seed)
        for i in range(3):
            asm = generate_program(rng)
            # the binary as build_program reads it, before its strip
            binary = _link(asm, tmp_path, "p%d" % i).binary
            ours = {name: va for name, va
                    in _read_markers(load_elf(binary.read_bytes())).items()
                    if name.startswith(("gtf_", "gtd_"))}
            assert ours == nm_markers(binary)
            assert set(re.findall(r"(?m)^(gtf_\d+_s):", asm)) <= ours.keys()


def record_runs(monkeypatch):
    """The argv of every subprocess.run call from here on, in order."""
    calls = []
    run = subprocess.run

    def recording(argv, *args, **kwargs):
        calls.append(list(argv))
        return run(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording)
    return calls


class TestBuildCorpus:
    def test_equals_sequential_build(self, tmp_path):
        require_tool(*CORPUS_TOOLS)
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

    def test_one_strip_for_the_corpus(self, tmp_path, monkeypatch):
        require_tool(*CORPUS_TOOLS)
        calls = record_runs(monkeypatch)
        outdir = tmp_path / "out"
        entries = build_corpus(outdir, count=8, seed=5)
        assert Counter(argv[0] for argv in calls) == \
            {"as": 8, "ld": 8, "strip": 1}
        # every link comes before the strip, which names all 8 binaries
        assert calls[-1] == ["strip", *(str(e.binary) for e in entries)]
        assert len(list(outdir.iterdir())) == 24
        assert not list(outdir.glob("*.o"))

    def test_strip_calls_take_a_fixed_batch(self, tmp_path, monkeypatch):
        require_tool(*CORPUS_TOOLS)
        monkeypatch.setattr(pxom.corpus, "_STRIP_BATCH", 3)
        calls = record_runs(monkeypatch)
        entries = build_corpus(tmp_path, count=8, seed=5)
        strips = [argv for argv in calls if argv[0] == "strip"]
        assert [len(argv) - 1 for argv in strips] == [3, 3, 2]
        assert [path for argv in strips for path in argv[1:]] == \
            [str(e.binary) for e in entries]

    def test_failing_ld_leaves_no_object(self, tmp_path, monkeypatch):
        require_tool("as")
        fail_tool(tmp_path, monkeypatch, "ld")
        outdir = tmp_path / "out"
        with pytest.raises(subprocess.CalledProcessError) as exc:
            build_corpus(outdir, count=8, seed=5)
        assert exc.value.cmd[0] == "ld"
        assert list(outdir.glob("prog_*.s"))
        assert not list(outdir.glob("*.o"))

    def test_zero_programs(self, tmp_path):
        assert build_corpus(tmp_path, count=0) == []


def test_cli_import_leaves_out_thread_pool():
    code = ("import sys, pxom.cli; "
            "print('concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(pxom.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "False"
