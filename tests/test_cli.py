import gc
import json
import os
import stat
import struct
import threading
import time

import pytest

from pxom import blocks, cli
from pxom.cli import build_parser, main
from pxom.disasm import DisassemblyReport, compute_superset
from pxom.image import load_elf
from pxom.protector import protect_image

from conftest import (CORPUS_TOOLS, exec_elf, fail_tool, make_elf,
                      require_tool)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def protected(tmp_path, corpus, capsys):
    out = tmp_path / "protected.xom"
    code = main(["protect", "-i", str(corpus[0].binary), "-o", str(out)])
    assert code == 0
    capsys.readouterr()  # drop the one-line summary
    return out


class TestProtect:
    def test_protect_and_reparse(self, capsys, tmp_path, corpus):
        out = tmp_path / "p.xom"
        code, stdout, _ = run_cli(capsys, "protect", "-i",
                                  str(corpus[0].binary), "-o", str(out))
        assert code == 0 and "blocks" in stdout
        assert main(["print", "-i", str(out)]) == 0

    @pytest.mark.parametrize("input_mode, output_mode, want", [
        (0o755, None, 0o111),       # a new output gets every execute bit
        (0o755, 0o644, 0o755),
        (0o710, 0o600, 0o710),
        (0o644, 0o700, 0o700),      # no bit is taken away
        (0o644, 0o644, 0o644),
    ])
    def test_output_mode_adds_input_execute_bits(
            self, capsys, tmp_path, corpus, input_mode, output_mode, want):
        source = tmp_path / "in"
        source.write_bytes(corpus[0].binary.read_bytes())
        source.chmod(input_mode)
        out = tmp_path / "out.xom"
        if output_mode is not None:
            out.write_bytes(b"")
            out.chmod(output_mode)
        code, _, _ = run_cli(capsys, "protect", "-i", str(source),
                             "-o", str(out))
        mode = stat.S_IMODE(out.stat().st_mode)
        assert code == 0
        if output_mode is None:
            assert mode & 0o111 == want
        else:
            assert mode == want

    def test_non_elf_input(self, capsys, tmp_path):
        bogus = tmp_path / "bogus"
        bogus.write_bytes(b"MZ not an elf")
        code, _, err = run_cli(capsys, "protect", "-i", str(bogus),
                               "-o", str(tmp_path / "out"))
        assert code == 1 and "NotElf" in err

    def test_already_protected(self, capsys, tmp_path, protected):
        code, _, err = run_cli(capsys, "protect", "-i", str(protected),
                               "-o", str(tmp_path / "again"))
        assert code == 1 and "SectionExists" in err


class TestPrint:
    def test_line_format(self, capsys, protected):
        code, out, _ = run_cli(capsys, "print", "-i", str(protected))
        assert code == 0
        for line in out.splitlines():
            name, start, end, refs = line.split()
            assert name in ("regular", "optimization")
            assert start.startswith("0x") and end.startswith("0x")
            assert refs.startswith("refs=")

    def test_unprotected_input(self, capsys, corpus):
        code, _, err = run_cli(capsys, "print", "-i", str(corpus[0].binary))
        assert code == 1 and "NoXomSection" in err

    def test_byte_stable_across_runs(self, capsys, protected):
        _, out1, _ = run_cli(capsys, "print", "-i", str(protected))
        _, out2, _ = run_cli(capsys, "print", "-i", str(protected))
        assert out1 == out2


class TestAnalyze:
    def test_schema(self, capsys, corpus):
        entry = corpus[0]
        code, out, _ = run_cli(capsys, "analyze", "-i", str(entry.binary),
                               "--ground-truth", str(entry.ground_truth))
        assert code == 0
        report = json.loads(out)
        for key in ("cc", "oc", "edb_count", "avg_edb_size", "sha256",
                    "command", "schema"):
            assert key in report
        assert 0.0 <= report["cc"] <= 1.0

    def test_deterministic_modulo_timing(self, capsys, corpus):
        entry = corpus[0]
        reports = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "analyze", "-i", str(entry.binary))
            report = json.loads(out)
            del report["seconds"]
            reports.append(report)
        assert reports[0] == reports[1]


    def test_options_do_not_leak_between_calls(self, capsys, tmp_path,
                                               corpus):
        assert build_parser() is build_parser()
        binary = str(corpus[0].binary)
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", "-i", binary,
                               "--out", str(out_file))
        assert code == 0 and out == ""
        code, out, _ = run_cli(capsys, "analyze", "-i", binary)
        assert code == 0 and json.loads(out)["command"] == "analyze"
        assert json.loads(out_file.read_text())["command"] == "analyze"


class TestSimulate:
    def test_three_legal_reads(self, capsys, tmp_path, protected):
        _, out, _ = run_cli(capsys, "print", "-i", str(protected))
        first = out.splitlines()[0].split()
        start = int(first[1], 16)
        trace = tmp_path / "trace.txt"
        trace.write_text("R %#x 1\nR %#x 1\nR %#x 1\nI 3000000\n"
                         % (start, start, start))
        code, out, _ = run_cli(capsys, "simulate", "-i", str(protected),
                               "--trace", str(trace))
        assert code == 0
        report = json.loads(out)
        assert report["allowed"] == 3
        assert report["read_intensity"] == pytest.approx(1e-6)

    def test_trace_error_carries_line(self, capsys, tmp_path, protected):
        trace = tmp_path / "bad.txt"
        trace.write_text("R 0x1000 1\nwat\n")
        code, _, err = run_cli(capsys, "simulate", "-i", str(protected),
                               "--trace", str(trace))
        assert code == 1 and "line 2" in err

    @pytest.mark.parametrize("size", ["0", "65"])
    def test_read_size_outside_range_is_trace_error(self, capsys, tmp_path,
                                                    protected, size):
        trace = tmp_path / "bad.txt"
        trace.write_text("R 1000 1\nR 1000 %s\n" % size)
        code, _, err = run_cli(capsys, "simulate", "-i", str(protected),
                               "--trace", str(trace))
        assert code == 1
        assert err.startswith("error: TraceParse: line 2")

    @pytest.mark.parametrize("raw, line", [
        (b"\xff", 1),
        (b"R 0x1000 1\n# caf\xe9\n", 2),      # latin-1, not UTF-8
        (b"I 1\r\nI 2\n\nI 3 \x80\n", 4),
    ], ids=["ff", "latin-1-comment", "crlf"])
    def test_trace_that_is_not_utf8(self, capsys, tmp_path, protected,
                                    raw, line):
        trace = tmp_path / "bad.txt"
        trace.write_bytes(raw)
        code, out, err = run_cli(capsys, "simulate", "-i", str(protected),
                                 "--trace", str(trace))
        assert (code, out) == (1, "")
        assert err.startswith("error: TraceParse: line %d: not UTF-8" % line)

    def test_trace_is_read_as_utf8(self, capsys, tmp_path, protected):
        trace = tmp_path / "trace.txt"
        trace.write_bytes("# caf\u00e9 \u2014 no reads\nI 5\n".encode())
        code, out, _ = run_cli(capsys, "simulate", "-i", str(protected),
                               "--trace", str(trace))
        assert code == 0 and json.loads(out)["reads"] == 0


class TestSimulateReport:
    """The `denial` and `promoted` keys of the `simulate` report."""

    def simulate(self, capsys, tmp_path, protected, lines):
        trace = tmp_path / "trace.txt"
        trace.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "simulate", "-i", str(protected),
                               "--trace", str(trace))
        assert code == 0
        return json.loads(out)

    def blocks(self, capsys, protected):
        _, out, _ = run_cli(capsys, "print", "-i", str(protected))
        return [(name, int(start, 16), int(end, 16))
                for name, start, end, _ in map(str.split, out.splitlines())]

    def test_denial_names_read_reason_and_block(self, capsys, tmp_path,
                                                protected):
        _, start, end = self.blocks(capsys, protected)[0]
        report = self.simulate(capsys, tmp_path, protected,
                               ["R %x 1" % start, "R %x 2" % (end - 1)])
        assert report["denial"] == {"addr": end - 1, "size": 2,
                                    "reason": "OverlapsCode",
                                    "block": [start, end]}
        assert (report["allowed"], report["denied"]) == (1, 1)

    def test_no_denial_no_promotion(self, capsys, tmp_path, protected):
        _, start, _ = self.blocks(capsys, protected)[0]
        report = self.simulate(capsys, tmp_path, protected,
                               ["R %x 1" % start])
        assert report["denial"] is None and report["promoted"] == []

    def test_promoted_in_promotion_order(self, capsys, tmp_path, protected):
        regular = [start for name, start, _ in self.blocks(capsys, protected)
                   if name == "regular"]
        first, second = regular[-1], regular[0]
        lines = (["R %x 1" % second] * 100 + ["R %x 1" % first] * 101
                 + ["R %x 1" % second])
        report = self.simulate(capsys, tmp_path, protected, lines)
        assert report["promoted"] == [first, second]
        assert report["promotions"] == 2 and report["denial"] is None


    def test_lists_validated_and_sorted_once(self, capsys, tmp_path,
                                             protected, monkeypatch):
        _, start, _ = self.blocks(capsys, protected)[0]
        calls = []

        def counting_sorted(*args, **kwargs):
            calls.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(blocks, "sorted", counting_sorted, raising=False)
        self.simulate(capsys, tmp_path, protected, ["R %x 1" % start])
        assert len(calls) == 1


class TestHostileInput:
    @pytest.mark.parametrize("command", ["protect", "analyze", "simulate"])
    def test_huge_zero_fill_code_segment_fails_fast(self, capsys, tmp_path,
                                                     command):
        data = bytearray(exec_elf(b"\xc3" * 16))
        struct.pack_into("<Q", data, 0x40 + 40, 1 << 40)  # p_memsz
        binary = tmp_path / "huge"
        binary.write_bytes(bytes(data))
        trace = tmp_path / "trace.txt"
        trace.write_text("R 1000 1\n")
        argv = {"protect": ["-o", str(tmp_path / "out")],
                "analyze": [],
                "simulate": ["--trace", str(trace)]}[command]
        start = time.monotonic()
        code, _, err = run_cli(capsys, command, "-i", str(binary), *argv)
        assert time.monotonic() - start < 1
        assert code == 1 and err.startswith("error: Malformed")

    # jmp over four undecodable bytes, nops, then a ret that sits in a
    # second executable segment when the image is split at 0x1010
    SPLIT_CODE = b"\xeb\x04" + b"\xff" * 4 + b"\x90" * 10 + b"\xc3"

    def command_output(self, capsys, tmp_path, command, name, segments):
        binary = tmp_path / name
        binary.write_bytes(make_elf(segments, entry=0x1000))
        out = tmp_path / (name + ".xom")
        argv = ["-o", str(out)] if command == "protect" else []
        code, stdout, _ = run_cli(capsys, command, "-i", str(binary), *argv)
        assert code == 0
        if command == "protect":
            _, listing, _ = run_cli(capsys, "print", "-i", str(out))
            return stdout.split(": ", 1)[1], listing
        report = json.loads(stdout)
        for key in ("input", "sha256", "seconds"):
            del report[key]
        return report

    @pytest.mark.parametrize("command", ["protect", "analyze", "scan"])
    def test_touching_code_segments_read_as_one(self, capsys, tmp_path,
                                                command):
        code = self.SPLIT_CODE
        split = self.command_output(capsys, tmp_path, command, "split",
                                    [(0x1000, 5, code[:16]),
                                     (0x1010, 5, code[16:])])
        whole = self.command_output(capsys, tmp_path, command, "whole",
                                    [(0x1000, 5, code)])
        assert split == whole

    @pytest.mark.parametrize("command", ["protect", "analyze", "scan"])
    @pytest.mark.parametrize("second", [0x1008, 0x100f])
    def test_overlapping_code_segments_are_malformed(self, capsys, tmp_path,
                                                     command, second):
        binary = tmp_path / "overlap"
        binary.write_bytes(make_elf([(0x1000, 5, self.SPLIT_CODE[:16]),
                                     (second, 5, b"\xc3" * 16)],
                                    entry=0x1000))
        argv = ["-o", str(tmp_path / "out")] if command == "protect" else []
        code, _, err = run_cli(capsys, command, "-i", str(binary), *argv)
        assert code == 1
        assert err.startswith("error: Malformed: executable segments overlap")

    # a read-only PT_LOAD over the code, whole or in part, listed before
    # or after it: a loader maps the later segment over the earlier, so
    # the bytes are ambiguous
    @pytest.mark.parametrize("command", ["protect", "analyze", "scan"])
    @pytest.mark.parametrize("segments", [
        [(0x1000, 4, b"\x00" * 16), (0x1000, 5, b"\xc3" * 16)],
        [(0x1000, 4, b"\x00" * 8), (0x1004, 5, b"\xc3" * 16)],
        [(0x1004, 5, b"\xc3" * 16), (0x1013, 4, b"\x00" * 8)],
    ], ids=["same-range", "partial", "code-first"])
    def test_data_segment_under_code_is_malformed(self, capsys, tmp_path,
                                                  command, segments):
        binary = tmp_path / "under"
        binary.write_bytes(make_elf(segments, entry=0x1004))
        argv = ["-o", str(tmp_path / "out")] if command == "protect" else []
        code, _, err = run_cli(capsys, command, "-i", str(binary), *argv)
        assert code == 1
        assert err.startswith("error: Malformed: a segment overlaps an "
                              "executable segment")


class TestScan:
    def test_schema(self, capsys, corpus):
        code, out, _ = run_cli(capsys, "scan", "-i", str(corpus[0].binary))
        assert code == 0
        report = json.loads(out)
        assert "gadgets" in report and "wrpkru" in report

    @pytest.mark.parametrize("depth", ["0", "-1", "x"])
    def test_bad_depth_is_rejected(self, capsys, corpus, depth):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "-i", str(corpus[0].binary), "--depth", depth])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --depth: expected an int of 1 or more" in \
            captured.err
        assert captured.out == ""

    def test_depth_one_is_terminators_only(self, capsys, corpus):
        code, out, _ = run_cli(capsys, "scan", "-i", str(corpus[0].binary),
                               "--depth", "1")
        assert code == 0
        gadgets = json.loads(out)["gadgets"]
        assert gadgets
        assert all(g["instructions"] == 1 for g in gadgets)


class TestCompare:
    def test_sound_corpus_exits_zero(self, capsys, corpus):
        for entry in corpus:
            code, out, _ = run_cli(capsys, "compare", "-i", str(entry.binary),
                                   "--ground-truth", str(entry.ground_truth))
            report = json.loads(out)
            assert report["misclassified_bytes"] == 0
            assert code == 0

    def test_unsound_report_exits_two(self, capsys, tmp_path, corpus):
        entry = corpus[0]
        # claim all executable bytes are data: code bytes now "misclassified"
        from pxom.image import executable_ranges, load_elf
        image = load_elf(entry.binary.read_bytes())
        fake_gt = tmp_path / "fake.gt"
        with fake_gt.open("w") as fh:
            for iv in executable_ranges(image):
                fh.write("%#x %#x\n" % (iv.start, iv.end))
        code, out, _ = run_cli(capsys, "compare", "-i", str(entry.binary),
                               "--ground-truth", str(fake_gt))
        assert code == 2
        assert not json.loads(out)["sound"]


class TestMalformedGroundTruth:
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("line", ["0x1000", "zz 0x10", "0x2000 0x1000",
                                      "-0x10 0x20"])
    def test_error_names_line(self, capsys, tmp_path, corpus, command, line):
        gt = tmp_path / "bad.gt"
        # comments and blank lines are valid and still counted
        gt.write_text("# data ranges\n\n0x10 0x20\n%s\n" % line)
        code, out, err = run_cli(capsys, command, "-i",
                                 str(corpus[0].binary), "--ground-truth",
                                 str(gt))
        assert (code, out) == (1, "")
        assert err.startswith("error: GroundTruthParse: line 4: ")
        assert repr(line) in err

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_not_utf8(self, capsys, tmp_path, corpus, command):
        gt = tmp_path / "bad.gt"
        gt.write_bytes(b"0x10 0x20\n\x8f\xff\x00\x13\n0x30 0x40\n")
        code, out, err = run_cli(capsys, command, "-i",
                                 str(corpus[0].binary), "--ground-truth",
                                 str(gt))
        assert (code, out) == (1, "")
        assert err.startswith("error: GroundTruthParse: line 2: not UTF-8")

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("contents", ["0x1000\n", None],
                             ids=["malformed", "missing"])
    def test_checked_before_disassembly(self, capsys, tmp_path, monkeypatch,
                                        corpus, command, contents):
        def no_disassembly(image):
            raise AssertionError("compute_superset ran")

        monkeypatch.setattr(cli, "compute_superset", no_disassembly)
        gt = tmp_path / "bad.gt"
        if contents is not None:
            gt.write_text(contents)
        code, out, err = run_cli(capsys, command, "-i",
                                 str(corpus[0].binary), "--ground-truth",
                                 str(gt))
        assert (code, out) == (1, "")
        assert err.startswith("error: GroundTruthParse: line 1: "
                              if contents else "error: [Errno 2] ")


class TestGenCorpus:
    def test_generates_binaries(self, capsys, tmp_path):
        require_tool(*CORPUS_TOOLS)
        outdir = tmp_path / "corpus"
        code, out, _ = run_cli(capsys, "gen-corpus", "--outdir", str(outdir),
                               "--count", "2", "--seed", "3")
        assert code == 0
        assert len(list(outdir.glob("prog_*.gt"))) == 2

    def gen_corpus(self, capsys, tmp_path):
        return run_cli(capsys, "gen-corpus", "--outdir",
                       str(tmp_path / "corpus"), "--count", "3")

    def test_failing_tool_is_reported(self, capsys, tmp_path, monkeypatch):
        # `as` runs in the worker threads, so its failure has to travel
        # back to main
        fail_tool(tmp_path, monkeypatch, "as")
        code, _, err = self.gen_corpus(capsys, tmp_path)
        assert code == 1
        assert err == "error: as exited 1: as: broken\n"

    def test_failing_strip_is_reported(self, capsys, tmp_path, monkeypatch):
        # strip runs once, on main, after the pool has linked everything
        require_tool("as", "ld")
        fail_tool(tmp_path, monkeypatch, "strip")
        code, _, err = self.gen_corpus(capsys, tmp_path)
        assert code == 1
        assert err == "error: strip exited 1: strip: broken\n"

    @pytest.mark.parametrize("count", ["-3", "-1", "x"])
    def test_bad_count_is_rejected(self, capsys, tmp_path, count):
        outdir = tmp_path / "corpus"
        with pytest.raises(SystemExit) as exc:
            main(["gen-corpus", "--outdir", str(outdir), "--count", count])
        assert exc.value.code == 2
        assert "argument --count: expected an int of 0 or more" in \
            capsys.readouterr().err
        assert not outdir.exists()

    def test_zero_count_generates_nothing(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen-corpus", "--outdir",
                               str(tmp_path), "--count", "0")
        assert code == 0
        assert out == "generated 0 binaries in %s\n" % tmp_path


class TestCollectorPaused:
    """`main` runs each command with the cyclic collector off, which is
    only safe while commands build no reference cycles."""

    def commands(self, tmp_path, entry):
        protected = tmp_path / "p.xom"
        trace = tmp_path / "trace.txt"
        trace.write_text("R 1000 1\nI 100\n")
        return {
            "protect": ["protect", "-i", entry.binary, "-o", protected],
            "print": ["print", "-i", protected],
            "analyze": ["analyze", "-i", entry.binary,
                        "--ground-truth", entry.ground_truth],
            "simulate": ["simulate", "-i", protected, "--trace", trace],
            "scan": ["scan", "-i", entry.binary],
            "compare": ["compare", "-i", entry.binary,
                        "--ground-truth", entry.ground_truth],
            "gen-corpus": ["gen-corpus", "--outdir", tmp_path / "gen",
                           "--count", "1"],
            "PxomError exit": ["print", "-i", entry.binary],
        }

    def test_commands_build_no_reference_cycles(self, capsys, tmp_path,
                                                corpus):
        commands = self.commands(tmp_path, corpus[0])
        # warm-up: the first command of a process leaves one-time set-up
        # garbage (module and cache initialization), which is not a leak
        for argv in commands.values():
            main([str(a) for a in argv])
        garbage = {}
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for name, argv in commands.items():
                main([str(a) for a in argv])
                garbage[name] = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        capsys.readouterr()
        assert garbage == dict.fromkeys(commands, 0)

    def run_print(self, monkeypatch, tmp_path, effect, seen):
        """main(["print", ...]) with the command's list parser replaced by
        effect; the collector state inside the command goes to seen."""

        def fake_parse(image):
            seen.append(gc.isenabled())
            return effect()

        monkeypatch.setattr(cli, "parse_xom_section", fake_parse)
        binary = tmp_path / "prog"
        binary.write_bytes(exec_elf(b"\xc3"))
        return main(["print", "-i", str(binary)])

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_callers_state(self, monkeypatch, tmp_path, enabled):
        seen = []
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = self.run_print(monkeypatch, tmp_path,
                                  lambda: blocks.XomLists([], []), seen)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert (code, seen) == (0, [False])

    def test_restores_on_os_error_exit(self, capsys, tmp_path):
        assert gc.isenabled()
        code, _, err = run_cli(capsys, "print", "-i",
                               str(tmp_path / "missing"))
        assert code == 1 and err.startswith("error: ")
        assert gc.isenabled()

    def test_restores_on_unexpected_exception(self, monkeypatch, tmp_path):
        seen = []
        assert gc.isenabled()

        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            self.run_print(monkeypatch, tmp_path, boom, seen)
        assert seen == [False] and gc.isenabled()


class TestNoInstructionRecords:
    """No command decodes the report's instruction records: the report
    keeps a start map and a reference list, and reading `instructions`
    would decode every committed start again and keep the records."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """The reports whose instructions are read from now on."""
        decode = DisassemblyReport.instructions.func
        reads = []

        def spy(report):
            reads.append(report)
            return decode(report)

        monkeypatch.setattr(DisassemblyReport, "instructions", property(spy))
        return reads

    def test_spy_sees_a_read(self, reads):
        report = compute_superset(load_elf(exec_elf(b"\x90\xc3")))
        assert reads == []
        assert list(report.instructions) == [0x1000, 0x1001]
        assert reads == [report]

    def test_protect_image(self, reads, corpus):
        for entry in corpus:
            protect_image(load_elf(entry.binary.read_bytes()))
        assert reads == []

    @pytest.mark.parametrize("command", ["protect", "scan", "analyze",
                                         "compare"])
    def test_command(self, capsys, tmp_path, corpus, reads, command):
        entry = corpus[0]
        argv = {
            "protect": ["-o", str(tmp_path / "p.xom")],
            "scan": [],
            "analyze": ["--ground-truth", str(entry.ground_truth)],
            "compare": ["--ground-truth", str(entry.ground_truth)],
        }[command]
        code, _, err = run_cli(capsys, command, "-i", str(entry.binary),
                               *argv)
        assert (code, err) == (0, "")
        assert reads == []


OUTPUT_COMMANDS = ["protect", "analyze", "scan", "compare", "simulate"]


class TestOutputWrite:
    """Every command writes its output file in place, opened without
    O_TRUNC and cut at the end of what was written; the result is the
    output a fresh path gets."""

    def run(self, capsys, tmp_path, entry, command, out):
        trace = tmp_path / "trace.txt"
        trace.write_text("R 1000 1\nI 100\n")
        protected = tmp_path / "input.xom"
        if command == "simulate" and not protected.exists():
            assert main(["protect", "-i", str(entry.binary),
                         "-o", str(protected)]) == 0
        argv = {
            "protect": ["protect", "-i", entry.binary, "-o", out],
            "analyze": ["analyze", "-i", entry.binary,
                        "--ground-truth", entry.ground_truth, "--out", out],
            "scan": ["scan", "-i", entry.binary, "--out", out],
            "compare": ["compare", "-i", entry.binary,
                        "--ground-truth", entry.ground_truth, "--out", out],
            "simulate": ["simulate", "-i", protected, "--trace", trace,
                         "--out", out],
        }[command]
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.err

    def contents(self, command, path):
        """The bytes of a protected binary; a report as one exact JSON
        line, without its `seconds`, which differs between runs."""
        data = path.read_bytes()
        if command == "protect":
            return data
        report = json.loads(data)
        assert data == json.dumps(report, sort_keys=True).encode() + b"\n"
        report.pop("seconds", None)
        return report

    def fresh(self, capsys, tmp_path, entry, command):
        out = tmp_path / "fresh.out"
        assert self.run(capsys, tmp_path, entry, command, out)[0] == 0
        return out

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_longer_output_replaced_with_no_stale_tail(
            self, capsys, tmp_path, corpus, command):
        fresh = self.fresh(capsys, tmp_path, corpus[0], command)
        out = tmp_path / "stale.out"
        out.write_bytes(b"\xaa" * (3 * fresh.stat().st_size))
        assert self.run(capsys, tmp_path, corpus[0], command, out)[0] == 0
        assert self.contents(command, out) == self.contents(command, fresh)

    def test_short_writes_are_continued(self, capsys, monkeypatch,
                                        tmp_path, corpus):
        fresh = self.fresh(capsys, tmp_path, corpus[0], "protect")
        write = os.write
        monkeypatch.setattr(os, "write",
                            lambda fd, data: write(fd, data[:4096]))
        out = tmp_path / "out"
        assert self.run(capsys, tmp_path, corpus[0], "protect", out)[0] == 0
        assert out.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_inode_and_hard_links_kept(self, capsys, tmp_path, corpus,
                                       command):
        fresh = self.fresh(capsys, tmp_path, corpus[0], command)
        out = tmp_path / "out"
        out.write_bytes(b"\xaa" * (3 * fresh.stat().st_size))
        link = tmp_path / "link"
        os.link(out, link)
        inode = out.stat().st_ino
        assert self.run(capsys, tmp_path, corpus[0], command, out)[0] == 0
        assert out.stat().st_ino == inode
        assert link.read_bytes() == out.read_bytes()
        assert self.contents(command, link) == self.contents(command, fresh)

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_symlink_written_through(self, capsys, tmp_path, corpus,
                                     command):
        fresh = self.fresh(capsys, tmp_path, corpus[0], command)
        target = tmp_path / "target"
        target.write_bytes(b"\xaa" * (3 * fresh.stat().st_size))
        link = tmp_path / "link"
        link.symlink_to(target)
        assert self.run(capsys, tmp_path, corpus[0], command, link)[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert self.contents(command, target) == self.contents(command,
                                                                fresh)

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS[1:])
    def test_dev_null(self, capsys, tmp_path, corpus, command):
        assert self.run(capsys, tmp_path, corpus[0], command,
                        os.devnull) == (0, "")

    def test_protect_into_fifo_keeps_its_mode(self, capsys, tmp_path,
                                              corpus):
        # a FIFO is neither truncated (ftruncate fails on one) nor given
        # the input's execute bits
        fresh = self.fresh(capsys, tmp_path, corpus[0], "protect")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo, 0o600)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code, err = self.run(capsys, tmp_path, corpus[0], "protect",
                                 fifo)
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert (code, err) == (0, "")
        assert received == [fresh.read_bytes()]
        assert stat.S_IMODE(fifo.stat().st_mode) == 0o600

    @pytest.mark.parametrize("command", OUTPUT_COMMANDS)
    def test_missing_directory_is_an_error(self, capsys, tmp_path, corpus,
                                           command):
        missing = tmp_path / "missing"
        code, err = self.run(capsys, tmp_path, corpus[0], command,
                             missing / "out")
        assert code == 1 and err.startswith("error: ")
        assert not missing.exists()


class TestSecondsClock:
    @pytest.mark.parametrize("command", ["analyze", "scan", "simulate"])
    def test_wall_clock_step_back(self, capsys, monkeypatch, tmp_path,
                                  corpus, protected, command):
        # the wall clock steps back one hour after its first reading
        wall = time.time
        readings = []

        def stepping():
            readings.append(None)
            return wall() - (3600 if len(readings) > 1 else 0)

        monkeypatch.setattr(time, "time", stepping)
        trace = tmp_path / "trace.txt"
        trace.write_text("R 1000 1\nI 100\n")
        argv = {"analyze": ["-i", str(corpus[0].binary)],
                "scan": ["-i", str(corpus[0].binary)],
                "simulate": ["-i", str(protected), "--trace", str(trace)]}
        code, out, _ = run_cli(capsys, command, *argv[command])
        assert code == 0 and json.loads(out)["seconds"] >= 0
