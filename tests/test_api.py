"""The library API: `pxom.__all__` and the README's Library example."""

import gc
import re
from pathlib import Path

import pytest

import pxom
from pxom import disasm, protector
from pxom.monitor import ALLOWED

from conftest import exec_elf

README = Path(__file__).resolve().parents[1] / "README.md"

API = {
    # functions
    "load_elf", "executable_ranges", "compute_superset", "protect_image",
    "protect_binary", "parse_xom_section", "is_xom_enabled", "new_monitor",
    "parse_trace", "metrics", "gadget_scan", "wrpkru_scan",
    # types a caller builds
    "XomLists", "EmbeddedDataBlock", "ReadRequest", "IntervalSet",
    "ByteInterval",
}


def library_example():
    """The python block of the README's Library section."""
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_the_library_api():
    assert sorted(pxom.__all__) == sorted(API)
    for name in pxom.__all__:
        assert getattr(pxom, name) is not None


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pxom import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pxom.__all__)


def test_readme_example_runs_on_corpus_binary(corpus):
    code = library_example()
    assert set(re.findall(r"\bpxom\.(\w+)", code)) <= API
    path = corpus[0].binary
    namespace = {}
    exec(code.replace('"a.out"', repr(str(path))), namespace)
    data = path.read_bytes()
    assert namespace["report"] == pxom.compute_superset(pxom.load_elf(data))
    assert namespace["trace"].reads == 1
    assert namespace["verdict"].outcome == ALLOWED
    protected, _report, lists = pxom.protect_image(pxom.load_elf(data))
    assert protected.raw == pxom.protect_binary(data)
    assert lists == namespace["lists"]


class TestCollectorPaused:
    """`compute_superset` and `protect_binary` run with the cyclic
    collector off for library callers too, and give the caller back the
    state it had, also when they raise."""

    # each entry point and a stage it runs: the disassembly's traversal,
    # and the static-ref count that follows it in protect_binary
    ENTRY_POINTS = {
        "compute_superset": (
            lambda data: pxom.compute_superset(pxom.load_elf(data)),
            disasm, "_traverse"),
        "protect_binary": (pxom.protect_binary, protector,
                           "count_static_refs"),
    }

    def call(self, monkeypatch, entry, effect=lambda: None):
        """The entry point on a ret-only image, and the collector state
        its stage saw."""
        call, module, stage = self.ENTRY_POINTS[entry]
        original = getattr(module, stage)
        seen = []

        def recording(*args):
            seen.append(gc.isenabled())
            effect()
            return original(*args)

        monkeypatch.setattr(module, stage, recording)
        call(exec_elf(b"\x90\x90\xc3"))
        return seen

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("enabled", [True, False])
    def test_off_inside_and_restored(self, monkeypatch, entry, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            seen = self.call(monkeypatch, entry)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_restored_when_the_call_raises(self, monkeypatch, entry):
        def boom():
            raise RuntimeError("boom")

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="boom"):
            self.call(monkeypatch, entry, boom)
        assert gc.isenabled()
