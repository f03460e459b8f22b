"""The library API: `pxom.__all__` and the README's Library example."""

import re
from pathlib import Path

import pxom
from pxom.monitor import ALLOWED

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
