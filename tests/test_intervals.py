import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pxom.intervals import ByteInterval, IntervalSet


def test_byte_interval_rejects_empty():
    with pytest.raises(ValueError):
        ByteInterval(0x10, 0x10)
    with pytest.raises(ValueError):
        ByteInterval(0x20, 0x10)


def test_interval_length_and_containment():
    iv = ByteInterval(0x1000, 0x1010)
    assert len(iv) == 0x10
    assert iv.contains(0x1000, 16)
    assert not iv.contains(0x100c, 8)


def test_add_merges_adjacent():
    s = IntervalSet.from_pairs([(0x1000, 0x1800), (0x1800, 0x2000)])
    assert list(s) == [ByteInterval(0x1000, 0x2000)]


def test_add_merges_overlapping():
    s = IntervalSet.from_pairs([(0, 10), (5, 20), (30, 40)])
    assert list(s) == [ByteInterval(0, 20), ByteInterval(30, 40)]


def test_remove_splits():
    s = IntervalSet.from_pairs([(0, 100)])
    s.remove(10, 20)
    assert list(s) == [ByteInterval(0, 10), ByteInterval(20, 100)]
    assert s.total_bytes == 90


def test_remove_noop_outside():
    s = IntervalSet.from_pairs([(10, 20)])
    s.remove(30, 40)
    assert list(s) == [ByteInterval(10, 20)]


def test_contains_range():
    s = IntervalSet.from_pairs([(0x1000, 0x1010)])
    assert s.contains_range(0x1000, 16)
    assert not s.contains_range(0x100c, 8)
    assert 0x100f in s
    assert 0x1010 not in s


def test_run_at():
    s = IntervalSet.from_pairs([(0, 10), (20, 30)])
    assert s.run_at(5) == (0, 10)
    assert s.run_at(20) == (20, 30)
    assert s.run_at(10) is None
    assert s.run_at(15) is None


def test_intersection_size():
    a = IntervalSet.from_pairs([(0, 10), (20, 30)])
    b = IntervalSet.from_pairs([(5, 25)])
    assert a.intersection_size(b) == 10
    assert b.intersection_size(a) == 10


ranges = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 30)), max_size=20)


@given(added=ranges, removed=ranges)
def test_matches_set_of_ints_model(added, removed):
    s = IntervalSet.from_pairs((start, start + length)
                               for start, length in added)
    model = set()
    for start, length in added:
        model.update(range(start, start + length))
    for start, length in removed:
        s.remove(start, start + length)
        model.difference_update(range(start, start + length))
    assert s.total_bytes == len(model)
    assert {b for iv in s for b in range(iv.start, iv.end)} == model
    # normalization: sorted, disjoint, non-adjacent
    ivs = list(s)
    for a, b in zip(ivs, ivs[1:]):
        assert a.end < b.start


def test_contains_each_matches_contains_range():
    rng = random.Random(3)
    for _ in range(200):
        s = IntervalSet.from_pairs(
            (a, a + rng.randint(1, 40))
            for a in rng.sample(range(0, 400, 3), rng.randint(0, 8)))
        starts = [rng.randrange(-5, 450) for _ in range(30)]
        ends = [a + rng.randint(1, 50) for a in starts]
        assert list(s.contains_each(starts, ends)) == [
            s.contains_range(a, e - a) for a, e in zip(starts, ends)]
