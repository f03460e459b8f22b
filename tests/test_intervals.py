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


@pytest.mark.parametrize("start, end, left", [
    (10, 15, [(15, 20), (30, 40), (50, 60)]),   # from a run start
    (15, 20, [(10, 15), (30, 40), (50, 60)]),   # to a run end
    (10, 20, [(30, 40), (50, 60)]),             # exactly one run
    (30, 60, [(10, 20)]),                       # from a run start to a run end
    (5, 45, [(50, 60)]),                        # whole runs and gaps
    (15, 55, [(10, 15), (55, 60)]),             # cuts two runs
    (0, 10, [(10, 20), (30, 40), (50, 60)]),    # touches a run start
    (20, 30, [(10, 20), (30, 40), (50, 60)]),   # touches an end and a start
    (60, 70, [(10, 20), (30, 40), (50, 60)]),   # touches a run end
])
def test_remove_at_run_edges(start, end, left):
    s = IntervalSet.from_pairs([(10, 20), (30, 40), (50, 60)])
    s.remove(start, end)
    assert list(s.pairs()) == left
    assert s == IntervalSet.from_pairs(left)
    assert len(s) == len(left)
    # difference takes the same bytes out of a new set, and changes
    # neither of its operands
    s = IntervalSet.from_pairs([(10, 20), (30, 40), (50, 60)])
    other = IntervalSet.from_pairs([(start, end)])
    assert list(s.difference(other).pairs()) == left
    assert list(s.pairs()) == [(10, 20), (30, 40), (50, 60)]
    assert list(other.pairs()) == [(start, end)]


ranges = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 30)), max_size=20)

PROBES = range(-2, 235)
SIZES = (1, 2, 5, 17)


def as_model(pairs):
    return {b for start, length in pairs for b in range(start, start + length)}


def model_run(model, addr):
    """The maximal run of model that holds addr, or None."""
    if addr not in model:
        return None
    start, end = addr, addr + 1
    while start - 1 in model:
        start -= 1
    while end in model:
        end += 1
    return start, end


def check_against_model(s, model, other, other_model):
    runs = sorted({model_run(model, b) for b in model})
    assert list(s.pairs()) == runs
    assert [(iv.start, iv.end) for iv in s] == runs
    assert len(s) == len(runs) and bool(s) == bool(model)
    assert s.total_bytes == len(model)
    assert (s == other) == (model == other_model)
    assert s == IntervalSet.from_pairs(runs)
    for addr in PROBES:
        assert (addr in s) == (addr in model)
        assert s.run_at(addr) == model_run(model, addr)
        for size in SIZES:
            assert s.contains_range(addr, size) == model.issuperset(
                range(addr, addr + size))
    starts = [a for a in PROBES for _ in SIZES]
    ends = [a + size for a in PROBES for size in SIZES]
    assert list(s.contains_each(starts, ends)) == [
        model.issuperset(range(a, e)) for a, e in zip(starts, ends)]
    # repeated, out of order and outside the set: kept in their order
    probes = [*PROBES[::-1], *PROBES]
    assert list(s.members(probes)) == [a for a in probes if a in model]
    assert s.intersection_size(other) == len(model & other_model)
    assert other.intersection_size(s) == len(model & other_model)
    for a, b, left in ((s, other, model - other_model),
                       (other, s, other_model - model)):
        runs = sorted({model_run(left, addr) for addr in left})
        assert list(a.difference(b).pairs()) == runs


@given(added=ranges, removed=ranges, others=ranges)
def test_matches_set_of_ints_model(added, removed, others):
    s = IntervalSet.from_pairs((start, start + length)
                               for start, length in added)
    model = as_model(added)
    other = IntervalSet.from_pairs((start, start + length)
                                   for start, length in others)
    other_model = as_model(others)
    check_against_model(s, model, other, other_model)
    for start, length in removed:
        before, before_model = s.copy(), set(model)
        s.remove(start, start + length)
        model.difference_update(range(start, start + length))
        check_against_model(s, model, other, other_model)
        # the copy taken before the removal did not change with it
        check_against_model(before, before_model, other, other_model)
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
