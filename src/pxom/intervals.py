"""Half-open byte interval algebra over virtual addresses.

All bookkeeping of code vs. readable-data regions is done with these two
types.  An IntervalSet is always normalized: sorted by start, pairwise
disjoint, adjacent runs merged.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_, le

_set_field = object.__setattr__


@dataclass(frozen=True, order=True, slots=True)
class ByteInterval:
    start: int
    end: int

    def __init__(self, start, end):
        if start >= end:
            raise ValueError("empty interval [%#x, %#x)" % (start, end))
        # the generated frozen __init__ plus __post_init__, in one call
        _set_field(self, "start", start)
        _set_field(self, "end", end)

    def __len__(self):
        return self.end - self.start

    def contains(self, addr, size=1):
        return self.start <= addr and addr + size <= self.end

    def __repr__(self):
        return "[%#x, %#x)" % (self.start, self.end)


class IntervalSet:
    """Normalized set of disjoint half-open intervals.

    Stored as one strictly increasing list of boundaries, ``_bounds =
    [start0, end0, start1, end1, ...]``.  An address lies in the set
    exactly when ``bisect_right(_bounds, addr)`` is odd, and then the
    boundary at that index is the end of its run.  Strict increase keeps
    the runs non-empty and apart: touching runs are one run.
    """

    __slots__ = ("_bounds",)

    def __init__(self):
        self._bounds = []

    @classmethod
    def from_pairs(cls, pairs):
        """The union of the (start, end) pairs, in any order; they may
        overlap or touch.  One sort and one merging pass."""
        s = cls()
        bounds = s._bounds
        for start, end in sorted(pairs):
            if start >= end:
                raise ValueError("empty interval [%#x, %#x)" % (start, end))
            if bounds and start <= bounds[-1]:
                if end > bounds[-1]:
                    bounds[-1] = end
            else:
                bounds += (start, end)
        return s

    def remove(self, start, end):
        if start >= end:
            return
        b = self._bounds
        i = bisect_left(b, start)
        j = bisect_right(b, end)
        # b[i:j] are the boundaries in [start, end].  An odd i means start
        # cuts a run, which keeps [b[i - 1], start); an odd j means end
        # cuts one, which keeps [end, b[j]).  A start at a run start gives
        # an even i and an end at a run end an even j, so neither keeps a
        # boundary and no empty run is left behind.
        b[i:j] = (start,) * (i & 1) + (end,) * (j & 1)

    def __contains__(self, addr):
        return bisect_right(self._bounds, addr) & 1 == 1

    def contains_range(self, addr, size):
        b = self._bounds
        i = bisect_right(b, addr)
        return i & 1 == 1 and addr + size <= b[i]

    def contains_each(self, starts, ends):
        """contains_range for each [starts[k], ends[k]), as an iterator of
        bools; the loop runs in C."""
        b = self._bounds
        # the end of the run at each odd index; -inf wherever the bisect
        # lands outside every run
        limits = [float("-inf")] * (len(b) + 1)
        limits[1::2] = b[1::2]
        found = map(bisect_right, repeat(b), starts)
        return map(le, ends, map(limits.__getitem__, found))

    def members(self, addrs):
        """An iterator of the addresses of the sequence addrs that lie in
        the set, in their order; one bisect and one parity test each,
        with the loop in C."""
        odd = map(and_, map(bisect_right, repeat(self._bounds), addrs),
                  repeat(1))
        return compress(addrs, odd)

    def pairs(self):
        """(start, end) of each interval, in order."""
        return zip(self._bounds[::2], self._bounds[1::2])

    def run_at(self, addr):
        """(start, end) of the interval containing addr, or None."""
        b = self._bounds
        i = bisect_right(b, addr)
        return (b[i - 1], b[i]) if i & 1 else None

    def difference(self, other):
        """A new set of the addresses in self and not in other.  Each of
        self's runs takes other's boundaries strictly inside it, and its
        own start and end where other does not hold them: one pass over
        the two sorted boundary lists."""
        b = other._bounds
        s = IntervalSet()
        out = s._bounds
        for start, end in self.pairs():
            # other's boundaries in (start, end); as in remove, an odd i
            # means other holds start, and an odd j that it holds end - 1
            i, j = bisect_right(b, start), bisect_left(b, end)
            out += [start] * (~i & 1) + b[i:j] + [end] * (~j & 1)
        return s

    def intersection_size(self, other):
        b = self._bounds
        total = 0
        for start, end in other.pairs():
            # as in remove: self's boundaries in [start, end], plus start
            # and end where they cut one of self's runs
            i, j = bisect_left(b, start), bisect_right(b, end)
            cut = [start] * (i & 1) + b[i:j] + [end] * (j & 1)
            total += sum(cut[1::2]) - sum(cut[::2])
        return total

    @property
    def total_bytes(self):
        return sum(self._bounds[1::2]) - sum(self._bounds[::2])

    def __iter__(self):
        return map(ByteInterval, self._bounds[::2], self._bounds[1::2])

    def __len__(self):
        return len(self._bounds) // 2

    def __bool__(self):
        return bool(self._bounds)

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._bounds == other._bounds

    def copy(self):
        s = IntervalSet()
        s._bounds = self._bounds.copy()
        return s

    def __repr__(self):
        return "IntervalSet(%s)" % ", ".join(repr(iv) for iv in self)
