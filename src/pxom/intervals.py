"""Half-open byte interval algebra over virtual addresses.

All bookkeeping of code vs. readable-data regions is done with these two
types.  An IntervalSet is always normalized: sorted by start, pairwise
disjoint, adjacent runs merged.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import le

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
    """Normalized set of disjoint half-open intervals."""

    __slots__ = ("_starts", "_ends")

    def __init__(self):
        self._starts = []
        self._ends = []

    @classmethod
    def from_pairs(cls, pairs):
        """The union of the (start, end) pairs, in any order; they may
        overlap or touch.  One sort and one merging pass."""
        s = cls()
        starts, ends = s._starts, s._ends
        for start, end in sorted(pairs):
            if start >= end:
                raise ValueError("empty interval [%#x, %#x)" % (start, end))
            if ends and start <= ends[-1]:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
        return s

    def remove(self, start, end):
        if start >= end:
            return
        i = bisect_right(self._starts, start)
        if i > 0 and self._ends[i - 1] > start:
            i -= 1
        new_starts, new_ends = [], []
        j = i
        while j < len(self._starts) and self._starts[j] < end:
            s, e = self._starts[j], self._ends[j]
            if s < start:
                new_starts.append(s)
                new_ends.append(start)
            if e > end:
                new_starts.append(end)
                new_ends.append(e)
            j += 1
        self._starts[i:j] = new_starts
        self._ends[i:j] = new_ends

    def __contains__(self, addr):
        return self.contains_range(addr, 1)

    def contains_range(self, addr, size):
        i = bisect_right(self._starts, addr) - 1
        return i >= 0 and addr + size <= self._ends[i]

    def contains_each(self, starts, ends):
        """contains_range for each [starts[k], ends[k]), as an iterator of
        bools; the loop runs in C."""
        limits = [float("-inf"), *self._ends]   # [0]: before every interval
        found = map(bisect_right, repeat(self._starts), starts)
        return map(le, ends, map(limits.__getitem__, found))

    def pairs(self):
        """(start, end) of each interval, in order."""
        return zip(self._starts, self._ends)

    def run_at(self, addr):
        """(start, end) of the interval containing addr, or None."""
        i = bisect_right(self._starts, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._starts[i], self._ends[i]
        return None

    def intersection_size(self, other):
        total = 0
        for iv in other:
            i = bisect_right(self._starts, iv.start) - 1
            if i < 0:
                i = 0
            while i < len(self._starts) and self._starts[i] < iv.end:
                lo = max(self._starts[i], iv.start)
                hi = min(self._ends[i], iv.end)
                if lo < hi:
                    total += hi - lo
                i += 1
        return total

    @property
    def total_bytes(self):
        return sum(e - s for s, e in zip(self._starts, self._ends))

    def __iter__(self):
        for s, e in zip(self._starts, self._ends):
            yield ByteInterval(s, e)

    def __len__(self):
        return len(self._starts)

    def __bool__(self):
        return bool(self._starts)

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def copy(self):
        s = IntervalSet()
        s._starts = list(self._starts)
        s._ends = list(self._ends)
        return s

    def __repr__(self):
        return "IntervalSet(%s)" % ", ".join(repr(iv) for iv in self)
