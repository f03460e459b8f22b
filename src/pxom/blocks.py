"""Readable-block bookkeeping: the two-tier list persisted in .xom."""

from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, is_, lt, not_

from .errors import InvariantViolation
from .intervals import ByteInterval

_START = attrgetter("interval.start")
_END = attrgetter("interval.end")


@dataclass(slots=True)
class EmbeddedDataBlock:
    """One readable region inside executable memory.

    read_count is runtime state owned by the monitor; it is never
    persisted to disk.  A block's interval does not change once the
    block is listed.  Slots keep a block to its three fields, with no
    per-block __dict__: libc lists 11,011 blocks.
    """

    interval: ByteInterval
    static_ref_count: int = 0
    read_count: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.static_ref_count < 0:
            raise InvariantViolation("negative static_ref_count")


@dataclass
class XomLists:
    """Regular and optimization block lists.

    Lookup contract: the optimization list is always scanned first.
    """

    regular: list
    optimization: list
    _index: tuple = field(default=None, init=False, repr=False,
                          compare=False)

    def all_blocks(self):
        return list(self.optimization) + list(self.regular)

    def index(self):
        """(blocks, starts, ends) of both lists, sorted by start.

        Raises InvariantViolation when two blocks overlap.  The index is
        kept while both lists hold the same block objects in the same
        order, so validating the lists and then building a monitor over
        them sorts once.
        """
        members = self.all_blocks()
        if (self._index is None or len(self._index[0]) != len(members)
                or not all(map(is_, self._index[0], members))):
            blocks = sorted(members, key=_START)
            starts = list(map(_START, blocks))
            ends = list(map(_END, blocks))
            # sorted by start, two blocks overlap exactly when some
            # block starts before its predecessor ends
            if any(map(lt, starts[1:], ends)):
                ivs = sorted(zip(starts, ends))
                for a, b in zip(ivs, ivs[1:]):
                    if b[0] < a[1]:
                        raise InvariantViolation(
                            "overlapping blocks [%#x, %#x) and [%#x, %#x)"
                            % (a + b))
            self._index = (members, blocks, starts, ends)
        return self._index[1:]

    def validate(self, executable_ranges=None):
        _, starts, ends = self.index()
        if executable_ranges is not None:
            inside = executable_ranges.contains_each(starts, ends)
            for start, end in compress(zip(starts, ends), map(not_, inside)):
                raise InvariantViolation(
                    "block [%#x, %#x) outside executable ranges"
                    % (start, end))
        return self
