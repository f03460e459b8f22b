"""Readable-block bookkeeping: the two-tier list persisted in .xom."""

from dataclasses import dataclass, field

from .errors import InvariantViolation
from .intervals import ByteInterval


@dataclass
class EmbeddedDataBlock:
    """One readable region inside executable memory.

    read_count is runtime state owned by the monitor; it is never
    persisted to disk.
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

    def all_blocks(self):
        return list(self.optimization) + list(self.regular)

    def validate(self, executable_ranges=None):
        # sorted by start, two blocks overlap exactly when some block
        # starts before its predecessor ends
        ivs = sorted((b.interval.start, b.interval.end)
                     for b in self.all_blocks())
        for a, b in zip(ivs, ivs[1:]):
            if b[0] < a[1]:
                raise InvariantViolation(
                    "overlapping blocks [%#x, %#x) and [%#x, %#x)" % (a + b))
        if executable_ranges is not None:
            for start, end in ivs:
                if not executable_ranges.contains_range(start, end - start):
                    raise InvariantViolation(
                        "block [%#x, %#x) outside executable ranges"
                        % (start, end))
        return self
