"""Exception hierarchy shared across the toolchain."""


class PxomError(Exception):
    """Base class for all toolchain errors."""


class NotElf(PxomError):
    """Input bytes do not carry the ELF magic."""


class Unsupported(PxomError):
    """ELF file is not 64-bit little-endian ET_EXEC/ET_DYN."""


class Malformed(PxomError):
    """ELF tables point outside the file or are internally inconsistent."""


class SectionExists(PxomError):
    """The image already carries a .xom section."""


class NoXomSection(PxomError):
    """The image has no .xom section."""


class CorruptXom(PxomError):
    """.xom payload has bad magic/version or counts inconsistent with size."""


class InvariantViolation(PxomError):
    """Parsed block lists violate disjointness or range containment."""


class OutOfRange(PxomError):
    """Address not inside any executable range."""


class NoExecutableCode(PxomError):
    """Image has no executable segment."""


class EmptyGroundTruth(PxomError):
    """Ground-truth code set is empty."""


class MonitorTerminated(PxomError):
    """Monitor received an event after a denied read."""


class _LineParse(PxomError):
    """Malformed line of a text input; the message starts with its number."""

    def __init__(self, message, lineno):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno

    @classmethod
    def decode(cls, data):
        """data as UTF-8 text, or cls at the line of its first bad byte."""
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line breaks before the bad byte, as splitlines sees them
            raise cls("not UTF-8: byte %#04x" % data[exc.start], len(
                (data[:exc.start].decode() + ".").splitlines())) from None


class TraceParse(_LineParse):
    """Malformed trace line."""


class GroundTruthParse(_LineParse):
    """Malformed ground-truth line."""
