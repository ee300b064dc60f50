"""Exception types shared across the package, and the opener that turns
a byte that is not UTF-8 into one of them."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterator


class OntoclassError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OntoclassError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OntologyError(OntoclassError):
    """Inconsistent or unusable ontology content."""


class ConfigError(OntoclassError):
    """Invalid experiment configuration; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ExperimentError(OntoclassError):
    """Failure while running an experiment; carries fold context."""


@contextmanager
def open_utf8(
    path: str | Path, error: Callable[[str], OntoclassError] = ParseError
) -> Iterator[IO[str]]:
    """Open a UTF-8 text file, dropping a leading byte-order mark; a byte
    that does not decode becomes `error(message)`, a message naming the
    file and the byte."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.start + 1]
        raise error(f"{path}: not UTF-8 (byte 0x{bad.hex()})") from None
