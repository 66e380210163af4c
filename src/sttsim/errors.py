"""Exception types shared across the package, the field type check of its configs, the
one rule for the text of a number in any of its inputs, and the one way an input file is
opened."""

import numbers
from contextlib import contextmanager


class SttsimError(Exception):
    """Base class for all errors raised by sttsim."""


class TraceParseError(SttsimError):
    """A trace file line does not conform to the trace grammar."""


class TraceValidationError(SttsimError):
    """A trace violates a semantic invariant (e.g. timestamp regression)."""


class ConfigError(SttsimError):
    """A configuration value is invalid or inconsistent."""


class TraceRecordsError(ConfigError):
    """A trace's records do not suit the analysis or config given them: an
    empty trace, more threads than cores, a core id past num_cores.  Its
    message does not name where the records came from; the command line adds
    the trace file, or the config of a [synthetic] trace."""


def number_text(text: str) -> str:
    """`text` if it is ASCII without `_`, else ValueError: the rule for a number in every
    sttsim input, as int() and float() also take "1_0" and other scripts' digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number without '_': {text!r}")
    return text


@contextmanager
def open_input(what: str, path: str, error: type = ConfigError, also: tuple = ()):
    """Open the input file `path` as UTF-8 text for the block: a failure to open, read or
    decode it there, or one of the exception types `also`, raises `error`, "cannot read
    <what> <path>: ...".  Another error raised in the block passes unchanged."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:  # its position counts from a buffer, not the file
        raise error(f"cannot read {what} {path}: not UTF-8 ({exc.reason})") from None
    except (OSError, *also) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


_KIND_NAMES = {int: "an int", numbers.Real: "a real number", bool: "a bool"}


def check_field_types(obj, kind: type, *names: str) -> None:
    """Raise ConfigError naming the first of obj's fields `names` whose value is not a kind.

    A bool is an int to isinstance, but no number here: it is of kind bool
    alone.  Configs run this before their range checks, so that a value of
    the wrong type fails with its field's name instead of a bare TypeError
    later.
    """
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"{name} must be {_KIND_NAMES.get(kind, f'a {kind.__name__}')}, got {value!r}")


def check_count(name: str, value) -> None:
    """Raise ConfigError naming the count argument `name` unless value is an int >= 1 (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value!r}")
