"""Scalar <-> JSON codec shared by the serializable object kinds.

Exact rationals travel as "p/q" strings (canonical: always a slash, lowest
terms, sign on the numerator).  Floats travel as JSON numbers.  The schema
tag "teichkit/1" marks every top-level document.
"""

import math
import re
from contextlib import contextmanager
from fractions import Fraction

from .errors import DomainError, SchemaError

SCHEMA = "teichkit/1"

# A rational literal may carry an exponent ("1e999"), which Fraction expands
# into an exact power of ten; without a bound a short string asks for
# unbounded work.  The mantissa digits plus the exponent's magnitude bound
# the digits of the numerator and the denominator, and they may not exceed
# the 4300 digits CPython's int() allows a decimal string by default.
MAX_LITERAL_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def scalar_to_json(x):
    if isinstance(x, bool):
        raise SchemaError("bool is not a scalar")
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x
    raise SchemaError(f"cannot encode scalar of type {type(x).__name__}")


def scalar_from_json(v, mode="rational"):
    if mode not in ("rational", "float"):
        raise SchemaError(f"unknown scalar mode {mode!r}")
    if isinstance(v, bool):
        raise SchemaError("bool is not a scalar")
    if isinstance(v, str):
        _check_literal_size(v)
        try:
            q = Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {v!r}") from exc
        return _float(q) if mode == "float" else q
    if isinstance(v, int):
        return _float(v) if mode == "float" else Fraction(v)
    if isinstance(v, float):
        if mode == "rational":
            raise SchemaError(f"float {v} not allowed in rational mode")
        if not math.isfinite(v):
            raise SchemaError(f"float {v} is not finite")
        return v
    raise SchemaError(f"cannot decode scalar from {type(v).__name__}")


def _json_list(v, what):
    """v if it is a JSON list, else a SchemaError: a string would be read per character."""
    if not isinstance(v, list):
        raise SchemaError(f"{what} must be a JSON list, got {type(v).__name__}")
    return v


def _vector_from_json(v, mode="rational"):
    """The scalars of a JSON list."""
    return tuple(scalar_from_json(x, mode) for x in _json_list(v, "a vector"))


def _matrix_from_json(v):
    """The rows of a JSON list of vectors, each read by _vector_from_json."""
    return tuple(_vector_from_json(row) for row in _json_list(v, "a matrix"))


def _check_literal_size(v):
    m = _EXPONENT.search(v)
    if m is None:
        return
    try:
        exp = int(m.group(1))
    except ValueError as exc:
        raise SchemaError(f"bad rational literal {v[:40]!r}") from exc
    digits = sum(ch.isdecimal() for ch in v[: m.start()])
    if digits + abs(exp) > MAX_LITERAL_DIGITS:
        raise SchemaError(
            f"rational literal {v[:40]!r} would exceed {MAX_LITERAL_DIGITS} digits"
        )


def _float(q):
    try:
        return float(q)
    except OverflowError as exc:
        raise SchemaError("scalar is too large for a float") from exc


@contextmanager
def decoding(kind):
    """Report a structural failure inside the block as a SchemaError.

    Wraps the body of a ``from_json``: a missing key, a value of the wrong
    JSON type or an unparsable field raises KeyError, IndexError, TypeError,
    ValueError or AttributeError there (OverflowError for int(Infinity),
    which Python's json module parses), and it becomes a SchemaError naming
    ``kind``.  SchemaError and DomainError (both ValueErrors) pass unchanged:
    they already say what is wrong.
    """
    try:
        yield
    except (SchemaError, DomainError):
        raise
    except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {kind} document: {exc}") from exc


def check_schema(doc, kind):
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"missing or wrong schema tag, expected {SCHEMA!r}")
    if doc.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, got {doc.get('kind')!r}")
    return doc
