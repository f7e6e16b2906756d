"""JSON wire format helpers.

Conventions used by every document this package reads or writes:

* rationals are encoded as ``{"num": "<int>", "den": "<int>"}`` with string
  fields, so arbitrary precision survives JSON;
* integers with magnitude above 2**53 are encoded as decimal strings (smaller
  integers stay native JSON numbers);
* all emitted documents are byte-for-byte deterministic: key order is fixed by
  construction order and floats go through ``repr``-stable ``json.dumps``;
* numbers are finite both ways: ``parse_number`` refuses NaN and infinities
  and ``dumps_payload`` refuses to write them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import InputError

INT_WIRE_LIMIT = 2 ** 53


def encode_value(value: Any) -> Any:
    """Recursively convert a payload value into JSON-safe primitives."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return encode_value(int(value))
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, int):
        return str(value) if abs(value) > INT_WIRE_LIMIT else value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} for JSON output")


def dumps_payload(payload: Any) -> str:
    """Strict JSON: a NaN or infinite float raises ValueError instead of
    printing a token that JSON does not have."""
    return json.dumps(encode_value(payload), indent=2, ensure_ascii=True, allow_nan=False)


def parse_int(value: Any, what: str = "integer") -> int:
    if isinstance(value, bool):
        raise InputError(f"expected {what}, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError as exc:
            raise InputError(f"expected {what}, got {value!r}") from exc
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"expected {what}, got {value!r}")


def parse_rational(value: Any, what: str = "rational") -> Fraction:
    if isinstance(value, dict):
        if set(value) != {"num", "den"}:
            raise InputError(f"expected {what} with keys num/den, got {sorted(value)}")
        num = parse_int(value["num"], f"{what} numerator")
        den = parse_int(value["den"], f"{what} denominator")
        if den == 0:
            raise InputError(f"{what} has zero denominator")
        return Fraction(num, den)
    return Fraction(parse_int(value, what))


def parse_number(value: Any, what: str = "number") -> float:
    """A finite float; NaN, +-inf and rationals beyond the float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str, dict)):
        raise InputError(f"expected {what}, got {value!r}")
    try:
        number = float(parse_rational(value, what) if isinstance(value, dict) else value)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"expected {what}, got {value!r}") from exc
    if not math.isfinite(number):
        raise InputError(f"expected a finite {what}, got {value!r}")
    return number


def parse_int_vector(value: Any, what: str = "vector") -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"expected {what} as a list, got {value!r}")
    return tuple(parse_int(x, f"{what} entry") for x in value)


def parse_int_matrix(value: Any, what: str = "matrix") -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise InputError(f"expected {what} as a non-empty list of rows")
    rows = tuple(parse_int_vector(row, f"{what} row") for row in value)
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise InputError(f"{what} rows have inconsistent lengths")
    return rows


def load_document(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    # Besides malformed JSON, json.loads raises ValueError on an integer
    # literal longer than sys.get_int_max_str_digits() and RecursionError on
    # arrays or objects nested too deeply.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
