import math
from fractions import Fraction

import pytest

from ihskit.errors import InputError
from ihskit.jsonio import dumps_payload, parse_number


def test_parse_number_accepts_finite_numbers():
    assert parse_number(2) == 2.0
    assert parse_number("1e300") == 1e300
    assert parse_number({"num": "1", "den": "4"}) == 0.25


@pytest.mark.parametrize("value", [
    "nan", "NaN", "inf", "-Infinity", math.nan, math.inf, -math.inf, "1e400",
    10 ** 400, {"num": "-" + "9" * 400, "den": "1"}, True, None, "x",
])
def test_parse_number_refuses_non_finite_and_malformed(value):
    with pytest.raises(InputError):
        parse_number(value, "tau")


def test_dumps_payload_refuses_non_finite_floats():
    assert dumps_payload({"x": 1.5, "q": Fraction(1, 3)}) == (
        '{\n  "x": 1.5,\n  "q": {\n    "num": "1",\n    "den": "3"\n  }\n}')
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            dumps_payload({"x": [bad]})
