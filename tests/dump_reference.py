"""The writer jobio.dump replaced, kept as the reference it is tested
against (tests/test_jobio.py, scripts/cap_checks.py): a full json_ready
copy of the result (integral Fractions to ints, other exact values and
non-string keys to strings, tuples to lists) handed to json.dump."""

import json
from fractions import Fraction

from hopfchrom.cyclotomic import Cyclo


def json_ready(value):
    """Recursively convert exact values to JSON-safe types."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, (Fraction, Cyclo)):
        if isinstance(value, Fraction) and value.denominator == 1:
            return int(value)
        return str(value)
    if isinstance(value, dict):
        return {json_ready_key(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return str(value)


def json_ready_key(key):
    if isinstance(key, str):
        return key
    return str(key)


def reference_dump(obj, stream):
    json.dump(json_ready(obj), stream, indent=1, sort_keys=True)
    stream.write("\n")
