"""The text json.dumps(x, indent=2, sort_keys=True, allow_nan=False) writes, from one template.

json's indent encoder is pure Python, one call per value. json_text instead
lays x out as one % template over a tuple of leaves and fills it with one %
call, which formats each float by float.__repr__, as json does:

- a rectangular nested list of floats, such as a state's matrix or the Pauli
  table, is one nested-list template with a %r slot per float;
- a list of flat records sharing one key set, such as a report's trials, is
  one row template repeated, with a %r slot per int or float column and a %s
  slot, filled with JSON text, per other column;
- everything else goes into the template as literal text, each % doubled.

Strings are escaped by json's own encode_basestring_ascii. A NaN or an
infinity raises ValueError, as allow_nan=False does; dict keys must be str.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter


def json_text(x) -> str:
    """json.dumps(x, indent=2, sort_keys=True, allow_nan=False), without the trailing newline."""
    parts, runs = [], []
    _layout(x, 0, parts, runs)
    return "".join(parts) % tuple(chain.from_iterable(runs))


def _list_template(shape: tuple[int, ...], depth: int) -> str:
    """The text json.dumps(indent=2) writes for a nested list of this shape at this depth, %r per leaf."""
    if not shape:
        return "%r"
    inner = _list_template(shape[1:], depth + 1)
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + "  " * depth + "]"


def _require_finite(values) -> None:
    """Raise ValueError, as json.dumps(allow_nan=False) does, on a NaN or infinite value."""
    try:
        # a NaN or an infinity anywhere makes the sum NaN or infinite
        if math.isfinite(sum(values)):
            return
    except OverflowError:  # an int too large for a float; look at each value
        pass
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")


def _scalar_text(x) -> str:
    """The text json.dumps(allow_nan=False) writes for a str, number, bool or None."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        _require_finite((x,))
        return float.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _float_block(x: list) -> tuple[tuple[int, ...], list] | None:
    """(shape, leaves) when x is a non-empty rectangular nested list of floats, else None.

    Only the leaves' types are scanned: above them, equal lengths suffice,
    since a dict or str of the common length flattens to str leaves.
    """
    shape, flat = [len(x)], x
    while type(flat[0]) is not float:
        size = len(flat[0]) if isinstance(flat[0], (list, tuple)) else 0
        try:
            if not size or list(map(len, flat)).count(size) != len(flat):
                return None
        except TypeError:  # an unsized item, such as a number, beside the lists
            return None
        shape.append(size)
        flat = list(chain.from_iterable(flat))
    if list(map(type, flat)).count(float) != len(flat):
        return None
    return tuple(shape), flat


def _record_columns(x: list) -> tuple[list[str], list[str], list] | None:
    """(sorted keys, slot per key, column per key) when x is a list of flat dicts with one key set.

    A column of ints and floats has the slot %r and holds the values; any
    other column of scalars has the slot %s and holds their JSON text.
    """
    if set(map(type, x)) != {dict} or not x[0]:
        return None
    keys = sorted(x[0])
    if set(map(len, x)) != {len(keys)}:
        return None
    slots, columns = [], []
    for key in keys:
        try:
            column = list(map(itemgetter(key), x))
        except KeyError:
            return None
        kinds = set(map(type, column))
        if kinds <= {float, int}:
            if float in kinds:
                _require_finite(column)
            slots.append("%r")
        elif any(issubclass(kind, (dict, list, tuple)) for kind in kinds):
            return None
        else:
            column = list(map(_scalar_text, column))
            slots.append("%s")
        columns.append(column)
    return keys, slots, columns


def _layout(x, depth: int, parts: list, runs: list) -> None:
    """Append the text json.dumps(indent=2, sort_keys=True) writes for x at this depth to parts.

    Text goes in with each % doubled, except that a float block and the
    columns of a record list go in as %r/%s slots; their values go to runs,
    one iterable per block or list, in the order the slots appear.
    """
    pad = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth
    if isinstance(x, dict):
        if not x:
            parts.append("{}")
            return
        sep = "{"
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep + pad + encode_basestring_ascii(key).replace("%", "%%") + ": ")
            _layout(x[key], depth + 1, parts, runs)
            sep = ","
        parts.append(close + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            parts.append("[]")
        elif (block := _float_block(x)) is not None:
            shape, floats = block
            _require_finite(floats)
            parts.append(_list_template(shape, depth))
            runs.append(floats)
        elif (records := _record_columns(x)) is not None:
            keys, slots, columns = records
            inner = "\n" + "  " * (depth + 2)
            row = "{" + ",".join(
                inner + encode_basestring_ascii(key).replace("%", "%%") + ": " + slot
                for key, slot in zip(keys, slots)
            ) + pad + "}"
            parts.append("[" + pad + ("," + pad).join([row] * len(x)) + close + "]")
            runs.append(chain.from_iterable(zip(*columns)))
        else:
            sep = "["
            for item in x:
                parts.append(sep + pad)
                _layout(item, depth + 1, parts, runs)
                sep = ","
            parts.append(close + "]")
    else:
        parts.append(_scalar_text(x).replace("%", "%%"))
