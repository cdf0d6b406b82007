"""Serialization: exact rationals as "p/q" strings, fans and divisors as JSON.

Decimal renderings are display-only companions to the exact fields and never
feed back into any computation.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from torifan.errors import ParseError, TorifanError
from torifan.toric import TDivisor, ToricVariety, validate_fan

DECIMAL_DIGITS = 12


def format_ratio(num, den) -> str:
    """``format_rational(Fraction(num, den))`` for integers with den > 0,
    reduced by one gcd and without building the Fraction."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def parse_rational(text) -> Fraction:
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


def decimal_string(x) -> str:
    """Round to DECIMAL_DIGITS significant digits, deterministically."""
    x = Fraction(x)
    with decimal.localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        value = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
    return str(value)


def fan_to_dict(variety: ToricVariety) -> dict:
    return {
        "dim": variety.dim,
        "rays": [list(r) for r in variety.rays],
        "max_cones": [list(c) for c in variety.max_cones],
        "name": variety.name,
    }


def _integer(value) -> int:
    """A JSON integer; bools, floats and strings raise TypeError, naming
    the type and a repr cut to at most 40 characters."""
    if type(value) is not int:
        text = repr(value)
        if len(text) > 40:
            text = text[:37] + "..."
        raise TypeError(f"{type(value).__name__} {text} is not an integer")
    return value


def fan_from_dict(data) -> ToricVariety:
    if not isinstance(data, dict):
        raise ParseError("fan JSON must be an object")
    missing = {"dim", "rays", "max_cones"} - set(data)
    if missing:
        raise ParseError(f"fan JSON lacks keys: {sorted(missing)}")
    try:
        dim = _integer(data["dim"])
        rays = [tuple(map(_integer, ray)) for ray in data["rays"]]
        cones = [tuple(map(_integer, cone)) for cone in data["max_cones"]]
    except TypeError as exc:
        raise ParseError(f"malformed fan JSON: {exc}") from exc
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError("fan name must be a string")
    return validate_fan(dim, rays, cones, name)


def _read(path, build):
    """``build`` of the JSON in file ``path``.  A TorifanError raised while
    reading, parsing or validating it keeps its class and names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
                raise ParseError(f"not valid JSON: {exc}") from exc
        return build(data)
    except TorifanError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_fan(path) -> ToricVariety:
    return _read(path, fan_from_dict)


def divisor_from_dict(data, variety: ToricVariety) -> TDivisor:
    if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
        raise ParseError('divisor JSON must be an object with a "coeffs" list')
    coeffs = [parse_rational(c) for c in data["coeffs"]]
    return TDivisor(variety, coeffs)


def load_divisor(path, variety: ToricVariety) -> TDivisor:
    return _read(path, lambda data: divisor_from_dict(data, variety))


class Table:
    """A list of dicts that all have the keys ``keys``, in that order, one
    per row of ``rows``, a tuple of cell strings each.  ``dumps`` writes
    it as ``json.dumps`` writes ``[dict(zip(keys, row)) for row in rows]``,
    from one row template and without escaping any cell, so every cell must
    be JSON-safe: a string that ``encode_basestring_ascii`` only quotes.

    ``format_ratio`` cells are: ``str`` of an integer is an optional "-"
    and decimal digits, so a cell holds only "-", digits and "/", and the
    escaper changes none of those (it escapes '"', backslash, control
    characters and every non-ASCII character).
    """

    __slots__ = ("keys", "rows")

    def __init__(self, keys, rows):
        self.keys, self.rows = keys, rows


def dumps(payload) -> str:
    """Canonical JSON text: stable key order as built, trailing newline.

    The text is ``json.dumps(payload, indent=2) + "\\n"`` byte for byte,
    written here because an indent makes CPython fall back to its
    pure-Python encoder; a ``Table`` is written as the list of dicts it
    stands for.  Strings are escaped by the escaper json.dumps uses; dict,
    list, tuple, str, int, bool, None and ``Table`` are the only types
    accepted, dict keys must be strings, and anything else raises
    TypeError, a NamedTuple too: json.dumps would write it as a list.
    """
    out = []
    _write(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, out, newline):
    """Append the indent-2 JSON of ``value``, nested at ``newline``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif type(value) in (list, tuple):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            if isinstance(item, str):  # inline: the commonest leaf
                out.append(encode_basestring_ascii(item))
            else:
                _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            if isinstance(item, str):
                out.append(encode_basestring_ascii(item))
            else:
                _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif type(value) is Table:
        _write_table(value, out, newline)
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def _write_table(table, out, newline):
    """Append the indent-2 JSON of ``table``'s list of dicts: each row is
    the row template with its cells put in quoted, which is the escaped
    cell for a JSON-safe one (``Table``).  A row whose length differs from
    the keys' raises TypeError from ``%``."""
    if not table.rows:
        out.append("[]")
        return
    inner = newline + "  "
    fields = ",".join(
        inner + "  " + encode_basestring_ascii(key).replace("%", "%%") + ': "%s"'
        for key in table.keys
    )
    row = "{" + fields + inner + "}" if table.keys else "{}"
    out.append("[" + inner)
    out.append(("," + inner).join([row % cells for cells in table.rows]))
    out.append(newline + "]")
