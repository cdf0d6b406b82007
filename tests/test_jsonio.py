import json
import re
from fractions import Fraction as F

import pytest

from torifan import catalog, cli, invariants, jsonio
from torifan.errors import ParseError, ValidationError, format_rational


def test_format_and_parse_rational_round_trip():
    values = [F(0), F(3), F(-7, 2), F(288, 49), F(1, 12)]
    for x in values:
        assert jsonio.parse_rational(format_rational(x)) == x
    assert format_rational(5) == "5/1"
    assert jsonio.parse_rational("6/8") == F(3, 4)
    assert jsonio.parse_rational("-2") == -2
    assert jsonio.parse_rational(4) == 4


def test_parse_rational_rejects_garbage():
    for bad in ("", "x", "1/0", "1/2/3", "3.5", None, [1]):
        with pytest.raises(ParseError):
            jsonio.parse_rational(bad)


def test_decimal_string_is_deterministic():
    assert jsonio.decimal_string(F(1, 3)) == "0.333333333333"
    assert jsonio.decimal_string(F(288, 49)) == "5.87755102041"
    assert jsonio.decimal_string(F(9)) == "9"
    assert jsonio.decimal_string(F(-1, 8)) == "-0.125"


def test_fan_round_trip():
    for v in catalog.bundled_catalog():
        data = jsonio.fan_to_dict(v)
        again = jsonio.fan_from_dict(json.loads(json.dumps(data)))
        assert again.rays == v.rays
        assert again.max_cones == v.max_cones
        assert again.name == v.name


def test_fan_from_dict_errors():
    with pytest.raises(ParseError, match="object"):
        jsonio.fan_from_dict([1, 2])
    with pytest.raises(ParseError, match="lacks keys"):
        jsonio.fan_from_dict({"dim": 2})
    with pytest.raises(ParseError, match="malformed"):
        jsonio.fan_from_dict(
            {"dim": 2, "rays": [["a", 0]], "max_cones": [[0]]}
        )
    # JSON integers only: int() would truncate these to a valid P2
    p2 = {
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[1, 2], [0, 2], [0, 1]],
    }
    for key, value in (
        ("dim", 2.9),
        ("dim", "2"),
        ("dim", True),
        ("rays", [[1.7, 0], [0, 1], [-1, -1]]),
        ("rays", [[1, 0], [0, True], [-1, -1]]),
        ("rays", [[1, 0], [0, "1"], [-1, -1]]),
        ("max_cones", [[1, 2], [0, 2], [0, 1.0]]),
        ("max_cones", [[1, 2], [0, 2], [False, 1]]),
    ):
        with pytest.raises(ParseError, match="malformed"):
            jsonio.fan_from_dict({**p2, key: value})
    assert jsonio.fan_from_dict(p2).dim == 2
    with pytest.raises(ParseError, match="name"):
        jsonio.fan_from_dict(
            {"dim": 2, "rays": [[1, 0]], "max_cones": [[0]], "name": 7}
        )
    # structural problems surface as fan validation errors, not parse errors
    with pytest.raises(ValidationError):
        jsonio.fan_from_dict({"dim": 2, "rays": [[2, 0]], "max_cones": [[0]]})


def test_load_fan_and_divisor(tmp_path):
    v = catalog.hirzebruch_one()
    fan_path = tmp_path / "fan.json"
    fan_path.write_text(jsonio.dumps(jsonio.fan_to_dict(v)))
    loaded = jsonio.load_fan(str(fan_path))
    assert loaded.rays == v.rays

    div_path = tmp_path / "div.json"
    div_path.write_text(jsonio.dumps({"coeffs": ["1", "1/2", "3", "-1/3"]}))
    d = jsonio.load_divisor(str(div_path), loaded)
    assert d.coeffs == (1, F(1, 2), 3, F(-1, 3))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="not valid JSON"):
        jsonio.load_fan(str(bad))
    with pytest.raises(ParseError, match="not valid JSON"):
        jsonio.load_divisor(str(bad), loaded)
    bad.write_bytes(b'{"dim": "\xff"}')  # not UTF-8
    with pytest.raises(ParseError, match=f"^{re.escape(str(bad))}: not valid JSON"):
        jsonio.load_fan(str(bad))


def test_divisor_dict_round_trip():
    v = catalog.projective_space(2)
    d = v.divisor([F(-1, 2), 1, 1])
    data = {"coeffs": [format_rational(c) for c in d.coeffs]}
    assert data == {"coeffs": ["-1/2", "1/1", "1/1"]}
    got = jsonio.divisor_from_dict(data, v)
    assert got.variety is v and got.coeffs == d.coeffs


def test_divisor_from_dict_errors():
    v = catalog.projective_space(2)
    with pytest.raises(ParseError):
        jsonio.divisor_from_dict({"rays": []}, v)
    with pytest.raises(ParseError):
        jsonio.divisor_from_dict({"coeffs": ["1/0"]}, v)
    for bad in (True, False, 1.5, None):
        with pytest.raises(ParseError, match="rational"):
            jsonio.divisor_from_dict({"coeffs": [1, bad, 1]}, v)
    # wrong arity is a divisor validation problem
    with pytest.raises(ValidationError):
        jsonio.divisor_from_dict({"coeffs": ["1", "2"]}, v)


def test_dumps_layout():
    text = jsonio.dumps({"a": 1})
    assert text == '{\n  "a": 1\n}\n'
    assert text.endswith("\n")


def test_dumps_writes_nested_strings_as_json_dumps():
    strings = ["", "p/q", 'say "2"', "back\\slash", "tab\t nl\n", "\x00\x1f\x7f"]
    strings += ["Pé", "☃", "\U0001f600", "-18/98"]
    payloads = [
        strings,
        {s: s for s in strings},
        {"rows": [{"x": s, "n": i, "more": [s, [s]]} for i, s in enumerate(strings)]},
        [strings, {"é": strings, "t": tuple(strings)}, [[s] for s in strings]],
        ("☃", ({"k": "\U0001f600"},), []),
    ]
    for payload in payloads:
        assert jsonio.dumps(payload) == json.dumps(payload, indent=2) + "\n"


def test_dumps_refuses_a_named_tuple():
    # json.dumps would write a report as a bare list of its fields
    report = invariants.score(catalog.projective_space(2).anticanonical())
    with pytest.raises(TypeError, match="InvariantReport"):
        jsonio.dumps({"report": report})


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def expanded(value):
    """``value`` with each ``jsonio.Table`` replaced by the list of dicts it
    stands for, so that ``json.dumps`` can write it."""
    if type(value) is jsonio.Table:
        return [dict(zip(value.keys, row)) for row in value.rows]
    if isinstance(value, dict):
        return {key: expanded(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return [expanded(item) for item in value]
    return value


def test_dumps_matches_json_dumps_on_every_report_kind(tmp_path, monkeypatch, capsys):
    real = jsonio.dumps
    texts = []

    def recording(payload):
        text = real(payload)
        assert text == json.dumps(expanded(payload), indent=2) + "\n"
        texts.append(text)
        return text

    monkeypatch.setattr(jsonio, "dumps", recording)
    runs = {}

    def run(kind, *argv):
        texts.clear()
        assert cli.main(list(argv)) == 0
        (text,) = texts
        assert capsys.readouterr().out == text
        runs[kind] = runs.get(kind, 0) + 1

    for v in catalog.bundled_catalog():
        fan = _write_json(tmp_path / f"{v.name}.json", jsonio.fan_to_dict(v))
        run("validate", "validate", fan)
        run("invariants", "invariants", fan)
        run("sweep", "sweep", fan, "--resolution", "2", "--include-samples")
        if 2 <= v.dim <= 4:
            run("blowup", "blowup", fan, "--cone", "0", "--samples", "4",
                "--format", "json")
            run("okounkov", "okounkov", fan, "--samples", "4",
                "--check-translation", "1/3")
    run("verify", "verify-theorem", "--resolution", "2", "--format", "json")
    run("gap", "gap-report", "--resolution", "2", "--dimension", "2",
        "--format", "json")
    assert runs["blowup"] == runs["okounkov"] >= 6
    assert len(runs) == 7


def test_dumps_writes_a_table_as_its_list_of_dicts():
    cells = [("0/1", "-3/2"), ("12/7", "1/1")]
    tables = [
        jsonio.Table(("x", "y"), cells),
        jsonio.Table(("x", "y"), []),
        jsonio.Table((), [(), ()]),
        jsonio.Table(('k "%s" \\ é', "%"), cells),
    ]
    for table in tables:
        for payload in (table, {"a": table}, [1, {"b": [table, table]}]):
            text = jsonio.dumps(payload)
            assert text == json.dumps(expanded(payload), indent=2) + "\n"
    for bad in ([("1/1",)], [["1/1", "2/1"]], [("1/1", "2/1", "3/1")]):
        with pytest.raises(TypeError):
            jsonio.dumps(jsonio.Table(("x", "y"), bad))


def test_dumps_matches_json_dumps_on_edge_payloads(tmp_path, capsys):
    name = 'Pé "2" \\ ☃ \U0001f600 \x00\x1f\n\t\x7f'
    v = catalog.projective_space(2)
    data = dict(jsonio.fan_to_dict(v), name=name)
    assert cli.main(["validate", _write_json(tmp_path / "fan.json", data)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["name"] == name
    payloads = [
        report,
        {},
        [],
        (),
        [[], {}, [[]], {"a": {}}, [{}]],
        {"": "", "k": [()]},
        {"neg": -(10**40), "zero": 0, "pos": 10**40, "small": [-1, 1]},
        {"t": True, "f": False, "n": None, "list": [True, False, None]},
        (1, ("a", ("b",))),
        "plain",
        -7,
        None,
    ]
    for payload in payloads:
        assert jsonio.dumps(payload) == json.dumps(payload, indent=2) + "\n"
    for bad in (1.5, F(1, 2), {1, 2}, {1: "int key"}, [b"bytes"], {"x": object()}):
        with pytest.raises(TypeError):
            jsonio.dumps(bad)
