import json
from fractions import Fraction as F

import pytest
from test_catalog import bundled_fan
from test_sweep import hirzebruch, p2_bundle

from torifan import catalog, cli, harness, jsonio, okounkov, ratgeom, toric
from torifan.errors import (
    NotAmple,
    NotComplete,
    NotFano,
    NotSmooth,
    ParseError,
    ValidationError,
    VerificationError,
)


def write_fan(tmp_path, variety, name="fan.json"):
    path = tmp_path / name
    path.write_text(jsonio.dumps(jsonio.fan_to_dict(variety)))
    return str(path)


def write_divisor(tmp_path, coeffs, name="div.json"):
    path = tmp_path / name
    path.write_text(jsonio.dumps({"coeffs": [str(c) for c in coeffs]}))
    return str(path)


# ---------------------------------------------------------------------------
# harness level


def test_verify_theorem_over_the_bundled_catalog():
    report = harness.verify_theorem(catalog.load_catalog(), 2)
    names = [res.variety_name for res in report.results]
    assert names == sorted(names, key=lambda n: n.lower() + ".json")
    assert sum(report.projective) == 6  # P1 through P6
    by_name = dict(zip(names, report.results))
    assert by_name["P2"].gap == 0
    assert by_name["F1"].gap > 0
    assert by_name["P1xP1xP1"].gap == 16
    text = report.csv_text()
    lines = text.splitlines()
    assert lines[0] == "variety,n,max_score,max_score_decimal,gap"
    assert "P2,2,9/1,9,0/1" in lines
    data = report.json_dict()
    assert data["resolution"] == 2
    assert len(data["entries"]) == 11
    p2 = next(e for e in data["entries"] if e["variety"] == "P2")
    assert p2["is_projective_space"] is True
    assert p2["max_score"] == "9/1"


def test_verify_theorem_guards_both_directions(monkeypatch):
    quadric = catalog.p1_power(2)
    monkeypatch.setattr(harness, "is_projective_space", lambda *a: True)
    with pytest.raises(VerificationError, match="must attain"):
        harness.verify_theorem([quadric], 2)
    monkeypatch.setattr(harness, "is_projective_space", lambda *a: False)
    with pytest.raises(VerificationError, match="only projective space"):
        harness.verify_theorem([catalog.projective_space(2)], 2)


def test_verify_theorem_decides_projective_space_without_isomorphism(monkeypatch):
    def boom(*args):
        raise AssertionError("fans_isomorphic must not run")

    monkeypatch.setattr(toric, "fans_isomorphic", boom)
    report = harness.verify_theorem(catalog.load_catalog(), 1)
    flagged = {r.variety_name for r, pn in zip(report.results, report.projective) if pn}
    assert flagged == {"P1", "P2", "P3", "P4", "P5", "P6"}


def test_gap_report_rows_and_note():
    report = harness.gap_report(catalog.load_catalog(), 2)
    assert [row[0] for row in report.rows] == [2, 3]
    dim2 = report.rows[0]
    assert dim2[1] == 1 and dim2[2] == "P1xP1"
    dim3 = report.rows[1]
    assert dim3[1] == 16 and dim3[2] == "P1xP1xP1"
    assert "resolution 2" in report.note
    assert "not a proof" in report.note
    lines = report.csv_text().splitlines()
    assert lines[0] == "dimension,epsilon_toric,epsilon_decimal,achieved_by"
    assert lines[1] == "2,1/1,1,P1xP1"
    data = report.json_dict()
    assert data["epsilon_toric"][0]["achieved_by"] == "P1xP1"
    assert any(not e["is_projective_space"] for e in data["entries"])


def test_gap_report_dimension_filter():
    report = harness.gap_report(catalog.load_catalog(), 2, dimension=2)
    assert [row[0] for row in report.rows] == [2]
    assert all(res.dim == 2 for res in report.sweep.results)


def test_gap_report_guards_both_directions(tmp_path, monkeypatch, capsys):
    """A P^n that misses the bound, or another fan that meets it, is refused
    with exit 1, as verify-theorem refuses it."""
    entries = [
        catalog.projective_space(2), catalog.p1_power(2), catalog.hirzebruch_one()
    ]
    for variety in entries:
        write_fan(tmp_path, variety, variety.name.lower() + ".json")
    argv = ["gap-report", "--catalog", str(tmp_path), "--resolution", "2"]
    for misread, message in (
        ({"P2", "P1xP1"}, "must attain"),  # P1xP1 taken for P^n
        (set(), "only projective space"),  # P2 taken for another fan
    ):
        monkeypatch.setattr(
            harness, "is_projective_space", lambda v, pn=misread: v.name in pn
        )
        with pytest.raises(VerificationError, match=message):
            harness.gap_report(entries, 2)
        assert cli.main(argv) == 1
        assert message in capsys.readouterr().err


def test_gap_report_requires_a_non_projective_entry():
    with pytest.raises(ValidationError):
        harness.gap_report([catalog.projective_space(2)], 2)


def test_blowup_command_equality_case():
    p2 = catalog.projective_space(2)
    report = harness.blowup_command(p2, 0, p2.divisor([0, 0, 1]), samples=10)
    assert report.vol == 1
    assert report.domain_end == 1
    assert report.margin_certified and report.monotone_certified
    assert all(margin == "0/1" for _, _, _, margin in report.cells())
    assert report.chain.all_tight
    lines = report.csv_text().splitlines()
    assert lines[0] == "x,volume,lower_bound,margin"
    assert lines[1] == "0/1,1/1,1/1,0/1"
    assert lines[-1] == "1/1,0/1,0/1,0/1"
    data = report.json_dict()
    assert data["chain"]["final_comparison_nth_power"] == ["4/1", "4/1"]
    assert data["chain"]["vol_nth_root"] == "1/1"
    assert data["chain"]["all_tight"] is True


def test_blowup_command_on_anticanonical_margins():
    f1 = catalog.hirzebruch_one()
    report = harness.blowup_command(f1, 2, f1.anticanonical(), samples=25)
    assert report.vol == 8
    assert report.margin_certified
    cells = report.cells()
    assert not any(margin.startswith("-") for _, _, _, margin in cells)
    assert cells[0][1] == "8/1"  # profile starts at the full volume
    assert cells[-1][1] == "0/1"


def test_blowup_command_requires_ample():
    f1 = catalog.hirzebruch_one()
    with pytest.raises(NotAmple):
        harness.blowup_command(f1, 0, f1.divisor([0, 0, 0, 1]))


def test_a_wrong_volume_is_a_verification_failure(tmp_path, capsys, monkeypatch):
    """The vanishing-order profile's exact checks raise VerificationError, not
    an assertion that ``python -O`` would drop: blowup exits 1 and names it."""
    fan = write_fan(tmp_path, catalog.projective_space(2))
    real = toric.TDivisor.vol
    monkeypatch.setattr(toric.TDivisor, "vol", lambda self: real(self) + 1)
    assert cli.main(["blowup", fan, "--cone", "0"]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("verification failure: ")


def test_okounkov_command_report():
    f1 = catalog.hirzebruch_one()
    report = harness.okounkov_command(
        f1,
        f1.anticanonical(),
        translations=(F(0), F(1, 3), F(1, 2)),
        samples=8,
    )
    assert report.body_volume == 4
    assert report.divisor_volume == 8
    assert report.pseff == 3
    assert all(ok for _, ok in report.translation_results)
    assert report.concave
    assert report.support == (0, 3)
    lines = report.csv_text().splitlines()
    assert lines[0] == "r,slice_area"
    assert lines[1] == "0/1,2/1"  # slice width at r = 0
    data = report.json_dict()
    assert data["volume_identity"] == "ok"
    assert data["bm_concave"] is True
    assert all(c["verdict"] == "OK" for c in data["translation_checks"])
    assert data["pseff_threshold"] == "3/1"


def test_okounkov_command_builds_one_body_per_class(monkeypatch):
    real = okounkov.okounkov_body
    built = []

    def counting(divisor, flag):
        built.append(divisor.coeffs)
        return real(divisor, flag)

    monkeypatch.setattr(okounkov, "okounkov_body", counting)
    monkeypatch.setattr(harness, "okounkov_body", counting)
    f1 = catalog.hirzebruch_one()
    harness.okounkov_command(f1, f1.anticanonical(), translations=(F(1, 3),))
    # the command's body and the translation check's shifted body
    assert len(built) == 2
    assert built[0] == f1.anticanonical().coeffs


def test_okounkov_command_raises_on_forced_translation_failure(monkeypatch):
    f1 = catalog.hirzebruch_one()
    monkeypatch.setattr(
        harness, "translation_identity_check", lambda *a, **k: False
    )
    with pytest.raises(VerificationError, match="translation identity"):
        harness.okounkov_command(f1, f1.anticanonical(), translations=(F(1, 3),))


# ---------------------------------------------------------------------------
# command line


def test_cli_validate_ok(tmp_path, capsys):
    path = write_fan(tmp_path, catalog.hirzebruch_one())
    assert cli.main(["validate", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["name"] == "F1"
    assert payload["n_walls"] == 4
    assert payload["anticanonical_ample"] is True


def test_cli_validate_rejects_singular_fan(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = {"dim": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[0, 1]]}
    path.write_text(jsonio.dumps(payload))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "change",
    [
        {"dim": 2.9},
        {"rays": [[1.7, 0], [0, 1], [-1, -1]]},
        {"rays": [[1, 0], [0, True], [-1, -1]]},
    ],
)
def test_cli_validate_refuses_values_that_are_not_integers(tmp_path, capsys, change):
    """int() would truncate each of these to a valid P2."""
    path = tmp_path / "p2.json"
    payload = {
        "dim": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[1, 2], [0, 2], [0, 1]],
    }
    path.write_text(json.dumps({**payload, **change}))
    assert cli.main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed fan JSON")


P2 = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[1, 2], [0, 2], [0, 1]],
}
BAD_FANS = {
    "missing keys": ({"dim": 2, "rays": [[1, 0], [0, 1]]}, ParseError),
    "repeated ray": ({**P2, "rays": [[1, 0], [1, 0], [-1, -1]]}, ValidationError),
    "non-smooth cone": (
        {"dim": 2, "rays": [[1, 0], [1, 2], [-1, -1]],
         "max_cones": [[0, 1], [1, 2], [2, 0]]},
        NotSmooth,
    ),
    "incomplete": (
        {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}, NotComplete
    ),
    "ray dimension": ({**P2, "rays": [[1, 0, 0], [0, 1], [-1, -1]]}, ValidationError),
    "dimension 0": ({"dim": 0, "rays": [], "max_cones": []}, ValidationError),
    "repeated ray index": (
        {**P2, "max_cones": [[1, 1], [0, 2], [0, 1]]}, ValidationError
    ),
    "unused ray": ({**P2, "rays": [*P2["rays"], [1, 1]]}, ValidationError),
    "bool": ({**P2, "dim": True}, ParseError),
    "float": ({**P2, "rays": [[1.0, 0], [0, 1], [-1, -1]]}, ParseError),
}


@pytest.mark.parametrize("kind", BAD_FANS)
def test_every_command_names_a_bad_fan_file(tmp_path, capsys, kind):
    data, error = BAD_FANS[kind]
    fan = tmp_path / "catalog" / "fan.json"
    fan.parent.mkdir()
    fan.write_text(json.dumps(data))
    with pytest.raises(error) as info:
        jsonio.load_fan(str(fan))
    assert type(info.value) is error and str(info.value).startswith(f"{fan}: ")
    for argv in (
        ["validate", fan],
        ["invariants", fan],
        ["sweep", fan, "--resolution", 1],
        ["verify-theorem", "--catalog", fan.parent, "--resolution", 1],
    ):
        assert cli.main([str(arg) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith(f"error: {fan}: ")


# fans that are not Fano: (fan, -K.C on the first such wall, that wall's text)
NON_FANO = {
    "F3": (hirzebruch(3), -1, "wall 1, between cones 0 and 1"),
    "F4": (hirzebruch(4), -2, "wall 1, between cones 0 and 1"),
    "F5": (hirzebruch(5), -3, "wall 1, between cones 0 and 1"),
    "P(O+O(3))": (p2_bundle(3), 0, "wall 2, between cones 0 and 2"),
    "P(O+O(4))": (p2_bundle(4), -1, "wall 2, between cones 0 and 2"),
}


@pytest.mark.parametrize("kind", NON_FANO)
def test_commands_with_a_score_refuse_a_fan_that_is_not_fano(tmp_path, capsys, kind):
    variety, value, wall = NON_FANO[kind]
    fan = write_fan(tmp_path, variety)
    with pytest.raises(NotFano) as info:
        toric.require_fano(variety, fan)
    message = f"{fan}: not Fano: -K.C = {value} <= 0 on {wall}"
    assert str(info.value) == message
    for argv in (
        ["invariants", fan],
        ["sweep", fan, "--resolution", "2"],
        ["blowup", fan, "--cone", "0"],
    ):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"error: {message}\n"
    # a big class's body does not need -K ample
    for argv in (["validate", fan], ["okounkov", fan]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out


def test_no_error_text_holds_a_python_repr(tmp_path, capsys):
    """Every refusal of the bad-input suites prints rationals as p/q."""
    runs = []
    for kind, (data, _) in BAD_FANS.items():
        fan = tmp_path / kind.replace(" ", "_") / "fan.json"
        fan.parent.mkdir()
        fan.write_text(json.dumps(data))
        runs += [["validate", fan], ["invariants", fan], ["okounkov", fan],
                 ["sweep", fan, "--resolution", 1],
                 ["verify-theorem", "--catalog", fan.parent, "--resolution", 1]]
    for kind, (variety, _, _) in NON_FANO.items():
        fan = write_fan(tmp_path, variety, f"{kind}.json")
        runs += [["invariants", fan], ["sweep", fan, "--resolution", 2],
                 ["blowup", fan, "--cone", 0]]
    f1 = write_fan(tmp_path, catalog.hirzebruch_one(), "f1.json")
    nef = write_divisor(tmp_path, ["0", "0", "0", "1/2"], "nef.json")
    flat = write_divisor(tmp_path, ["1/3", "0", "0", "0"], "flat.json")
    runs += [["invariants", f1, "--divisor", nef],
             ["blowup", f1, "--cone", 0, "--divisor", nef],
             ["okounkov", f1, "--divisor", flat],
             ["okounkov", f1, "--check-translation", 99]]
    for argv in runs:
        assert cli.main([str(arg) for arg in argv]) == 2, argv
        out, err = capsys.readouterr()
        assert not out and err.startswith("error: "), argv
        assert "Fraction(" not in err, argv


def test_a_fan_past_the_simplex_cap_is_refused_quickly(tmp_path, capsys):
    """(P^1)^9 has 9! = 362,880 simplices in its ``simplices`` table; the
    pulling triangulation stops at MAX_SIMPLICES = 10^5."""
    fan = write_fan(tmp_path, catalog.p1_power(9))
    for argv in (["invariants", fan], ["sweep", fan, "--resolution", "1"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and "MAX_SIMPLICES = 100000" in err


def test_a_small_simplex_cap_refuses_a_small_fan(tmp_path, capsys, monkeypatch):
    fan = write_fan(tmp_path, catalog.p1_power(3))  # 3! = 6 simplices
    assert cli.main(["invariants", fan]) == 0
    capsys.readouterr()
    monkeypatch.setattr(ratgeom, "MAX_SIMPLICES", 5)
    for argv in (["invariants", fan], ["sweep", fan, "--resolution", "1"]):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == "error: triangulation exceeds MAX_SIMPLICES = 5 simplices\n"


def test_invariants_names_a_bad_divisor_file(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.p1_power(2))
    for coeffs in (["1", "2"], 4):  # P1xP1 needs 4 coefficients
        path = tmp_path / "div.json"
        path.write_text(json.dumps({"coeffs": coeffs}))
        assert cli.main(["invariants", fan, "--divisor", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_validate_missing_file(capsys):
    assert cli.main(["validate", "/no/such/fan.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_validate_has_no_format_option(tmp_path, capsys):
    path = write_fan(tmp_path, catalog.hirzebruch_one())
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", path, "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_cli_invariants_json(tmp_path, capsys):
    path = write_fan(tmp_path, catalog.hirzebruch_one())
    assert cli.main(["invariants", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vol"] == "8/1"
    assert payload["seshadri"] == "1/1"
    assert payload["delta"] == "6/7"
    assert payload["delta_witness_ray"] == 1
    assert payload["beta"] == "6/7"
    assert payload["score"] == "288/49"
    assert payload["score_decimal"] == "5.87755102041"
    assert payload["gap"] == "153/49"
    assert payload["is_extremal"] is False


def test_cli_invariants_csv_with_divisor_file(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.projective_space(2))
    div = write_divisor(tmp_path, ["0", "0", "1"])
    rc = cli.main(["invariants", fan, "--divisor", div, "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "variety,n,vol,seshadri,delta,beta,score,score_decimal,gap"
    )
    assert lines[1] == "P2,2,1/1,3/1,3/1,3/1,9/1,9,0/1"


def test_cli_invariants_rejects_non_ample(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.hirzebruch_one())
    div = write_divisor(tmp_path, ["0", "0", "0", "1"])
    assert cli.main(["invariants", fan, "--divisor", div]) == 2
    assert "not ample" in capsys.readouterr().err


def test_cli_sweep_json_and_samples(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.projective_space(2))
    rc = cli.main(["sweep", fan, "--resolution", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidates"] == 7
    assert payload["max_score"] == "9/1"
    assert payload["argmax"] == [1, 1, 1]
    assert payload["engine"] == "pure"
    assert "sample_reports" not in payload

    rc = cli.main(
        [
            "sweep",
            fan,
            "--resolution",
            "2",
            "--include-samples",
            "--samples-cap",
            "3",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sample_reports_complete"] is False
    assert len(payload["sample_reports"]) == 3
    assert payload["sample_reports"][0]["score"] == "9/1"


def test_cli_sweep_csv_shape(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.p1_power(2))
    rc = cli.main(
        [
            "sweep",
            fan,
            "--resolution",
            "2",
            "--format",
            "csv",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "variety,n,resolution,engine,candidates,ample_samples,"
        "max_score,max_score_decimal,gap,argmax"
    )
    assert lines[1] == "P1xP1,2,2,pure,15,15,8/1,8,1/1,1 1 1 1"


def test_cli_sweep_empty_grid_is_an_input_error(tmp_path, capsys):
    # -K is the grid sample (1, ..., 1), so a grid with no ample sample
    # belongs to a fan that is not Fano, and `sweep` refuses that fan
    # before it sweeps: F2's grid at resolution 1 is empty
    # (tests/test_sweep.py), and F2 is refused as not Fano
    fan = write_fan(tmp_path, hirzebruch(2))
    assert cli.main(["sweep", fan, "--resolution", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: {fan}: not Fano: -K.C = 0 <= 0 on wall 1, between cones 0 and 1\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "FAN", "--resolution", "1000"],
        ["verify-theorem", "--resolution", "1000"],
    ],
)
def test_cli_too_large_resolution_is_an_input_error(tmp_path, capsys, argv):
    fan = write_fan(tmp_path, bundled_fan("Bl3P2"), "bl3p2.json")
    assert cli.main([fan if a == "FAN" else a for a in argv]) == 2
    assert "over 2^28 grid points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["blowup", "FAN", "--cone", "0", "--samples", "0"],
        ["okounkov", "FAN", "--samples", "0"],
        ["blowup", "FAN", "--cone", "0", "--samples", "100001"],
        ["okounkov", "FAN", "--samples", "100001"],
        [
            "sweep",
            "FAN",
            "--resolution",
            "2",
            "--include-samples",
            "--samples-cap",
            "-3",
        ],
        [
            "sweep",
            "FAN",
            "--resolution",
            "2",
            "--include-samples",
            "--samples-cap",
            "100001",
        ],
        ["sweep", "FAN", "--resolution", "2", "--samples-cap", "-5"],
        ["sweep", "FAN", "--resolution", "2", "--samples-cap", "999999999"],
    ],
)
def test_cli_sample_counts_are_input_errors(tmp_path, capsys, argv):
    fan = write_fan(tmp_path, catalog.projective_space(2))
    assert cli.main([fan if a == "FAN" else a for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_blowup_csv(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.projective_space(2))
    div = write_divisor(tmp_path, ["0", "0", "1"])
    rc = cli.main(
        ["blowup", fan, "--cone", "0", "--divisor", div, "--samples", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "x,volume,lower_bound,margin"
    assert all(line.endswith(",0/1") for line in lines[1:])
    assert "\r" not in out


def test_cli_blowup_refuses_dimension_one(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.projective_space(1))
    assert cli.main(["blowup", fan, "--cone", "0"]) == 2
    err = capsys.readouterr().err
    assert "needs dimension >= 2" in err
    assert "repeated" not in err


def test_cli_okounkov_with_translation_checks(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.hirzebruch_one())
    rc = cli.main(
        [
            "okounkov",
            fan,
            "--flag",
            "0:1,0",
            "--check-translation",
            "1/3",
            "--check-translation",
            "0",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ray_order"] == [1, 0]
    assert payload["volume_identity"] == "ok"
    assert [c["verdict"] for c in payload["translation_checks"]] == ["OK", "OK"]


def test_cli_parser_is_reused_without_carrying_state(tmp_path, capsys):
    # main() builds its parser once; no call may see an earlier call's values
    fan = write_fan(tmp_path, catalog.hirzebruch_one())
    argv = ["okounkov", fan, "--check-translation", "1/2"]
    for _ in range(2):
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["translation_checks"]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["okounkov", fan, "--samples", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["translation_checks"]) == 1


def test_cli_okounkov_flag_errors(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.hirzebruch_one())
    assert cli.main(["okounkov", fan, "--flag", "x"]) == 2
    assert cli.main(["okounkov", fan, "--flag", "9"]) == 2
    assert "no maximal cone with index 9" in capsys.readouterr().err
    assert cli.main(["okounkov", fan, "--flag", "-1"]) == 2
    assert "no maximal cone with index -1" in capsys.readouterr().err
    assert cli.main(["okounkov", fan, "--flag", "0:1,1"]) == 2
    assert cli.main(["okounkov", fan, "--flag", "0:a,b"]) == 2
    assert cli.main(["okounkov", fan, "--check-translation", "x"]) == 2
    assert cli.main(["okounkov", fan, "--check-translation", "1/0"]) == 2
    capsys.readouterr()


def test_cli_okounkov_translation_out_of_range(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.hirzebruch_one())
    rc = cli.main(["okounkov", fan, "--check-translation", "99"])
    assert rc == 2
    assert capsys.readouterr().err == "error: need 0 <= t < 3/1, got 99/1\n"


def test_cli_verify_theorem_deterministic(tmp_path, capsys):
    cat = tmp_path / "cat"
    cat.mkdir()
    write_fan(cat, catalog.projective_space(2), "p2.json")
    write_fan(cat, catalog.hirzebruch_one(), "f1.json")
    argv = [
        "verify-theorem",
        "--catalog",
        str(cat),
        "--resolution",
        "3",
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "variety,n,max_score,max_score_decimal,gap"
    assert lines[1].startswith("F1,2,")
    assert lines[2] == "P2,2,9/1,9,0/1"


def test_cli_verify_theorem_refuses_an_empty_catalog(tmp_path, capsys):
    cat = tmp_path / "empty"
    cat.mkdir()
    (cat / "notes.txt").write_text("no fan files here")
    rc = cli.main(["verify-theorem", "--catalog", str(cat), "--resolution", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: verify-theorem needs at least one fan" in captured.err
    with pytest.raises(ValidationError, match="at least one fan"):
        harness.verify_theorem([], 2)


def test_cli_gap_report(tmp_path, capsys):
    cat = tmp_path / "cat"
    cat.mkdir()
    write_fan(cat, catalog.projective_space(2), "p2.json")
    write_fan(cat, catalog.p1_power(2), "p1xp1.json")
    rc = cli.main(
        ["gap-report", "--catalog", str(cat), "--resolution", "2"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dimension,epsilon_toric,epsilon_decimal,achieved_by"
    assert lines[1] == "2,1/1,1,P1xP1"


def test_cli_gap_report_needs_non_projective_entry(tmp_path, capsys):
    cat = tmp_path / "cat"
    cat.mkdir()
    write_fan(cat, catalog.projective_space(2), "p2.json")
    argv = ["gap-report", "--catalog", str(cat), "--resolution", "2"]
    for extra, message in (
        ([], "gap report needs at least one entry besides projective space"),
        (["--dimension", "7"], "no catalog entry of dimension 7"),
    ):
        assert cli.main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_cli_out_writes_file(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.projective_space(2))
    target = tmp_path / "report.json"
    rc = cli.main(["invariants", fan, "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["score"] == "9/1"


def test_cli_exit_code_one_on_verification_failure(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise VerificationError("forced failure", sample=(1, 2))

    monkeypatch.setattr(harness, "verify_theorem", boom)
    rc = cli.main(["verify-theorem", "--resolution", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure:")
    assert "forced failure" in err


def test_cli_reports_end_with_single_newline(tmp_path, capsys):
    fan = write_fan(tmp_path, catalog.projective_space(2))
    for argv in (
        ["validate", fan],
        ["invariants", fan],
        ["invariants", fan, "--format", "csv"],
        ["sweep", fan, "--resolution", "1"],
    ):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        assert not out.endswith("\n\n")
