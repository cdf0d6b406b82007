import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torifan import catalog, cli, jsonio, toric
from torifan.errors import ParseError, ValidationError

SRC = str(Path(__file__).resolve().parents[1] / "src")


def bundled_fan(name):
    """The bundled variety called ``name``, read afresh."""
    return next(v for v in catalog.bundled_catalog() if v.name == name)


def test_surface_catalog_contents():
    names = [v.name for v in catalog.surface_catalog()]
    assert sorted(names) == ["Bl2P2", "Bl3P2", "F1", "P1xP1", "P2"]
    assert all(v.dim == 2 for v in catalog.surface_catalog())


def test_load_catalog_sorts_by_file_name():
    names = [v.name for v in catalog.load_catalog()]
    assert names == sorted(names, key=lambda n: n.lower() + ".json")


def test_load_catalog_from_explicit_directory(tmp_path):
    v = catalog.hirzebruch_one()
    path = tmp_path / "f1.json"
    path.write_text(jsonio.dumps(jsonio.fan_to_dict(v)))
    loaded = catalog.load_catalog(str(tmp_path))
    assert len(loaded) == 1
    assert toric.fans_isomorphic(loaded[0], v)
    assert catalog.load_catalog(str(tmp_path))[0].name == "F1"


def test_load_catalog_env_override(tmp_path, monkeypatch):
    v = catalog.projective_space(2)
    (tmp_path / "p2.json").write_text(jsonio.dumps(jsonio.fan_to_dict(v)))
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path))
    loaded = catalog.load_catalog()
    assert [w.name for w in loaded] == ["P2"]
    monkeypatch.delenv(catalog.CATALOG_ENV)
    assert len(catalog.load_catalog()) == 11


def test_load_catalog_missing_directory():
    with pytest.raises(ValidationError, match="not found"):
        catalog.load_catalog("/no/such/dir")


def test_load_catalog_rejects_non_fano_entries(tmp_path):
    rays = [[1, 0], [0, 1], [-1, 2], [0, -1]]
    cones = [[0, 1], [1, 2], [2, 3], [3, 0]]
    f2 = toric.validate_fan(2, rays, cones, "F2")
    (tmp_path / "f2.json").write_text(jsonio.dumps(jsonio.fan_to_dict(f2)))
    with pytest.raises(ValidationError, match="not Fano"):
        catalog.load_catalog(str(tmp_path))


def test_malformed_catalog_file_is_named(tmp_path, capsys):
    v = catalog.hirzebruch_one()
    (tmp_path / "f1.json").write_text(jsonio.dumps(jsonio.fan_to_dict(v)))
    bad = tmp_path / "p2.json"
    bad.write_text('{"dim": 2, "rays": [[1, 0]')
    with pytest.raises(ParseError) as info:
        catalog.load_catalog(str(tmp_path))
    assert str(bad) in str(info.value)
    argv = ["verify-theorem", "--catalog", str(tmp_path), "--resolution", "1"]
    assert cli.main(argv) == 2
    assert str(bad) in capsys.readouterr().err


def test_load_catalog_empty_directory(tmp_path):
    assert catalog.load_catalog(str(tmp_path)) == []


def test_builders_produce_fano_varieties():
    """The bundled fans come in catalog order, each Fano, and the named
    constructors give the surfaces their catalog names."""
    bundled = catalog.bundled_catalog()
    assert [v.name for v in bundled] == [
        "P1",
        "P2",
        "P3",
        "P4",
        "P5",
        "P6",
        "P1xP1",
        "F1",
        "Bl2P2",
        "Bl3P2",
        "P1xP1xP1",
    ]
    assert all(v.anticanonical().is_ample() for v in bundled)
    assert catalog.hirzebruch_one().name == "F1"


def test_bundled_files_match_builders():
    """load_catalog of the bundled directory and the constructors give the
    same fans as bundled_catalog."""
    bundled = {v.name: v for v in catalog.bundled_catalog()}
    loaded = catalog.load_catalog()
    assert len(loaded) == len(bundled)
    built = [catalog.projective_space(n) for n in range(1, 7)]
    built += [catalog.p1_power(2), catalog.p1_power(3)]
    built.append(catalog.hirzebruch_one())
    assert sorted(v.name for v in built) == sorted(set(bundled) - {"Bl2P2", "Bl3P2"})
    for v in loaded + built:
        twin = bundled[v.name]
        assert v.rays == twin.rays
        assert v.max_cones == twin.max_cones


def test_bundled_files_match_the_builders():
    names = catalog.BUNDLED
    files = sorted(
        p.name for p in catalog.bundled_dir().iterdir() if p.name.endswith(".json")
    )
    assert files == sorted(name.lower() + ".json" for name in names)
    # each P^n and (P^1)^k file is byte identical to its family's canonical JSON
    families = [catalog.projective_space(n) for n in range(1, 7)]
    families += [catalog.p1_power(2), catalog.p1_power(3)]
    for variety in families:
        fname = variety.name.lower() + ".json"
        shipped = catalog.bundled_dir().joinpath(fname).read_text(encoding="utf-8")
        assert jsonio.dumps(jsonio.fan_to_dict(variety)) == shipped


def test_bundled_json_shape():
    text = catalog.bundled_dir().joinpath("f1.json").read_text(encoding="utf-8")
    data = json.loads(text)
    assert data["name"] == "F1"
    assert data["dim"] == 2
    assert data["rays"] == [[1, 0], [0, 1], [-1, 1], [0, -1]]
    assert len(data["max_cones"]) == 4


def test_catalog_reads_utf8_whatever_the_locale(tmp_path):
    """No catalog read falls back on the locale's encoding: with
    EncodingWarning raised as an error, every reader still runs."""
    fan = tmp_path / "p2.json"
    fan.write_text(jsonio.dumps(jsonio.fan_to_dict(catalog.projective_space(2))))
    script = (
        "import contextlib, io\n"
        "from torifan import catalog, cli\n"
        "assert len(catalog.load_catalog()) == 11\n"
        f"assert [v.name for v in catalog.load_catalog({str(tmp_path)!r})] == ['P2']\n"
        "assert len(catalog.bundled_catalog()) == 11\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify-theorem', '--resolution', '1']) == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop(catalog.CATALOG_ENV, None)
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
