import json

import pytest

from torifan import catalog, jsonio, toric
from torifan.errors import ValidationError


def test_builders_produce_fano_varieties():
    entries = catalog.builders()
    assert list(entries) == [
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
    for name, build in entries.items():
        v = build()
        assert v.name == name
        assert v.anticanonical().is_ample()


def test_surface_catalog_contents():
    names = [v.name for v in catalog.surface_catalog()]
    assert sorted(names) == ["Bl2P2", "Bl3P2", "F1", "P1xP1", "P2"]
    assert all(v.dim == 2 for v in catalog.surface_catalog())


def test_bundled_files_match_builders():
    built = {v.name: v for v in catalog.bundled_catalog()}
    loaded = catalog.load_catalog()
    assert len(loaded) == len(built)
    for v in loaded:
        twin = built[v.name]
        assert v.rays == twin.rays
        assert v.max_cones == twin.max_cones


def test_load_catalog_sorts_by_file_name():
    names = [v.name for v in catalog.load_catalog()]
    assert names == sorted(names, key=lambda n: catalog.catalog_file_name(n))


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


def test_load_catalog_empty_directory(tmp_path):
    assert catalog.load_catalog(str(tmp_path)) == []


def test_bundled_files_match_the_builders():
    files = sorted(
        p.name for p in catalog.bundled_dir().iterdir() if p.name.endswith(".json")
    )
    assert files == sorted(
        catalog.catalog_file_name(n) for n in catalog.builders()
    )
    # each shipped file is byte identical to its builder's canonical JSON
    for variety in catalog.bundled_catalog():
        fname = catalog.catalog_file_name(variety.name)
        shipped = catalog.bundled_dir().joinpath(fname).read_text()
        assert jsonio.dumps(jsonio.fan_to_dict(variety)) == shipped


def test_bundled_json_shape():
    text = catalog.bundled_dir().joinpath("f1.json").read_text()
    data = json.loads(text)
    assert data["name"] == "F1"
    assert data["dim"] == 2
    assert data["rays"] == [[1, 0], [0, 1], [-1, 1], [0, -1]]
    assert len(data["max_cones"]) == 4
