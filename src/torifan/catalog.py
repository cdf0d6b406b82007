"""Bundled smooth toric Fano varieties.

Builders construct each fan from scratch; the JSON files shipped under
``data/catalog`` hold the same data so external tools can read them and the
catalog directory can be swapped out via the ``TORIFAN_CATALOG`` environment
variable.
"""

from __future__ import annotations

import json
import os
from importlib import resources
from itertools import product

from torifan import jsonio
from torifan.errors import ValidationError
from torifan.toric import ToricVariety, validate_fan

CATALOG_ENV = "TORIFAN_CATALOG"


def projective_space(n: int) -> ToricVariety:
    """P^n: rays e_1..e_n and -(e_1+..+e_n); cones omit one ray each."""
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    return validate_fan(n, rays, cones, f"P{n}")


def p1_power(k: int) -> ToricVariety:
    """(P^1)^k: rays +-e_i, one cone per sign pattern."""
    rays = []
    for i in range(k):
        rays.append(tuple(1 if j == i else 0 for j in range(k)))
        rays.append(tuple(-1 if j == i else 0 for j in range(k)))
    cones = [
        tuple(2 * i + (0 if s > 0 else 1) for i, s in enumerate(signs))
        for signs in product((1, -1), repeat=k)
    ]
    name = "x".join(["P1"] * k)
    return validate_fan(k, rays, cones, name)


def hirzebruch_one() -> ToricVariety:
    """F1, the blow-up of P^2 at one point."""
    rays = [(1, 0), (0, 1), (-1, 1), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return validate_fan(2, rays, cones, "F1")


def del_pezzo_7() -> ToricVariety:
    """Blow-up of P^2 at two fixed points (anticanonical degree 7)."""
    rays = [(1, 0), (0, 1), (-1, -1), (1, 1), (0, -1)]
    cones = [(0, 3), (3, 1), (1, 2), (2, 4), (4, 0)]
    return validate_fan(2, rays, cones, "Bl2P2")


def del_pezzo_6() -> ToricVariety:
    """Blow-up of P^2 at three fixed points (anticanonical degree 6)."""
    rays = [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)]
    cones = [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]
    return validate_fan(2, rays, cones, "Bl3P2")


def builders():
    """Name -> builder for every bundled variety, in catalog order."""
    entries = {f"P{n}": (lambda n=n: projective_space(n)) for n in range(1, 7)}
    entries["P1xP1"] = lambda: p1_power(2)
    entries["F1"] = hirzebruch_one
    entries["Bl2P2"] = del_pezzo_7
    entries["Bl3P2"] = del_pezzo_6
    entries["P1xP1xP1"] = lambda: p1_power(3)
    return entries


def bundled_catalog():
    """All bundled varieties; every one has ample anticanonical class."""
    out = []
    for name, build in builders().items():
        variety = build()
        assert variety.name == name
        assert variety.anticanonical().is_ample(), f"{name} is not Fano"
        out.append(variety)
    return out


def surface_catalog():
    """The five smooth toric del Pezzo surfaces."""
    wanted = {"P2", "P1xP1", "F1", "Bl2P2", "Bl3P2"}
    return [v for v in bundled_catalog() if v.name in wanted]


def catalog_file_name(name: str) -> str:
    return name.lower() + ".json"


def bundled_dir():
    return resources.files("torifan").joinpath("data/catalog")


def load_catalog(path=None):
    """Varieties from a catalog directory of fan JSON files.

    Resolution order: explicit ``path`` argument, the ``TORIFAN_CATALOG``
    environment variable, then the bundled data directory.  Files are read
    in sorted name order so reports are deterministic.
    """
    if path is None:
        path = os.environ.get(CATALOG_ENV)
    if path is None:
        root = bundled_dir()
        names = sorted(
            entry.name for entry in root.iterdir() if entry.name.endswith(".json")
        )
        texts = [(n, root.joinpath(n).read_text()) for n in names]
    else:
        if not os.path.isdir(path):
            raise ValidationError(f"catalog directory not found: {path}")
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        if not names:
            return []
        texts = []
        for n in names:
            with open(os.path.join(path, n), "r", encoding="utf-8") as fh:
                texts.append((n, fh.read()))
    out = []
    for fname, text in texts:
        data = json.loads(text)
        variety = jsonio.fan_from_dict(data)
        if not variety.anticanonical().is_ample():
            raise ValidationError(
                f"catalog entry {fname} is not Fano: -K is not ample"
            )
        out.append(variety)
    return out
