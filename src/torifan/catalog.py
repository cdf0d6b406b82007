"""Bundled smooth toric Fano varieties.

The 11 bundled fans exist once, as the JSON files under ``data/catalog``.
``load_catalog`` reads a directory of such files -- the bundled one, or one
named by an argument or the ``TORIFAN_CATALOG`` environment variable -- and
``bundled_catalog``, ``surface_catalog`` and ``hirzebruch_one`` read the
bundled files through the same reader.  ``projective_space(n)`` and
``p1_power(k)`` build those two families for any n and k; the bundled P^n and
(P^1)^k files are their output, written by ``jsonio``.
"""

from __future__ import annotations

import os
from importlib import resources
from itertools import product

from torifan import jsonio
from torifan.errors import ValidationError
from torifan.toric import ToricVariety, require_fano, validate_fan

CATALOG_ENV = "TORIFAN_CATALOG"
BUNDLED = (
    "P1", "P2", "P3", "P4", "P5", "P6", "P1xP1", "F1", "Bl2P2", "Bl3P2",
    "P1xP1xP1",
)


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


def bundled_catalog():
    """The bundled varieties, in the order seeded tests draw classes from."""
    by_name = {v.name: v for v in _read_catalog(bundled_dir())}
    return [by_name[name] for name in BUNDLED]


def surface_catalog():
    """The five smooth toric del Pezzo surfaces."""
    return [v for v in bundled_catalog() if v.dim == 2]


def hirzebruch_one() -> ToricVariety:
    """F1, the blow-up of P^2 at one point."""
    return _read_fan(bundled_dir(), "f1.json")


def bundled_dir():
    """The bundled catalog directory, a path on the file system."""
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
        path = bundled_dir()
    elif not os.path.isdir(path):
        raise ValidationError(f"catalog directory not found: {path}")
    return _read_catalog(path)


def _read_catalog(root):
    """The fan of every ``*.json`` file in directory ``root``, by file name."""
    names = sorted(name for name in os.listdir(root) if name.endswith(".json"))
    return [_read_fan(root, name) for name in names]


def _read_fan(root, name):
    """The Fano variety in file ``name`` of directory ``root``."""
    path = os.path.join(root, name)
    variety = jsonio.load_fan(path)
    require_fano(variety, path)
    return variety
