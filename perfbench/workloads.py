"""The benchmark's four workloads: seeded inputs, CLI ops and exact checks.

Every op is one ``torifan.cli.main(argv)`` call.  Inputs are files written
before timing into a scratch directory; the program sees only those files
and argv.  Each op carries a seed-free exact check of its output, and the
SHA-256 of its output bytes is compared with the digest recorded in
``expected.json`` (for every seed on the sweep workloads, whose output does
not depend on the seed; at the default seed on the others).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0

# Sizes keep every op short enough to be timed in 10 or more passes of one
# run; see README.md, "Steadiness".
VERIFY_RESOLUTION = 3
GAP_RESOLUTION = 5
CLASSES_PER_FAN = 8
PROFILE_MAX_DIM = 4
PROFILE_AMPLE_CLASSES = 4
TRANSLATION = "1/2"


@dataclass
class Op:
    label: str  # stable name of the op within its workload, used for digests
    argv: list
    check: object  # callable(text) -> None; raises CheckFailed on a bad output
    samples_key: str | None = None  # output field summed into sample counts


@dataclass
class Workload:
    ops: list  # one pass, in order
    warmup: list  # untimed ops run once before timing
    setup_fans: list = field(default_factory=list)  # fan files the setup probe loads
    setup_divisors: list = field(default_factory=list)  # (fan file, divisor file)
    setup_catalogs: list = field(default_factory=list)  # catalog directories
    seed_invariant: bool = False  # output bytes do not depend on the seed


class CheckFailed(Exception):
    """An op's output violated an exact check."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _rat(text) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


# ---------------------------------------------------------------------------
# inputs


def bundled_catalog_dir(root):
    return os.path.join(root, "src", "torifan", "data", "catalog")


def read_catalog(root):
    """File name -> fan dict for every bundled fan, sorted by file name."""
    d = bundled_catalog_dir(root)
    out = {}
    for name in sorted(os.listdir(d)):
        if name.endswith(".json"):
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                out[name] = json.load(fh)
    return out


def unimodular_change(dim, rng):
    """A signed permutation followed by one elementary shear (det +-1).

    Entries stay in {-1, 0, 1} so the coordinates the program sees stay as
    small as the bundled ones, and every exact output stays byte-identical:
    all reported quantities are lattice invariants of the fan and divisor.
    """
    perm = rng.sample(range(dim), dim)
    mat = [[0] * dim for _ in range(dim)]
    for i, j in enumerate(perm):
        mat[i][j] = rng.choice((1, -1))
    if dim >= 2:
        i, j = rng.sample(range(dim), 2)
        s = rng.choice((1, -1))
        mat[i] = [a + s * b for a, b in zip(mat[i], mat[j])]
    return mat


def write_changed_catalogs(root, workdir, rng, groups):
    """One catalog directory per group of fan names, in seeded coordinates.

    Each fan gets its own change of coordinates, drawn in file-name order.
    Returns the directories in the order of ``groups``.
    """
    changed = {}
    for fname, data in read_catalog(root).items():
        mat = unimodular_change(data["dim"], rng)
        rays = [
            [sum(m * x for m, x in zip(row, ray)) for row in mat]
            for ray in data["rays"]
        ]
        changed[data["name"]] = (fname, dict(data, rays=rays))
    dirs = []
    for k, names in enumerate(groups):
        out = os.path.join(workdir, f"catalog-{k:02d}")
        os.makedirs(out)
        for name in names:
            fname, data = changed[name]
            with open(os.path.join(out, fname), "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=2)
        dirs.append(out)
    return dirs


def _wall_rows(data):
    """Integer wall functionals of a bundled fan, via torifan's own walls."""
    from torifan import jsonio

    variety = jsonio.fan_from_dict(data)
    return variety, [
        (w.opp_a, w.opp_b, tuple(zip(w.rays, w.relation))) for w in variety.walls
    ]


def _is_ample(walls, coeffs):
    for a, b, rel in walls:
        if coeffs[a] + coeffs[b] + sum(r * coeffs[i] for i, r in rel) <= 0:
            return False
    return True


def random_ample(walls, n_rays, rng, top=4):
    """An ample class with integer coefficients in 1..top, by rejection."""
    while True:
        coeffs = [rng.randint(1, top) for _ in range(n_rays)]
        if _is_ample(walls, coeffs):
            return coeffs


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# ---------------------------------------------------------------------------
# exact checks


def check_verify(text):
    data = json.loads(text)
    entries = data["entries"]
    _require(len(entries) > 0, "no entries")
    for e in entries:
        gap = _rat(e["gap"])
        if e["is_projective_space"]:
            _require(gap == 0, f"{e['variety']}: P^n must have gap 0")
        else:
            _require(gap > 0, f"{e['variety']}: gap must be positive")
        _require(
            _rat(e["max_score"]) + gap == e["bound"],
            f"{e['variety']}: max_score + gap != bound",
        )
        if e["variety"] == "P1xP1":
            _require(e["max_score"] == "8/1", "P1xP1 max score must be 8/1")


def make_check_gap(surface):
    """gap-report on {P2, surface}: epsilon is the surface's gap.

    Over the five surfaces this is epsilon_toric = 1/1, achieved by P1xP1:
    P1xP1's op must report 1/1 and every other op a larger gap.
    """

    def check(text):
        data = json.loads(text)
        (row,) = data["epsilon_toric"]
        _require(row["dimension"] == 2 and row["achieved_by"] == surface,
                 "epsilon_toric row names the wrong surface")
        if surface == "P1xP1":
            _require(row["epsilon"] == "1/1", "P1xP1 must achieve epsilon 1/1")
        else:
            _require(_rat(row["epsilon"]) > 1, f"{surface}: gap must exceed 1")
        for e in data["entries"]:
            gap = _rat(e["gap"])
            if e["is_projective_space"]:
                _require(gap == 0, f"{e['variety']}: P^n must have gap 0")
            else:
                _require(gap > 0, f"{e['variety']}: gap must be positive")
            if e["variety"] == "P1xP1":
                _require(e["max_score"] == "8/1", "P1xP1 max score must be 8/1")

    return check


def make_check_score(name, coeffs):
    want = [f"{c}/1" for c in coeffs]

    def check(text):
        data = json.loads(text)
        _require(data["variety"] == name, "wrong variety")
        _require(data["coeffs"] == want, "coefficients do not match the input")
        score, bound, gap = (_rat(data[k]) for k in ("score", "bound", "gap"))
        _require(score <= bound, "score exceeds the bound")
        _require(gap == bound - score, "gap != bound - score")

    return check


def check_blowup(text):
    data = json.loads(text)
    _require(data["margin_certified_nonnegative"] is True, "margin not certified")
    _require(data["chain"]["first_holds"] is True, "chain: first fails")
    _require(data["chain"]["second_holds"] is True, "chain: second fails")


def check_okounkov(text):
    data = json.loads(text)
    _require(data["volume_identity"] == "ok", "volume identity")
    checks = data["translation_checks"]
    _require(
        [c["verdict"] for c in checks] == ["OK"], "translation check must be OK"
    )


# ---------------------------------------------------------------------------
# workloads


def verify_catalog(root, workdir, seed, tiny=False):
    """verify-theorem on each bundled fan, in seeded lattice coordinates.

    One op per fan (a one-fan catalog directory), so that every op is short
    enough to be timed many times in one run.
    """
    rng = random.Random(f"verify_catalog/{seed}")
    names = [d["name"] for d in read_catalog(root).values()]
    if tiny:
        names = [n for n in names if n in ("P1", "P2", "P1xP1", "P3")]
    dirs = write_changed_catalogs(root, workdir, rng, [[n] for n in names])
    res = 2 if tiny else VERIFY_RESOLUTION
    ops = [
        Op(f"verify-theorem {name}",
           ["verify-theorem", "--catalog", d, "--resolution", str(res),
            "--format", "json"],
           check_verify, "ample_samples")
        for name, d in zip(names, dirs)
    ]
    warm = [op.argv[:4] + ["1", "--format", "json"] for op in ops]
    return Workload(ops=ops, warmup=warm, setup_catalogs=dirs,
                    seed_invariant=True)


def gap_surfaces(root, workdir, seed, tiny=False):
    """gap-report on P2 plus each other del Pezzo surface, in seeded coordinates.

    gap-report needs an entry besides projective space, so each op pairs P2
    with one of the four other surfaces.
    """
    rng = random.Random(f"gap_surfaces/{seed}")
    surfaces = ["Bl2P2", "Bl3P2", "F1", "P1xP1"]
    dirs = write_changed_catalogs(root, workdir, rng,
                                  [["P2", s] for s in surfaces])
    res = 3 if tiny else GAP_RESOLUTION
    ops = [
        Op(f"gap-report {s}",
           ["gap-report", "--catalog", d, "--dimension", "2",
            "--resolution", str(res), "--format", "json"],
           make_check_gap(s))
        for s, d in zip(surfaces, dirs)
    ]
    warm = [op.argv[:6] + ["2", "--format", "json"] for op in ops]
    return Workload(ops=ops, warmup=warm, setup_catalogs=dirs,
                    seed_invariant=True)


def _fans_of_dim(root, lo, hi):
    return [
        (fname, data) for fname, data in read_catalog(root).items()
        if lo <= data["dim"] <= hi
    ]


def class_scores(root, workdir, seed, tiny=False):
    """invariants on seeded ample classes, the same count on every fan."""
    rng = random.Random(f"class_scores/{seed}")
    per_fan = 2 if tiny else CLASSES_PER_FAN
    ops, warm, divisors = [], [], []
    for fname, data in _fans_of_dim(root, 2, 3 if tiny else 6):
        fan = os.path.join(bundled_catalog_dir(root), fname)
        variety, walls = _wall_rows(data)
        for k in range(per_fan):
            coeffs = random_ample(walls, variety.n_rays, rng)
            path = os.path.join(workdir, f"{data['name']}-{k:02d}.json")
            _write_json(path, {"coeffs": coeffs})
            divisors.append((fan, path))
            ops.append(Op(
                f"invariants {data['name']} #{k}",
                ["invariants", fan, "--divisor", path, "--format", "json"],
                make_check_score(data["name"], coeffs),
            ))
        warm.append(["invariants", fan, "--format", "json"])
    return Workload(ops=ops, warmup=warm, setup_divisors=divisors)


def profiles(root, workdir, seed, tiny=False):
    """Fujita profiles and Okounkov bodies at seeded fixed points.

    Per fan of dimension 2 to 4 and per class (the anticanonical class and
    ``PROFILE_AMPLE_CLASSES`` seeded ample classes): one ``blowup`` at a
    seeded fixed point and one ``okounkov --check-translation 1/2`` at a
    seeded flag cone.
    """
    rng = random.Random(f"profiles/{seed}")
    ops, warm, fans, divisors = [], [], [], []
    for fname, data in _fans_of_dim(root, 2, 2 if tiny else PROFILE_MAX_DIM):
        fan = os.path.join(bundled_catalog_dir(root), fname)
        fans.append(fan)
        variety, walls = _wall_rows(data)
        classes = [("-K", [])]
        for j in range(PROFILE_AMPLE_CLASSES):
            path = os.path.join(workdir, f"{data['name']}-ample{j}.json")
            _write_json(path, {"coeffs": random_ample(walls, variety.n_rays, rng)})
            divisors.append((fan, path))
            classes.append((f"ample{j}", ["--divisor", path]))
        n_cones = len(data["max_cones"])
        for cls, extra in classes:
            cone = rng.randrange(n_cones)
            flag = rng.randrange(n_cones)
            ops.append(Op(
                f"blowup {data['name']} {cls} cone {cone}",
                ["blowup", fan, "--cone", str(cone), "--format", "json"] + extra,
                check_blowup,
            ))
            ops.append(Op(
                f"okounkov {data['name']} {cls} flag {flag}",
                ["okounkov", fan, "--flag", str(flag),
                 "--check-translation", TRANSLATION] + extra,
                check_okounkov,
            ))
        if data["name"] == "P2":
            warm.append(["blowup", fan, "--cone", "0", "--format", "json"])
            warm.append(["okounkov", fan, "--check-translation", TRANSLATION])
    return Workload(ops=ops, warmup=warm, setup_fans=fans,
                    setup_divisors=divisors)


BUILDERS = {
    "verify_catalog": verify_catalog,
    "gap_surfaces": gap_surfaces,
    "class_scores": class_scores,
    "profiles": profiles,
}
