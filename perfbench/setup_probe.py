"""Set-up probe, run in a fresh interpreter: import the CLI, load the inputs.

    python3 perfbench/setup_probe.py SPEC.json

SPEC holds ``catalogs`` (directories), ``fans`` (fan files) and
``divisors`` ([fan file, divisor file] pairs).  Prints the seconds from the
first line of this script to the end of loading.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import torifan.cli  # noqa: E402,F401
from torifan import jsonio  # noqa: E402
from torifan.catalog import load_catalog  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    spec = json.load(fh)
for directory in spec["catalogs"]:
    load_catalog(directory)
fans = {path: jsonio.load_fan(path) for path in spec["fans"]}
for fan, divisor in spec["divisors"]:
    if fan not in fans:
        fans[fan] = jsonio.load_fan(fan)
    jsonio.load_divisor(divisor, fans[fan])
print(repr(time.perf_counter() - START))
