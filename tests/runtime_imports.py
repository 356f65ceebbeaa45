"""Run three console-script commands in one process and list the heavy
scipy modules they imported: two audits (an equator and a meridian base)
and a strip report with its fixed point.  The package needs numpy and
``scipy.linalg.solve_banded`` alone, so the list must be empty.

    python3 tests/runtime_imports.py        # the installed package
    PYTHONPATH=src python3 tests/runtime_imports.py

Exit code 0 when none was imported, 1 when one was, 2 when a command did
not exit 0.
"""

import contextlib
import io
import sys

from birkhofflab import cli

RUNS = (
    ("systolic-verify", "--metric", '{"kind": "spheroid", "c": 1.03}',
     "--nx", "16", "--ny", "64"),
    ("systolic-verify", "--metric", '{"kind": "spheroid", "c": 0.97}',
     "--nx", "24", "--ny", "64"),
    ("strip-report", "--w-preset", "x-sine", "--nx", "16", "--ny", "21"),
)
HEAVY = ("scipy.interpolate", "scipy.optimize", "scipy.integrate",
         "scipy.spatial", "scipy.special")


def main():
    for argv in RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            print(f"birkhofflab {' '.join(argv)}: exit {code}")
            return 2
    loaded = [name for name in HEAVY if name in sys.modules]
    print(f"{cli.__file__}: heavy scipy modules imported: {loaded}")
    return 1 if loaded else 0


if __name__ == "__main__":
    sys.exit(main())
