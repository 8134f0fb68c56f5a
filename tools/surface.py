"""Size of the package: the two numbers the ROADMAP's design aim tracks.

    python3 tools/surface.py

Prints the total line count of ``src/opfeyn/*.py`` (newlines, as ``wc
-l`` counts them) and the number of public names the ``opfeyn`` package
exports, its submodules left out, for the checkout this script lies in,
as the two lines ``lines N`` and ``exports M``.
"""

from __future__ import annotations

import argparse
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def source_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "opfeyn").glob("*.py"))


def exported_names() -> list[str]:
    sys.path.insert(0, str(SRC))
    import opfeyn
    if Path(opfeyn.__file__).resolve().parent != SRC / "opfeyn":
        raise SystemExit(f"surface: opfeyn imported from {opfeyn.__file__}, not {SRC}")
    return sorted(n for n, v in vars(opfeyn).items()
                  if not n.startswith("_") and not isinstance(v, types.ModuleType))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    print(f"lines {source_lines()}")
    print(f"exports {len(exported_names())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
