"""Digest every op result of the benchmark workloads, one line per workload.

    python3 tools/op_digest.py ROOT SEED [--smoke]

Builds each workload of ``ROOT/perfbench/workloads.py`` at SEED, with
opfeyn imported from ``ROOT/src``, runs one pass of its ops and prints
``NAME OPS DIGEST``: the number of ops and the sha256 of every op's key
and output.  Arrays count by dtype, shape and bytes, floats by their
bits, and results field by field, so values, errors and meta such as
``n_eval`` and ``quad_rounds`` are all covered; an op that raises an
opfeyn error counts by the error's type and message.  cli-report's op
returns an exit code, so its digest also covers the bytes of every CSV
the report writes, into a temporary directory.  The workloads file is
only read, and the checks are not run.  Run on two checkouts, one
process each, equal lines show that their outputs are the same.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np


def _feed(h, x) -> None:
    """Add x to the hash h, tagged by kind so that no two values collide."""
    if x is None or isinstance(x, (bool, int, str)):
        h.update(f"{type(x).__name__}:{x};".encode())
    elif isinstance(x, (float, complex, np.ndarray, np.generic)):
        a = np.asarray(x)
        h.update(f"array:{a.dtype.str}:{a.shape};".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(f"seq:{len(x)};".encode())
        for item in x:
            _feed(h, item)
    elif isinstance(x, dict):
        h.update(f"dict:{len(x)};".encode())
        for key in sorted(x):
            _feed(h, key)
            _feed(h, x[key])
    elif dataclasses.is_dataclass(x):
        h.update(f"{type(x).__name__};".encode())
        for f in dataclasses.fields(x):
            _feed(h, f.name)
            _feed(h, getattr(x, f.name))
    else:
        raise TypeError(f"op_digest: cannot digest a {type(x).__name__}")


def _load_workloads(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import opfeyn
    if Path(opfeyn.__file__).resolve().parent != src.resolve() / "opfeyn":
        raise SystemExit(f"op_digest: opfeyn imported from {opfeyn.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def digests(root: Path, seed: int, smoke: bool = False) -> list[tuple[str, int, str]]:
    """(name, op count, digest) for each workload, in the file's order."""
    workloads = _load_workloads(root)
    from opfeyn.errors import OpfeynError
    out = []
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix="op-digest-") as tmp:
            tmp = Path(tmp)
            extra = {"out_root": tmp} if name == "cli-report" else {}
            w = cls(seed, smoke=smoke, **extra)
            h = hashlib.sha256()
            n_ops = 0
            try:
                w.setup()
                for op in w.ops():
                    _feed(h, op.key)
                    try:
                        _feed(h, op.call())
                    except OpfeynError as e:
                        _feed(h, (type(e).__name__, str(e)))
                    n_ops += 1
                # by their directory and name: the workload's own temporary
                # directory above them has a random name
                csvs = {f"{p.parent.name}/{p.name}": p for p in tmp.rglob("*.csv")}
                for key in sorted(csvs):
                    _feed(h, key)
                    h.update(csvs[key].read_bytes())
            finally:
                w.close()
        out.append((name, n_ops, h.hexdigest()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout holding src/ and perfbench/")
    parser.add_argument("seed", type=int)
    parser.add_argument("--smoke", action="store_true",
                        help="the workloads' small smoke inputs")
    args = parser.parse_args(argv)
    for name, n_ops, digest in digests(args.root.resolve(), args.seed, args.smoke):
        print(f"{name} {n_ops} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
