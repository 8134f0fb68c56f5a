"""False-alarm rate of criterion 01's rule, measured over many seeds.

    PYTHONPATH=src python3 tools/criterion01_sweep.py --seeds 200 [--first-seed 1]

Criterion 01 (tests/test_acceptance.py) compares the Monte Carlo route
with the kernel route at 120 points -- four functionals, two base
directions, lambda in {0.5, 1, 2}, five xi -- on the drifted pair, and
fails when any point has z = |K - MC| / SE > 3.  Every point is a fair
comparison, so the fraction of seeds that trip the rule is its
false-alarm rate.  The kernel values do not depend on the seed and are
computed once; each seed reruns the 24 Monte Carlo evaluations with the
criterion's path count, grid and stream numbering.  The last stdout line
is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from opfeyn import (EtaGaussian, RngStream, b_element, drifted_pair, gallery,
                    gaussian_psi, i_lambda_mc, k_lambda, preset_direction,
                    unit_functional)
from opfeyn.cli import mc_z_scores

Z_RULE = 3.0
LAMS = (0.5, 1.0, 2.0)
XI = np.linspace(-2.0, 2.0, 5)


def functionals(sp):
    """Criterion 01's functional gallery (``_functionals`` in its test file)."""
    return [("F1_gaussian", gallery("F1", sp, w0=b_element(sp),
                                    eta=EtaGaussian(mean=0.5, var=1.0))),
            ("F3", gallery("F3", sp)), ("F4", gallery("F4", sp)),
            ("unit", unit_functional(sp))]


def grid(sp):
    """(label, F, h, lam) in criterion 01's order; stream ids count from 1."""
    hs = [(name, preset_direction(sp, name)) for name in ("b", "sstar_b_unit")]
    return [(f"{fn}/{hn}/lam={lam}", F, h, lam)
            for fn, F in functionals(sp) for hn, h in hs for lam in LAMS]


def max_z(cases, kernel, psi, seed: int, n_paths: int) -> float:
    """Largest z over the 120 points for one seed."""
    zmax = 0.0
    for stream, ((_, F, h, lam), kv) in enumerate(zip(cases, kernel), start=1):
        mc = i_lambda_mc(F, h, psi, lam, XI, n_paths,
                         RngStream(seed, stream_id=stream), path_grid=1024)
        zmax = max(zmax, float(np.max(mc_z_scores(kv, mc))))
    return zmax


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=200, help="number of seeds")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--paths", type=int, default=100000,
                   help="paths per evaluation (criterion 01 uses 100000)")
    args = p.parse_args(argv)
    if args.seeds < 1 or args.paths < 2:
        p.error("need at least one seed and two paths")
    psi = gaussian_psi()
    cases = grid(drifted_pair(0.3, 0.5))
    kernel = [k_lambda(F, h, psi, complex(lam), XI).values
              for _, F, h, lam in cases]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    zs = []
    for seed in seeds:
        zs.append(max_z(cases, kernel, psi, seed, args.paths))
        print(f"seed {seed}: max z = {zs[-1]:.3f}", flush=True)
    z = np.array(zs)
    alarms = int(np.sum(z > Z_RULE))
    rate = alarms / z.size
    q1, med, q3 = np.percentile(z, [25, 50, 75])
    print(f"{alarms} of {z.size} seeds have max z > {Z_RULE:g}: false-alarm "
          f"rate {rate:.3f} (binomial SE {np.sqrt(rate * (1 - rate) / z.size):.3f}); "
          f"max z median {med:.2f}, quartiles {q1:.2f}-{q3:.2f}")
    print(json.dumps({"seeds": [seeds.start, seeds.stop - 1],
                      "n_paths": args.paths, "points": len(cases) * XI.size,
                      "alarms": alarms, "false_alarm_rate": rate,
                      "max_z_median": float(med),
                      "max_z_quartiles": [float(q1), float(q3)]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
