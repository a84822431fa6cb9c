"""Shared fixtures: exact power-law data, small reference tables, oracles."""

import math

import numpy as np

from taylorlaw import MVPair, MVSeries

# Integer rows whose sample statistics hit V = 2*M^1.5 exactly:
# means 1, 4, 16, 64 and variances 2, 16, 128, 1024.
EXACT_TABLE_CSV = """\
subject_id,sp1,sp2,sp3,sp4,sp5
s1,0,0,0,2,3
s2,0,0,4,8,8
s3,0,16,16,16,32
s4,32,32,64,96,96
"""


def exact_series(ms=(1.0, 4.0, 16.0, 64.0), a=2.0, b=1.5) -> MVSeries:
    pairs = tuple(MVPair(f"m{m:g}", float(m), a * float(m) ** b) for m in ms)
    return MVSeries(scheme=None, pairs=pairs)


def synthetic_longitudinal(n_subjects=10, n_species=20, n_times=12, seed=20240817):
    """Dense longitudinal counts with positive variation in every slice."""
    rng = np.random.default_rng(seed)
    rows = []
    header = "subject_id,time," + ",".join(f"sp{j}" for j in range(n_species))
    for s in range(n_subjects):
        base = rng.uniform(5.0, 50.0, size=n_species)
        for t in range(n_times):
            counts = rng.poisson(base * rng.uniform(0.5, 2.0)) + 1
            rows.append(f"subj{s},{t}," + ",".join(str(int(c)) for c in counts))
    return header + "\n" + "\n".join(rows) + "\n"


def torus_distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Scalar oracle: wraparound distance between two points of the unit torus."""
    dx = abs(p[0] - q[0])
    dy = abs(p[1] - q[1])
    return math.hypot(min(dx, 1.0 - dx), min(dy, 1.0 - dy))
