"""Shared fixtures: exact power-law data, small reference tables, oracles."""

import math
import os
from pathlib import Path

import numpy as np

import taylorlaw
from taylorlaw import MVPair, MVSeries
from taylorlaw._fmt import _emit

# Integer rows whose sample statistics hit V = 2*M^1.5 exactly:
# means 1, 4, 16, 64 and variances 2, 16, 128, 1024.
EXACT_TABLE_CSV = """\
subject_id,sp1,sp2,sp3,sp4,sp5
s1,0,0,0,2,3
s2,0,0,4,8,8
s3,0,16,16,16,32
s4,32,32,64,96,96
"""

# One species that fits the decay law and one with a zero count.
LOCATION_CSV = (
    "species,near,mid,far,edge,outer\n"
    "distance,0.5,1,2,4,8\n"
    "decayer,120,60,25,9,2\n"
    "vanisher,10,0,1,1,1\n"
)


def child_env() -> dict[str, str]:
    """Environment for a Python child process that imports the taylorlaw this
    process imported, installed or not."""
    src = str(Path(taylorlaw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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


def pairwise_torus_distances(points: np.ndarray) -> np.ndarray:
    """All-pairs oracle: condensed vector of every unordered torus distance,
    in the order of ``np.triu_indices(n, k=1)``."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 2:
        return np.empty(0)
    i, j = np.triu_indices(n, k=1)
    d = np.abs(pts[i] - pts[j])
    d = np.minimum(d, 1.0 - d)
    return np.hypot(d[:, 0], d[:, 1])


def same_fields(a, b) -> bool:
    """Whether two array holders are of one type and equal field by field
    over their public ``__slots__``, arrays by ``np.array_equal``."""
    if type(a) is not type(b):
        return False
    for name in type(a).__slots__:
        if name.startswith("_"):
            continue
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


# The table writers: the parsers' round-trip oracle. Parsing what they write
# must give back the table, field for field.


def _fmt_number(x: float) -> str:
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_cross_sectional(table) -> str:
    assert table.times is None
    rows = [["subject_id", *table.species_ids]]
    for subject, row in zip(table.subject_ids, table.counts):
        rows.append([subject, *(_fmt_number(x) for x in row)])
    return _emit(rows)


def format_longitudinal(table) -> str:
    assert table.times is not None
    rows = [["subject_id", "time", *table.species_ids]]
    # A time is an int or a date, and the str of a date is its ISO form.
    for subject, t, row in zip(table.subject_ids, table.times, table.counts):
        rows.append([subject, str(t), *(_fmt_number(x) for x in row)])
    return _emit(rows)


def format_location(table) -> str:
    rows = [["species", *table.location_labels]]
    rows.append(["distance", *(_fmt_number(d) for d in table.distances)])
    for name, row in zip(table.species_ids, table.counts):
        rows.append([name, *(_fmt_number(x) for x in row)])
    return _emit(rows)
