"""The choices and the seed check that the command line validates.

They live apart from the layers that use them, and import no numpy, so
that parsing argv and checking a ``RunConfig`` load no layer.
"""

from __future__ import annotations

import numbers

from .errors import UsageError

SCHEME_TAGS = (
    "subjects_across_species",
    "species_across_subjects",
    "mean_converted_subjects",
    "per_subject_time",
    "per_subject_species",
)

_PER_SUBJECT = ("per_subject_time", "per_subject_species")

EXPERIMENT_KINDS = ("poisson_sweep", "thomas_cluster_sweep", "hardcore_sweep")
PCF_FORMS = ("paper_form", "xi_form")

_SEED_LIMIT = 2**64


def _check_seed(seed: int) -> int:
    # numpy registers its integer types as numbers.Integral.
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
        raise UsageError("seed must be an integer")
    if not 0 <= seed < _SEED_LIMIT:
        raise UsageError("seed must fit in an unsigned 64-bit integer")
    return int(seed)
