"""Shared utilities: seeded RNG management, config serialisation, validation.

These helpers are intentionally dependency-free (NumPy only) and are used by
every other subpackage.  Nothing in here is specific to the paper; it is the
plumbing a production library needs so that experiments are reproducible and
configurations are auditable.
"""

from repro.utils.config import (
    asdict_recursive,
    canonical_json,
    config_from_json,
    config_to_json,
    load_json,
    save_json,
    stable_digest,
)
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.rng import RngMixin, derive_seed, new_rng, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_integer,
    check_positive,
    check_power_of_two,
    check_probability,
)

__all__ = [
    "RngMixin",
    "asdict_recursive",
    "canonical_json",
    "check_in_range",
    "check_integer",
    "check_positive",
    "check_power_of_two",
    "check_probability",
    "config_from_json",
    "config_to_json",
    "derive_seed",
    "get_logger",
    "load_json",
    "new_rng",
    "save_json",
    "set_verbosity",
    "spawn_rngs",
    "stable_digest",
]
