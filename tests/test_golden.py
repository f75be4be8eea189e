"""Golden fingerprints: exact outputs of a cheap, fully seeded profile.

The acceptance gate checks loose bounds on failure counts; this test pins
the exact outputs instead, so a refactor that changes any decision shows
up.  Profile: n=256, delta=1%, 1000 construction samples, master seed 0,
200 pools each of deletion, insertion, substitution and quaternary.  The
pinned values may change only together with a CHANGES.md entry that says
why the behaviour changed.
"""

import hashlib

import numpy as np
import pytest

from genoweave.polar import design_polar_code
from genoweave.sim import (
    STRAND_LENGTH,
    ExperimentConfig,
    derive_seed,
    run_pool_experiment,
    run_quaternary_pool_experiment,
)

N, DELTA, SAMPLES, SEED, POOLS = 256, 0.01, 1000, 0, 200

INFO_SET_SHA256 = "ffa8e79c5cb206ecbf3461af3fb1789abc60bbfd0d91ebdeb56e9ea76f0bc265"
INFO_SET_K = 161
FAILED_POOLS = {
    "deletion": [17, 115, 127, 135, 149, 162, 184],
    "insertion": [59, 73, 143, 152, 154, 159, 178, 196],
    "substitution": [2, 22, 50, 56, 58, 74, 166, 171, 190],
    "quaternary": [9, 10, 20, 22, 23, 32, 38, 42, 47, 82, 95, 108, 145, 147,
                   149, 157, 161, 191],
}


@pytest.fixture(scope="module")
def code():
    return design_polar_code(N, DELTA, samples=SAMPLES,
                             seed=derive_seed(SEED, "construct", N, DELTA),
                             threshold=1.0 / (STRAND_LENGTH * N))


def _config(kind: str) -> ExperimentConfig:
    return ExperimentConfig(n=N, delta_list=(DELTA,), error_kind=kind, pools=POOLS,
                            construction_samples=SAMPLES, master_seed=SEED)


def test_golden_info_set(code):
    info = np.ascontiguousarray(code.info_set, dtype="<i8")
    assert code.k == INFO_SET_K
    assert hashlib.sha256(info.tobytes()).hexdigest() == INFO_SET_SHA256


@pytest.mark.parametrize("kind", sorted(FAILED_POOLS))
def test_golden_failed_pools(code, kind):
    if kind == "quaternary":
        (row,) = run_quaternary_pool_experiment(_config("deletion"), codes={DELTA: code})
    else:
        (row,) = run_pool_experiment(_config(kind), codes={DELTA: code})
    assert list(row.failed_pools) == FAILED_POOLS[kind]
    assert row.failure_count == len(FAILED_POOLS[kind])
