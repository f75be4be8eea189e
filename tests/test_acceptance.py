"""End-to-end acceptance gate.

Each numbered check prints exactly one ACCEPTANCE line on the terminal
(bypassing capture) and then asserts.  The checks cover: exact weave
roundtrips over noiseless channels, the binomial tail against exact
rational arithmetic, envelope endpoints and family ordering, polarization
strength and entropy conservation, constructed-rate dominance over the
concatenation envelopes, pool failure counts for deletion and insertion
channels, single-indel recovery, and the quaternary decomposition.

Profiles: closed-form checks are exact; code constructions use either the
1000-sample default (checks 1, 4, 5, 8) or the high-accuracy 256000-sample
profile (checks 6, 7, 9, whose failure-count bounds assume well-resolved
info sets; at 1000 samples the selection noise admits marginal channels
and failure counts run an order of magnitude higher).  Everything is
seeded; reruns are bit-identical on the same numpy generation.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from genoweave.channels import (ERASURE, delete_pool, insert_pool, quaternary_merge,
                                quaternary_split)
from genoweave.polar import design_polar_code, equivocation_stats, make_polar_code
from genoweave.rates import (FAMILIES, RateFamily, binom_cdf, concat_envelope,
                             entropy)
from genoweave.sim import (ExperimentConfig, derive_seed, run_pool_experiment,
                           run_quaternary_pool_experiment)
from genoweave.weave import decode_pool_batch, weave_encode

FULL_SAMPLES = 256_000
ELL = 256


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num} failed: {detail}"


def _construction_seed(master: int, n: int, delta: float) -> int:
    return derive_seed(master, "construct", n, delta)


@pytest.fixture(scope="module")
def desk_code_256():
    """BSC(1%) design at n=256, default 1000-sample profile, master seed 0."""
    return design_polar_code(256, 0.01, samples=1000,
                             seed=_construction_seed(0, 256, 0.01))


@pytest.fixture(scope="module")
def full_codes():
    """The four high-accuracy constructions shared by the table checks."""
    out = {"build_time": 0.0}
    t0 = time.time()
    for n, d in [(256, 0.001), (256, 0.01), (256, 0.1), (4096, 0.01)]:
        out[(n, d)] = design_polar_code(n, d, samples=FULL_SAMPLES,
                                        seed=_construction_seed(0, n, d))
    out["build_time"] = time.time() - t0
    return out


def test_1_noiseless_roundtrip(capsys, desk_code_256):
    t0 = time.time()
    code4 = make_polar_code(4, 0.0, np.zeros(4))      # full rate, no frozen bits
    rng = np.random.default_rng(derive_seed(0, "roundtrip", 4))
    bad = 0
    for i in range(100):
        info = rng.integers(0, 2, size=(ELL, code4.k), dtype=np.uint8)
        pool = weave_encode(info, code4)
        channel = delete_pool if i % 2 == 0 else insert_pool
        obs, _ = channel(pool.strands, 0.0, rng)
        out = decode_pool_batch(obs[None], code4, "push" if i % 2 == 0 else "pull", ELL)
        bad += int((out.info_bits[0] != info).any())

    code = desk_code_256
    rng = np.random.default_rng(derive_seed(0, "roundtrip", 256))
    infos = rng.integers(0, 2, size=(100, ELL, code.k), dtype=np.uint8)
    obs = np.empty((100, code.n, ELL), dtype=np.uint8)
    for i in range(100):
        obs[i] = weave_encode(infos[i], code).strands
    push = decode_pool_batch(obs[:50], code, "push", ELL)
    wide = np.full((50, code.n, 2 * ELL), ERASURE, dtype=np.uint8)
    wide[:, :, :ELL] = obs[50:]
    pull = decode_pool_batch(wide, code, "pull", ELL)
    bad += int((push.info_bits != infos[:50]).sum() > 0)
    bad += int((pull.info_bits != infos[50:]).sum() > 0)
    # one pool decoded alone (width 1) must agree with the batch
    single = decode_pool_batch(obs[:1], code, "push", ELL)
    tied = bool((single.info_bits == push.info_bits[:1]).all())

    dt = time.time() - t0
    ok = bad == 0 and tied and dt < 60.0
    _report(capsys, 1, ok,
            f"100 noiseless roundtrips each at n=4 and n=256, "
            f"{bad} mismatches, batch/single agree={tied}, {dt:.1f}s")


def test_2_binomial_tail_exact(capsys):
    t0 = time.time()
    worst = 0.0
    for ell in range(1, 21):
        for delta in (0.0, 0.1, 0.5, 0.9):
            dfrac = Fraction(delta)
            exact = Fraction(0)
            for d in range(ell + 1):
                exact += math.comb(ell, d) * dfrac**d * (1 - dfrac)**(ell - d)
                got = binom_cdf(ell, delta, d)
                rel = abs(Fraction(got) - exact) / exact
                worst = max(worst, float(rel))
    dt = time.time() - t0
    ok = worst <= 1e-12
    _report(capsys, 2, ok,
            f"binom_cdf vs exact rationals, ell<=20, all d, "
            f"delta in {{0,0.1,0.5,0.9}}: worst rel err {worst:.2e}, {dt:.1f}s")


def test_3_envelope_endpoints_and_order(capsys):
    t0 = time.time()
    exp2 = RateFamily(q=2, family="explicit")
    at_zero = concat_envelope(exp2, 0.0)[0]
    plateau = all(concat_envelope(exp2, float(d))[0] >= 0.96875
                  for d in np.logspace(-12, -6, 13))
    grid = np.concatenate(([0.0], np.logspace(-4, math.log10(0.2), 999)))
    ordered = True
    for q in (2, 4):
        env = {f: np.array([concat_envelope(RateFamily(q=q, family=f), float(d))[0]
                            for d in grid])
               for f in FAMILIES}
        ordered &= bool((env["putative"] >= env["implicit"]).all()
                        and (env["implicit"] >= env["explicit"]).all())
    dt = time.time() - t0
    ok = at_zero == 1.0 and plateau and ordered
    _report(capsys, 3, ok,
            f"envelope(explicit,q=2) at 0 = {at_zero}, >=0.96875 down to 1e-12, "
            f"putative>=implicit>=explicit on 1000-pt grid (q=2 and 4), {dt:.1f}s")


def test_4_polarization_and_conservation(capsys):
    t0 = time.time()
    frac = {}
    conserved = True
    detail = []
    for n in (256, 4096):
        st = equivocation_stats(n, 0.01, samples=1000,
                                seed=_construction_seed(0, n, 0.01))
        frac[n] = float(((st.equivocations > 0.01) & (st.equivocations < 0.99)).mean())
        dev = abs(st.total_mean / n - entropy(2, 0.01))
        conserved &= dev <= 3.0 * st.total_se / n
        detail.append(f"n={n}: unpolarized {frac[n]:.4f}, |mean H - h2| {dev:.1e}")
    dt = time.time() - t0
    ok = frac[4096] < frac[256] and conserved and dt < 600.0
    _report(capsys, 4, ok, "; ".join(detail) + f", {dt:.1f}s")


def test_5_rate_beats_concatenation(capsys):
    t0 = time.time()
    env_explicit = {d: concat_envelope(RateFamily(q=2, family="explicit"), d)[0]
                    for d in (0.01, 0.02, 0.05)}
    env_putative5 = concat_envelope(RateFamily(q=2, family="putative"), 0.05)[0]
    ok = True
    rates = []
    for seed in (0, 1, 2):
        code = design_polar_code(256, 0.01, samples=1000,
                                 seed=_construction_seed(seed, 256, 0.01))
        ok &= code.rate > env_explicit[0.01]
        rates.append(f"s{seed}: 256@1%={code.rate:.3f}")
        for d in (0.01, 0.02, 0.05):
            code = design_polar_code(4096, d, samples=1000,
                                     seed=_construction_seed(seed, 4096, d))
            ok &= code.rate > env_explicit[d]
            if d == 0.05:
                ok &= code.rate > env_putative5
            rates.append(f"4096@{d:g}={code.rate:.3f}")
    dt = time.time() - t0
    ok = ok and dt < 900.0
    _report(capsys, 5, ok,
            f"constructed rate beats explicit envelope at (256,1%) and "
            f"(4096,{{1,2,5}}%), and putative envelope at (4096,5%); "
            f"seeds 0,1,2; {'; '.join(rates)}; {dt:.1f}s")


def test_6_deletion_failure_counts(capsys, full_codes):
    t0 = time.time()
    cfg = ExperimentConfig(n=256, delta_list=(0.001, 0.01, 0.1),
                           error_kind="deletion", pools=1000,
                           construction_samples=FULL_SAMPLES, master_seed=0)
    codes = {d: full_codes[(256, d)] for d in cfg.delta_list}
    results = run_pool_experiment(cfg, codes=codes)
    counts = [r.failure_count for r in results]

    cfg2 = ExperimentConfig(n=4096, delta_list=(0.01,), error_kind="deletion",
                            pools=100, construction_samples=FULL_SAMPLES,
                            master_seed=0)
    (big,) = run_pool_experiment(cfg2, codes={0.01: full_codes[(4096, 0.01)]})
    dt = time.time() - t0 + full_codes["build_time"]
    ok = all(c <= 30 for c in counts) and big.failure_count <= 6 and dt < 1800.0
    _report(capsys, 6, ok,
            f"deletion failures n=256: {counts} /1000 at 0.1%/1%/10% "
            f"(bound 30 each); n=4096: {big.failure_count}/100 at 1% (bound 6); "
            f"{dt:.1f}s incl. construction")


def test_7_insertion_failure_counts(capsys, full_codes):
    t0 = time.time()
    cfg = ExperimentConfig(n=256, delta_list=(0.001, 0.1),
                           error_kind="insertion", pools=1000,
                           construction_samples=FULL_SAMPLES, master_seed=0)
    codes = {d: full_codes[(256, d)] for d in cfg.delta_list}
    results = run_pool_experiment(cfg, codes=codes)
    counts = [r.failure_count for r in results]
    dt = time.time() - t0
    ok = counts[0] <= 36 and counts[1] <= 10 and dt < 1800.0
    _report(capsys, 7, ok,
            f"insertion failures n=256: {counts[0]}/1000 at 0.1% (bound 36), "
            f"{counts[1]}/1000 at 10% (bound 10); {dt:.1f}s")


def test_8_single_indel_recovery(capsys, desk_code_256):
    t0 = time.time()
    code = desk_code_256
    rng = np.random.default_rng(derive_seed(0, "plant"))
    obs_push = np.full((50, code.n, ELL), ERASURE, dtype=np.uint8)
    obs_pull = np.full((50, code.n, 2 * ELL), ERASURE, dtype=np.uint8)
    truth = np.empty((100, ELL, code.k), dtype=np.uint8)
    for trial in range(100):
        info = rng.integers(0, 2, size=(ELL, code.k), dtype=np.uint8)
        truth[trial] = info
        strands = weave_encode(info, code).strands
        victim = int(rng.integers(code.n))
        pos = int(rng.integers(ELL))
        if trial % 2 == 0:
            hit = np.delete(strands[victim], pos)
            dest = obs_push[trial // 2]
        else:
            hit = np.insert(strands[victim], pos, int(rng.integers(2)))
            dest = obs_pull[trial // 2]
        dest[:, :ELL] = strands
        dest[victim] = ERASURE
        dest[victim, :len(hit)] = hit
    push = decode_pool_batch(obs_push, code, "push", ELL)
    pull = decode_pool_batch(obs_pull, code, "pull", ELL)
    good = int((push.info_bits == truth[0::2]).all(axis=(1, 2)).sum()
               + (pull.info_bits == truth[1::2]).all(axis=(1, 2)).sum())
    dt = time.time() - t0
    ok = good == 100
    _report(capsys, 8, ok,
            f"single planted indel (50 deletions, 50 insertions) at n=256: "
            f"{good}/100 exact recoveries, {dt:.1f}s")


def test_9_quaternary_decomposition(capsys, full_codes):
    t0 = time.time()
    seen = set()
    split_ok = True
    for letters in product("ACGT", repeat=4):
        s = "".join(letters)
        real, imag = quaternary_split(s)
        split_ok &= quaternary_merge(real, imag) == s
        seen.add((tuple(real), tuple(imag)))
    bijective = len(seen) == 256

    rng = np.random.default_rng(derive_seed(0, "quaternary"))
    letters = np.array(list("ACGT"))
    for row in letters[rng.integers(0, 4, size=(10_000, ELL))]:
        s = "".join(row)
        real, imag = quaternary_split(s)
        split_ok &= quaternary_merge(real, imag) == s

    cfg = ExperimentConfig(n=256, delta_list=(0.01,), error_kind="deletion",
                           pools=200, construction_samples=FULL_SAMPLES,
                           master_seed=0)
    (res,) = run_quaternary_pool_experiment(
        cfg, codes={0.01: full_codes[(256, 0.01)]})
    dt = time.time() - t0
    ok = split_ok and bijective and res.failure_count <= 12
    _report(capsys, 9, ok,
            f"split/merge identity exhaustive len-4 plus 10^4 random len-256, "
            f"bijective={bijective}; quaternary pools {res.failure_count}/200 "
            f"failed at 1% (bound 12); {dt:.1f}s")
