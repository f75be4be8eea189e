"""Seeded experiment harness: construction sweeps, pool error counts, replay.

Every random quantity hangs off the master seed through named derivation:
the construction for (n, delta) uses seed derive(master, "construct", n,
delta); pool i of a cell uses stream (derive(master, "pools", kind, n,
delta), i).  Pools decode in lock step in batches as wide as a memory
rule allows, purely for vector width, so failure counts are bit-identical
whatever the batch size.

ERROR_KINDS lists the four experiment kinds, and this module is the one
place that knows them: substitution, deletion and insertion pools are one
binary component each; a quaternary pool is a (real, imag) pair that
loses the same indices to one deletion pattern.  Every kind runs through
run_pool_experiment.  A batch holds one component's observations unpacked,
position-major (the order the decoder reads, so they reach it without a
copy): the component being decoded.  The info bits to check against are
held as packed bits.  A quaternary pool's imag component waits while the
real one decodes as one packed bit plane: a deletion takes a whole
letter, so the imag component is erased exactly where the real one is
and takes its erasures from it.

results_to_csv writes each cell's cell_seed and failed_pools, and
replay_pool regenerates any one pool from them.  Progress goes to stderr;
all data products are returned (or formatted as CSV) for the caller to
write; the figure series are the CLI's.
"""

from __future__ import annotations

import struct
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .channels import ERASURE, ChannelSpec, apply_channel_pool, delete_pool_coincident
from .polar import PolarCode, design_polar_code
from .weave import decode_pool_batch, weave_encode

__all__ = [
    "STRAND_LENGTH",
    "ERROR_KINDS",
    "ExperimentConfig",
    "derive_seed",
    "run_construction_sweep",
    "run_pool_experiment",
    "run_quaternary_pool_experiment",
    "results_to_csv",
]

STRAND_LENGTH = 256

# each kind's decoder mode and its binary components per pool
_KINDS = {"deletion": ("push", 1), "insertion": ("pull", 1), "substitution": ("fixed", 1),
          "quaternary": ("push", 2)}
ERROR_KINDS = tuple(_KINDS)


def _check_kind(kind: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown error kind {kind!r}, expected one of {ERROR_KINDS}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell family: a block length crossed with error rates."""

    n: int
    delta_list: tuple[float, ...]
    error_kind: str = "deletion"
    pools: int = 1000
    construction_samples: int = 1000
    master_seed: int = 0
    threshold_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.n & (self.n - 1):
            raise ValueError(f"strand count must be a power of two, got {self.n}")
        _check_kind(self.error_kind)
        deltas = tuple(float(d) for d in self.delta_list)
        if not deltas:
            raise ValueError("need at least one error rate")
        for d in deltas:
            if not 0.0 <= d < 0.5:
                raise ValueError(f"error rate must lie in [0, 1/2), got {d}")
        if self.pools < 1:
            raise ValueError(f"pool count must be positive, got {self.pools}")
        if self.construction_samples < 1:
            raise ValueError("construction needs at least one sample")
        if not 0.0 < self.threshold_scale < np.inf:  # inf selects every channel
            raise ValueError("threshold scale must be finite and positive")
        object.__setattr__(self, "delta_list", deltas)

    def threshold(self) -> float:
        return self.threshold_scale / (STRAND_LENGTH * self.n)


@dataclass(frozen=True)
class ExperimentResult:
    """Failure count for one (n, delta) cell."""

    n: int
    delta: float
    error_kind: str
    pools_run: int
    failure_count: int
    code_rate: float
    seed: int
    cell_seed: int
    wall_time: float
    failed_pools: tuple[int, ...] = field(default=(), repr=False)


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def derive_seed(*parts) -> int:
    """Collapse mixed (int, float, str) parts into one reproducible 64-bit seed."""
    ints: list[int] = []
    for p in parts:
        if isinstance(p, str):
            ints.append(zlib.crc32(p.encode()))
        elif isinstance(p, float):
            ints.append(_float_bits(p))
        else:
            ints.append(int(p))
    return int(np.random.SeedSequence(ints).generate_state(1, np.uint64)[0])


def _progress(msg: str) -> None:
    print(f"[genoweave] {msg}", file=sys.stderr, flush=True)


def _construct(config: ExperimentConfig, delta: float) -> tuple[PolarCode, int]:
    # the code for delta and the construction seed it was built from
    cseed = derive_seed(config.master_seed, "construct", config.n, delta)
    return design_polar_code(config.n, delta, samples=config.construction_samples,
                             seed=cseed, threshold=config.threshold()), cseed


def run_construction_sweep(config: ExperimentConfig) -> list[tuple[PolarCode, int]]:
    """Construct a code per delta in the config: (code, construction_seed) pairs."""
    pairs = []
    for delta in config.delta_list:
        t0 = time.perf_counter()
        code, cseed = _construct(config, delta)
        pairs.append((code, cseed))
        _progress(f"construct n={config.n} delta={delta:g} samples={config.construction_samples} "
                  f"rate={code.rate:.4f} ({time.perf_counter() - t0:.1f}s)")
    return pairs


def _pool_batch_size(n: int, width: int, pools: int) -> int:
    # pools that decode in lock step: about 64 MB for the one unpacked
    # component; a waiting quaternary component adds an eighth of that as one
    # packed bit plane, the packed truth bits an eighth of the decoded info
    return max(1, min(pools, (1 << 26) // max(n * width, 1)))


def _generate_pool(rng: np.random.Generator, code: PolarCode, kind: str, delta: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Draw one pool of the given kind from its stream: the info bits, then the channel.

    Returns (truth, obs) with a leading component axis: one component for
    the binary kinds, the (real, imag) pair for quaternary, whose parts
    share one kept-set per strand.
    """
    info = rng.integers(0, 2, size=(_KINDS[kind][1], STRAND_LENGTH, code.k), dtype=np.uint8)
    strands = [weave_encode(part, code).strands for part in info]
    if len(strands) == 2:
        parts = delete_pool_coincident(*strands, delta, rng)
    else:
        parts = [apply_channel_pool(strands[0], ChannelSpec(kind=kind, delta=delta), rng)]
    return info, np.stack([obs for obs, _ in parts])


def _run_cells(config: ExperimentConfig, codes: dict[float, PolarCode] | None,
               kind: str) -> list[ExperimentResult]:
    # Each component decodes as its own batch of pools; a pool fails when
    # any decoded info bit of any component differs from the truth.
    mode, parts = _KINDS[kind]
    width = 2 * STRAND_LENGTH if mode == "pull" else STRAND_LENGTH
    results = []
    for delta in config.delta_list:
        code = codes[delta] if codes and delta in codes else _construct(config, delta)[0]
        cell_seed = derive_seed(config.master_seed, "pools", kind, config.n, delta)
        t0 = time.perf_counter()
        failed: list[int] = []
        batch = _pool_batch_size(config.n, width, config.pools)
        for start in range(0, config.pools, batch):
            count = min(batch, config.pools - start)
            # position-major; the component being decoded reaches the decoder
            # as a view, the imag one waits as its bits packed along strands
            obs = np.empty((width, count, config.n), dtype=np.uint8)
            waiting = np.empty((parts - 1, width, count, (config.n + 7) // 8), dtype=np.uint8)
            truth = np.empty((parts, count, STRAND_LENGTH, (code.k + 7) // 8), dtype=np.uint8)
            for b in range(count):
                rng = np.random.default_rng([cell_seed, start + b])
                info, pool_obs = _generate_pool(rng, code, kind, delta)
                truth[:, b] = np.packbits(info, axis=-1)
                obs[:, b] = pool_obs[0].T
                for plane, part in zip(waiting, pool_obs[1:]):
                    # made C-ordered in the same pass: packing along a
                    # strided axis is 2-3x slower
                    plane[:, b] = np.packbits(np.bitwise_and(part.T, 1, order="C"), axis=-1)
            bad = np.zeros(count, dtype=bool)
            for c in range(parts):
                if c:
                    # the erasures are shared: & ERASURE keeps each one and
                    # zeroes each bit, then the bits are ORed in row by row
                    obs &= ERASURE
                    for row, bits in zip(obs, waiting[c - 1]):
                        row |= np.unpackbits(bits, axis=-1, count=config.n)
                info = decode_pool_batch(obs.transpose(1, 2, 0), code, mode,
                                         STRAND_LENGTH).info_bits
                bad |= (np.packbits(info, axis=-1) != truth[c]).any(axis=(1, 2))
                del info  # freed before the next component decodes
            failed.extend(int(start + i) for i in np.flatnonzero(bad))
            _progress(f"pools n={config.n} delta={delta:g} kind={kind} "
                      f"{start + count}/{config.pools} failures={len(failed)}")
        results.append(ExperimentResult(
            n=config.n, delta=delta, error_kind=kind,
            pools_run=config.pools, failure_count=len(failed),
            code_rate=code.rate, seed=config.master_seed, cell_seed=cell_seed,
            wall_time=time.perf_counter() - t0, failed_pools=tuple(failed)))
    return results


def run_pool_experiment(config: ExperimentConfig,
                        codes: dict[float, PolarCode] | None = None
                        ) -> list[ExperimentResult]:
    """Count decoding failures over many independent pools per (n, delta).

    Runs any of ERROR_KINDS.  A pool counts as failed when any decoded info
    bit of any component differs from the truth.  Codes are constructed
    per delta unless supplied in codes.
    """
    return _run_cells(config, codes, config.error_kind)


def run_quaternary_pool_experiment(config: ExperimentConfig,
                                   codes: dict[float, PolarCode] | None = None
                                   ) -> list[ExperimentResult]:
    """Deletion-channel failure counts for quaternary pools.

    Each pool is a pair of binary component pools sharing one deletion
    pattern per strand; the pool fails when either part fails.  config's
    error_kind is "quaternary" or "deletion", the channel the pairs pass
    through; rows carry error_kind "quaternary" either way.
    """
    if config.error_kind not in ("deletion", "quaternary"):
        raise ValueError("quaternary pools run on the deletion channel")
    return _run_cells(config, codes, "quaternary")


def replay_pool(code: PolarCode, error_kind: str, delta: float, cell_seed: int,
                pool_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Regenerate one pool by its stream and decode it again.

    error_kind is a result row's, so "quaternary" replays both components.
    Returns (true_info, decoded_info), each with a leading component axis,
    so callers can re-verify a recorded failure against ground truth.
    """
    _check_kind(error_kind)
    rng = np.random.default_rng([cell_seed, pool_index])
    truth, obs = _generate_pool(rng, code, error_kind, delta)
    res = decode_pool_batch(obs, code, _KINDS[error_kind][0], STRAND_LENGTH)
    return truth, res.info_bits


def results_to_csv(rows: list[ExperimentResult], master_seed: int) -> str:
    """Failure-count table as CSV text with a seed provenance comment.

    Each row carries its cell_seed and its failed_pools (space-separated
    indices), so replay_pool can regenerate any failed pool from the row.
    """
    lines = [f"# seed={master_seed}",
             "n,delta,error_kind,pools,failures,code_rate,seed,cell_seed,failed_pools"]
    for r in rows:
        lines.append(f"{r.n},{float(r.delta)!r},{r.error_kind},{r.pools_run},"
                     f"{r.failure_count},{float(r.code_rate)!r},{r.seed},"
                     f"{r.cell_seed},{' '.join(map(str, r.failed_pools))}")
    return "\n".join(lines) + "\n"

