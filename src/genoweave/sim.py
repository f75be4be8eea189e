"""Seeded experiment harness: construction sweeps, pool error counts, replay.

Every random quantity hangs off the master seed through named derivation:
the construction for (n, delta) uses seed derive(master, "construct", n,
delta); pool i of a cell uses stream (derive(master, "pools", kind, n,
delta), i).  A cell's pools decode in lock step over contiguous ranges,
purely for vector width, so failure counts are bit-identical whatever the
range width.

ERROR_KINDS lists the four experiment kinds, and this module is the one
place that knows all four: substitution, deletion and insertion pools are
one binary component each; a quaternary pool is a (real, imag) pair that
loses the same indices to one deletion pattern.  channels.ChannelSpec and
channels._CHANNELS still validate and dispatch the three binary kinds by
name, for the binary pools here and for the bench's warm_up and
_regenerate, which call them directly.  Every kind runs through
run_pool_experiment.  One function draws a range of pools and decodes
it in one call, each pool's components side by side; replay_pool is
that function run on one pool, so it decodes the cell's own layout.  The
observations are held unpacked and position-major (the order the decoder
reads, so they reach it without a copy), the info bits as packed bits.

One rule sizes the ranges of a cell, once per call, in decoded columns,
a quaternary pool's two components counting as two: the processes that
decode it hold no more columns at once than the cell has, nor than about
64 MB of observations, and there is at most one per core the caller may
run on, each taking at least 128 columns.  With more than one, the
ranges go in order to one executor of forked worker processes per call,
and their failed pools come back in range order.  Pools draw
from their own streams, so failed-pool lists are independent of the
worker count, as they are of the range width.  A cell too narrow to
split, a process limited to one core, or a platform without fork decodes
in the calling process.

A result row holds only what the seed fixes, so reruns compare equal:
results_to_csv writes each cell's cell_seed and failed_pools, and
replay_pool regenerates any one pool from them.  Progress and timings go
to stderr as "[genoweave] <stage> key=value ..." lines; all data products
are returned (or formatted as CSV) for the caller to write.
"""

from __future__ import annotations

import operator
import struct
import sys
import time
import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import ChannelSpec, apply_channel_pool, delete_pool_coincident
from .polar import (STRAND_LENGTH, PolarCode, _integer, _is_pow2, _workers, design_polar_code,
                    format_csv)
from .weave import _check_crossover, decode_pool_batch, weave_encode

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

# each kind's decoder mode, its binary components per pool and the width
# of a strand's observations: an inserting channel can double a strand
_KINDS = {"deletion": ("push", 1, STRAND_LENGTH), "insertion": ("pull", 1, 2 * STRAND_LENGTH),
          "substitution": ("fixed", 1, STRAND_LENGTH), "quaternary": ("push", 2, STRAND_LENGTH)}
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

    def __post_init__(self) -> None:
        for name, least in (("n", None), ("pools", 1), ("construction_samples", 1),
                            ("master_seed", None)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        if not _is_pow2(self.n):
            raise ValueError(f"strand count must be a power of two, got {self.n}")
        _check_kind(self.error_kind)
        if isinstance(self.delta_list, (str, bytes)) or not isinstance(self.delta_list, Iterable):
            raise ValueError(f"delta_list must be a sequence of rates, got {self.delta_list!r}")
        # + 0.0 maps -0.0 to 0.0, whose IEEE bits derive_seed would hash apart
        deltas = tuple(float(d) + 0.0 for d in self.delta_list)
        if not deltas:
            raise ValueError("need at least one error rate")
        for d in deltas:  # each cell decodes under its own rate
            _check_crossover(d)
        if self.master_seed < 0:  # every seed derives from it, and numpy takes none below 0
            raise ValueError(f"master seed must be nonnegative, got {self.master_seed}")
        object.__setattr__(self, "delta_list", deltas)


@dataclass(frozen=True)
class ExperimentResult:
    """Failure count for one (n, delta) cell."""

    n: int
    delta: float
    error_kind: str
    pools_run: int
    code_rate: float
    seed: int
    cell_seed: int
    failed_pools: tuple[int, ...]

    @property
    def failure_count(self) -> int:
        return len(self.failed_pools)


def derive_seed(*parts) -> int:
    """Collapse mixed (int, float, str) parts into one reproducible 64-bit seed.

    A float, numpy's included, hashes by the IEEE bits of float(p); any
    other part must be an integer, so a Fraction or Decimal is refused
    rather than truncated onto the seed of an integer.
    """
    ints: list[int] = []
    for p in parts:
        if isinstance(p, str):
            ints.append(zlib.crc32(p.encode()))
        elif isinstance(p, (float, np.floating)):
            ints.append(struct.unpack("<Q", struct.pack("<d", float(p)))[0])
        else:
            try:
                ints.append(operator.index(p))
            except TypeError:
                raise TypeError(f"seed part {p!r} is not an int, float or str") from None
    return int(np.random.SeedSequence(ints).generate_state(1, np.uint64)[0])


def _progress(stage: str, t0: float, **fields) -> None:
    # one stderr line of key=value fields, the seconds since t0 last
    kv = "".join(f"{k}={v} " for k, v in fields.items())
    print(f"[genoweave] {stage} {kv}seconds={time.perf_counter() - t0:.3f}",
          file=sys.stderr, flush=True)


def _construct(config: ExperimentConfig, delta: float) -> tuple[PolarCode, int]:
    # the code for delta and the construction seed it was built from
    t0 = time.perf_counter()
    cseed = derive_seed(config.master_seed, "construct", config.n, delta)
    code = design_polar_code(config.n, delta, samples=config.construction_samples, seed=cseed)
    _progress("construct", t0, n=config.n, delta=delta, samples=config.construction_samples,
              rate=code.rate)
    return code, cseed


def run_construction_sweep(config: ExperimentConfig) -> list[tuple[PolarCode, int]]:
    """Construct a code per delta in the config: (code, construction_seed) pairs."""
    return [_construct(config, delta) for delta in config.delta_list]


def _decode_range(code: PolarCode, kind: str, delta: float, cell_seed: int,
                  start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw pools start .. start + count - 1 from their streams and decode them at once.

    A pool draws its info bits, then its channel.  Returns (truth, decoded)
    with component c of pool start + b in row b * parts + c: the info bits
    packed along k, and the decoder's unpacked info bits.
    """
    mode, parts, width = _KINDS[kind]
    obs = np.empty((width, count * parts, code.n), dtype=np.uint8)  # position-major
    truth = np.empty((count * parts, STRAND_LENGTH, (code.k + 7) // 8), dtype=np.uint8)
    for b in range(start, start + count):
        rng = np.random.default_rng([cell_seed, b])
        info = rng.integers(0, 2, size=(parts, STRAND_LENGTH, code.k), dtype=np.uint8)
        column = (b - start) * parts
        truth[column:column + parts] = np.packbits(info, axis=-1)
        strands = [weave_encode(part, code).strands for part in info]
        if parts == 2:  # a quaternary pair shares one kept-set per strand
            pool = delete_pool_coincident(*strands, delta, rng)
        else:
            pool = [apply_channel_pool(strands[0], ChannelSpec(kind=kind, delta=delta), rng)]
        for c, (component, _) in enumerate(pool):
            obs[:, column + c] = component.T
    return truth, decode_pool_batch(obs.transpose(1, 2, 0), code, mode, STRAND_LENGTH).info_bits


def _batch_failures(code: PolarCode, kind: str, delta: float, cell_seed: int,
                    start: int, count: int) -> list[int]:
    # the failed pools of a range: a pool fails when any decoded info bit
    # of any component differs from the truth
    truth, decoded = _decode_range(code, kind, delta, cell_seed, start, count)
    bad = (np.packbits(decoded, axis=-1) != truth).any(axis=(1, 2)).reshape(count, -1)
    return [start + int(b) for b in np.flatnonzero(bad.any(axis=1))]


# A cell decodes on several processes only if each can take at least this
# many columns at once: SC costs more per codeword below it (12.5 us at 256
# columns, 16.7 at 128, 31.7 at 64 on a 2-core VM at n=256).
_MIN_COLUMNS = 128


def _ranges(n: int, width: int, pools: int, parts: int,
            workers: int) -> tuple[int, list[tuple[int, int]]]:
    # The processes that decode a cell, and the (first pool, pools) of each
    # decode: contiguous ranges in pool order.  A pool decodes as parts
    # columns; the processes together hold no more columns at once than the
    # cell's pools * parts, nor than about 64 MB of unpacked observations;
    # at most workers of them, each taking at least _MIN_COLUMNS.
    columns = min(pools * parts, (1 << 26) // (n * width))
    processes = max(1, min(workers, columns // _MIN_COLUMNS))
    per = max(1, columns // processes // parts)
    return processes, [(a, min(per, pools - a)) for a in range(0, pools, per)]


def _fork_executor(workers: int):
    # an executor of forked worker processes, or None where this platform
    # cannot fork.  A forked worker starts with numpy and genoweave already
    # imported, where a spawned one would import them again on every call;
    # they fork on the first decode the executor is handed, when genoweave
    # runs no other thread (the first cell's construction threads have
    # exited).  Imported here, so that a run decoded in one process pays
    # nothing for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        return None
    return ProcessPoolExecutor(workers, mp_context=context)


def _run_cells(config: ExperimentConfig, codes: dict[float, PolarCode] | None,
               kind: str) -> list[ExperimentResult]:
    _, parts, width = _KINDS[kind]
    processes, ranges = _ranges(config.n, width, config.pools, parts, _workers())
    executor = _fork_executor(processes) if processes > 1 else None
    if executor is None:  # one process, or no fork here: decode in this one
        processes, ranges = _ranges(config.n, width, config.pools, parts, 1)
    results = []
    try:
        for delta in config.delta_list:
            code = codes[delta] if codes and delta in codes else _construct(config, delta)[0]
            if code.n != config.n:  # its strands would not fit the pool arrays
                raise ValueError(f"code for delta {delta} has n={code.n}, "
                                 f"the config n={config.n}")
            cell_seed = derive_seed(config.master_seed, "pools", kind, config.n, delta)
            decode = partial(_batch_failures, code, kind, delta, cell_seed)
            t0 = time.perf_counter()
            failed: list[int] = []
            # either map yields in range order, so failed stays ascending
            decoded = (executor.map if executor else map)(decode, *zip(*ranges))
            for (start, count), range_failed in zip(ranges, decoded):
                failed += range_failed
                _progress("pools", t0, n=config.n, delta=delta, kind=kind, done=start + count,
                          pools=config.pools, failures=len(failed), workers=processes)
            results.append(ExperimentResult(
                n=config.n, delta=delta, error_kind=kind, pools_run=config.pools,
                code_rate=code.rate, seed=config.master_seed, cell_seed=cell_seed,
                failed_pools=tuple(failed)))
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
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
    """Regenerate one pool by its stream and decode it as its cell did, a range of one.

    error_kind is a result row's, so "quaternary" replays both components.
    Returns (true_info, decoded_info), each with a leading component axis,
    so callers can re-verify a recorded failure against ground truth.
    """
    _check_kind(error_kind)
    pool_index = _integer("pool_index", pool_index, 0)  # numpy takes no stream key below 0
    truth, decoded = _decode_range(code, error_kind, delta, cell_seed, pool_index, 1)
    return np.unpackbits(truth, axis=-1, count=code.k), decoded


def results_to_csv(rows: list[ExperimentResult], master_seed: int) -> str:
    """Failure-count table as CSV text with a seed provenance comment.

    Each row carries its cell_seed and its failed_pools (space-separated
    indices), so replay_pool can regenerate any failed pool from the row.
    """
    return format_csv(
        {"seed": master_seed},
        "n,delta,error_kind,pools,failures,code_rate,seed,cell_seed,failed_pools",
        [(r.n, r.delta, r.error_kind, r.pools_run, r.failure_count, r.code_rate, r.seed,
          r.cell_seed, " ".join(map(str, r.failed_pools))) for r in rows])

