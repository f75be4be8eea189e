"""Rate arithmetic for the concatenation baseline.

Everything here is closed form: binary/quaternary entropies and channel
capacities, the binomial deletion-count tail, redundancy costs of known
d-deletion-correcting block codes, and the rate envelope obtained when a
length-256 strand spends part of its budget on an inner deletion code.

Redundancy is always counted in q-ary symbols out of the 256 symbols of a
strand.  Asymptotic redundancy statements are evaluated as exact at
ell = 256; that is the working convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polar import STRAND_LENGTH, _integer

__all__ = [
    "RateFamily",
    "FAMILIES",
    "entropy",
    "capacity",
    "binom_cdf",
    "redundancy",
    "concat_rates",
    "table_envelope",
    "concat_envelope",
]

FAMILIES = ("explicit", "implicit", "putative")


def _check_alphabet(q: int) -> None:
    if q not in (2, 4):
        raise ValueError(f"alphabet size must be 2 or 4, got {q}")


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:  # NaN too
        raise ValueError(f"probability out of range: {p}")


@dataclass(frozen=True)
class RateFamily:
    """A redundancy regime for d-deletion-correcting codes over GF(q).

    family selects which cost model applies:
      explicit  - best published constructions with polynomial encoders
      implicit  - existence bound (2d log_q ell symbols, VT-sized at d=1)
      putative  - conjectured lower bound (d log_q ell symbols)
    """

    q: int
    family: str

    def __post_init__(self) -> None:
        _check_alphabet(self.q)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")


def entropy(q: int, p: float) -> float:
    """Entropy of the q-ary symmetric channel noise, in q-ary units.

    q = 2 gives the binary entropy function h2(p).  q = 4 gives
    h4(p) = -p log4(p/3) - (1-p) log4(1-p), the per-symbol entropy of a
    quaternary symmetric channel with total error probability p.  The
    p = 0 limit is 0 in both cases.
    """
    _check_alphabet(q)
    _check_probability(p)
    if q == 2:
        if p in (0.0, 1.0):
            return 0.0
        return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return math.log2(3.0) / 2.0
    out = -p * math.log2(p / 3.0) / 2.0
    out -= (1.0 - p) * math.log2(1.0 - p) / 2.0
    return out


def capacity(q: int, delta: float) -> float:
    """Capacity of the q-ary symmetric channel, in q-ary symbols per use."""
    return 1.0 - entropy(q, delta)


def _log_pmf(ell: int, delta: float) -> np.ndarray:
    # log Binomial(ell, delta) pmf over k = 0..ell, computed term by term
    # so extreme tails keep full relative precision.
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, ell + 1, dtype=np.float64)))))
    k = np.arange(ell + 1, dtype=np.float64)
    log_choose = lf[ell] - lf[np.arange(ell + 1)] - lf[ell - np.arange(ell + 1)]
    return log_choose + k * math.log(delta) + (ell - k) * math.log1p(-delta)


def _cdf_table(ell: int, delta: float) -> np.ndarray:
    """P(Bin(ell, delta) <= d) for every d in 0..ell."""
    if delta == 0.0:
        return np.ones(ell + 1)
    if delta == 1.0:
        out = np.zeros(ell + 1)
        out[ell] = 1.0
        return out
    terms = _log_pmf(ell, delta)
    m = terms.max()
    cdf = np.cumsum(np.exp(terms - m)) * math.exp(m)
    return np.minimum(cdf, 1.0)


def binom_cdf(ell: int, delta: float, d: int) -> float:
    """P(Bin(ell, delta) <= d): probability of at most d deletions in ell symbols."""
    ell, d = _integer("block length", ell, 1), _integer("deletion count", d)
    _check_probability(delta)
    if not 0 <= d <= ell:
        raise ValueError(f"deletion count {d} out of range for block length {ell}")
    return float(_cdf_table(ell, delta)[d])


def redundancy(fam: RateFamily, d: int, ell: int = STRAND_LENGTH) -> float:
    """Redundancy, in q-ary symbols, of a d-deletion-correcting code of length ell.

    explicit, q=2:  log2(ell) at d=1 (VT codes), 4 log2(ell) at d=2,
                    (4d-1) log2(ell) at d >= 3.
    explicit, q=4:  log4(ell) at d=1, 5 log2(ell) at d=2, 4d log2(ell)
                    at d >= 3 (quaternary costs run twice the binary ones).
    implicit:       log_q(ell) at d=1, 2d log_q(ell) at d >= 2.
    putative:       d log_q(ell), the conjectured lower bound.
    """
    d, ell = _integer("deletion count", d, 0), _integer("block length", ell, 2)
    if d == 0:
        return 0.0
    l2 = math.log2(ell)
    lq = l2 if fam.q == 2 else l2 / 2.0
    if d == 1 or fam.family == "putative":  # every family costs log_q(ell) at d = 1
        return d * lq
    if fam.family == "implicit":
        return 2.0 * d * lq
    if fam.q == 2:
        if d == 2:
            return 4.0 * l2
        return (4.0 * d - 1.0) * l2
    if d == 2:
        return 5.0 * l2
    return 4.0 * d * l2


def concat_rates(fam: RateFamily, delta: float, ell: int = STRAND_LENGTH) -> np.ndarray:
    """Rate of concatenation for every inner code strength d = 0..ell.

    The inner code spends redundancy(fam, d) of the ell strand symbols and
    the block survives only when the strand sees at most d deletions, so
    entry d is the throughput max(0, 1 - r/ell) * P(Bin(ell, delta) <= d).
    """
    _check_probability(delta)
    ell = _integer("block length", ell, 2)
    r = np.array([redundancy(fam, d, ell) for d in range(ell + 1)])
    return np.maximum(0.0, 1.0 - r / ell) * _cdf_table(ell, delta)


def table_envelope(rates: np.ndarray) -> tuple[float, int]:
    """Best rate of a concat_rates table and the d attaining it; ties go to the smaller d."""
    d_star = int(np.argmax(rates))
    return float(rates[d_star]), d_star


def concat_envelope(fam: RateFamily, delta: float, ell: int = STRAND_LENGTH) -> tuple[float, int]:
    """Best concatenation rate over d = 0..ell and the d attaining it: (rate, d_star)."""
    return table_envelope(concat_rates(fam, delta, ell))
