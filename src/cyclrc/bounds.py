"""Distance bounds derived from defining-set structure.

Lower bounds come from arithmetic-progression patterns inside a defining set
(the classical consecutive-run bound, and the run-plus-blocks pattern checked
against a supplied witness).  Upper bounds are the Singleton bound and its
locality-aware refinement.  The exact dual-distance criterion recognizes a
subgroup coset inside the set together with a long enough run outside it.

Everything here is pure arithmetic on exponent sets (integers mod n); oracle
cross-checks live with the code machinery and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .cyclic import ExponentSet


class WitnessNotContained(ValueError):
    pass


class StepNotUnit(ValueError):
    pass


class BadParams(ValueError):
    pass


@dataclass(frozen=True)
class BchWitness:
    """A run u, u+b, ..., u+(length-1)b inside the witnessed set."""

    u: int
    b: int
    length: int


@dataclass(frozen=True)
class BettiSalaWitness:
    """Run-plus-blocks pattern: a run of m*delta exponents followed by m+1
    blocks of delta-1, all stepped by a unit b from offset u."""

    u: int
    b: int
    m: int
    delta: int

    def exponents(self, n: int) -> list[int]:
        out = [(self.u + i * self.b) % n for i in range(self.m * self.delta)]
        for i in range(self.m + 1):
            base = (self.m + i) * self.delta
            for j in range(1, self.delta):
                out.append((self.u + (base + j) * self.b) % n)
        return out


def units_mod(n: int) -> list[int]:
    return [b for b in range(1, n) if gcd(b, n) == 1]


def bch_lower(S: "ExponentSet") -> tuple[int, BchWitness]:
    """Best consecutive-run lower bound over all unit steps and offsets.

    Ties resolve to the smallest step, then the smallest starting exponent,
    so repeated runs return identical witnesses.  One membership table per
    block of steps: entry (b, i) tells whether i*b is in the set, for i up
    to 2n, so the two passes see every run of a proper subset in full.  The
    run ending at i is i minus the last gap at or before i, capped at n for
    the full set; the first longest run of the first step that reaches the
    longest length is the witness.
    """
    n = S.ctx.n
    if not S.exps:
        return 1, BchWitness(0, 1, 0)
    inset = np.zeros(n, dtype=bool)
    inset[list(S.exps)] = True
    steps = np.array(units_mod(n), dtype=np.int64)
    idx = np.arange(2 * n)
    chunk = max(1, (1 << 20) // (2 * n))  # about 2^20 table entries per block
    best = (0, 1, 0)  # (length, b, u)
    for lo in range(0, len(steps), chunk):
        b = steps[lo : lo + chunk]
        gap = np.where(inset[b[:, None] * idx % n], -1, idx)
        run = np.minimum(idx - np.maximum.accumulate(gap, axis=1), n)
        end = run.argmax(axis=1)
        length = run.max(axis=1)
        j = int(length.argmax())
        if length[j] > best[0]:
            start = (int(end[j]) - int(length[j]) + 1) % n
            best = (int(length[j]), int(b[j]), start * int(b[j]) % n)
    length, b, u = best
    return length + 1, BchWitness(u, b, length)


def betti_sala_lower(S: "ExponentSet", w: BettiSalaWitness) -> int:
    """Bound m*delta + delta after verifying the witness pattern lies in S."""
    n = S.ctx.n
    if w.m < 1 or w.delta < 1:
        raise BadParams("witness needs m >= 1 and delta >= 1")
    if gcd(w.b, n) != 1:
        raise StepNotUnit(f"step {w.b} is not a unit mod {n}")
    have = set(S.exps)
    missing = [e for e in w.exponents(n) if e not in have]
    if missing:
        raise WitnessNotContained(f"witness exponents {sorted(set(missing))} not in set")
    return w.m * w.delta + w.delta


def singleton_like(n: int, k: int, r: int, delta: int) -> int:
    """Locality-aware Singleton upper bound on the minimum distance."""
    if not (1 <= r <= k) or delta < 2 or not (1 <= k <= n):
        raise BadParams(f"need 1 <= r <= k <= n and delta >= 2, got n={n} k={k} r={r} delta={delta}")
    return n - k - (ceil(k / r) - 1) * (delta - 1) + 1


def subgroup_coset_in(A: "ExponentSet") -> list[tuple[int, int]]:
    """All (order, shift) pairs of subgroup cosets contained in the set.

    The subgroup of order ell consists of the multiples of n/ell; a coset is
    that progression shifted by t with 0 <= t < n/ell.  Largest order first.
    """
    n = A.ctx.n
    have = set(A.exps)
    out = []
    divisors = sorted((d for d in range(1, n + 1) if n % d == 0), reverse=True)
    for ell in divisors:
        s = n // ell
        for t in range(s):
            if all((t + i * s) % n in have for i in range(ell)):
                out.append((ell, t))
    return out


def exact_dual_distance(A: "ExponentSet") -> Optional[int]:
    """Exact dual distance n/ell when the set contains an order-ell subgroup
    coset and its complement contains a run of length n/ell - 1 (in any unit
    step).  Absent when the hypotheses fail; never a weaker bound.
    """
    n = A.ctx.n
    best_run = bch_lower(A.complement())[0] - 1  # longest complement run over all unit steps
    values = []
    for ell, _t in subgroup_coset_in(A):
        s = n // ell
        if best_run >= s - 1:
            values.append(s)
    if not values:
        return None
    if len(set(values)) > 1:
        # two different exact values would be a contradiction
        raise AssertionError(f"inconsistent exact dual distances {sorted(set(values))}")
    return values[0]
