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


def _longest_run(positions: set[int], n: int) -> tuple[int, int]:
    """Longest cyclic run of consecutive residues; returns (length, start)."""
    if len(positions) >= n:
        return n, 0
    if not positions:
        return 0, 0
    # a proper subset breaks every run, so two passes see each run in full
    best_len, best_start = 0, 0
    run = 0
    start = 0
    for i in range(2 * n):
        if (i % n) in positions:
            if run == 0:
                start = i % n
            run += 1
            if run > best_len:
                best_len, best_start = run, start
        else:
            run = 0
    return best_len, best_start


def bch_lower(S: "ExponentSet") -> tuple[int, BchWitness]:
    """Best consecutive-run lower bound over all unit steps and offsets.

    Ties resolve to the smallest step, then the smallest starting exponent,
    so repeated runs return identical witnesses.
    """
    n = S.ctx.n
    exps = set(S.exps)
    if not exps:
        return 1, BchWitness(0, 1, 0)
    best = (0, 1, 0)  # (length, b, u)
    for b in units_mod(n):
        binv = pow(b, -1, n)
        pos = {(e * binv) % n for e in exps}
        length, start = _longest_run(pos, n)
        if length > best[0]:
            best = (length, b, (start * b) % n)
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
