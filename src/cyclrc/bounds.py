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

    Ties resolve to the smallest step b, then to the run that starts first
    among the positions b^-1*s mod n of the set's exponents s; the witness
    starts at u = start*b, so it need not be the run with the smallest u.
    The longest run of S in step b is the longest run of b^-1*S in step 1,
    read off the smaller side: a set of at most n/2 exponents sorts its
    positions and reads them twice (P, P + n) for the longest chain of
    consecutive values; a larger set sorts its complement's positions and
    takes the largest cyclic gap.  The pair is memoised on the context by
    exponents, so each set is scanned once, and so are the unit steps and
    their inverses, which depend on n alone.
    """
    ctx = S.ctx
    memo = ctx._bch_cache
    if S.exps not in memo:
        if ctx._unit_steps is None:
            steps = units_mod(ctx.n)
            ctx._unit_steps = steps, np.array([pow(b, -1, ctx.n) for b in steps], dtype=np.int64)
        memo[S.exps] = _longest_run(ctx.n, S.exps, *ctx._unit_steps)
    return memo[S.exps]


def _longest_run(n: int, exps: tuple[int, ...], steps: list[int], inv: np.ndarray) -> tuple[int, BchWitness]:
    """The run bound and its witness over the unit steps and their inverses."""
    if not exps or not steps:  # n = 1 has no unit step below n
        return 1, BchWitness(0, 1, 0)
    small = 2 * len(exps) <= n
    side = np.array(exps if small else sorted(set(range(n)).difference(exps)), dtype=np.int64)
    if not side.size:  # the full set is one run of n in step 1
        return n + 1, BchWitness(0, 1, n)
    chunk = max(1, (1 << 20) // (2 * side.size))  # about 2^20 entries per block
    best = (0, 1, 0)  # (length, b, u)
    for lo in range(0, len(steps), chunk):
        P = np.sort(inv[lo : lo + chunk, None] * side % n, axis=1)
        length, start = (_longest_chains if small else _largest_gaps)(P, n)
        j = int(length.argmax())
        if length[j] > best[0]:
            b = steps[lo + j]
            best = (int(length[j]), b, int(start[j]) * b % n)
    length, b, u = best
    return length + 1, BchWitness(u, b, length)


def _longest_chains(P: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of sorted positions (fewer than n), the first longest chain
    of cyclically consecutive values as (length, start).  Reading the row
    twice keeps a chain through n-1 -> 0 whole; its truncated tail at the
    front is shorter, so the first longest chain has the smallest start."""
    Q = np.concatenate([P, P + n], axis=1)
    idx = np.arange(Q.shape[1])
    head = np.zeros(Q.shape, dtype=bool)
    head[:, 0] = True
    head[:, 1:] = Q[:, 1:] - Q[:, :-1] != 1
    run = np.maximum.accumulate(np.where(head, idx, 0), axis=1)
    np.subtract(idx + 1, run, out=run)  # chain length ending at each entry
    rows = np.arange(len(Q))
    end = run.argmax(axis=1)
    length = run[rows, end]
    return length, Q[rows, end - length + 1] % n


def _largest_gaps(P: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the complement's sorted positions, the largest cyclic gap
    as (length, start), the smallest start on ties: the run after P[i]
    starts at P[i] + 1 and ends before the next position, cyclically."""
    gap = np.diff(np.concatenate([P, P[:, :1] + n], axis=1), axis=1) - 1
    start = (P + 1) % n
    i = (gap * n - start).argmax(axis=1)
    rows = np.arange(len(P))
    return gap[rows, i], start[rows, i]


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
