"""Ordered partitions, refinements, and the output-type lift.

An ordered partition of n of size d is a tuple of d non-negative parts
summing to n; it is the same data as a monotone map [n] -> [d] (part i is
the fiber over i).  The MonotoneMap form is authoritative for categorical
operations; the part-size form is what gets enumerated and serialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .ordinals import (
    MonotoneMap,
    OrdinalError,
    compose,
    cut_set,
    epi_from_cuts,
)


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class OrderedPartition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 0 for p in self.parts):
            raise PartitionError("parts must be non-negative")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def d(self) -> int:
        return len(self.parts)

    def is_degenerate(self) -> bool:
        """Degenerate: n > 0 with a zero part, or n = 0 with more than one part."""
        if self.n > 0:
            return 0 in self.parts
        return self.d > 1

    def to_map(self) -> MonotoneMap:
        vals = []
        for i, p in enumerate(self.parts, start=1):
            vals.extend([i] * p)
        return MonotoneMap(self.n, self.d, tuple(vals))

    @classmethod
    def from_map(cls, f: MonotoneMap) -> "OrderedPartition":
        return cls(f.fiber_sizes())


@dataclass(frozen=True)
class Refinement:
    """A refinement of `coarse` by `fine`, witnessed by the surjection
    rho: [fine.d] ->> [coarse.d] (part t of coarse is the sum of the fine
    parts in the rho-fiber over t)."""

    fine: OrderedPartition
    coarse: OrderedPartition
    rho: MonotoneMap

    def __post_init__(self):
        if self.rho.dom != self.fine.d or self.rho.cod != self.coarse.d:
            raise PartitionError("refinement witness has wrong signature")
        for t in range(1, self.coarse.d + 1):
            if sum(self.fine.parts[i - 1] for i in self.rho.fiber(t)) != self.coarse.parts[t - 1]:
                raise PartitionError(f"{self.fine.parts} does not refine {self.coarse.parts} along {self.rho.values}")


def compositions(n: int, d: int, positive: bool = False):
    """All tuples of d parts summing to n, lexicographic.  With positive=True
    only strictly positive parts (empty unless 1 <= d <= n, except n=d=0)."""
    if d == 0:
        if n == 0:
            yield ()
        return
    lo = 1 if positive else 0
    if positive and n < d:
        return

    def rec(rem: int, slots: int):
        if slots == 1:
            if rem >= lo:
                yield (rem,)
            return
        hi = rem - lo * (slots - 1)
        for first in range(lo, hi + 1):
            for rest in rec(rem - first, slots - 1):
                yield (first,) + rest

    yield from rec(n, d)


def enumerate_partitions(n: int, d: int, nondegenerate_only: bool = False) -> list[OrderedPartition]:
    """All of Lambda_d(n) (count C(n+d-1, d-1)) or its non-degenerate part
    (count C(n-1, d-1)); lexicographic in the part tuples."""
    if nondegenerate_only and n == 0:
        return [OrderedPartition(())] if d == 0 else ([OrderedPartition((0,))] if d == 1 else [])
    return [OrderedPartition(c) for c in compositions(n, d, positive=nondegenerate_only)]


def count_partitions(n: int, d: int, nondegenerate_only: bool = False) -> int:
    if nondegenerate_only:
        if n == 0:
            return 1 if d <= 1 else 0
        return comb(n - 1, d - 1) if d >= 1 else 0
    if d == 0:
        return 1 if n == 0 else 0
    return comb(n + d - 1, d - 1)


def compose_at(mu: OrderedPartition, i: int, lam: OrderedPartition) -> OrderedPartition:
    """Replace part i (1-based) of lam by the parts of mu; requires
    mu.n == lam.parts[i-1]."""
    if not (1 <= i <= lam.d):
        raise PartitionError(f"index {i} out of range for size-{lam.d} partition")
    if mu.n != lam.parts[i - 1]:
        raise PartitionError(f"sum mismatch: |mu|={mu.n} but part {i} of lam is {lam.parts[i - 1]}")
    return OrderedPartition(lam.parts[: i - 1] + mu.parts + lam.parts[i:])


def refinements_of(lam: OrderedPartition) -> list[Refinement]:
    """All non-degenerate refinements of a non-degenerate partition, with
    their unique witnesses; includes lam itself with rho = id.  Ordered by
    (size, parts) for determinism."""
    if lam.is_degenerate():
        raise PartitionError(f"refinements_of requires a non-degenerate partition, got {lam.parts}")
    return slot_refinements(lam)


def slot_refinements(lam: OrderedPartition) -> list[Refinement]:
    """Slotwise refinements: positive parts split into positive parts, zero
    parts stay single zero slots.  Agrees with refinements_of on
    non-degenerate input but also serves shapes containing zeros (units)."""
    out = []
    per_part = []
    for p in lam.parts:
        if p == 0:
            per_part.append([(0,)])
        else:
            per_part.append([c for k in range(1, p + 1) for c in compositions(p, k, positive=True)])
    for choice in itertools.product(*per_part):
        fine_parts = tuple(itertools.chain.from_iterable(choice))
        rho_vals = []
        for t, sub in enumerate(choice, start=1):
            rho_vals.extend([t] * len(sub))
        rho = MonotoneMap(len(fine_parts), lam.d, tuple(rho_vals))
        out.append(Refinement(OrderedPartition(fine_parts), lam, rho))
    out.sort(key=lambda r: (r.fine.d, r.fine.parts))
    return out


def refinement_witness(fine: OrderedPartition, coarse: OrderedPartition) -> MonotoneMap | None:
    """The witness epi for a non-degenerate refinement, or None if fine does
    not refine coarse slotwise.  Zero parts of coarse must stay single zero
    slots of fine."""
    vals = []
    j = 0
    for t, p in enumerate(coarse.parts, start=1):
        if p == 0:
            if j >= fine.d or fine.parts[j] != 0:
                return None
            vals.append(t)
            j += 1
            continue
        acc = 0
        while acc < p:
            if j >= fine.d or fine.parts[j] == 0 or acc + fine.parts[j] > p:
                return None
            acc += fine.parts[j]
            vals.append(t)
            j += 1
    if j != fine.d:
        return None
    return MonotoneMap(fine.d, coarse.d, tuple(vals))


def concatenate(lam: OrderedPartition, mu: OrderedPartition) -> OrderedPartition:
    return OrderedPartition(lam.parts + mu.parts)


def restrict(
    nu: Refinement, lam: OrderedPartition, mu: OrderedPartition, side: str
) -> Refinement:
    """nu refines concatenate(lam, mu); return nu|_lam or nu|_mu."""
    if nu.coarse != concatenate(lam, mu):
        raise PartitionError("refinement is not over the given concatenation")
    if side not in ("L", "R"):
        raise PartitionError("side must be 'L' or 'R'")
    boundary = lam.d
    left_idx = [i for i in range(1, nu.fine.d + 1) if nu.rho.values[i - 1] <= boundary]
    if side == "L":
        fine = OrderedPartition(tuple(nu.fine.parts[i - 1] for i in left_idx))
        rho = MonotoneMap(len(left_idx), lam.d, tuple(nu.rho.values[i - 1] for i in left_idx))
        return Refinement(fine, lam, rho)
    right_idx = [i for i in range(1, nu.fine.d + 1) if nu.rho.values[i - 1] > boundary]
    fine = OrderedPartition(tuple(nu.fine.parts[i - 1] for i in right_idx))
    rho = MonotoneMap(len(right_idx), mu.d, tuple(nu.rho.values[i - 1] - boundary for i in right_idx))
    return Refinement(fine, mu, rho)


def lift_output_type(pi: OrderedPartition, rho: MonotoneMap) -> OrderedPartition:
    """The lift pi'(rho): for pi a non-degenerate partition of q into p
    parts and rho: [q'] ->> [q], the unique non-degenerate partition of q'
    into p + q' - q parts such that rho-fibers land in distinct parts and
    pi is the merge of pi' along rho.  Computed through star-duality:
    cuts(pi') = cuts(pi o rho) union ([q'-1] minus cuts(rho))."""
    if pi.is_degenerate():
        raise PartitionError("output type must be non-degenerate")
    q = pi.n
    qp = rho.dom
    if rho.cod != q:
        raise OrdinalError(f"rho must target [{q}]")
    pi_map = pi.to_map()
    if qp == 0:
        return OrderedPartition(())
    comp = compose(pi_map, rho)
    cuts = set(cut_set(comp)) | (set(range(1, qp)) - set(cut_set(rho)))
    return OrderedPartition.from_map(epi_from_cuts(qp, frozenset(cuts)))
