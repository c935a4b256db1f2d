"""The category of finite totally ordered sets and monotone maps.

Objects are ordinals [n] = {1, ..., n} (1-based; [0] is empty).  A map is
stored as the tuple of its values.  Surjections [m] ->> [d] are identified
with interval partitions of [m] into d parts; internally, the cut-set
encoding (the set of positions where the value increases) turns merge and
star-duality into plain set operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb


class OrdinalError(ValueError):
    pass


@dataclass(frozen=True)
class MonotoneMap:
    """Weakly increasing map [dom] -> [cod], values 1-based."""

    dom: int
    cod: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.dom < 0 or self.cod < 0:
            raise OrdinalError("negative ordinal size")
        if len(self.values) != self.dom:
            raise OrdinalError("value list length does not match domain")
        prev = 1
        for v in self.values:
            if not (prev <= v <= self.cod):
                raise OrdinalError(f"values {self.values} not monotone into [{self.cod}]")
            prev = v

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    @classmethod
    def identity(cls, n: int) -> "MonotoneMap":
        return cls(n, n, tuple(range(1, n + 1)))

    def fiber(self, t: int) -> list[int]:
        return [i for i in range(1, self.dom + 1) if self.values[i - 1] == t]

    def fiber_sizes(self) -> tuple[int, ...]:
        counts = [0] * self.cod
        for v in self.values:
            counts[v - 1] += 1
        return tuple(counts)


def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f."""
    if f.cod != g.dom:
        raise OrdinalError(f"cannot compose: cod(f)=[{f.cod}] != dom(g)=[{g.dom}]")
    return MonotoneMap(f.dom, g.cod, tuple(g.values[v - 1] for v in f.values))


def classify(f: MonotoneMap) -> dict:
    hit = set(f.values)
    is_epi = len(hit) == f.cod
    is_mono = all(f.values[i] < f.values[i + 1] for i in range(f.dom - 1))
    return {"is_epi": is_epi, "is_mono": is_mono}


def epi_mono_factor(f: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """The unique factorisation f = m o e with e epi onto the image."""
    image = sorted(set(f.values))
    pos = {v: i + 1 for i, v in enumerate(image)}
    e = MonotoneMap(f.dom, len(image), tuple(pos[v] for v in f.values))
    m = MonotoneMap(len(image), f.cod, tuple(image))
    return e, m


def ordered_coproduct(m: int, n: int) -> tuple[MonotoneMap, MonotoneMap]:
    """[m] |_| [n] = [m+n] with [m] first; returns the two injections."""
    inj1 = MonotoneMap(m, m + n, tuple(range(1, m + 1)))
    inj2 = MonotoneMap(n, m + n, tuple(range(m + 1, m + n + 1)))
    return inj1, inj2


def relative_ordered_coproduct(
    f: MonotoneMap, g: MonotoneMap
) -> tuple[MonotoneMap, MonotoneMap, MonotoneMap]:
    """[m] |_|_{[q]} [n]: for each t in [q] in order, list the f-fiber then
    the g-fiber.  Returns (inj1, inj2, proj)."""
    if f.cod != g.cod:
        raise OrdinalError("relative coproduct requires equal codomains")
    q = f.cod
    target: list[tuple[str, int]] = []
    for t in range(1, q + 1):
        target.extend(("f", x) for x in f.fiber(t))
        target.extend(("g", y) for y in g.fiber(t))
    pos = {key: i + 1 for i, key in enumerate(target)}
    size = len(target)
    inj1 = MonotoneMap(f.dom, size, tuple(pos[("f", x)] for x in range(1, f.dom + 1)))
    inj2 = MonotoneMap(g.dom, size, tuple(pos[("g", y)] for y in range(1, g.dom + 1)))
    proj_vals = tuple(f.values[x - 1] if side == "f" else g.values[x - 1] for side, x in target)
    proj = MonotoneMap(size, q, proj_vals)
    return inj1, inj2, proj


# -- cut-set encoding of surjections ----------------------------------


def cut_set(rho: MonotoneMap) -> frozenset[int]:
    """For an epi [m] ->> [d]: the set of positions i in [m-1] where the
    value increases from i to i+1."""
    if not classify(rho)["is_epi"]:
        raise OrdinalError("cut_set requires a surjection")
    return frozenset(
        i for i in range(1, rho.dom) if rho.values[i] > rho.values[i - 1]
    )


def epi_from_cuts(m: int, cuts: frozenset[int] | set[int]) -> MonotoneMap:
    """Inverse of cut_set: epi [m] ->> [len(cuts)+1] (for m >= 1)."""
    vals = []
    level = 1
    for i in range(1, m + 1):
        vals.append(level)
        if i in cuts:
            level += 1
    if m == 0:
        return MonotoneMap(0, 0, ())
    return MonotoneMap(m, level, tuple(vals))


def merge(lam: MonotoneMap, mu: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap, MonotoneMap]:
    """Ordered pushout of two surjections out of the same [m]: the joint is
    the epi whose cut-set is the intersection of the two cut-sets.
    Returns (joint, push1, push2) with push1 o lam = push2 o mu = joint."""
    if lam.dom != mu.dom:
        raise OrdinalError("merge requires equal domains")
    if not classify(lam)["is_epi"] or not classify(mu)["is_epi"]:
        raise OrdinalError("merge requires surjections")
    joint = epi_from_cuts(lam.dom, cut_set(lam) & cut_set(mu))

    def pushmap(f: MonotoneMap) -> MonotoneMap:
        vals = []
        for t in range(1, f.cod + 1):
            x = f.fiber(t)[0]
            vals.append(joint.values[x - 1])
        return MonotoneMap(f.cod, joint.cod, tuple(vals))

    return joint, pushmap(lam), pushmap(mu)


def star_dual(mu: MonotoneMap) -> MonotoneMap:
    """The bijection Lambda_q(p-1) ~ Lambda_p(q-1): for mu: [p-1] -> [q],
    mu*(i) = j iff mu(j-1) <= i < mu(j), with mu(0) = 0, mu(p) = q+1; as
    mu is monotone, that j is 1 + #{t : mu(t) <= i}."""
    vals = tuple(1 + sum(v <= i for v in mu.values) for i in range(1, mu.cod))
    return MonotoneMap(mu.cod - 1, mu.dom + 1, vals)


def star_dual_epi(rho: MonotoneMap) -> MonotoneMap:
    """Epi [m] ->> [n]  ->  mono [n-1] -> [m-1] whose image is the cut-set."""
    cuts = sorted(cut_set(rho))
    return MonotoneMap(rho.cod - 1, rho.dom - 1, tuple(cuts))


def all_monotone_maps(m: int, n: int):
    """All of Hom_Delta([m], [n]), lexicographic in the value tuples."""
    if m == 0:
        yield MonotoneMap(0, n, ())
        return
    if n == 0:
        return
    for combo in itertools.combinations_with_replacement(range(1, n + 1), m):
        yield MonotoneMap(m, n, combo)


def all_epis(m: int, n: int):
    """All surjections [m] ->> [n]; there are C(m-1, n-1) of them."""
    if n == 0:
        if m == 0:
            yield MonotoneMap(0, 0, ())
        return
    if m < n:
        return
    for cuts in itertools.combinations(range(1, m), n - 1):
        yield epi_from_cuts(m, frozenset(cuts))


def count_epis(m: int, n: int) -> int:
    if m == n == 0:
        return 1
    if n == 0 or m < n:
        return 0
    return comb(m - 1, n - 1)
