"""Monotone maps of finite ordinals: composition, factorization, merges,
star duality."""

import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from planarprop.ordinals import (
    MonotoneMap,
    OrdinalError,
    all_epis,
    all_monotone_maps,
    classify,
    compose,
    count_epis,
    cut_set,
    epi_from_cuts,
    epi_mono_factor,
    merge,
    ordered_coproduct,
    relative_ordered_coproduct,
    star_dual,
    star_dual_epi,
)


def test_monotonicity_enforced():
    with pytest.raises(OrdinalError):
        MonotoneMap(3, 3, (2, 1, 3))
    with pytest.raises(OrdinalError):
        MonotoneMap(2, 2, (1, 3))
    MonotoneMap(0, 2, ())  # empty domain is fine


def test_composition_associative_exhaustive():
    maps = {
        (m, n): list(all_monotone_maps(m, n)) for m in range(4) for n in range(4)
    }
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    for f in maps[(a, b)]:
                        for g in maps[(b, c)]:
                            for h in maps[(c, d)]:
                                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_identities_neutral():
    for m in range(5):
        for n in range(5):
            for f in all_monotone_maps(m, n):
                assert compose(f, MonotoneMap.identity(m)) == f
                assert compose(MonotoneMap.identity(n), f) == f


def test_epi_mono_factorization_unique():
    for m in range(5):
        for n in range(5):
            for f in all_monotone_maps(m, n):
                e, mo = epi_mono_factor(f)
                assert classify(e)["is_epi"]
                assert classify(mo)["is_mono"]
                assert compose(mo, e) == f
                # uniqueness: any other epi-mono pair composing to f is the same
                for k in range(min(m, n) + 1):
                    for e2 in all_epis(m, k):
                        for mo2 in all_monotone_maps(k, n):
                            if classify(mo2)["is_mono"] and compose(mo2, e2) == f:
                                assert (e2, mo2) == (e, mo)


def test_epi_count_identity():
    for m in range(1, 8):
        for n in range(1, m + 1):
            epis = list(all_epis(m, n))
            assert len(epis) == comb(m - 1, n - 1)
            assert count_epis(m, n) == len(epis)


def test_cut_set_round_trip():
    for m in range(1, 6):
        for n in range(1, m + 1):
            for rho in all_epis(m, n):
                assert epi_from_cuts(m, cut_set(rho)) == rho


def test_star_dual_involution():
    # maps [p-1] -> [q] dualize to maps [q-1] -> [p]; twice is the identity
    for p in range(1, 7):
        for q in range(1, 8 - p + 1):
            for mu in all_monotone_maps(p - 1, q):
                dual = star_dual(mu)
                assert (dual.dom, dual.cod) == (q - 1, p)
                assert star_dual(dual) == mu


def test_star_dual_order_reversing():
    # pointwise larger maps have pointwise smaller duals
    for p in range(1, 6):
        for q in range(1, 8 - p + 1):
            maps = list(all_monotone_maps(p - 1, q))
            for mu in maps:
                for nu in maps:
                    if all(a <= b for a, b in zip(mu.values, nu.values)):
                        dm, dn = star_dual(mu), star_dual(nu)
                        assert all(a >= b for a, b in zip(dm.values, dn.values))


def reference_star_dual(mu):
    """star_dual as a search: mu*(i) is the j with mu(j-1) <= i < mu(j),
    where mu(0) = 0 and mu(p) = q+1."""
    p = mu.dom + 1
    q = mu.cod

    def ext(j):
        if j == 0:
            return 0
        if j == p:
            return q + 1
        return mu.values[j - 1]

    vals = []
    for i in range(1, q):
        for j in range(1, p + 1):
            if ext(j - 1) <= i < ext(j):
                vals.append(j)
                break
        else:
            raise OrdinalError("star_dual: no value found (malformed input)")
    return MonotoneMap(q - 1, p, tuple(vals))


def _outcome(f, mu):
    try:
        return f(mu)
    except OrdinalError as e:
        return str(e)


def test_star_dual_agrees_with_the_search():
    # every monotone map [m] -> [n] with m, n <= 5: the same map or the same error
    maps = [mu for m in range(6) for n in range(6) for mu in all_monotone_maps(m, n)]
    assert len(maps) == sum(comb(m + n - 1, m) if n else m == 0 for m in range(6) for n in range(6))
    errors = 0
    for mu in maps:
        got = _outcome(star_dual, mu)
        assert got == _outcome(reference_star_dual, mu), mu
        errors += isinstance(got, str)
    assert errors == 1  # [0] -> [0] has no dual [-1] -> [1]


def test_star_dual_epi_image_is_cut_set():
    for m in range(1, 7):
        for n in range(1, m + 1):
            for rho in all_epis(m, n):
                mono = star_dual_epi(rho)
                assert set(mono.values) == set(cut_set(rho))


def test_merge_is_join():
    for m in range(1, 6):
        for n1 in range(1, m + 1):
            for lam in all_epis(m, n1):
                for n2 in range(1, m + 1):
                    for mu in all_epis(m, n2):
                        joint, p1, p2 = merge(lam, mu)
                        assert compose(p1, lam) == joint
                        assert compose(p2, mu) == joint
                        assert cut_set(joint) == cut_set(lam) & cut_set(mu)
                        # any common coarsening factors through the join
                        for k in range(1, joint.cod + 1):
                            for tau in all_epis(joint.cod, k):
                                other = compose(tau, joint)
                                assert cut_set(other) <= cut_set(lam)


def test_ordered_coproduct():
    for m in range(4):
        for n in range(4):
            i1, i2 = ordered_coproduct(m, n)
            assert [i1(k) for k in range(1, m + 1)] == list(range(1, m + 1))
            assert [i2(k) for k in range(1, n + 1)] == list(range(m + 1, m + n + 1))


def test_relative_ordered_coproduct_universal_property():
    # for maps f: [a] -> [c], g: [b] -> [c] the relative coproduct glues the
    # domains over the common codomain and commutes with both legs
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for f in all_monotone_maps(a, c):
                    for g in all_monotone_maps(b, c):
                        j1, j2, proj = relative_ordered_coproduct(f, g)
                        assert proj.dom == a + b
                        assert compose(proj, j1) == f
                        assert compose(proj, j2) == g


@given(st.integers(1, 6), st.data())
def test_fiber_sizes_sum(m, data):
    n = data.draw(st.integers(1, m))
    epis = list(all_epis(m, n))
    rho = data.draw(st.sampled_from(epis))
    sizes = rho.fiber_sizes()
    assert sum(sizes) == m
    assert len(sizes) == n
    assert all(s >= 1 for s in sizes)
