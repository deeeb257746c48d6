"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold, and asserts the
stated wall-clock limit.  Everything here is exact integer equality; there are
no tolerances anywhere.
"""

import time

from conftest import CONE_CORPUS, FAN_CORPUS, SINGULAR_CONE, SINGULAR_DUAL

from torified.counting import counting_polynomial, oracle_point_count, verify_counting, zeta
from torified.gadgets import (
    CyclicMonoidWithZero,
    abelian_group_types,
    enumerate_monoid_homs,
    hom_extend,
    hom_restrict,
    soule_count_by_faces,
)
from torified.intlinalg import dot
from torified.lattice import Cone, dual_cone, hilbert_basis, standard_fan, zero_cone
from torified.monoids import dscheme_of_fan, monoid_of_cone
from torified.torify import (
    chevalley_data_sl,
    delta_vector,
    product,
    torify_affine_space,
    torify_chevalley,
    torify_flag,
    torify_grassmannian,
    torify_point,
    torify_toric,
    torify_torus,
)

ORACLE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def compositions(n):
    """All ordered compositions of n into positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def timed(limit_seconds):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            if exc[0] is None:
                assert self.elapsed < limit_seconds, (
                    f"took {self.elapsed:.2f}s, limit {limit_seconds}s"
                )

    return _Timer()


def test_criterion_1_grassmannian_2_4_delta():
    with timed(1.0) as t:
        delta = delta_vector(torify_grassmannian(2, 4))
        assert delta == (6, 12, 11, 5, 1)
    print(f"\nACCEPTANCE 1 PASS: Gr(2,4) delta = (6,12,11,5,1)  [{t.elapsed:.3f}s]")


def test_criterion_2_sl2_bruhat():
    with timed(1.0) as t:
        tor = torify_chevalley(chevalley_data_sl(2))
        assert delta_vector(tor) == (0, 2, 3, 1)  # 2 Gm + 3 Gm^2 + Gm^3
        n_poly = counting_polynomial(tor)
        assert n_poly.mono == (0, -1, 0, 1)  # q^3 - q
        report = verify_counting(tor, "sl", 2, (2, 3, 4, 5, 7, 8, 9))
        assert report.ok
    print(f"\nACCEPTANCE 2 PASS: SL(2) = 2Gm + 3Gm^2 + Gm^3, N = q^3 - q  [{t.elapsed:.3f}s]")


def test_criterion_3_oracle_suite():
    with timed(30.0) as t:
        cases = []
        cases.append((torify_toric(FAN_CORPUS["P1"]), "projective", 1))
        cases.append((torify_toric(FAN_CORPUS["P2"]), "projective", 2))
        for n in range(0, 6):
            fan = standard_fan("affine_space", n)
            cases.append((torify_toric(fan), "toric", fan))
        for n in range(0, 5):
            cases.append((torify_torus(n) if n else torify_point(), "gm", n))
        sing = FAN_CORPUS["singular"]
        cases.append((torify_toric(sing), "toric", sing))
        for n in range(0, 7):
            for k in range(n + 1):
                cases.append((torify_grassmannian(k, n), "grassmannian", (k, n)))
        for n in range(1, 5):
            for comp in compositions(n):
                cases.append((torify_flag(comp), "flag", comp))
        for n in range(1, 4):
            cases.append((torify_chevalley(chevalley_data_sl(n)), "sl", n))
        checked = 0
        for tor, family, params in cases:
            report = verify_counting(tor, family, params, ORACLE_QS)
            assert report.ok, (family, params, report.checks)
            checked += len(report.checks)
    print(
        f"\nACCEPTANCE 3 PASS: {len(cases)} families x {len(ORACLE_QS)} prime powers"
        f" = {checked} exact oracle equalities  [{t.elapsed:.2f}s]"
    )


def test_criterion_4_delta_independence():
    with timed(5.0) as t:
        one = delta_vector(torify_affine_space(2))
        two = delta_vector(product(torify_affine_space(1), torify_affine_space(1)))
        three = delta_vector(torify_toric(standard_fan("affine_space", 2)))
        assert one == two == three == (1, 2, 1)
        pairs = 0
        for n in range(0, 7):
            for k in range(n + 1):
                comp = tuple(d for d in (k, n - k) if d > 0)
                assert delta_vector(torify_flag(comp)) == delta_vector(
                    torify_grassmannian(k, n)
                ), (k, n)
                pairs += 1
    print(
        f"\nACCEPTANCE 4 PASS: A^2 three ways = (1,2,1); flag/grassmannian deltas"
        f" agree on {pairs} pairs  [{t.elapsed:.2f}s]"
    )


def test_criterion_5_zeta_formulas():
    with timed(5.0) as t:
        expect = {
            "point": (torify_point(), "1/s"),
            "Gm": (torify_torus(1), "s/(s-1)"),
            "P1": (torify_toric(FAN_CORPUS["P1"]), "1/(s(s-1))"),
            "A1": (torify_affine_space(1), "1/(s-1)"),
            "P2": (torify_toric(FAN_CORPUS["P2"]), "1/(s(s-1)(s-2))"),
        }
        for name, (tor, rendered) in expect.items():
            assert zeta(counting_polynomial(tor)).render() == rendered, name
        families = [
            torify_point(),
            torify_torus(2),
            torify_affine_space(3),
            torify_toric(FAN_CORPUS["P2"]),
            torify_toric(FAN_CORPUS["singular"]),
            torify_grassmannian(2, 4),
            torify_flag((1, 1, 1)),
            torify_chevalley(chevalley_data_sl(2)),
            torify_chevalley(chevalley_data_sl(3)),
        ]
        for tor in families:
            n_poly = counting_polynomial(tor)
            assert sum(n_poly.mono) == n_poly.delta[0]
    print(f"\nACCEPTANCE 5 PASS: zeta zoo rendered exactly; sum(a_i) = delta_0  [{t.elapsed:.2f}s]")


def _builtin_torifications():
    """name: (torification, oracle family, oracle parameters)"""
    sing = FAN_CORPUS["singular"]
    return {
        "P1": (torify_toric(FAN_CORPUS["P1"]), "projective", 1),
        "P2": (torify_toric(FAN_CORPUS["P2"]), "projective", 2),
        "A2": (torify_affine_space(2), "affine", 2),
        "A3": (torify_affine_space(3), "affine", 3),
        "Gm2": (torify_torus(2), "gm", 2),
        "singular": (torify_toric(sing), "toric", sing),
        "Gr(1,3)": (torify_grassmannian(1, 3), "grassmannian", (1, 3)),
        "Gr(2,4)": (torify_grassmannian(2, 4), "grassmannian", (2, 4)),
        "Gr(2,5)": (torify_grassmannian(2, 5), "grassmannian", (2, 5)),
        "flag(1,1,1)": (torify_flag((1, 1, 1)), "flag", (1, 1, 1)),
        "flag(1,1,1,1)": (torify_flag((1, 1, 1, 1)), "flag", (1, 1, 1, 1)),
        "SL(2)": (torify_chevalley(chevalley_data_sl(2)), "sl", 2),
        "SL(3)": (torify_chevalley(chevalley_data_sl(3)), "sl", 3),
    }


def test_criterion_6_cc_cardinality():
    with timed(10.0) as t:
        groups = abelian_group_types(12)
        assert len(groups) == 17
        checked = 0
        for name, (tor, family, params) in _builtin_torifications().items():
            for group in groups:
                # one D^rank per torus, against the finite-field formula
                total = sum(group.order**rank for rank in tor.ranks())
                assert total == oracle_point_count(family, params, group.order + 1), (name, group)
                checked += 1
    print(
        f"\nACCEPTANCE 6 PASS: functor cardinality = N(|D|+1) for"
        f" {checked} (torification, group) pairs  [{t.elapsed:.2f}s]"
    )


def test_criterion_7_alpha_beta():
    with timed(10.0) as t:
        smooth_cones = [
            Cone(1, ((1,),)),
            Cone(2, ((1, 0), (0, 1))),
            Cone(2, ((1, 0),)),
            zero_cone(2),
            Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            Cone(3, ((1, 0, 0), (0, 1, 0))),
            Cone(3, ((1, 0, 0),)),
        ]
        total_checked = 0
        for cone in smooth_cones + [SINGULAR_CONE]:
            monoid = monoid_of_cone(cone)
            for m in range(1, 7):
                target = CyclicMonoidWithZero(m)
                homs = enumerate_monoid_homs(monoid, target)
                assert len(homs) == soule_count_by_faces(monoid, m), (cone, m)
                for h in homs:
                    face, units = hom_restrict(h)
                    assert hom_extend(monoid, target, face, units).values == h.values
                total_checked += len(homs)
        singular_m1 = enumerate_monoid_homs(
            monoid_of_cone(SINGULAR_CONE), CyclicMonoidWithZero(1)
        )
        assert len(singular_m1) == 4
        rel = monoid_of_cone(SINGULAR_CONE)
        assert rel.generators == ((0, 1), (1, 0), (2, -1))
    print(
        f"\nACCEPTANCE 7 PASS: face formula = brute-force count, {total_checked} maps"
        f" round-tripped; singular m=1 has exactly 4  [{t.elapsed:.2f}s]"
    )


def test_criterion_8_monoid_scheme_points():
    with timed(5.0) as t:
        for name, fan in FAN_CORPUS.items():
            ds = dscheme_of_fan(fan)
            assert len(ds.points) == len(fan.cones), name
            for point, cone in zip(ds.points, fan.cones):
                assert point.rank == fan.ambient_dim - cone.dim
                assert point.local_monoid.unit_rank == point.rank
            inclusion = set()
            for i, small in enumerate(fan.cones):
                for j, big in enumerate(fan.cones):
                    if i != j and all(big.contains(r) for r in small.rays):
                        inclusion.add((i, j))
            assert set(ds.specialization) == inclusion, name
    print(
        f"\nACCEPTANCE 8 PASS: {len(FAN_CORPUS)} fans: point/cone bijection, ranks,"
        f" and specialization order  [{t.elapsed:.2f}s]"
    )


def test_criterion_9_hilbert_suite():
    with timed(5.0) as t:
        assert len(CONE_CORPUS) >= 20
        assert SINGULAR_CONE in CONE_CORPUS and SINGULAR_DUAL in CONE_CORPUS
        for cone in CONE_CORPUS:
            basis = hilbert_basis(cone)
            basis_set = set(basis)
            # minimality: no element is a sum of two basis elements
            for h in basis:
                for a in basis:
                    rest = tuple(x - y for x, y in zip(h, a))
                    assert not (any(rest) and rest in basis_set), (cone, h)
            # dual membership: basis of the dual pairs >= 0 with the rays
            if cone.dim == cone.ambient_dim:
                dual = dual_cone(cone)
                for u in hilbert_basis(dual):
                    assert all(dot(u, v) >= 0 for v in cone.rays)
                # double dual identity
                assert dual_cone(dual) == cone
    print(
        f"\nACCEPTANCE 9 PASS: Hilbert minimality, dual membership, double dual"
        f" on {len(CONE_CORPUS)} cones  [{t.elapsed:.2f}s]"
    )
