"""Evaluating the point-set functors: groups on one side, monoids on the other.

Run: python demos/06_point_functors.py
"""

from torified import (
    Cone,
    CyclicMonoidWithZero,
    FiniteAbelianGroup,
    TorifiedMap,
    abelian_group_types,
    cc_points,
    chevalley_data_sl,
    enumerate_monoid_homs,
    induced_map,
    monoid_of_cone,
    oracle_point_count,
    soule_count_by_faces,
    torify_affine_space,
    torify_chevalley,
    torify_torus,
)

# Group side: the affine line over Z/2 has 1 + 2 points, graded by torus rank.
a1 = torify_affine_space(1)
pts = cc_points(a1, FiniteAbelianGroup((2,)))
print("A^1 at Z/2:", pts.total, "points, by grade:", pts.count_by_grade())

# The cardinality law: |X(D)| = N(|D| + 1), for every abelian group, with
# N(q) = |SL_2(F_q)| by the classical formula.
sl2 = torify_chevalley(chevalley_data_sl(2))
for group in abelian_group_types(8):
    total = cc_points(sl2, group).total
    ok = total == oracle_point_count("sl", 2, group.order + 1)
    print(f"SL(2) at {group}: {total} == N({group.order + 1}) -> {ok}")

# Maps act through integer matrices on each torus.
gm = torify_torus(1)
double = TorifiedMap(gm, gm, (0,), (((2,),),))
mapping = induced_map(double, FiniteAbelianGroup((5,)))
print("\ndoubling on Gm over Z/5:", {k[1]: v[1] for k, v in mapping.items()})

# Monoid side: maps into a cyclic group with zero, counted two ways.
sigma = Cone(2, ((1, 0), (1, 2)))
monoid = monoid_of_cone(sigma)
print("\nmaps out of the singular monoid:")
for m in range(1, 5):
    by_faces = soule_count_by_faces(monoid, m)
    by_enum = len(enumerate_monoid_homs(monoid, CyclicMonoidWithZero(m)))
    print(f"  m = {m}: face formula {by_faces}, enumeration {by_enum}")

homs = enumerate_monoid_homs(monoid, CyclicMonoidWithZero(1))
print("\nthe four maps at m = 1, with their support faces:")
for h in homs:
    print(f"  values {h.values} on generators, face rays {h.support_face.rays}")
