"""The value types on the shared immutable base, and what importing costs.

Every value type compares, hashes, pickles and refuses mutation the same
way; each keeps its constructor's checks; the generated-style reprs are
pinned; and ``import torified`` loads no code generator.
"""

import ast
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONE_CORPUS, FAN_CORPUS
from references import identity_map
from test_lattice import rays_with_planted_functional
from test_monoids import cones_with_lineality, pointed_cones
from test_torify import chevalley_data

from torified.counting import CountCheck, CountingPolynomial, CountReport, ZetaFunction
from torified.errors import (
    DimensionMismatch,
    InvalidChevalleyData,
    InvalidCone,
    ShapeMismatch,
    ValidationReport,
)
from torified.gadgets import (
    CyclicMonoidWithZero,
    FiniteAbelianGroup,
    GradedPointSet,
    MonoidHom,
    TorifiedMap,
    cc_points,
    enumerate_monoid_homs,
)
from torified.intlinalg import mat_rank
from torified.lattice import Cone, Fan, dual_cone, standard_fan
from torified.monoids import (
    AffineMonoid,
    DScheme,
    DSchemePoint,
    MonoidPrime,
    dscheme_of_fan,
    monoid_of_cone,
    spec,
)
from torified.torify import (
    ChevalleyData,
    RegularityWitness,
    Torus,
    is_regular_toric,
    torify_affine_space,
    torify_grassmannian,
    torify_torus,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

# --- one strategy per value type ---------------------------------------------

# the constructor's parameters, in order: the fields
FIELDS = {
    ValidationReport: ("violations",),
    Cone: ("ambient_dim", "rays", "lineality"),
    Fan: ("ambient_dim", "cones"),
    AffineMonoid: ("ambient_rank", "generators", "unit_basis", "source_cone"),
    MonoidPrime: ("face_index", "face", "complement_rank"),
    DSchemePoint: ("index", "cone", "rank", "local_monoid"),
    DScheme: ("ambient_dim", "points", "specialization"),
    Torus: ("rank", "label"),
    ChevalleyData: ("torus_rank", "unipotent_dim", "cell_dims", "cell_labels"),
    RegularityWitness: ("regular", "closures"),
    CountingPolynomial: ("delta",),
    ZetaFunction: ("factors",),
    CountCheck: ("q", "counted", "oracle"),
    CountReport: ("checks",),
    FiniteAbelianGroup: ("cyclic_orders",),
    GradedPointSet: ("torification", "group", "points_by_index"),
    TorifiedMap: ("source", "target", "index_map", "matrices"),
    CyclicMonoidWithZero: ("m",),
    MonoidHom: ("monoid", "target", "values", "support_face"),
}


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


ints = st.integers(-50, 50)
groups = st.lists(st.integers(1, 4), max_size=2).map(lambda orders: FiniteAbelianGroup(tuple(orders)))
count_checks = st.builds(CountCheck, ints, ints, ints)
small_fans = st.sampled_from(
    list(FAN_CORPUS.values()) + [standard_fan("projective_space", 3), standard_fan("affine_space", 4)]
)
small_torifications = st.sampled_from(
    [torify_affine_space(2), torify_torus(1), torify_grassmannian(1, 3), torify_affine_space(0)]
)
cones = st.one_of(pointed_cones(), cones_with_lineality())
monoids = pointed_cones().map(monoid_of_cone)
# few generators, so that (m + 1)^generators hom candidates stay small
plane_monoids = st.sampled_from([c for c in CONE_CORPUS if c.ambient_dim <= 2]).map(monoid_of_cone)
targets = st.integers(1, 3).map(CyclicMonoidWithZero)


@st.composite
def zeta_factors(draw):
    roots = sorted(draw(st.lists(st.integers(-3, 6), unique=True, max_size=4)))
    exponents = st.integers(-3, 3).filter(bool)
    return tuple((r, draw(exponents)) for r in roots)


#: per value type, a strategy for valid constructor arguments
ARGS = {
    ValidationReport: st.tuples(st.lists(st.text(max_size=4), max_size=3).map(tuple)),
    Cone: cones.map(fields),
    Fan: small_fans.map(fields),
    AffineMonoid: monoids.map(fields),
    MonoidPrime: monoids.map(spec).flatmap(st.sampled_from).map(fields),
    DSchemePoint: small_fans.map(lambda f: dscheme_of_fan(f).points).flatmap(st.sampled_from).map(fields),
    DScheme: small_fans.map(dscheme_of_fan).map(fields),
    Torus: st.tuples(st.integers(0, 6), st.text(max_size=4)),
    ChevalleyData: chevalley_data().map(fields),
    RegularityWitness: small_fans.map(is_regular_toric).map(fields),
    CountingPolynomial: st.lists(ints, max_size=5).map(CountingPolynomial).map(fields),
    ZetaFunction: st.tuples(zeta_factors()),
    CountCheck: st.tuples(ints, ints, ints),
    CountReport: st.tuples(st.lists(count_checks, max_size=3).map(tuple)),
    FiniteAbelianGroup: st.tuples(st.lists(st.integers(1, 9), max_size=3).map(tuple)),
    GradedPointSet: st.builds(cc_points, small_torifications, groups).map(fields),
    TorifiedMap: small_torifications.map(identity_map).map(fields),
    CyclicMonoidWithZero: st.tuples(st.integers(1, 9)),
    MonoidHom: st.builds(enumerate_monoid_homs, plane_monoids, targets)
    .flatmap(st.sampled_from)
    .map(fields),
}

#: one value of each type, each of a class that no other entry has
SAMPLES = {
    ValidationReport: ValidationReport(),
    Cone: Cone(2, ((1, 0),)),
    Fan: FAN_CORPUS["P1"],
    AffineMonoid: monoid_of_cone(Cone(2, ((1, 0),))),
    MonoidPrime: spec(monoid_of_cone(Cone(2, ((1, 0),))))[0],
    DSchemePoint: dscheme_of_fan(FAN_CORPUS["P1"]).points[0],
    DScheme: dscheme_of_fan(FAN_CORPUS["P1"]),
    Torus: Torus(1),
    ChevalleyData: ChevalleyData(1, 1, (0, 1)),
    RegularityWitness: is_regular_toric(FAN_CORPUS["P1"]),
    CountingPolynomial: CountingPolynomial((1, 1)),
    ZetaFunction: ZetaFunction(((0, -1), (1, -1))),
    CountCheck: CountCheck(2, 3, 3),
    CountReport: CountReport((CountCheck(2, 3, 3),)),
    FiniteAbelianGroup: FiniteAbelianGroup((2,)),
    GradedPointSet: cc_points(torify_torus(1), FiniteAbelianGroup((2,))),
    TorifiedMap: identity_map(torify_torus(1)),
    CyclicMonoidWithZero: CyclicMonoidWithZero(2),
    MonoidHom: enumerate_monoid_homs(monoid_of_cone(Cone(2, ((1, 0),))), CyclicMonoidWithZero(1))[0],
}


def test_every_value_type_is_covered():
    assert set(FIELDS) == set(ARGS) == set(SAMPLES) and len(FIELDS) == 19
    assert all(cls._fields == names for cls, names in FIELDS.items())
    assert all(type(v) is cls for cls, v in SAMPLES.items())


# --- the shared value semantics ------------------------------------------------


@pytest.mark.parametrize("cls", list(ARGS), ids=lambda cls: cls.__name__)
@settings(max_examples=20)
@given(data=st.data())
def test_values_compare_hash_pickle_and_refuse_mutation(cls, data):
    args = data.draw(ARGS[cls])
    a, b = cls(*args), cls(*args)
    # equal fields: equal values, and the hash is that of the field tuple
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields(a))
    assert cls(*fields(a)) == a  # the fields are the constructor's arguments
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert fields(a) == fields(b)  # nothing was changed by the attempts
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is cls and back == a and hash(back) == hash(a)
    # a value never equals one of another class
    for other_cls, other in SAMPLES.items():
        if other_cls is not cls:
            assert a != other and not a == other


def test_equal_fields_of_different_classes_are_different_values():
    same = [ValidationReport(()), ZetaFunction(()), CountReport(()), FiniteAbelianGroup(())]
    assert len({hash(v) for v in same}) == 1  # the hash of the field tuple ((),)
    for i, a in enumerate(same):
        for b in same[i + 1 :]:
            assert a != b
    assert len(set(same)) == len(same)


@settings(max_examples=150)
@given(rays_with_planted_functional(max_dim=4))
@example((3, ((1, 0, 0), (0, 1, 0), (1, 1, 0))))  # a redundant ray: pruned, same rank
def test_cone_dim_is_the_rank_of_its_generators(case):
    n, rays = case
    cone = Cone(n, rays)
    assert cone.dim == mat_rank(rays)
    dual = dual_cone(cone)  # carries lineality when cone.dim < n
    again = Cone(n, dual.rays, dual.lineality)
    assert again.dim == mat_rank(dual.rays + dual.lineality) == dual.dim
    assert pickle.loads(pickle.dumps(again)).dim == again.dim


# --- constructor checks ----------------------------------------------------------

TORI = torify_affine_space(1)  # tori of ranks 0 and 1


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Torus(-1), ValueError, "torus rank must be nonnegative"),
        (lambda: Cone(-1), InvalidCone, "ambient dimension must be nonnegative"),
        (lambda: Cone(2, ((1, 2, 3),)), DimensionMismatch, "has length 3"),
        (lambda: Cone(2, ((0, 0),)), InvalidCone, "ray must be nonzero"),
        (lambda: Cone(2, ((2, 4),)), InvalidCone, "is not primitive"),
        (lambda: Cone(2, (), ((1, 0), (1, 0))), InvalidCone, "linearly independent"),
        (lambda: Cone(2, ((0, 1),), ((1, 1),)), InvalidCone, "orthogonal to the lineality"),
        (lambda: Cone(2, ((1, 0), (-1, 0))), InvalidCone, "not strictly convex"),
        (lambda: Fan(2, (Cone(3, ((1, 0, 0),)),)), DimensionMismatch, "fan of dimension 2"),
        (lambda: Fan(1, (Cone(1, (), ((1,),)),)), InvalidCone, "only strictly convex"),
        (lambda: ChevalleyData(-1, 0, (0,)), InvalidChevalleyData, "nonnegative integers"),
        (lambda: ChevalleyData(0, 0, ()), InvalidChevalleyData, "at least one cell"),
        (lambda: ChevalleyData(0, 2, (0, 1)), InvalidChevalleyData, "range from 0"),
        (lambda: ChevalleyData(0, 0, (0,), ("a", "b")), InvalidChevalleyData, "one label per cell"),
        (lambda: ZetaFunction(((1, 1), (0, 1))), ValueError, "strictly increasing"),
        (lambda: ZetaFunction(((0, 0),)), ValueError, "exponents must be nonzero"),
        (lambda: FiniteAbelianGroup((2, 0)), ValueError, "cyclic orders must be positive"),
        (lambda: CyclicMonoidWithZero(0), ValueError, "order >= 1"),
        (lambda: TorifiedMap(TORI, TORI, (0,), ((), ())), ShapeMismatch, "cover every source"),
        (lambda: TorifiedMap(TORI, TORI, (0, 1), ((),)), ShapeMismatch, "one matrix per"),
        (lambda: TorifiedMap(TORI, TORI, (0, 2), ((), ())), ShapeMismatch, "index 2 out of range"),
        (lambda: TorifiedMap(TORI, TORI, (0, 1), ((), ())), ShapeMismatch, "matrix 1 is 0x0, expected 1x1"),
    ],
)
def test_constructors_keep_their_checks(build, error, match):
    with pytest.raises(error, match=match):
        build()


# --- reprs -------------------------------------------------------------------------


def test_generated_style_reprs_are_pinned():
    assert repr(CountCheck(3, 8, 8)) == "CountCheck(q=3, counted=8, oracle=8)"
    assert (
        repr(MonoidPrime(0, Cone(2, ((1, 0),)), 1))
        == "MonoidPrime(face_index=0, face=Cone(dim 2, rays=[(1, 0)]), complement_rank=1)"
    )
    assert repr(Torus(2, "x")) == "Torus(rank=2, label='x')"
    assert repr(ValidationReport(("a",))) == "ValidationReport(violations=('a',))"
    assert repr(ChevalleyData(1, 1, (0, 1))) == (
        "ChevalleyData(torus_rank=1, unipotent_dim=1, cell_dims=(0, 1), "
        "cell_labels=('cell0', 'cell1'))"
    )
    assert (
        repr(CountReport((CountCheck(2, 1, 1),)))
        == "CountReport(checks=(CountCheck(q=2, counted=1, oracle=1),))"
    )
    # classes with their own repr keep it
    assert repr(FiniteAbelianGroup(())) == "Z/1"
    assert repr(CyclicMonoidWithZero(3)) == "mu_3 + 0"
    assert repr(Fan(1, ())) == "Fan(dim 1, 0 cones)"


# --- the import graph --------------------------------------------------------------

IMPORTS = """\
import sys
before = set(sys.modules)
import torified
library = set(sys.modules) - before
import torified.cli
command_line = set(sys.modules) - before - library
print(sorted(library))
print(sorted(command_line))
print(sorted(set(sys.modules) & {"dataclasses", "inspect", "ast", "dis", "tokenize"}))
"""


def test_import_loads_no_code_generator():
    """In a fresh interpreter, ``import torified`` adds only its own modules
    and ``__future__``, and ``torified.cli`` adds only what json needs (it
    imports argparse only for ``--help`` and usage errors); neither loads
    ``dataclasses`` or ``inspect``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", IMPORTS], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    library, command_line, generators = (ast.literal_eval(line) for line in out)
    assert "torified" in library
    assert {m for m in library if m.split(".")[0] != "torified"} <= {"__future__"}
    allowed = {"json", "_json", "torified.cli"}
    assert {m for m in command_line if m not in allowed and not m.startswith("json.")} == set()
    assert generators == []


def test_public_names_are_pinned():
    """``dir(torified)`` without modules and dunders: a public name is added
    or removed on purpose, by changing this count."""
    import types

    import torified

    names = [
        n for n in dir(torified)
        if not n.startswith("__") and not isinstance(getattr(torified, n), types.ModuleType)
    ]
    assert len(names) == 76
