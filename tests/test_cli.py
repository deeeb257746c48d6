"""Command line: payloads, exit codes, determinism, and file handling."""

import ast
import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from itertools import product as iproduct
from json.encoder import encode_basestring_ascii
from math import comb
from types import SimpleNamespace
from typing import Callable

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import clear_caches, compositions
from references import affine_cell_runs, counts_by_index, dumps
from test_gadgets import pointed_cones
from test_lattice import time_limit

from torified import cli, counting, gadgets, intlinalg, lattice, monoids, torify
from torified.cli import main, torification_from_dict
from torified.counting import oracle_point_count, verify_counting
from torified.errors import BudgetExceeded
from torified.gadgets import (
    CyclicMonoidWithZero,
    FiniteAbelianGroup,
    MonoidHom,
    cc_points,
    enumerate_monoid_homs,
)
from torified.lattice import Cone, faces, maximal_cones
from torified.monoids import monoid_of_cone
from torified.torify import (
    Torification,
    Torus,
    delta_sl,
    delta_vector,
    product,
    torify_grassmannian,
    torify_toric,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_torify_grassmannian(capsys):
    code, data, _ = run_json(capsys, "torify", "grassmannian", "2", "4")
    assert code == 0
    assert data["result"]["delta"] == [6, 12, 11, 5, 1]
    assert data["result"]["charts"] is None
    assert data["tool"]["name"] == "torified"


def test_zeta_gm(capsys):
    code, data, _ = run_json(capsys, "zeta", "--family", "gm", "1")
    assert code == 0
    assert data["result"]["factors"] == [[0, 1], [1, -1]]
    assert data["result"]["rendered"] == "s/(s-1)"


def test_verify_sl2(capsys):
    code, data, _ = run_json(capsys, "verify", "--family", "sl", "2", "--q", "2,3,5,7")
    assert code == 0
    assert data["result"]["ok"] is True
    assert len(data["result"]["checks"]) == 4
    assert all(c["equal"] for c in data["result"]["checks"])


def test_count_values(capsys):
    code, data, _ = run_json(capsys, "count", "--family", "sl", "2", "--q", "2,3")
    assert code == 0
    assert data["result"]["mono"] == [0, -1, 0, 1]
    assert data["result"]["values"] == {"2": 6, "3": 24}


def test_load_fan_p2(capsys):
    code, data, _ = run_json(capsys, "dscheme", "--fan", os.path.join(DATA, "p2_fan.json"))
    assert code == 0
    points = data["result"]["points"]
    assert len(points) == 7
    assert sorted((p["rank"] for p in points), reverse=True) == [2, 1, 1, 1, 0, 0, 0]


def test_spec_singular_cone(capsys):
    code, data, _ = run_json(capsys, "spec", "--cone", "1,0;1,2")
    assert code == 0
    points = data["result"]["points"]
    assert len(points) == 4
    gens = {tuple(map(tuple, p["generators"])) for p in points}
    assert ((0, 1), (1, 0), (2, -1)) in gens


def test_spec_takes_one_hilbert_basis_for_all_faces(capsys, monkeypatch):
    # on a non-simplicial 4-D cone the basis of the cone's own monoid is the
    # only one computed, and no face's units come from a kernel
    rays = ((1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (1, 1, 3, 1))
    cone = Cone(4, rays)
    assert not cone.is_simplicial and cone.dim == 4
    clear_caches()
    named, computed, kernels = [], [], []

    def counted_hilbert_basis(c, of, *known, monoid_basis=monoids._monoid_basis):
        named.append(of)
        return monoid_basis(c, of, *known)

    def counted_basis(basis):
        def recorded(c, *known):
            computed.append(c)
            return basis(c, *known)
        return recorded

    def counted_kernel(*args):
        kernels.append(args)
        return intlinalg.kernel_basis(*args)

    monkeypatch.setattr(monoids, "_monoid_basis", counted_hilbert_basis)
    monkeypatch.setattr(monoids, "_basis", counted_basis(monoids._basis))
    monkeypatch.setattr(monoids, "kernel_basis", counted_kernel)
    code, data, _ = run_json(capsys, "spec", "--cone", ";".join(",".join(map(str, r)) for r in rays))
    assert code == 0
    assert len(data["result"]["points"]) == len(faces(cone))
    assert named == [cone]
    assert len(computed) == 1
    assert kernels == []


def test_soule_singular(capsys):
    code, data, _ = run_json(capsys, "soule", "--m", "1", "--cone", "1,0;1,2", "--elements")
    assert code == 0
    result = data["result"]
    assert result["face_count"] == 4
    assert result["enumerated_count"] == 4
    assert result["match"] is True
    assert len(result["homs"]) == 4


def test_soule_kernel_needs_coefficients_beyond_one(capsys):
    # the relation among the Hilbert basis (0,1),(1,0),(7,-1) has coefficient
    # 7, which a coordinate box search of radius 6 missed (exit 2 before)
    code, data, err = run_json(capsys, "soule", "--m", "2", "--cone", "1,0;1,7")
    assert code == 0 and err == ""
    result = data["result"]
    assert result["enumerated_count"] == result["face_count"] == 9


@pytest.mark.parametrize("cone", ["1,0;2,5", "1,0;3,7"])
def test_soule_at_kernel_rank_two(capsys, cone):
    # a lattice basis of all relations over-counted these (15 and 33 homs)
    code, data, err = run_json(capsys, "soule", "--m", "2", "--cone", cone)
    assert code == 0 and err == ""
    result = data["result"]
    assert result["enumerated_count"] == result["face_count"] == 9
    assert result["match"] is True


def test_gadget_counts(capsys):
    code, data, _ = run_json(capsys, "gadget", "--group", "2", "--family", "sl", "2")
    assert code == 0
    result = data["result"]
    assert result["total"] == 24 and result["expected"] == 24 and result["match"]
    assert result["by_grade"] == {"1": 4, "2": 12, "3": 8}


def test_gadget_elements_round_trip(capsys):
    code, data, _ = run_json(
        capsys, "gadget", "--group", "2,3", "--family", "projective", "1"
    )
    assert code == 0
    assert data["result"]["total"] == 6 + 1 + 1  # N(7) = 8


@contextlib.contextmanager
def _unlimited_int_text():
    """Lift Python's limit on the digits of an int's text (3.10.7 on) for the
    block, as ``main`` does while it writes an envelope."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget", "--group", "2", "--family", "torus", "20000"],
        ["verify", "--family", "affine", "15000", "--q", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_ints_past_the_digit_limit_are_written_in_full(capsys, argv):
    """2^20000 and 2^15000 have more than the 4,300 digits that str() gives
    an int by default; the limit is back in place once ``main`` returns."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    with _unlimited_int_text():
        result = json.loads(out)["result"]
    if argv[0] == "gadget":
        assert result["expected"] == result["total"] == 2**20000 and result["match"]
    else:
        assert result["checks"] == [{"q": 2, "counted": 2**15000, "oracle": 2**15000, "equal": True}]


def _taylor_shifts(monkeypatch) -> list[int]:
    """The steps of the Taylor shifts that run from now on: -1 from the
    (q-1)-basis to the monomial one, +1 back."""
    steps, shift = [], torify._taylor_shift

    def spy(coeffs, step):
        steps.append(step)
        return shift(coeffs, step)

    monkeypatch.setattr(torify, "_taylor_shift", spy)
    monkeypatch.setattr(counting, "_taylor_shift", spy)
    return steps


@pytest.mark.parametrize(
    "family",
    [["grassmannian", "6", "12"], ["flag", "2", "2", "2"], ["sl", "5"], ["affine", "7"],
     ["projective", "7"], ["torus", "7"]],
    ids=" ".join,
)
@pytest.mark.parametrize(
    "argv", [["verify", "--q", "2,3,5"], ["gadget", "--group", "2,3"], ["count", "--q", "2,3,5"], ["zeta"]],
    ids=lambda argv: argv[0],
)
def test_only_count_and_zeta_change_the_basis(capsys, monkeypatch, family, argv):
    """A family's record gives its monomial row with no shift, and its delta
    vector with one on a cell family (a Grassmannian or flag type shifts its
    cell polynomial by +1, ``delta_sl`` shifts once) and none on the others:
    ``zeta`` reads only the row, ``verify`` and ``gadget`` only the delta."""
    seen = _taylor_shifts(monkeypatch)
    code, _, _ = run(capsys, argv[0], "--family", *family, *argv[1:])
    cells = family[0] in ("grassmannian", "flag", "sl")
    assert code == 0 and seen == ([1] if cells and argv[0] != "zeta" else [])


FLAT_TORIFICATIONS = st.lists(st.builds(Torus, st.integers(0, 3)), max_size=5).map(Torification)


@st.composite
def built_torifications(draw):
    """Flat torifications, and products and relabelings of them."""
    t = draw(FLAT_TORIFICATIONS)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            t = product(t, draw(FLAT_TORIFICATIONS))
        else:
            t = t.relabeled(draw(st.sampled_from(["", "p", "p/q"])))
    return t


@settings(max_examples=60, deadline=None)
@given(built_torifications(), st.lists(st.integers(1, 4), max_size=2))
def test_point_counts_by_grade_are_the_per_torus_sums(t, orders):
    group = FiniteAbelianGroup(tuple(orders))
    per_torus = counts_by_index(t, group)
    by_grade: dict[int, int] = {}
    for rank, c in zip(t.ranks(), per_torus):
        by_grade[rank] = by_grade.get(rank, 0) + c
    pts = cc_points(t, group)
    assert pts.total == sum(per_torus)
    assert pts.count_by_grade() == by_grade and list(pts.count_by_grade()) == sorted(by_grade)
    args = SimpleNamespace(group=",".join(map(str, orders)), family=None, torification="t.json",
                           elements=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "load_torification", lambda path: t)
        payload, code = cli.cmd_gadget(args)
    assert code == 0 and payload["total"] == sum(per_torus)
    assert payload["by_grade"] == {str(r): c for r, c in by_grade.items()}


def assert_file_gadget_matches(direct: dict, via_file: dict) -> None:
    """A `gadget --torification FILE` payload is the family's, except that a
    file has no finite-field formula: its `expected` and `match` are null."""
    assert direct["match"] is True
    assert via_file["expected"] is None and via_file["match"] is None
    unchecked = ("expected", "match")
    assert {k: v for k, v in direct.items() if k not in unchecked} == {
        k: v for k, v in via_file.items() if k not in unchecked
    }


def test_gadget_text_format_names_a_missing_oracle(tmp_path, capsys):
    code, out, _ = run(capsys, "torify", "projective", "1")
    path = tmp_path / "p1.json"
    path.write_text(out)
    argv = ["gadget", "--group", "2", "--format", "text"]
    code, out, _ = run(capsys, *argv, "--family", "projective", "1")
    assert code == 0 and out == "|X(D)| = 4 (expected 4): ok\nby grade: {'0': 2, '1': 2}\n"
    code, out, _ = run(capsys, *argv, "--torification", str(path))
    assert code == 0 and out == "|X(D)| = 4 (expected None): no oracle\nby grade: {'0': 2, '1': 2}\n"


# --- checks that can fail: each field that sets exit 1, flipped by perturbing one side


def _bump_delta_1(monkeypatch):
    """sl 2 counted with one more torus of rank 1 than it has: the delta
    side moves, the finite-field formula does not."""

    def bumped(n):
        delta = delta_sl(n)
        return (delta[0], delta[1] + 1) + delta[2:]

    monkeypatch.setattr(counting, "delta_sl", bumped)


def _drop_one_relation(monkeypatch):
    """The enumerated side counts without one relation; the face formula is untouched."""
    supports = gadgets._supports

    def dropped(monoid, target):
        for support, relations, face in supports(monoid, target):
            yield support, relations[1:], face

    monkeypatch.setattr(gadgets, "_supports", dropped)


def _drop_the_zero_cone(monkeypatch):
    """The fan of a file without its zero cone, a face of every cone."""
    read = cli.fan_from_dict

    def without_zero_cone(*args, **kwargs):
        fan = read(*args, **kwargs)
        return lattice.Fan(fan.ambient_dim, fan.cones[1:])

    monkeypatch.setattr(cli, "fan_from_dict", without_zero_cone)


P2_FAN = os.path.join(DATA, "p2_fan.json")

#: (the function in cli.py that sets exit 1, the payload field that says why):
#: a command that passes the check, and a perturbation of one side that fails it
FLIPS = {
    ("cmd_gadget", "match"): (["gadget", "--group", "2", "--family", "sl", "2"], _bump_delta_1),
    ("cmd_soule", "match"): (["soule", "--m", "3", "--cone", "1,0;1,2"], _drop_one_relation),
    ("cmd_verify", "ok"): (["verify", "--q", "2,3", "--family", "sl", "2"], _bump_delta_1),
    ("cmd_validate_fan", "valid"): (["validate-fan", P2_FAN], _drop_the_zero_cone),
    ("load_fan", "valid"): (["dscheme", "--fan", P2_FAN], _drop_the_zero_cone),
}


@pytest.mark.parametrize("check", list(FLIPS), ids=lambda c: ".".join(c))
def test_a_check_with_one_side_perturbed_fails(check, monkeypatch, capsys):
    argv, perturb = FLIPS[check]
    code, data, _ = run_json(capsys, *argv)
    # a dscheme payload has a `valid` field only when its fan fails
    assert data["result"].get(check[1], True) is True and code == 0
    perturb(monkeypatch)
    code, data, _ = run_json(capsys, *argv)
    assert data["result"][check[1]] is False and code == 1
    if check[0] == "cmd_verify":
        assert [c["equal"] for c in data["result"]["checks"]] == [False, False]


def test_every_check_has_a_flip():
    """Every function of cli.py that sets exit 1 (``CHECK_FAILED``, or a
    ``ValidationFailure`` raised) is in FLIPS, with a field that it writes."""
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    setters = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name != "main":
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if names & {"CHECK_FAILED", "ValidationFailure"}:
                setters[node.name] = {
                    n.value for n in ast.walk(node) if isinstance(n, ast.Constant)
                }
    assert set(setters) == {name for name, _ in FLIPS}
    for name, field in FLIPS:
        assert field in setters[name]


def test_non_primitive_ray_normalized_with_warning(capsys):
    code, data, err = run_json(
        capsys, "validate-fan", os.path.join(DATA, "nonprimitive_fan.json")
    )
    assert code == 0
    assert data["result"]["valid"] is True
    assert "normalized non-primitive ray [2, 0]" in err


def test_overlap_fan_fails_validation(capsys):
    code, data, _ = run_json(capsys, "validate-fan", os.path.join(DATA, "overlap_fan.json"))
    assert code == 1
    assert data["result"]["valid"] is False
    assert data["result"]["violations"]


def test_overlap_fan_violations_name_maximal_cones(capsys):
    path = os.path.join(DATA, "overlap_fan.json")
    code, data, _ = run_json(capsys, "validate-fan", path)
    assert code == 1 and data["result"]["valid"] is False
    fan = cli.load_fan(path, validate=False)
    tops = {fan.cones[i].rays for i in maximal_cones(fan)}
    assert data["result"]["violations"]
    for violation in data["result"]["violations"]:
        named = [tuple(ast.literal_eval(m)) for m in re.findall(r"\[[^\[\]]*\]", violation)]
        assert len(named) == 2 and all(rays in tops for rays in named), violation


def test_overlap_fan_blocks_torify(capsys):
    code, data, _ = run_json(
        capsys, "torify", "toric", os.path.join(DATA, "overlap_fan.json")
    )
    assert code == 1
    assert data["result"]["valid"] is False


@pytest.mark.parametrize(
    "data",
    [
        # index -1 once meant the last ray, and this fan was reported valid
        {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, -1]], "close_faces": True},
        {"dim": 2, "rays": 5, "cones": []},
        {"dim": 2, "rays": [[1, 0]], "cones": [0]},
        {"dim": 2, "rays": [[1, 0]], "cones": [[0.5]]},
    ],
)
@pytest.mark.parametrize("subcommand", [["validate-fan"], ["dscheme", "--fan"]])
def test_malformed_fan_file_is_usage_error(capsys, tmp_path, data, subcommand):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *subcommand, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_broken_json_is_usage_error(capsys):
    code, out, err = run(capsys, "dscheme", "--fan", os.path.join(DATA, "broken.json"))
    assert code == 2
    assert "line" in err and "column" in err


def test_unknown_family_is_usage_error(capsys):
    code, out, err = run(capsys, "torify", "elliptic", "1")
    assert code == 2
    assert "unknown family" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_bad_cone_is_usage_error(capsys):
    code, _, err = run(capsys, "spec", "--cone", "1,0;3,0")
    assert code == 2  # (3,0) is not primitive
    assert "invalid cone" in err


def test_cone_containing_a_line_is_usage_error(capsys):
    # all of R^2, not the quadrant left after dropping (1,1) and a sign pair
    code, out, err = run(capsys, "spec", "--cone", "1,0;-1,0;0,1;0,-1;1,1")
    assert code == 2 and out == ""
    assert "is not strictly convex" in err


def test_spec_of_non_simplicial_cone_in_dimension_5(capsys):
    cone = "0,0,1,0,0;1,0,1,0,0;0,1,1,0,0;1,1,1,0,0;0,0,0,1,0;0,0,0,0,1"
    code, data, _ = run_json(capsys, "spec", "--cone", cone)
    assert code == 0
    assert len(data["result"]["points"]) == 40


def test_spec_refuses_an_over_budget_hilbert_basis(capsys, monkeypatch):
    # the dual of (0,1),(5001,-1) is (1,0),(1,5001): 5,002 basis elements
    clear_caches()
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    code, out, err = run(capsys, "spec", "--cone", "0,1;5001,-1")
    assert code == 2 and out == ""
    assert "5002 elements exceed the budget of 1000" in err


def test_spec_budget_error_names_the_given_cone(capsys, monkeypatch):
    # the basis is computed modulo the units, on a 2-D cone the user never gave
    clear_caches()
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    code, out, err = run(capsys, "spec", "--cone", "0,1,0;5001,-1,0")
    assert code == 2 and out == ""
    assert (
        "Hilbert basis of the monoid of Cone(dim 3, rays=[(0, 1, 0), (5001, -1, 0)]): "
        "5002 elements exceed the budget of 1000"
    ) in err
    assert "Cone(dim 2" not in err


@pytest.mark.parametrize("cone", ["1,0;1,5001", "1,0,0;1,5001,0"])
def test_spec_of_a_thin_cone_with_a_small_basis_fits_a_small_budget(capsys, monkeypatch, cone):
    # the dual has volume 5001 but 3 generators; the 2-D budget counts those
    clear_caches()
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    code, data, _ = run_json(capsys, "spec", "--cone", cone)
    assert code == 0
    assert len(data["result"]["points"][-1]["generators"]) == 3


def test_spec_of_a_cone_of_volume_200000_is_quick(capsys):
    # the parallelepiped of its dual held 200,000 candidates: 3.3 s and 88 MB
    clear_caches()
    with time_limit(2):
        code, data, _ = run_json(capsys, "spec", "--cone", "1,0;1,200000")
    assert code == 0
    assert data["result"]["points"][-1]["generators"] == [[0, 1], [1, 0], [200000, -1]]


def test_spec_dualises_only_the_cone_and_its_dual_in_the_ambient_lattice(capsys, monkeypatch):
    # a proper face's monoid is localized from the cone's, and a lone monoid
    # of a lower-dimensional cone would be dualised in the section
    # coordinates of its generators; in Z^4 only the cone (for its monoid) and its dual (for the
    # dual's Hilbert basis) are dualised
    clear_caches()
    dimensions = []
    dual_pair = lattice._dual_pair

    def counted_dual_pair(generators, n):
        dimensions.append(n)
        return dual_pair(generators, n)

    monkeypatch.setattr(lattice, "_dual_pair", counted_dual_pair)
    monkeypatch.setattr(monoids, "_dual_pair", counted_dual_pair)
    code, data, _ = run_json(capsys, "spec", "--cone=1,0,0,0;0,1,0,0;0,0,1,0;1,1,1,5")
    assert code == 0 and len(data["result"]["points"]) == 16
    assert dimensions.count(4) <= 2


def test_spec_validates_no_fan_and_dscheme_validates_its_file(capsys, monkeypatch):
    # the faces of one cone are a fan by construction; a fan file is checked
    checked = []
    validate = lattice.validate_fan

    def counted(fan):
        checked.append(fan)
        return validate(fan)

    monkeypatch.setattr(lattice, "validate_fan", counted)
    code, data, _ = run_json(capsys, "spec", "--cone", "1,0,0;1,2,0;1,1,5")
    assert code == 0 and len(data["result"]["points"]) == 8
    assert checked == []
    code, data, _ = run_json(capsys, "dscheme", "--fan", P2_FAN)
    assert code == 0 and len(data["result"]["points"]) == 7
    assert checked


@pytest.mark.parametrize("cone", ["1,0,0;0,1,0;1,1,5", "1,0,0,0;0,1,0,0;0,0,1,0;1,1,1,5"])
def test_spec_of_a_simplicial_cone_reduces_each_monoid_once(capsys, monkeypatch, cone):
    # a simplicial cone's Hilbert basis comes from its one elimination: no
    # triangulation (whose pieces' determinants the budget reads) and no
    # dual for the facet normals
    clear_caches()
    called = []

    def recorded(name):
        return lambda *args: called.append(name)

    for name in ("_triangulated_basis", "facet_normals"):
        monkeypatch.setattr(lattice, name, recorded(name))
    code, data, _ = run_json(capsys, "spec", f"--cone={cone}")
    assert code == 0 and called == []
    assert len(data["result"]["points"]) == 2 ** len(cone.split(";"))


@pytest.mark.parametrize("elements", [False, True])
def test_soule_builds_homs_only_to_list_them(capsys, monkeypatch, elements):
    made = []
    init = MonoidHom.__init__

    def counted(self, *args):
        made.append(args[2])
        init(self, *args)

    monkeypatch.setattr(MonoidHom, "__init__", counted)
    argv = ["soule", "--m", "3", "--cone", "1,0,0;0,1,0;1,1,5"] + ["--elements"] * elements
    code, data, _ = run_json(capsys, *argv)
    assert code == 0 and data["result"]["match"] is True
    assert data["result"]["enumerated_count"] == 64
    assert len(made) == (64 if elements else 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--q=--", "--family", "affine", "1"],
        ["spec", "--cone=--"],
        ["count", "--family", "affine", "1", "--torification=--"],
        ["soule", "--m=--", "--cone", "1,0"],
        ["count", "--family", "affine", "1", "--format=--"],
    ],
    ids=lambda argv: next(a for a in argv if a.endswith("=--")),
)
def test_a_dropped_value_is_a_usage_error(capsys, argv):
    # argparse reads `--opt=--` as no value and returns []: a usage error,
    # with no traceback and nothing echoed
    code, out, err = run(capsys, *argv)
    name = next(a for a in argv if a.endswith("=--")).partition("=")[0]
    assert (code, out) == (2, "")
    assert err == f"error: argument {name}: expected one argument\n"


def test_parser_built_once_and_stateless(capsys):
    calls = [
        ("count", "--family", "grassmannian", "2", "4", "--q", "2,3"),
        ("count", "--family"),  # usage error
        ("--help",),
        ("spec", "--cone", "1,0;1,2"),
        ("soule", "--m", "2", "--cone", "1,0;1,2"),
        ("count", "--bogus"),
        ("count", "--family", "grassmannian", "2", "4", "--q", "2,3"),
    ]

    def outcome(argv):
        code, out, _ = run(capsys, *argv)
        return code, re.sub(r'\n *"timing_ms": [^\n]*', "", out)

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _ in fresh] == [0, 2, 0, 0, 0, 2, 0]
    shared = [outcome(argv) for argv in calls]
    assert shared == fresh
    assert cli.build_parser() is cli.build_parser()


P2 = os.path.join(DATA, "p2_fan.json")
WELL_FORMED = [
    # the README examples
    ("torify", "grassmannian", "2", "4"),
    ("torify", "toric", P2),
    ("count", "--family", "sl", "2", "--q", "2,3,5"),
    ("zeta", "--family", "gm", "1"),
    ("spec", "--cone", "1,0;1,2"),
    ("dscheme", "--fan", P2),
    ("gadget", "--group", "2,3", "--family", "sl", "2"),
    ("soule", "--m", "4", "--cone", "1,0;1,2"),
    ("verify", "--family", "sl", "2", "--q", "2,3,5,7"),
    ("validate-fan", P2),
    # the forms of the benchmark plans
    ("count", "--family", "grassmannian", "2", "4"),
    ("verify", "--q", "2,3", "--family", "flag", "1", "2"),
    ("gadget", "--elements", "--group", "2", "--family", "affine", "1"),
    ("torify", "flag", "1", "1", "1"),
    ("spec", "--cone=1,0,0;0,1,0;1,1,3"),
    ("soule", "--m", "3", "--cone=1,0;1,2"),
    ("verify", "--q", "2,3", "--family", "toric", P2),
    # a negative int as a value, an explicit --format, a cone with a negative first coordinate
    ("torify", "torus", "-2"),
    ("count", "--format", "text", "--family", "affine", "1"),
    ("zeta", "--family", "gm", "1", "--format=json"),
    ("spec", "--cone=-1,0;0,1"),
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda argv: " ".join(map(os.path.basename, argv)))
def test_well_formed_commands_do_not_build_the_parser(capsys, argv):
    cli.build_parser.cache_clear()
    code, _, err = run(capsys, *argv)
    # the negative rank reaches the library, which refuses it
    refused = (2, "error: torus rank must be nonnegative\n")
    assert (code, err) == (refused if "-2" in argv else (0, ""))
    assert cli.build_parser.cache_info().misses == 0


@pytest.mark.parametrize("argv, code", [(("--help",), 0), (("count", "--bogus"), 2)],
                         ids=["--help", "count --bogus"])
def test_help_and_usage_errors_build_the_parser(capsys, argv, code):
    cli.build_parser.cache_clear()
    assert run(capsys, *argv)[0] == code
    assert cli.build_parser.cache_info().misses == 1


def test_negative_cone_needs_the_equals_form(capsys):
    """``--cone -1,0;0,1`` reads as an unknown option (argparse's rule for a
    dash-led value that is not a number), so the cone goes after ``=``."""
    code, data, _ = run_json(capsys, "spec", "--cone=-1,0;0,1")
    assert code == 0 and data["input"]["args"]["cone"] == "-1,0;0,1"
    code, out, err = run(capsys, "spec", "--cone", "-1,0;0,1")
    assert code == 2 and out == "" and "expected one argument" in err


def _argparse_vars(argv):
    """``vars`` of argparse's namespace for ``argv``, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


VALUES = st.sampled_from(
    ["affine", "1", "2", "2,3", "1,0;1,2", "json", "text", "x", "-2", "-0", "-1,0", "-1,0;0,1",
     "-1.5", "-1 0", "1_0", " 2", "+3", "\u0663", "-\u0663", "-\u00b2", "", "-", "--", "-h",
     "--help"]
) | st.text(max_size=3)
OPTIONS = sorted({a[0] for _, args in cli._COMMANDS.values() for a in args if a[0][0] == "-"}
                 | {"--format"})
# each option exact, as --opt=value, abbreviated; and the tokens argparse reads specially
TOKENS = (
    VALUES
    | st.sampled_from(OPTIONS)
    | st.builds("{}={}".format, st.sampled_from(OPTIONS), VALUES)
    | st.builds(lambda o, k: o[:k], st.sampled_from(OPTIONS), st.integers(1, 4))
)


@st.composite
def argvs(draw):
    """A well-formed argv of a subcommand, drawn from the grammar table,
    then perhaps bent: tokens inserted, replaced or dropped."""
    command = draw(st.sampled_from(list(cli._COMMANDS) + ["", "bogus", "-h"]))
    pieces = []
    for name, arity, required, _ in cli._COMMANDS.get(command, ("", ()))[1] + (("--format", "1", False, None),):
        if draw(st.integers(0, 9)) < (1 if required else 5):  # left out 1 in 10, or 1 in 2
            continue
        count = draw(st.integers(1, 3)) if arity == "+" else 1
        values = draw(st.lists(VALUES, min_size=count, max_size=count))
        if arity == "int":
            values = [draw(st.sampled_from(["2", "-1", "1_0", " 2", "x"]))]
        if name == "--format":
            values = [draw(st.sampled_from(["json", "text", "xml"]))]
        if name[0] != "-":
            pieces.append(values)
        elif arity == "":
            pieces.append([name])
        elif arity != "+" and draw(st.booleans()):
            pieces.append([name + "=" + values[0]])
        else:
            pieces.append([name, *values])
    pieces = draw(st.permutations(pieces))
    argv = [command] + [token for piece in pieces for token in piece]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "drop"]))
        if edit == "insert":
            argv.insert(i, draw(TOKENS))
        elif i < len(argv):
            argv[i:i + 1] = [draw(TOKENS)] if edit == "replace" else []
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["torify", "torus", "-2"])
@example(["torify", "torus", "--format", "text", "2"])
@example(["validate-fan", "a", "b"])
@example(["validate-fan", "--format", "text"])
@example(["soule", "--cone=1,0"])
@example(["spec", "--cone=--"])
@example(["spec", "--cone="])
@example(["soule", "--m", "1_0", "--cone", "1,0"])
@example(["soule", "--m", " 2", "--cone", "1,0"])
@example(["soule", "--m", "x", "--cone", "1,0"])
@example(["soule", "--m", "-2", "--cone", "1,0", "--elements"])
@example(["count", "--family=affine", "1"])
@example(["count", "--family", "affine", "-1", "--q", "-3"])
@example(["count", "--family", "affine", "-\u00b2"])
@example(["count", "--fam", "affine", "1"])
@example(["count", "--q", "2", "--q", "3"])
@example(["count", "--q", "2", "3"])
@example(["count", "--", "--q", "2"])
@example(["count", "-h"])
@example(["gadget", "--group", "2", "--elements=1"])
@example(["zeta", "--family", "gm", "1", "--format", "xml"])
def test_fast_parse_agrees_with_argparse(argv):
    """``_parse`` declines, or gives argparse's namespace; it never accepts
    an argv that argparse rejects."""
    parsed = cli._parse(argv)
    if parsed is not None:
        assert vars(parsed) == _argparse_vars(argv)


def test_fast_parse_accepts_every_canonical_form():
    """Each argument of each subcommand, in each canonical form, before or
    after the required ones, reaches ``_parse``'s namespace, not argparse."""
    for command, (_, arguments) in cli._COMMANDS.items():
        required = [command]
        forms = [["--format", "text"], ["--format=text"]]
        for name, arity, is_required, _ in arguments:
            if is_required:
                required += ["2"] if name[0] != "-" else [name, "2"]
            elif arity == "":
                forms.append([name])
            else:
                forms += [[name, "a", "-1"]] if arity == "+" else [[name, "-1"], [name + "=-1,0"]]
        for form in forms:
            for argv in (required + form, required[:1] + form + required[1:]):
                parsed = cli._parse(argv)
                assert parsed is not None and vars(parsed) == _argparse_vars(argv), argv


def test_determinism_modulo_timing(capsys):
    def payload():
        code, data, _ = run_json(capsys, "torify", "flag", "1", "1", "1")
        assert code == 0
        data.pop("timing_ms")
        return json.dumps(data, sort_keys=True)

    assert payload() == payload()


def test_torification_json_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "torify", "grassmannian", "2", "4")
    assert code == 0
    path = tmp_path / "gr24.json"
    path.write_text(out)
    code, direct, _ = run_json(capsys, "count", "--family", "grassmannian", "2", "4", "--q", "2,3")
    code2, via_file, _ = run_json(capsys, "count", "--torification", str(path), "--q", "2,3")
    assert code == code2 == 0
    assert direct["result"] == via_file["result"]
    # and the gadget counts agree downstream as well
    code, g_direct, _ = run_json(capsys, "gadget", "--group", "3", "--family", "grassmannian", "2", "4")
    code2, g_file, _ = run_json(capsys, "gadget", "--group", "3", "--torification", str(path))
    assert code == code2 == 0
    assert_file_gadget_matches(g_direct["result"], g_file["result"])


@pytest.mark.parametrize("content", ["5", '"x"', "null", "[1]"])
def test_torification_file_must_hold_an_object(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, out, err = run(capsys, "count", "--torification", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "does not contain a torification payload" in err


@pytest.mark.parametrize(
    "payload",
    [
        {"tori": [{"rank": True}]},
        {"tori": [{"rank": 1.7}]},
        {"tori": [{"rank": "2", "label": 5}]},
        {"tori": [{"rank": 2, "label": 5}]},
        {"tori": [{"rank": 1, "label": None}]},
        {"tori": [{"rank": 1}], "charts": [[0.9]]},
        {"tori": [{"rank": 1}], "charts": [[False]]},
        {"tori": [{"rank": 1}], "charts": [0]},
    ],
)
def test_torification_file_is_read_strictly(payload, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "count", "--torification", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: bad torification data: ")
    # the same torus with an int rank, a str label or none, and int chart indices is read
    good = {"tori": [{"rank": 1}, {"rank": 0, "label": "x"}], "charts": [[0, 1]]}
    path.write_text(json.dumps(good))
    assert run(capsys, "count", "--torification", str(path))[0] == 0


# keys and strings that need escaping: quote, backslash, control, DEL,
# non-ASCII (BMP, astral, lone surrogate) and the JS line separators; and the
# ends of the printable ASCII that needs none
TRICKY = st.sampled_from(
    ['"', "\\", "\x00\n\t\x1f", "\x7f", "é", "\u2028\u2029", "\U0001f600", "\ud800", "", " ~"]
)
KEYS = st.one_of(st.text(), TRICKY)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),  # NaN and +-inf included
    KEYS,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def with_shared_tuple(draw):
    """One tuple object twice at one depth and again at a deeper one."""
    t = draw(st.lists(JSON_VALUES, max_size=3).map(tuple))
    rest = draw(JSON_VALUES)
    return {"same_depth": [t, t], "deeper": {"x": [rest, t]}, "rest": rest, "top": t}


@given(st.one_of(JSON_VALUES, with_shared_tuple()))
@example([1, True, False, 0])  # bools among ints render as true/false
@example([True, False])
@example([[1, 2], [3, -4], [], [5]])  # nested plain int lists
@example({"chart": (0, 1, 2**100, -3), "ranks": [[0], [1, 1.5]]})
def test_dumps_matches_stdlib_indented_sorted_json(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


_Point = namedtuple("_Point", "x y")


def _nested(depth):
    value = [1, "a"]
    for _ in range(depth):
        value = [value, {"k": value}]
    return value


@pytest.mark.parametrize(
    "value",
    [
        # subclasses leave the exact-type paths for the isinstance ones
        [_Str("é"), "b", _Str("c")],
        [_Int(3), 1, _Int(-2)],
        _List([1, _List([2]), (3,), _List()]),
        _Dict(b=[_Str("x")], a=_Dict(z=(_Int(1), _List([True])))),
        {"point": _Point(1, [2, "q"])},
        [[1, 2], ("a", "b"), [[3]], [], [[]], [1.5, None, False]],
        _nested(12),  # deeper than any envelope
    ],
    ids=["str", "int", "list", "dict", "namedtuple", "lists", "nested"],
)
def test_dumps_renders_every_container_as_the_stdlib(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=2)


# --- self-rendering blocks: torus lists and shared D^r ------------------------------


def materialize(v):
    """The plain JSON value a block stands for, spelled out from its parts."""
    if isinstance(v, cli._ToriList):
        return [
            {"label": label if p is None else f"{p}/{label}" if label else p, "rank": rank}
            for p, cell in v.t.parts
            for rank, labels in cell.runs
            for label in labels
        ]
    if isinstance(v, cli._Power):
        return [list(point) for point in iproduct(v.elements, repeat=v.rank)]
    if isinstance(v, dict):
        return {k: materialize(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [materialize(x) for x in v]
    return v


LABELS = st.one_of(st.text(max_size=6), TRICKY)
CELLS = st.lists(st.builds(Torus, st.integers(0, 4), LABELS), max_size=4).map(tuple)


@st.composite
def with_blocks(draw):
    """Torus lists over shared cells with drawn prefixes, and D^r blocks,
    each at several depths."""
    cells = draw(st.lists(CELLS, min_size=1, max_size=3))
    parts = draw(st.lists(st.tuples(st.one_of(st.none(), LABELS), st.sampled_from(cells)), max_size=5))
    tori = cli._ToriList(Torification.from_parts(parts))
    group = FiniteAbelianGroup(draw(st.sampled_from([(), (1,), (2,), (3,), (2, 2), (2, 3)])))
    power = cli._Power(tuple(group.elements()), draw(st.integers(0, 4)))
    rest = draw(JSON_VALUES)
    return {"tori": tori, "power": power, "deeper": [rest, {"p": power, "t": [tori]}], "x": [[power]]}


def tori_block(*parts) -> dict:
    """A torus list of the parts ``(prefix, [(rank, label), ...])``."""
    return {"tori": cli._ToriList(Torification.from_parts(
        (p, [Torus(rank, label) for rank, label in tori]) for p, tori in parts
    ))}


SAFE = [(1, "axes:1"), (1, "axes:2"), (0, "cone:3"), (2, "axes:*torus*axes:1")]


@given(with_blocks())
# runs that need no escape: after a prefix, after a prefix with an empty
# label in the run (which takes no slash), without a prefix and an empty
# label, and after the empty prefix
@example(tori_block(("schubert:w=21", SAFE), (None, SAFE)))
@example(tori_block(("p", [(1, "a"), (1, ""), (1, "b")] + SAFE)))
@example(tori_block((None, [(1, "a"), (1, ""), (1, "b")] + SAFE)))
@example(tori_block(("", SAFE), ("", [(0, ""), (0, "a")])))
# one label among safe ones holds a character that needs an escape
@example(tori_block((None, [(1, "a"), (1, "b\x7f"), (1, "c")]), ("p", [(1, "a"), (1, "\x7f")])))
@example(tori_block((None, [(1, "a"), (1, "bé"), (1, "c")]), ("p", [(1, "a"), (1, "é"), (1, "")])))
@example(tori_block((None, [(1, "a"), (1, 'b"'), (1, "c")]), ("p", [(1, "a"), (1, '"')])))
@example(tori_block((None, [(1, "a"), (1, "b\\"), (1, "c")]), ("p\\", [(1, "a"), (1, "\\")])))
def test_dumps_of_blocks_matches_stdlib_on_materialized(value):
    assert dumps(value) == json.dumps(materialize(value), sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "orders, rank",
    # every branch of the block build (ranks 0, 1, 2 and the rounds of 3 and up)
    # over groups of orders 1, 2 and 6; order 6 stops at 6^5 points
    [(o, r) for o in [(), (1,), (2,)] for r in range(8)]
    + [(o, r) for o in [(2, 3), (6,)] for r in range(6)],
)
def test_power_blocks_match_stdlib_on_materialized(orders, rank):
    power = cli._Power(tuple(FiniteAbelianGroup(orders).elements()), rank)
    value, points = power, [list(point) for point in iproduct(power.elements, repeat=rank)]
    for depth in range(4):
        # compared by lines, which pytest reports by the first index that differs
        got = dumps(value).split("\n")
        assert got == json.dumps(points, sort_keys=True, indent=2).split("\n")
        # one text, or one block per element and the closing text
        assert len(power.texts[depth]) == (1 if rank < 2 else len(power.elements) + 1)
        value, points = [value], [points]


@given(st.lists(st.integers(0, 3), max_size=150), st.sampled_from([(), (1,), (2,), (3,), (2, 2), (4,)]),
       st.integers(0, 3))
# 1, 2 and 3 digits of keys, whose string order leaves the numeric order at 10 and 100
@example([2, 0, 1, 3, 1, 0, 0, 2, 1, 1, 3], (2,), 2)
@example([1] * 101 + [0, 3, 2], (3,), 1)
@example([], (2,), 2)
def test_elements_block_matches_stdlib_on_the_dict_of_points(ranks, orders, depth):
    elements = tuple(FiniteAbelianGroup(orders).elements())
    points = {str(i): [list(p) for p in iproduct(elements, repeat=r)] for i, r in enumerate(ranks)}
    value, plain = cli._Elements(ranks, elements), points
    for _ in range(depth):
        value, plain = [value], [plain]
    assert dumps(value) == json.dumps(plain, sort_keys=True, indent=2)


def _ladder():
    out = [("grassmannian", k, n) for n in range(1, 9) for k in range(n + 1)]
    out += [("flag", *c) for n in range(1, 7) for c in compositions(n)]
    out += [("sl", n) for n in range(1, 5)]
    out += [(family, n) for family in ("affine", "torus", "projective") for n in range(4)]
    return out


def _n_points(delta, q):
    return sum(d * (q - 1) ** r for r, d in enumerate(delta))


# every listing of at most 20,160 tori (SL_4); with the largest group of
# order <= 6 whose point listing stays at most 20,000 elements
LISTING_LADDER = [
    spec
    for spec in _ladder()
    if _n_points(cli.build_family(spec[0], [str(x) for x in spec[1:]]).delta, 2) <= 20160
]
GROUP_BY_ORDER = {1: (1,), 2: (2,), 3: (3,), 4: (2, 2), 5: (5,), 6: (2, 3)}


HOLE = "<listing>"


def _spelled_out(out: str, result: Callable[[dict], dict], listing: str) -> str:
    """The stdlib's text of the envelope printed as ``out``, with its result
    replaced by ``result(the printed result)``, which holds the string HOLE
    where ``listing`` goes: the stdlib renders the envelope around the hole.
    The envelope is read from ``out`` with the listing cut out, which saves
    parsing it; if ``out`` does not hold the listing, nothing is cut."""
    envelope = json.loads(out.replace(listing, json.dumps(HOLE), 1))
    envelope["result"] = result(envelope["result"])
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    return text.replace(json.dumps(HOLE), listing)


def torify_reference(out: str, t: Torification) -> str:
    """The text of a `torify` envelope with its tori spelled out, one
    template per torus."""
    item = '{\n        "label": %s,\n        "rank": %d\n      }'  # at depth 3
    tori = ",\n      ".join(item % (json.dumps(x.label), x.rank) for x in t.tori)
    result = {
        "dim": t.dim,
        "tori": HOLE,
        "delta": list(delta_vector(t)),
        "charts": [list(c) for c in t.charts] if t.charts is not None else None,
    }
    return _spelled_out(out, lambda _: result, "[\n      " + tori + "\n    ]")


@functools.cache
def _power_text(orders: tuple[int, ...], rank: int) -> str:
    """The stdlib's text of D^rank at depth 3, for the group of ``orders``."""
    elements = FiniteAbelianGroup(orders).elements()
    text = json.dumps([list(p) for p in iproduct(elements, repeat=rank)], indent=2)
    return text.replace("\n", "\n      ")  # JSON strings hold no raw newline


def gadget_reference(out: str, t: Torification, orders: tuple[int, ...]) -> str:
    """The text of a `gadget --elements` envelope with every point spelled
    out: one template per torus, holding the stdlib's text of its D^r."""
    ranks = list(t.ranks())
    items = ",\n      ".join(
        '"%d": %s' % (i, _power_text(orders, ranks[i])) for i in sorted(range(len(ranks)), key=str)
    )
    return _spelled_out(out, lambda r: dict(r, elements=HOLE), "{\n      " + items + "\n    }")


@pytest.mark.parametrize("spec", LISTING_LADDER, ids=lambda s: "-".join(map(str, s)))
def test_listings_match_stdlib_rendering_of_dict_form(spec, capsys):
    """stdout of `torify` and `gadget --elements` equals the stdlib encoder's
    text of the payload with every torus and point spelled out."""
    family = [str(x) for x in spec]
    fam = cli.build_family(family[0], family[1:])
    t = fam.build()
    code, out, _ = run(capsys, "torify", *family)
    assert code == 0 and out == torify_reference(out, t)

    order = max(d for d in GROUP_BY_ORDER if d == 1 or _n_points(fam.delta, d + 1) <= 20000)
    orders = GROUP_BY_ORDER[order]
    group = ",".join(map(str, orders))
    code, out, _ = run(capsys, "gadget", "--elements", "--group", group, "--family", *family)
    assert code == 0 and out == gadget_reference(out, t, orders)


@pytest.mark.parametrize(
    "spec", [("grassmannian", 2, 4), ("flag", 1, 2), ("sl", 2), ("affine", 0), ("projective", 2)]
)
def test_listing_references_equal_the_whole_stdlib_text(spec, capsys):
    # the payload spelled out as plain values and dumped whole
    family = [str(x) for x in spec]
    t = cli.build_family(family[0], family[1:]).build()
    out = run(capsys, "torify", *family)[1]
    envelope = json.loads(out)
    envelope["result"]["tori"] = [{"label": x.label, "rank": x.rank} for x in t.tori]
    whole = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    assert torify_reference(out, t) == whole
    out = run(capsys, "gadget", "--elements", "--group", "2,3", "--family", *family)[1]
    envelope = json.loads(out)
    elements = tuple(FiniteAbelianGroup((2, 3)).elements())
    envelope["result"]["elements"] = {
        str(i): [list(p) for p in iproduct(elements, repeat=x.rank)] for i, x in enumerate(t.tori)
    }
    whole = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    assert gadget_reference(out, t, (2, 3)) == whole


def test_affine_listing_past_numeric_order_equals_the_reference(capsys):
    # A^11: from A^10 on, the labels' string order is not their numeric order
    code, out, _ = run(capsys, "torify", "affine", "11")
    runs = affine_cell_runs(11)
    envelope = {
        "input": {"args": {"family_spec": ["affine", "11"], "format": "json"}, "subcommand": "torify"},
        "result": {
            "charts": [list(range(2**11))],
            "delta": [len(labels) for _, labels in runs],
            "dim": 11,
            "tori": [{"label": label, "rank": r} for r, labels in runs for label in labels],
        },
        "timing_ms": json.loads(out)["timing_ms"],
        "tool": {"name": "torified", "version": cli.__version__},
    }
    assert code == 0 and out == dumps(envelope) + "\n"


class RecordingStdout:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "argv, orders",
    [
        (["torify", "flag", "1", "1", "1", "1", "1"], None),
        (["gadget", "--elements", "--group", "2", "--family", "sl", "3"], (2,)),
    ],
    ids=["torify", "gadget"],
)
def test_envelope_is_written_in_pieces(monkeypatch, argv, orders):
    fake = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", fake)
    assert main(argv) == 0
    monkeypatch.undo()
    out = "".join(fake.writes)
    family = argv[1:] if orders is None else argv[5:]
    t = cli.build_family(family[0], family[1:]).build()
    assert out == (torify_reference(out, t) if orders is None else gadget_reference(out, t, orders))
    # the largest piece is one part: for flag 1^5, the top cell's 1,024 of 9,765 tori
    assert max(map(len, fake.writes)) < len(out) / 8


@pytest.mark.parametrize("family", [("flag", "1", "2", "1"), ("sl", "3")], ids="-".join)
def test_torus_labels_are_not_escaped_one_by_one(capsys, monkeypatch, family):
    # every label a family builds is printable ASCII without a quote or a
    # backslash, so each run is joined as it is: the escaper sees the part
    # prefixes (schubert:..., bruhat:...) and the envelope's own strings only
    escaped = []

    def recorded(s):
        escaped.append(s)
        return encode_basestring_ascii(s)

    monkeypatch.setattr(cli, "encode_basestring_ascii", recorded)
    code, out, _ = run(capsys, "torify", *family)
    t = cli.build_family(family[0], list(family[1:])).build()
    assert code == 0 and out == torify_reference(out, t)
    assert any(s.startswith(("schubert:", "bruhat:")) for s in escaped)
    assert not [s for s in escaped if "axes:" in s]


def _run_child(argv: list[str], **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


def _peak_of_child(argv: list[str]) -> tuple[int, int]:
    """The exit code of ``main(argv)`` in a child process with stdout sent to
    the null device, and the child's own peak RSS in kB: VmHWM belongs to its
    address space, while ru_maxrss on Linux starts from the forking pytest
    process's peak."""
    script = (
        "import sys\n"
        "from torified.cli import main\n"
        f"code = main({argv!r})\n"
        "sys.stdout.flush()\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(code, hwm, file=sys.stderr)\n"
    )
    proc = _run_child(["-c", script], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)
    code, peak_kb = map(int, err.split())  # VmHWM is in kB
    return code, peak_kb


def test_largest_listing_streams_in_bounded_memory():
    # 615,195 tori in 56 MB of JSON; built as one string it peaked at 238 MB
    code, peak_kb = _peak_of_child(["torify", "flag", "1", "1", "1", "1", "1", "1"])
    assert code == 0
    assert peak_kb < 100 * 1024


def test_large_gadget_listing_holds_no_second_copy():
    # 823,543 elements, 6^7 of them in D^7: one text per point, joined whole,
    # peaked at 288 MB; the blocks of every D^r take about 123 MB
    code, peak_kb = _peak_of_child(["gadget", "--elements", "--group", "6", "--family", "affine", "7"])
    assert code == 0
    assert peak_kb < 200 * 1024


def test_closed_pipe_ends_without_a_traceback(tmp_path):
    # the listing is far longer than a pipe buffer, so writes go on after the reader left
    with open(tmp_path / "stderr", "w+") as err:
        argv = ["-m", "torified.cli", "torify", "flag", "1", "1", "1", "1", "1"]
        proc = _run_child(argv, stdout=subprocess.PIPE, stderr=err)
        assert proc.stdout.read(50).startswith(b"{")
        proc.stdout.close()
        assert proc.wait(timeout=120) == cli.PIPE_CLOSED
        err.seek(0)
        assert err.read() == ""


def test_torify_text_format(capsys):
    code, out, _ = run(capsys, "torify", "grassmannian", "2", "4", "--format", "text")
    assert code == 0
    assert out == "dim 4, 35 tori, delta [6, 12, 11, 5, 1]\ncharts: none\n"


def test_torification_file_round_trips_the_parts_form(tmp_path, capsys):
    t = cli.build_family("sl", ["2"]).build()
    code, out, _ = run(capsys, "torify", "sl", "2")
    loaded = torification_from_dict(json.loads(out)["result"])
    assert len(t.parts) == 2 and len(loaded.parts) == 1
    assert loaded == t and hash(loaded) == hash(t)
    path = tmp_path / "sl2.json"
    path.write_text(out)
    argv = ["gadget", "--elements", "--group", "2,2"]
    code, direct, _ = run_json(capsys, *argv, "--family", "sl", "2")
    code2, via_file, _ = run_json(capsys, *argv, "--torification", str(path))
    assert code == code2 == 0
    assert_file_gadget_matches(direct["result"], via_file["result"])


def test_text_format(capsys):
    code, out, _ = run(capsys, "zeta", "--family", "projective", "1", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "1/(s(s-1))"


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TORIFIED_BUDGET", "2")
    code, data, _ = run_json(capsys, "soule", "--m", "5", "--cone", "1,0;0,1")
    assert code == 0
    assert data["result"]["enumerated_count"] is None  # over budget: face formula only
    assert data["result"]["face_count"] == 36  # (5+1)^2
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("TORIFIED_BUDGET", bad)
        code, out, err = run(capsys, "soule", "--m", "5", "--cone", "1,0;0,1")
        assert code == 2 and out == ""
        assert "TORIFIED_BUDGET must be a positive integer" in err


def test_only_the_budget_module_reads_the_budget():
    package = os.path.join(SRC, "torified")
    readers = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                text = fh.read()
            if "enumeration_budget(" in text or "TORIFIED_BUDGET" in text:
                readers.add(name)
    assert readers == {"budget.py"}


@settings(max_examples=40, deadline=None)
@given(pointed_cones(), st.sampled_from((1, 2, 3, 4)), st.integers(-2, 2))
def test_soule_enumerates_exactly_when_the_homs_fit_the_budget(cone, m, slack):
    # monoid_of_cone caches the monoid built here under the default budget,
    # so the budget set below gates only the enumeration, at its boundary
    monoid = monoid_of_cone(cone)
    assignments = (m + 1) ** len(monoid.all_generators())
    assume(assignments <= 10**5)
    target = CyclicMonoidWithZero(m)
    rays = ";".join(",".join(map(str, r)) for r in cone.rays)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TORIFIED_BUDGET", str(max(1, assignments + slack)))
        try:
            enumerate_monoid_homs(monoid, target)
        except BudgetExceeded:
            refused = True
        else:
            refused = False
        with contextlib.redirect_stdout(out):
            code = main(["soule", "--m", str(m), f"--cone={rays}"])
    result = json.loads(out.getvalue())["result"]
    assert code == 0
    assert (result["enumerated_count"] is None) == refused == (result["match"] is None)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--q", "x", "--family", "grassmannian", "40", "80"], "cannot parse q list"),
        (["verify", "--q", "x", "--family", "grassmannian", "40", "80"], "cannot parse q list"),
        (["verify", "--q", ",", "--family", "grassmannian", "40", "80"], "--q needs at least"),
        (["gadget", "--group", "x", "--family", "grassmannian", "40", "80"], "cannot parse group"),
        (["gadget", "--group", "0", "--family", "grassmannian", "40", "80"], "cyclic orders"),
        (["soule", "--m", "0", "--cone", "1,0;1,300000"], "--m must be >= 1"),
    ],
    ids=lambda x: x[0] if isinstance(x, list) else x,
)
def test_cheap_arguments_are_checked_before_the_family_or_monoid(
    capsys, monkeypatch, argv, message
):
    def refuse(*args):
        raise AssertionError("built a family or monoid before checking the arguments")

    monkeypatch.setattr(cli, "build_family", refuse)
    monkeypatch.setattr(cli, "monoid_of_cone", refuse)
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_count_of_a_degree_1600_grassmannian_is_quick(capsys):
    # both basis changes are Taylor shifts: O(d^2) additions, no binomials
    with time_limit(10):
        code, data, _ = run_json(capsys, "count", "--family", "grassmannian", "40", "80")
    assert code == 0
    delta, mono = data["result"]["delta"], data["result"]["mono"]
    assert len(delta) == len(mono) == 1601 and delta[-1] == mono[-1] == 1
    # N(1) is the number of Schubert cells
    assert delta[0] == sum(mono) == comb(80, 40)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "grassmannian", "5", "3"],
        ["torify", "torus", "-2"],
        ["torify", "projective", "-3"],  # checked before N(2), whose formula needs n >= -1
        ["torify", "flag", "-1", "2"],
        ["count", "--family", "affine", "-1"],
        ["gadget", "--group", "0", "--family", "affine", "1"],
        ["verify", "--q", "1", "--family", "affine", "1"],
    ],
    ids="_".join,
)
def test_bad_parameters_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_listings_checked_against_budget_before_building(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("tori or a delta vector computed for an over-budget listing")

    monkeypatch.setattr(counting, "torify_grassmannian", refuse)
    monkeypatch.setattr(counting, "_gaussian_polynomial", refuse)
    # N(2) = 109,221,651 tori: exhausted memory when they were built first.
    # Gr(100, 200) took about 50 s to refuse when its delta vector came first;
    # N(2) of Gr(150, 300) has 6,774 digits, more than str() converts.
    for k, n, size in (("5", "10", "109221651"), ("100", "200", "10^3010 or more"),
                       ("150", "300", "10^6773 or more")):
        with time_limit(1):
            code, out, err = run(capsys, "torify", "grassmannian", k, n)
        assert code == 2 and out == ""
        assert err == f"error: {size} tori exceed the budget of 1000000\n"
    # a gadget listing is counted as N(|D| + 1): Gr(100, 200) took 60 s to
    # refuse when its delta vector came first
    for group, k, n, size in (("12", "4", "8", "725512377757846342"),
                              ("2", "100", "200", "10^4771 or more")):
        with time_limit(1):
            code, out, err = run(
                capsys, "gadget", "--elements", "--group", group, "--family", "grassmannian", k, n
            )
        assert code == 2 and out == ""
        assert err == f"error: {size} group elements exceed the budget of 1000000\n"
    monkeypatch.undo()
    monkeypatch.setenv("TORIFIED_BUDGET", "35")  # Gr(2,4) has N(2) = 35 tori
    assert run(capsys, "torify", "grassmannian", "2", "4")[0] == 0
    monkeypatch.setenv("TORIFIED_BUDGET", "34")
    assert run(capsys, "torify", "grassmannian", "2", "4")[0] == 2
    monkeypatch.setenv("TORIFIED_BUDGET", "5")  # P^1 at |D| = 3: N(4) = 5 elements
    assert run(capsys, "gadget", "--elements", "--group", "3", "--family", "projective", "1")[0] == 0
    monkeypatch.setenv("TORIFIED_BUDGET", "4")
    assert run(capsys, "gadget", "--elements", "--group", "3", "--family", "projective", "1")[0] == 2
    # a torification file has no oracle: its elements are counted from its tori
    path = tmp_path / "p1.json"
    path.write_text(run(capsys, "torify", "projective", "1")[1])
    for budget, expected in (("5", 0), ("4", 2)):
        monkeypatch.setenv("TORIFIED_BUDGET", budget)
        argv = ["gadget", "--elements", "--group", "3", "--torification", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == expected
    assert err == "error: 5 group elements exceed the budget of 4\n"


def test_gadget_elements_of_a_built_in_family_builds_no_listing(capsys, monkeypatch, tmp_path):
    # the ranks come from the cells: no torus, label or fan is made
    path = tmp_path / "sl2.json"
    path.write_text(run(capsys, "torify", "sl", "2")[1])
    direct = run_json(capsys, "gadget", "--elements", "--group", "2,2", "--family", "sl", "2")[1]

    def refuse(*args):
        raise AssertionError("gadget --elements built a listing")

    for name in dir(counting):
        if name.startswith("torify_") or name in ("standard_fan", "chevalley_data_sl"):
            monkeypatch.setattr(counting, name, refuse)
    monkeypatch.setattr(torify, "_affine_cells", refuse)
    for family in (["affine", "3"], ["projective", "3"], ["torus", "3"], ["grassmannian", "2", "5"],
                   ["flag", "1", "2", "1"], ["sl", "3"]):
        assert run(capsys, "gadget", "--elements", "--group", "2", "--family", *family)[0] == 0
    # a torification file and a fan file are read for their tori
    via_file = run_json(capsys, "gadget", "--elements", "--group", "2,2", "--torification", str(path))
    assert via_file[0] == 0
    assert_file_gadget_matches(direct["result"], via_file[1]["result"])
    with pytest.raises(AssertionError, match="built a listing"):
        main(["gadget", "--elements", "--group", "2", "--family", "toric", os.path.join(DATA, "p2_fan.json")])


def test_projective_and_sl_counting_build_nothing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("counting built a fan or enumerated permutations")

    for name in ("standard_fan", "torify_toric", "chevalley_data_sl", "torify_chevalley"):
        monkeypatch.setattr(counting, name, refuse)
    for family in (["projective", "8"], ["sl", "10"]):
        for argv in (["count", "--q", "2,3"], ["zeta"], ["gadget", "--group", "2"]):
            assert run(capsys, *argv, "--family", *family)[0] == 0
        assert run(capsys, "verify", "--q", "2,3", "--family", *family)[0] == 0
    # P^30 has 2^31 - 1 tori: refused before its fan is built
    code, out, err = run(capsys, "torify", "projective", "30")
    assert code == 2 and "2147483647 tori exceed the budget" in err


def test_sl_listing_gate_is_quick(capsys):
    # N(2) = |SL_2000(F_2)| has about 1.2 million digits: 10 s as a running product
    with time_limit(3):
        code, out, err = run(capsys, "torify", "sl", "2000")
    assert code == 2 and out == ""
    assert err == "error: 10^1204119 or more tori exceed the budget of 1000000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget", "--elements", "--group", "2"],
        ["gadget", "--group", "2"],
        ["count"],
        ["verify", "--q", "2,3"],
    ],
    ids=lambda argv: "_".join(a.strip("-") for a in argv),
)
def test_toric_torification_is_built_once(capsys, monkeypatch, argv):
    calls = []

    def spy(fan):
        calls.append(fan)
        return torify_toric(fan)

    monkeypatch.setattr(counting, "torify_toric", spy)
    assert run(capsys, *argv, "--family", "toric", os.path.join(DATA, "p2_fan.json"))[0] == 0
    assert len(calls) == 1
    assert run(capsys, "torify", "toric", os.path.join(DATA, "p2_fan.json"))[0] == 0
    assert len(calls) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["torify", "flag", "1", "2", "1", "2"],
        ["torify", "sl", "4"],
        ["torify", "grassmannian", "4", "8"],
        ["torify", "projective", "4"],
        ["gadget", "--elements", "--group", "2", "--family", "flag", "1", "1", "2"],
        None,  # product(Gr(2, 5), P^1) in the library
    ],
    ids=lambda argv: "_".join(argv) if argv else "product",
)
def test_listings_make_no_torus(capsys, monkeypatch, argv):
    # a listing is written from the run tables of its cells: labels, never Torus objects
    made = []
    init = Torus.__init__

    def counted(self, rank, label=""):
        made.append(rank)
        init(self, rank, label)

    monkeypatch.setattr(Torus, "__init__", counted)
    if argv is None:
        t = product(torify_grassmannian(2, 5), torify_toric(lattice.standard_fan("projective_space", 1)))
    else:
        assert run(capsys, *argv)[0] == 0
        family = argv[1:] if argv[0] == "torify" else argv[5:]
        t = cli.build_family(family[0], family[1:]).build()
    assert made == []
    tori = tuple(t.tori)  # the count sees these
    assert len(made) == len(tori) > 30


def projective_fan_file(n):
    """P^n as a fan file: its maximal cones only, closed on reading."""
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    cones = [[i for i in range(n + 1) if i != k] for k in range(n + 1)]
    return {"dim": n, "rays": rays, "cones": cones, "close_faces": True}


def p1_power_fan_file(n):
    """(P^1)^n as a fan file: one maximal cone per choice of signs."""
    rays = [[s * int(i == j) for j in range(n)] for i in range(n) for s in (1, -1)]
    cones = [[2 * i + side for i, side in enumerate(sides)] for sides in iproduct((0, 1), repeat=n)]
    return {"dim": n, "rays": rays, "cones": cones, "close_faces": True}


@pytest.mark.parametrize(
    "data", [projective_fan_file(3), p1_power_fan_file(4)], ids=["P3", "P1^4"]
)
def test_validating_a_simplicial_fan_runs_no_kernel_and_lists_no_face(
    capsys, monkeypatch, tmp_path, data
):
    # the duals of simplicial cones come from one elimination, their faces in
    # the fan from ray masks, and reading the file closes them by ray subsets
    clear_caches()
    kernels, listed = [], []
    kernel_basis, faces = lattice.kernel_basis, lattice.faces

    def counted_kernel(*args):
        kernels.append(args)
        return kernel_basis(*args)

    def counted_faces(cone):
        listed.append(cone.rays)
        return faces(cone)

    monkeypatch.setattr(lattice, "kernel_basis", counted_kernel)
    monkeypatch.setattr(lattice, "faces", counted_faces)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(data))
    code, payload, _ = run_json(capsys, "validate-fan", str(path))
    assert code == 0 and payload["result"]["valid"]
    assert kernels == [] and listed == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_validating_projective_space_eliminates_each_maximal_cone_once(
    capsys, monkeypatch, tmp_path, n
):
    # the constructor reads a maximal cone's rank from the dual that its
    # facets come from, so P^n takes one elimination per maximal cone
    clear_caches()
    eliminations = []
    eliminate = intlinalg._eliminate

    def counted_eliminate(*args):
        eliminations.append(args)
        return eliminate(*args)

    monkeypatch.setattr(intlinalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(lattice, "_eliminate", counted_eliminate)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(projective_fan_file(n)))
    code, payload, _ = run_json(capsys, "validate-fan", str(path))
    assert code == 0 and payload["result"]["valid"]
    assert len(eliminations) == n + 1


SMALL_LADDER = (
    [("grassmannian", k, n) for n in range(1, 6) for k in range(n + 1)]
    + [("flag", *c) for n in range(1, 5) for c in compositions(n)]
    + [("sl", n) for n in range(1, 4)]
    + [(family, n) for family in ("affine", "torus", "projective") for n in range(4)]
)


@pytest.mark.parametrize(
    "spec",
    SMALL_LADDER
    + [(family, n) for family in ("affine", "projective") for n in (4, 5)]
    + [("toric", os.path.join(DATA, "p2_fan.json"))],
    ids=lambda s: "-".join(os.path.basename(str(x)) for x in s),
)
def test_torify_gate_delta_and_listing_agree(spec):
    # `torify` gates on the oracle's N(2), counting reads the delta vector:
    # over F_2 each torus has one point, so both count the tori listed
    fam = cli.build_family(spec[0], [str(x) for x in spec[1:]])
    assert oracle_point_count(*fam.oracle, 2) == sum(fam.delta) == len(fam.build())


@pytest.mark.parametrize("spec", SMALL_LADDER, ids=lambda s: "-".join(map(str, s)))
def test_counting_commands_match_enumerative_torification(spec, tmp_path, capsys):
    """count/zeta/gadget/verify answer from algebraic deltas; their payloads
    must equal those computed from the listed tori."""
    family = [str(x) for x in spec]
    code, listing, _ = run(capsys, "torify", *family)
    assert code == 0
    path = tmp_path / "listing.json"
    path.write_text(listing)
    t = torification_from_dict(json.loads(listing)["result"])
    for argv in (["count", "--q", "2,3,5"], ["zeta"], ["gadget", "--group", "2,3"]):
        code, direct, _ = run_json(capsys, *argv, "--family", *family)
        code2, listed, _ = run_json(capsys, *argv, "--torification", str(path))
        assert code == code2 == 0
        if argv[0] == "gadget":
            assert_file_gadget_matches(direct["result"], listed["result"])
        else:
            assert direct["result"] == listed["result"]
    pts = cc_points(t, FiniteAbelianGroup((2, 3)))
    assert direct["result"]["by_grade"] == {str(r): c for r, c in pts.count_by_grade().items()}
    assert direct["result"]["total"] == pts.total
    qs = [2, 3, 4, 5]
    code, verified, _ = run_json(capsys, "verify", "--q", "2,3,4,5", "--family", *family)
    assert code == 0
    report = verify_counting(t, *cli.build_family(family[0], family[1:]).oracle, qs)
    assert verified["result"]["checks"] == [
        {"q": c.q, "counted": c.counted, "oracle": c.oracle, "equal": c.ok} for c in report.checks
    ]
