"""Command line: payloads, exit codes, determinism, and file handling."""

import ast
import json
import os
import re

import pytest

from conftest import compositions

from torified import cli
from torified.cli import main, torification_from_dict
from torified.counting import verify_counting
from torified.gadgets import FiniteAbelianGroup, cc_points
from torified.lattice import maximal_cones

DATA = os.path.join(os.path.dirname(__file__), "data")


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


def test_soule_singular(capsys):
    code, data, _ = run_json(capsys, "soule", "--m", "1", "--cone", "1,0;1,2", "--elements")
    assert code == 0
    result = data["result"]
    assert result["face_count"] == 4
    assert result["enumerated_count"] == 4
    assert result["match"] is True
    assert len(result["homs"]) == 4


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
    assert g_direct["result"] == g_file["result"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "grassmannian", "5", "3"],
        ["torify", "torus", "-2"],
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


def test_listings_checked_against_budget_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("tori built for an over-budget listing")

    monkeypatch.setattr(cli, "torify_grassmannian", refuse)
    # N(2) = 109,221,651 tori: exhausted memory when they were built first
    code, out, err = run(capsys, "torify", "grassmannian", "5", "10")
    assert code == 2 and out == ""
    assert "109221651 tori exceed the budget of 1000000" in err
    code, out, err = run(
        capsys, "gadget", "--elements", "--group", "12", "--family", "grassmannian", "4", "8"
    )
    assert code == 2 and "group elements exceed the budget" in err
    monkeypatch.undo()
    monkeypatch.setenv("TORIFIED_BUDGET", "35")  # Gr(2,4) has N(2) = 35 tori
    assert run(capsys, "torify", "grassmannian", "2", "4")[0] == 0
    monkeypatch.setenv("TORIFIED_BUDGET", "34")
    assert run(capsys, "torify", "grassmannian", "2", "4")[0] == 2
    monkeypatch.setenv("TORIFIED_BUDGET", "4")  # P^1 at |D| = 3: N(4) = 5 elements
    assert run(capsys, "gadget", "--elements", "--group", "3", "--family", "projective", "1")[0] == 2


def test_projective_and_sl_counting_build_nothing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("counting built a fan or enumerated permutations")

    for name in ("standard_fan", "torify_toric", "chevalley_data_sl", "torify_chevalley"):
        monkeypatch.setattr(cli, name, refuse)
    for family in (["projective", "8"], ["sl", "10"]):
        for argv in (["count", "--q", "2,3"], ["zeta"], ["gadget", "--group", "2"]):
            assert run(capsys, *argv, "--family", *family)[0] == 0
        assert run(capsys, "verify", "--q", "2,3", "--family", *family)[0] == 0
    # P^30 has 2^31 - 1 tori: refused before its fan is built
    code, out, err = run(capsys, "torify", "projective", "30")
    assert code == 2 and "2147483647 tori exceed the budget" in err


SMALL_LADDER = (
    [("grassmannian", k, n) for n in range(1, 6) for k in range(n + 1)]
    + [("flag", *c) for n in range(1, 5) for c in compositions(n)]
    + [("sl", n) for n in range(1, 4)]
    + [(family, n) for family in ("affine", "torus", "projective") for n in range(4)]
)


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
        assert direct["result"] == listed["result"]
    pts = cc_points(t, FiniteAbelianGroup((2, 3)), mode="counts")
    assert direct["result"]["by_grade"] == {str(r): c for r, c in pts.count_by_grade().items()}
    assert direct["result"]["total"] == pts.total
    qs = [2, 3, 4, 5]
    code, verified, _ = run_json(capsys, "verify", "--q", "2,3,4,5", "--family", *family)
    assert code == 0
    report = verify_counting(t, *cli.build_family(family[0], family[1:]).oracle, qs)
    assert verified["result"]["checks"] == [
        {"q": c.q, "counted": c.counted, "oracle": c.oracle, "equal": c.ok} for c in report.checks
    ]
