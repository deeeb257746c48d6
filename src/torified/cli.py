"""Command-line front end.

Every subcommand prints a JSON envelope (tool, input echo, result, timing) to
stdout and diagnostics to stderr.  Exit codes: 0 success, 1 when a validation
or verification check fails, 2 for usage and parse errors.  Identical inputs
produce byte-identical payloads apart from the timing field.

``count``, ``zeta``, ``verify`` and ``gadget`` read the delta vector of a
built-in family from its cell polynomials, so their cost does not grow with
the number of tori.  Labeled tori are built only for ``torify`` listings, for
``gadget --elements`` and for ``toric`` fan files, and a listing is checked
against the enumeration budget before anything is built.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import __version__
from .counting import CountingPolynomial, eval_counting, verify_counting_polynomial, zeta
from .errors import BudgetExceeded, TorifiedError
from .gadgets import (
    CyclicMonoidWithZero,
    FiniteAbelianGroup,
    cc_points,
    enumerate_monoid_homs,
    enumeration_budget,
    soule_count_by_faces,
)
from .lattice import Cone, Fan, faces, fan_from_dict, standard_fan, validate_fan
from .monoids import dscheme_of_fan, monoid_of_cone
from .torify import (
    Torification,
    Torus,
    chevalley_data_sl,
    delta_affine_space,
    delta_flag,
    delta_grassmannian,
    delta_projective,
    delta_sl,
    delta_torus,
    delta_vector,
    torify_affine_space,
    torify_chevalley,
    torify_flag,
    torify_grassmannian,
    torify_toric,
    torify_torus,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(Exception):
    """Bad parameters or malformed input files; maps to exit code 2."""


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _read_json(path: str):
    """Decoded JSON of a file; unreadable or malformed files raise UsageError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def load_fan(path: str, validate: bool = True) -> Fan:
    """Read a fan JSON file; parse errors raise UsageError, validity errors
    raise ValidationFailure via the caller's handling of InvalidFan."""
    try:
        fan = fan_from_dict(_read_json(path), on_warning=_warn)
    except (ValueError, TorifiedError) as exc:
        raise UsageError(f"{path}: {exc}") from exc
    if validate:
        report = validate_fan(fan)
        if not report.ok:
            raise ValidationFailure({"valid": False, "violations": list(report.violations)})
    return fan


class ValidationFailure(Exception):
    """A check failed; carries the payload to print.  Maps to exit code 1."""

    def __init__(self, payload: dict):
        super().__init__("validation failed")
        self.payload = payload


def _parse_int_list(raw: str, what: str) -> list[int]:
    try:
        return [int(x) for x in raw.replace(" ", "").split(",") if x != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} list {raw!r}") from exc


def _parse_cone(raw: str) -> Cone:
    """Rays separated by ';', coordinates by ','; e.g. "1,0;1,2"."""
    try:
        rays = tuple(
            tuple(int(x) for x in chunk.split(","))
            for chunk in raw.replace(" ", "").split(";")
            if chunk
        )
    except ValueError as exc:
        raise UsageError(f"cannot parse cone {raw!r}") from exc
    if not rays:
        raise UsageError("empty cone description; give rays like '1,0;1,2'")
    dims = {len(r) for r in rays}
    if len(dims) != 1:
        raise UsageError("all rays must have the same length")
    try:
        return Cone(dims.pop(), rays)
    except TorifiedError as exc:
        raise UsageError(f"invalid cone: {exc}") from exc


@dataclass(frozen=True)
class Family:
    """A resolved family spec or torification file: its delta vector, a
    builder for its labeled tori, and the oracle (family, params) pair."""

    delta: tuple[int, ...]
    build: Callable[[], Torification]
    oracle: tuple[str, object] | None


def _built(t: Torification, oracle: tuple[str, object] | None) -> Family:
    """A family whose tori exist already (fans, files): delta read off them."""
    return Family(delta_vector(t), lambda: t, oracle)


def build_family(family: str, params: list[str]) -> Family:
    """Delta vector, tori builder and oracle pair for a family spec."""

    def want(k: int) -> list[int]:
        if len(params) != k:
            raise UsageError(f"family {family!r} takes {k} parameter(s), got {len(params)}")
        try:
            return [int(p) for p in params]
        except ValueError as exc:
            raise UsageError(f"family {family!r} needs integer parameters") from exc

    if family == "affine":
        (n,) = want(1)
        return Family(delta_affine_space(n), lambda: torify_affine_space(n), ("affine", n))
    if family == "projective":
        (n,) = want(1)
        return Family(
            delta_projective(n),
            lambda: torify_toric(standard_fan("projective_space", n)),
            ("projective", n),
        )
    if family in ("torus", "gm"):
        (n,) = want(1)
        return Family(delta_torus(n), lambda: torify_torus(n), ("gm", n))
    if family == "grassmannian":
        k, n = want(2)
        return Family(
            delta_grassmannian(k, n), lambda: torify_grassmannian(k, n), ("grassmannian", (k, n))
        )
    if family == "flag":
        if not params:
            raise UsageError("family 'flag' needs a composition, e.g. flag 1 1 1")
        try:
            comp = tuple(int(p) for p in params)
        except ValueError as exc:
            raise UsageError("flag composition must be integers") from exc
        return Family(delta_flag(comp), lambda: torify_flag(comp), ("flag", comp))
    if family == "sl":
        (n,) = want(1)
        return Family(delta_sl(n), lambda: torify_chevalley(chevalley_data_sl(n)), ("sl", n))
    if family == "toric":
        if len(params) != 1:
            raise UsageError("family 'toric' takes one parameter: a fan JSON file")
        fan = load_fan(params[0])
        return _built(torify_toric(fan), ("toric", fan))
    raise UsageError(
        f"unknown family {family!r}; choose from affine, projective, torus, "
        "grassmannian, flag, sl, toric"
    )


def torification_to_dict(t: Torification) -> dict:
    return {
        "dim": t.dim,
        "tori": [{"rank": torus.rank, "label": torus.label} for torus in t.tori],
        "delta": list(delta_vector(t)),
        "charts": [list(c) for c in t.charts] if t.charts is not None else None,
    }


def torification_from_dict(data: dict) -> Torification:
    try:
        tori = tuple(Torus(int(x["rank"]), str(x.get("label", ""))) for x in data["tori"])
        charts = data.get("charts")
        charts_t = tuple(tuple(int(i) for i in c) for c in charts) if charts is not None else None
        return Torification(tori, charts_t)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad torification data: {exc}") from exc


def load_torification(path: str) -> Torification:
    data = _read_json(path)
    # accept either a bare payload or a full envelope from `torify`
    if "result" in data and isinstance(data["result"], dict) and "tori" in data["result"]:
        data = data["result"]
    if "tori" not in data:
        raise UsageError(f"{path} does not contain a torification payload")
    return torification_from_dict(data)


def _resolve_family(args) -> Family:
    if getattr(args, "torification", None):
        return _built(load_torification(args.torification), None)
    if getattr(args, "family", None):
        family, *params = args.family
        return build_family(family, params)
    raise UsageError("give either --family NAME PARAMS... or --torification FILE")


def _check_budget(size: int, what: str) -> None:
    """Refuse a listing of ``size`` items before any of them is built."""
    budget = enumeration_budget()
    if size > budget:
        raise BudgetExceeded(f"{size} {what} exceed the budget of {budget}")


def _dscheme_payload(ds) -> dict:
    return {
        "points": [
            {
                "cone": p.index,
                "rank": p.rank,
                "generators": [list(g) for g in p.local_monoid.generators],
            }
            for p in ds.points
        ],
        "specialization": [list(pair) for pair in ds.specialization],
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, exit_code)


def cmd_torify(args) -> tuple[dict, int]:
    family, *params = args.family_spec
    fam = build_family(family, params)
    _check_budget(sum(fam.delta), "tori")
    return torification_to_dict(fam.build()), 0


def cmd_count(args) -> tuple[dict, int]:
    n_poly = CountingPolynomial.from_delta(_resolve_family(args).delta)
    payload = {
        "delta": list(n_poly.delta),
        "mono": list(n_poly.mono),
        "polynomial": n_poly.poly_string(),
    }
    if args.q:
        qs = _parse_int_list(args.q, "q")
        payload["values"] = {str(q): eval_counting(n_poly, q) for q in qs}
    return payload, 0


def cmd_zeta(args) -> tuple[dict, int]:
    z = zeta(CountingPolynomial.from_delta(_resolve_family(args).delta))
    return {
        "factors": [list(f) for f in z.factors],
        "rendered": z.render(),
    }, 0


def cmd_spec(args) -> tuple[dict, int]:
    cone = _parse_cone(args.cone)
    affine_fan = Fan(cone.ambient_dim, faces(cone))
    return _dscheme_payload(dscheme_of_fan(affine_fan)), 0


def cmd_dscheme(args) -> tuple[dict, int]:
    fan = load_fan(args.fan)
    return _dscheme_payload(dscheme_of_fan(fan)), 0


def cmd_gadget(args) -> tuple[dict, int]:
    fam = _resolve_family(args)
    orders = _parse_int_list(args.group, "group")
    group = FiniteAbelianGroup(tuple(orders))
    # the delta_r tori of rank r contribute |D|^r points each
    by_grade = {r: d * group.order**r for r, d in enumerate(fam.delta) if d}
    total = sum(by_grade.values())
    expected = eval_counting(CountingPolynomial.from_delta(fam.delta), group.order + 1)
    payload = {
        "group": orders,
        "order": group.order,
        "by_grade": {str(r): v for r, v in by_grade.items()},
        "total": total,
        "expected": expected,
        "match": total == expected,
    }
    if args.elements:
        _check_budget(total, "group elements")
        t = fam.build()
        full = cc_points(t, group, mode="full")
        payload["elements"] = {
            str(i): [[list(x) for x in point] for point in full.points(i)]
            for i in range(len(t.tori))
        }
    code = 0 if payload["match"] else CHECK_FAILED
    return payload, code


def cmd_soule(args) -> tuple[dict, int]:
    cone = _parse_cone(args.cone)
    monoid = monoid_of_cone(cone)
    m = args.m
    if m < 1:
        raise UsageError("--m must be >= 1")
    face_count = soule_count_by_faces(monoid, m)
    target = CyclicMonoidWithZero(m)
    total = target.order ** len(monoid.all_generators())
    payload: dict = {
        "m": m,
        "generators": [list(g) for g in monoid.generators],
        "unit_rank": monoid.unit_rank,
        "face_count": face_count,
    }
    if total <= enumeration_budget():
        homs = enumerate_monoid_homs(monoid, target)
        payload["enumerated_count"] = len(homs)
        payload["match"] = len(homs) == face_count
        if args.elements:
            payload["homs"] = [
                {
                    "values": list(h.values),
                    "support_face": [list(r) for r in h.support_face.rays],
                }
                for h in homs
            ]
    else:
        payload["enumerated_count"] = None
        payload["match"] = None
    code = CHECK_FAILED if payload["match"] is False else 0
    return payload, code


def cmd_verify(args) -> tuple[dict, int]:
    family, *params = args.family
    fam = build_family(family, params)
    qs = _parse_int_list(args.q, "q")
    if not qs:
        raise UsageError("--q needs at least one value")
    report = verify_counting_polynomial(CountingPolynomial.from_delta(fam.delta), *fam.oracle, qs)
    payload = {
        "family": args.family,
        "checks": [
            {"q": c.q, "counted": c.counted, "oracle": c.oracle, "equal": c.ok}
            for c in report.checks
        ],
        "ok": report.ok,
    }
    return payload, 0 if report.ok else CHECK_FAILED


def cmd_validate_fan(args) -> tuple[dict, int]:
    fan = load_fan(args.fan, validate=False)
    report = validate_fan(fan)
    payload = {"valid": report.ok, "violations": list(report.violations), "cones": len(fan.cones)}
    return payload, 0 if report.ok else CHECK_FAILED


def _render_text(sub: str, payload: dict) -> str:
    lines = []
    if sub == "torify":
        lines.append(f"dim {payload['dim']}, {len(payload['tori'])} tori, delta {payload['delta']}")
        lines.append("charts: " + ("none" if payload["charts"] is None else str(payload["charts"])))
    elif sub == "count":
        lines.append(f"N(q) = {payload['polynomial']}")
        lines.append(f"delta {payload['delta']}, mono {payload['mono']}")
        for q, v in payload.get("values", {}).items():
            lines.append(f"N({q}) = {v}")
    elif sub == "zeta":
        lines.append(payload["rendered"])
        lines.append(f"factors {payload['factors']}")
    elif sub in ("spec", "dscheme"):
        for p in payload["points"]:
            lines.append(f"point {p['cone']}: rank {p['rank']}, generators {p['generators']}")
        lines.append(f"specialization {payload['specialization']}")
    elif sub == "gadget":
        lines.append(
            f"|X(D)| = {payload['total']} (expected {payload['expected']}): "
            + ("ok" if payload["match"] else "MISMATCH")
        )
        lines.append(f"by grade: {payload['by_grade']}")
    elif sub == "soule":
        lines.append(f"face formula: {payload['face_count']}")
        lines.append(f"enumeration: {payload['enumerated_count']} -> match: {payload['match']}")
    elif sub == "verify":
        for c in payload["checks"]:
            status = "ok" if c["equal"] else "MISMATCH"
            lines.append(f"q={c['q']}: counted {c['counted']}, oracle {c['oracle']} [{status}]")
        lines.append("all equal" if payload["ok"] else "FAILED")
    elif sub == "validate-fan":
        lines.append("valid" if payload["valid"] else "invalid")
        lines.extend(payload["violations"])
    else:
        lines.append(json.dumps(payload, sort_keys=True))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torified",
        description="Exact torus decompositions, counting polynomials, zeta factors, "
        "monoid spectra, and point-set functors.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_parser("torify", "build a torification of a built-in family")
    p.add_argument("family_spec", nargs="+", metavar="FAMILY [PARAMS...]")
    p.set_defaults(handler=cmd_torify)

    p = add_parser("count", "counting polynomial of a torification")
    p.add_argument("--family", nargs="+")
    p.add_argument("--torification", help="torification JSON file (from `torify`)")
    p.add_argument("--q", help="comma-separated values to evaluate at")
    p.set_defaults(handler=cmd_count)

    p = add_parser("zeta", "zeta factors of a torification")
    p.add_argument("--family", nargs="+")
    p.add_argument("--torification")
    p.set_defaults(handler=cmd_zeta)

    p = add_parser("spec", "prime spectrum of the monoid of a cone")
    p.add_argument("--cone", required=True, help="rays like '1,0;1,2'")
    p.set_defaults(handler=cmd_spec)

    p = add_parser("dscheme", "monoid scheme of a fan")
    p.add_argument("--fan", required=True, help="fan JSON file")
    p.set_defaults(handler=cmd_dscheme)

    p = add_parser("gadget", "evaluate the group-side functor")
    p.add_argument("--group", required=True, help="cyclic orders, e.g. 2,3")
    p.add_argument("--family", nargs="+")
    p.add_argument("--torification")
    p.add_argument("--elements", action="store_true", help="list the points themselves")
    p.set_defaults(handler=cmd_gadget)

    p = add_parser("soule", "monoid maps of a cone into mu_m with zero")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cone", required=True, help="rays like '1,0;1,2'")
    p.add_argument("--elements", action="store_true")
    p.set_defaults(handler=cmd_soule)

    p = add_parser("verify", "counting polynomial vs. finite-field oracle")
    p.add_argument("--family", nargs="+", required=True)
    p.add_argument("--q", required=True, help="comma-separated prime powers")
    p.set_defaults(handler=cmd_verify)

    p = add_parser("validate-fan", "check fan axioms and report violations")
    p.add_argument("fan")
    p.set_defaults(handler=cmd_validate_fan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        payload, code = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValidationFailure as exc:
        payload, code = exc.payload, CHECK_FAILED
    except (TorifiedError, ValueError) as exc:
        # the constructors and oracles reject out-of-range parameters
        # (k > n, negative ranks, q < 2, cyclic orders < 1) with ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.format == "text":
        print(_render_text(args.subcommand, payload))
    else:
        envelope = {
            "tool": {"name": "torified", "version": __version__},
            "input": {
                "subcommand": args.subcommand,
                "args": {
                    k: v
                    for k, v in sorted(vars(args).items())
                    if k not in ("handler", "subcommand") and v is not None
                },
            },
            "result": payload,
            "timing_ms": round(elapsed_ms, 3),
        }
        print(json.dumps(envelope, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
