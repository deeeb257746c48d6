"""Seeded inputs, operation plans and reference checks for the four workloads.

An operation ("op") is one ``torified`` CLI invocation: an argv list, the
fan files it reads, and the reference data its answer is checked against.
Plans depend only on (workload, seed, seconds); the program under test never
sees the seed.  References are computed here, independently of the library:
point-count polynomials from the classical formulas, f-vectors of the fans
this module builds, (m+1)^n homs on simplicial n-cones, and canonical digests of ``spec``/``dscheme`` payloads
stored in ``catalog.json`` when the catalogue was built.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG_PATH = os.path.join(HERE, "catalog.json")

WORKLOADS = ("counts", "listings", "cones", "fans")

# ---------------------------------------------------------------------------
# Integer polynomials as coefficient lists (index = power of q)


def p_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def p_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def p_pow(a, k):
    out = [1]
    for _ in range(k):
        out = p_mul(out, a)
    return out


def p_eval(a, q):
    return sum(c * q**i for i, c in enumerate(a))


def p_trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def gaussian_poly(n, k):
    """[n choose k]_q by the q-Pascal rule."""
    table = {(0, 0): [1]}
    for m in range(1, n + 1):
        for j in range(0, min(m, k) + 1):
            left = table.get((m - 1, j - 1), [0]) if j > 0 else [0]
            right = table.get((m - 1, j), [0]) if j <= m - 1 else [0]
            table[(m, j)] = p_add(left, p_mul([0] * j + [1], right))
    return table[(n, k)]


def family_poly(family, params):
    """Point count over F_q of a built-in family, as a polynomial in q."""
    if family == "grassmannian":
        k, n = params
        return p_trim(gaussian_poly(n, k))
    if family == "flag":
        out, left = [1], sum(params)
        for part in params:
            out = p_mul(out, gaussian_poly(left, part))
            left -= part
        return p_trim(out)
    if family == "sl":
        (n,) = params
        out = [0] * (n * (n - 1) // 2) + [1]
        for i in range(2, n + 1):
            out = p_mul(out, [-1] + [0] * (i - 1) + [1])
        return p_trim(out)
    if family == "projective":
        return [1] * (params[0] + 1)
    if family == "affine":
        return [0] * params[0] + [1]
    if family == "torus":
        return p_pow([-1, 1], params[0])
    raise ValueError(family)


def fvector_poly(dim, fvector):
    """Toric point count: sum over cones of (q-1)^(n - dim cone)."""
    out = [0]
    for k, f in enumerate(fvector):
        out = p_add(out, [f * c for c in p_pow([-1, 1], dim - k)])
    return p_trim(out)


def delta_poly_value(delta, q):
    return sum(d * (q - 1) ** r for r, d in enumerate(delta))


CHECK_QS = (2, 3, 4, 5, 7, 8, 9)
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)

# ---------------------------------------------------------------------------
# Family ladders


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def family_ladder():
    """Every (family, params) on the ladders, in a fixed order."""
    out = []
    for n in range(1, 9):
        out += [("grassmannian", (k, n)) for k in range(n + 1)]
    for n in range(1, 7):
        out += [("flag", c) for c in _compositions(n)]
    out += [("sl", (n,)) for n in range(1, 5)]
    for fam in ("affine", "torus", "projective"):
        out += [(fam, (n,)) for n in range(4)]
    return out


def tori_count(family, params):
    """Number of tori the constructors build: N(2) for a torified variety."""
    return p_eval(family_poly(family, params), 2)


# Abelian group types by order, as ``--group`` strings.
GROUPS_BY_ORDER = {
    1: ["1"], 2: ["2"], 3: ["3"], 4: ["4", "2,2"], 5: ["5"], 6: ["6", "2,3"],
    7: ["7"], 8: ["8", "2,4", "2,2,2"], 9: ["9", "3,3"], 10: ["10", "2,5"],
    11: ["11"], 12: ["12", "2,6", "3,4"],
}

ELEMENT_CAP = 20000  # listed group elements per `gadget --elements` op
LISTING_EXCLUDED = (("flag", (1, 1, 1, 1, 1, 1)),)  # 7 s and 56 MB of JSON alone


def _family_argv(family, params):
    return [family] + [str(p) for p in params]


# ---------------------------------------------------------------------------
# Transforms


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def shear_transform(rng, n):
    """A signed permutation times two elementary shears: a seeded element of GL_n(Z)."""
    a = signed_permutation(rng, n)
    for _ in range(2 if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        a = [[a[r][s] + (c * a[j][s] if r == i else 0) for s in range(n)] for r in range(n)]
    return a


def apply(a, v):
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def transpose(a):
    return [list(col) for col in zip(*a)]


def cone_arg(rays):
    return "--cone=" + ";".join(",".join(str(x) for x in r) for r in rays)


# ---------------------------------------------------------------------------
# Canonical payload digests (invariant under the GL_n(Z) transforms above)


def dscheme_digest(result, back):
    """Digest of a spec/dscheme payload that ignores cone order and unit
    representatives: per point its rank, generator count and specialization
    degrees, plus the generators themselves on rank-0 points (those are the
    Hilbert bases of full-dimensional duals, hence canonical once mapped
    back through ``back``, the transpose of the ray transform)."""
    points = result["points"]
    pos = {p["cone"]: i for i, p in enumerate(points)}
    indeg = [0] * len(points)
    outdeg = [0] * len(points)
    for i, j in result["specialization"]:
        outdeg[pos[i]] += 1
        indeg[pos[j]] += 1
    keys = []
    for i, p in enumerate(points):
        gens = sorted(apply(back, g) for g in p["generators"]) if p["rank"] == 0 else []
        keys.append([p["rank"], len(p["generators"]), indeg[i], outdeg[i], [list(g) for g in gens]])
    keys.sort()
    blob = json.dumps([keys, len(result["specialization"])], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def payload_digest(payload):
    """Digest of a whole CLI envelope minus its timing field."""
    body = {k: v for k, v in payload.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:20]


def load_catalog():
    with open(CATALOG_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Plans


class Op:
    """One CLI call with what the check needs; ``files`` maps a relative path
    to the JSON it holds (written at set-up)."""

    __slots__ = ("index", "kind", "argv", "ref", "files", "est_s")

    def __init__(self, kind, argv, ref, est_s, files=None):
        self.index = -1
        self.kind = kind
        self.argv = argv
        self.ref = ref
        self.files = files or {}
        self.est_s = est_s

    def describe(self):
        return {"index": self.index, "kind": self.kind, "argv": self.argv, "files": self.files}


def _take_until(ops, seconds):
    """The fixed-order prefix whose estimated cost reaches ``seconds``."""
    out, total = [], 0.0
    for op in ops:
        if total >= seconds:
            break
        out.append(op)
        total += op.est_s
    return out


def plan_counts(rng, seconds):
    ops = []
    ladder = sorted(family_ladder(), key=lambda fp: (tori_count(*fp), fp))
    for i, (family, params) in enumerate(ladder):
        poly = family_poly(family, params)
        fam = _family_argv(family, params)
        # the command is fixed by ladder position, so every seed does the same work
        kind = ("count", "zeta", "verify", "gadget")[i % 4]
        qs = ",".join(str(q) for q in sorted(rng.sample(PRIME_POWERS, rng.randint(1, 3))))
        if kind == "count":
            argv = ["count", "--family", *fam] + (["--q", qs] if rng.random() < 0.5 else [])
        elif kind == "zeta":
            argv = ["zeta", "--family", *fam]
        elif kind == "verify":
            argv = ["verify", "--q", qs, "--family", *fam]
        else:
            group = rng.choice(GROUPS_BY_ORDER[rng.randint(1, 12)])
            argv = ["gadget", "--group", group, "--family", *fam]
        est = 0.002 + 5e-6 * tori_count(family, params)
        ops.append(Op(kind, argv, {"poly": poly}, est))
    return _take_until(ops, seconds)


def plan_listings(rng, seconds):
    ops = []
    ladder = sorted(family_ladder(), key=lambda fp: (tori_count(*fp), fp))
    for family, params in ladder:
        if (family, params) in LISTING_EXCLUDED:
            continue
        poly = family_poly(family, params)
        fam = _family_argv(family, params)
        orders = [d for d in range(2, 7) if p_eval(poly, d + 1) <= ELEMENT_CAP]
        if orders:
            order = max(orders)
            group = rng.choice(GROUPS_BY_ORDER[order])
            argv = ["gadget", "--elements", "--group", group, "--family", *fam]
            est = 0.002 + 3e-5 * p_eval(poly, order + 1)
            ops.append(Op("gadget-elements", argv, {"poly": poly, "order": order}, est))
        else:
            argv = ["torify", *fam]
            ops.append(Op("torify", argv, {"poly": poly}, 0.002 + 1.1e-5 * tori_count(family, params)))
    return _take_until(ops, seconds)


# One round of cones: per class, how many catalogue bases it uses and the
# estimated seconds of one op.  Round r takes the next bases of each class, so
# every seed runs the same bases and only the transforms and order differ.
# The cheap ops (2-D spec and g3 soule) are a little over half of the ops so
# that the median op sits inside one class rather than on the edge between
# two.  Soule classes are Hilbert-basis sizes 3-5 with kernel rank at most 1;
# cones of kernel rank 2 or more hit the known hom over-count (ROADMAP item 1)
# and are kept out of the timed ops (see ``catalog.build_soule``).
CONE_ROUND = (
    ("spec", "c2", 36, 0.021),
    ("spec", "c3s", 8, 0.114),
    ("spec", "c3n", 6, 0.173),
    ("spec", "c4s", 4, 0.242),
    ("spec", "c4n", 3, 0.537),
    ("soule", "g3", 8, 0.012),
    ("soule", "g4", 10, 0.06),
    ("soule", "g5", 8, 0.23),
)

# One round of fans: (command, class, bases per round, estimated seconds).
# About a fifth of the ops read a fan that is invalid by construction.
FAN_ROUND = (
    ("validate-fan", "p4", 1, 0.9),
    ("validate-fan", "proj", 2, 0.045),
    ("dscheme", "proj", 2, 0.055),
    ("verify", "proj", 2, 0.04),
    ("validate-fan", "prod", 4, 0.18),
    ("dscheme", "prod", 4, 0.18),
    ("verify", "prod", 4, 0.18),
    ("validate-fan", "hirz", 3, 0.012),
    ("dscheme", "hirz", 3, 0.012),
    ("verify", "hirz", 3, 0.012),
    ("validate-fan", "rand2", 4, 0.045),
    ("dscheme", "rand2", 4, 0.05),
    ("verify", "rand2", 4, 0.045),
    ("validate-fan", "bad2", 2, 0.03),
    ("dscheme", "bad2", 2, 0.05),
    ("verify", "bad2", 2, 0.04),
    ("validate-fan", "bad3", 1, 0.17),
    ("verify", "bad3", 1, 0.19),
)


def _distinct_transform(rng, rays, seen, transform, cones=None):
    """A seeded transform of ``rays`` giving a cone (or, with ``cones``, a
    fan) not used yet in this run."""
    n = len(rays[0])
    groups = cones if cones is not None else [range(len(rays))]
    for _ in range(500):
        a = transform(rng, n)
        image = [apply(a, r) for r in rays]
        key = tuple(sorted(tuple(sorted(image[i] for i in g)) for g in groups))
        if key not in seen:
            seen.add(key)
            return a, image
    raise RuntimeError("catalogue class too small for a run of distinct inputs")


def _rounds(round_spec, entries, seconds):
    """(round, kind, entry, estimate) over as many whole rounds as come
    closest to ``seconds`` (at least one)."""
    by_class = {}
    for entry in entries:
        by_class.setdefault(entry["class"], []).append(entry)
    round_s = sum(count * est for _, _, count, est in round_spec)
    for r in range(max(1, round(seconds / round_s))):
        for kind, cls, count, est in round_spec:
            bases = by_class[cls]
            for i in range(count):
                yield r, kind, bases[(r * count + i) % len(bases)], est


def plan_cones(rng, seconds, catalog):
    ops, seen = [], set()
    for r, kind, entry, est in _rounds(CONE_ROUND, catalog["cones"] + catalog["soule"], seconds):
        if kind == "spec":
            a, rays = _distinct_transform(rng, entry["rays"], seen, signed_permutation)
            ref = {"digest": entry["spec_digest"], "back": transpose(a), "base": entry["id"]}
            ops.append(Op("spec", ["spec", cone_arg(rays)], ref, est))
        else:  # only the images checked and timed by catalog.soule_transforms
            def transform(rng, n, choices=entry["transforms"]):
                return rng.choice(choices)

            a, rays = _distinct_transform(rng, entry["rays"], seen, transform)
            m = 2 + r % 2
            # a simplicial n-cone has 2^n faces, so sum over faces of m^codim = (m+1)^n
            ref = {"base": entry["id"], "homs": (m + 1) ** len(rays)}
            ops.append(Op("soule", ["soule", "--m", str(m), cone_arg(rays)], ref, est))
    return ops


def plan_fans(rng, seconds, catalog):
    ops, seen = [], set()
    for _, kind, entry, est in _rounds(FAN_ROUND, catalog["fans"], seconds):
        a, rays = _distinct_transform(rng, entry["rays"], seen, shear_transform, entry["cones"])
        path = f"fan{len(ops):04d}.json"
        data = {"dim": entry["dim"], "rays": [list(r) for r in rays],
                "cones": entry["cones"], "close_faces": True}
        ref = {"valid": entry["valid"], "base": entry["id"]}
        if kind == "validate-fan":
            argv = ["validate-fan", path]
            ref["cones"] = sum(entry["fvector"])
        elif kind == "verify":
            qs = sorted(rng.sample(PRIME_POWERS, 3))
            argv = ["verify", "--q", ",".join(map(str, qs)), "--family", "toric", path]
            ref["poly"] = fvector_poly(entry["dim"], entry["fvector"])
        else:
            argv = ["dscheme", "--fan", path]
            ref["digest"] = entry.get("dscheme_digest")
            ref["back"] = transpose(a)
        ops.append(Op(kind, argv, ref, est, {path: data}))
    return ops


def make_plan(workload, seed, seconds):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "counts":
        ops = plan_counts(rng, seconds)
    elif workload == "listings":
        ops = plan_listings(rng, seconds)
    elif workload == "cones":
        ops = plan_cones(rng, seconds, load_catalog())
    elif workload == "fans":
        ops = plan_fans(rng, seconds, load_catalog())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.index = i
    return ops


# ---------------------------------------------------------------------------
# Checks: each returns None when the answer is right, else a reason


def _expect(cond, reason):
    return None if cond else reason


def _check_poly_delta(delta, poly):
    for q in CHECK_QS:
        if delta_poly_value(delta, q) != p_eval(poly, q):
            return f"delta {delta} gives N({q}) = {delta_poly_value(delta, q)}, oracle {p_eval(poly, q)}"
    return None


def check_op(op, code, payload, stderr):
    """Compare one op's exit code and payload with its reference."""
    kind, ref = op.kind, op.ref
    if not ref.get("valid", True):
        if code != 1 or payload is None:
            return f"fan built to be invalid: expected exit 1 with a report, got exit {code}"
        res = payload["result"]
        return _expect(res["valid"] is False and res["violations"], "invalid fan reported valid")
    if payload is None or code != 0:
        tail = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"exit {code} on a valid input {tail}".strip()
    res = payload["result"]
    if kind == "count":
        poly = ref["poly"]
        mono = p_trim(res["mono"])
        bad = _check_poly_delta(res["delta"], poly) or _expect(mono == poly, f"mono {mono} != {poly}")
        for q, v in res.get("values", {}).items():
            bad = bad or _expect(v == p_eval(poly, int(q)), f"N({q}) = {v}")
        return bad
    if kind == "zeta":
        want = [[i, -a] for i, a in enumerate(ref["poly"]) if a]
        return _expect(res["factors"] == want, f"zeta factors {res['factors']} != {want}")
    if kind == "verify":
        poly = ref["poly"]
        for c in res["checks"]:
            if not (c["equal"] and c["counted"] == c["oracle"] == p_eval(poly, c["q"])):
                return f"verify at q={c['q']}: counted {c['counted']}, oracle {c['oracle']}"
        return _expect(res["ok"] is True, "verify not ok")
    if kind == "gadget":
        want = p_eval(ref["poly"], res["order"] + 1)
        ok = res["total"] == res["expected"] == want and res["match"] is True
        ok = ok and sum(res["by_grade"].values()) == want
        return _expect(ok, f"gadget total {res['total']} != N({res['order'] + 1}) = {want}")
    if kind == "torify":
        delta = [0] * (res["dim"] + 1)
        for t in res["tori"]:
            delta[t["rank"]] += 1
        labels = {t["label"] for t in res["tori"]}
        return (
            _expect(delta == res["delta"], "delta does not match the listed tori")
            or _check_poly_delta(delta, ref["poly"])
            or _expect(len(labels) == len(res["tori"]), "torus labels repeat")
        )
    if kind == "gadget-elements":
        order = ref["order"]
        total = 0
        for points in res["elements"].values():
            rank = len(points[0])
            if len(points) != order**rank or len({json.dumps(p) for p in points}) != len(points):
                return f"torus with {len(points)} listed points is not D^{rank} for |D|={order}"
            total += len(points)
        want = p_eval(ref["poly"], order + 1)
        return _expect(total == want == res["total"], f"{total} listed elements, N({order + 1}) = {want}")
    if kind == "soule":
        got = res["enumerated_count"]
        return _expect(res["match"] is True and got == ref["homs"],
                       f"soule enumerated {got} homs, a simplicial cone has {ref['homs']}")
    if kind in ("spec", "dscheme"):
        got = dscheme_digest(res, ref["back"])
        return _expect(got == ref["digest"], f"payload digest {got} != stored {ref['digest']}")
    if kind == "validate-fan":
        return _expect(res["valid"] is True and res["cones"] == ref["cones"],
                       f"valid fan reported valid={res['valid']} with {res['cones']} cones")
    raise ValueError(kind)
