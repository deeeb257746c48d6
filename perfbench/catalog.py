"""Build ``catalog.json``: the base cones and fans the workloads transform.

Run from the repository root with ``python3 perfbench/catalog.py [SECTION ...]``
to rebuild the named sections (``cones``, ``soule``, ``fans``; default all)
and keep the others.  Every entry is made from a fixed master seed and
classified; ``spec`` cones and valid fans are stored with the canonical digest
of their payload as computed by the library at the time of building, and runs
compare against those digests.  The
classes and their sizes are described in ``workloads.py`` (CONE_ROUND,
FAN_ROUND).  Timings printed here guided the per-slot cost estimates there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from torified import cli  # noqa: E402
from workloads import CATALOG_PATH, apply, cone_arg, dscheme_digest, signed_permutation  # noqa: E402

IDENTITY = [[1 if i == j else 0 for j in range(4)] for i in range(4)]


class TooSlow(Exception):
    pass


def _alarm(signum, frame):
    raise TooSlow()


def timed(fn, limit_s):
    """fn() and its duration, or None when it runs past ``limit_s``."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t = time.perf_counter()
    try:
        return fn(), time.perf_counter() - t
    except TooSlow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def call(argv, limit_s=60.0):
    out, err = io.StringIO(), io.StringIO()

    def run():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv)

    got = timed(run, limit_s)
    if got is None:
        return None, None, "", limit_s
    code, dt = got
    return code, (json.loads(out.getvalue()) if out.getvalue() else None), err.getvalue(), dt


def ident(n):
    return [row[:n] for row in IDENTITY[:n]]


# ---------------------------------------------------------------------------
# Cones


def _pointed_full(rays, n):
    from torified.lattice import Cone

    try:
        cone = Cone(n, tuple(tuple(r) for r in rays))
    except Exception:
        return None
    if cone.dim != n or len(cone.rays) != len(rays):
        return None
    return cone


def spec_entry(rays, cls, limit_s):
    code, payload, _, dt = call(["spec", cone_arg(rays)], limit_s)
    if code != 0:
        return None
    n = len(rays[0])
    return {"class": cls, "rays": rays, "spec_digest": dscheme_digest(payload["result"], ident(n)),
            "seconds": round(dt, 4)}


def generator_count(rays):
    from torified.lattice import Cone
    from torified.monoids import monoid_of_cone

    cone = Cone(len(rays[0]), tuple(tuple(r) for r in rays))
    got = timed(lambda: len(monoid_of_cone(cone).generators), 0.5)
    return got[0] if got else None


def soule_ok(rays, m, limit_s):
    """Seconds of ``soule --m m`` on ``rays``, or None unless it answers
    (m+1)^n homs (the face count of a simplicial n-cone) within ``limit_s``."""
    code, payload, _, dt = call(["soule", "--m", str(m), cone_arg(rays)], limit_s)
    if code != 0 or payload["result"]["enumerated_count"] != (m + 1) ** len(rays):
        return None
    return dt


def soule_transforms(rng, rays, limit_s, want=6, tries=16):
    """Signed permutations under which ``soule`` is right at m = 2 and 3 and
    costs about the median at m = 3.

    The box search's cost swings by orders of magnitude with the coordinate
    order and signs, so runs draw only measured images of a base cone: of up
    to ``tries`` distinct ones within ``limit_s``, the ``want`` closest to
    their median time.
    """
    n = len(rays[0])
    timed_images = []
    seen = []
    for _ in range(3 * tries):
        a = signed_permutation(rng, n)
        if a in seen:
            continue
        seen.append(a)
        image = [list(apply(a, r)) for r in rays]
        dt = soule_ok(image, 3, limit_s)
        if dt is not None and soule_ok(image, 2, limit_s) is not None:
            timed_images.append((dt, a))
        if len(seen) == tries:
            break
    if not timed_images:
        return []
    mid = sorted(t for t, _ in timed_images)[len(timed_images) // 2]
    timed_images.sort(key=lambda ta: abs(ta[0] - mid))
    return [a for _, a in timed_images[:want]]


def random_cones(rng, n, nrays, lo, hi, count):
    while count:
        rays = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(nrays)]
        if any(math.gcd(*r) != 1 for r in rays):
            continue
        if _pointed_full(rays, n) is None:
            continue
        count -= 1
        yield sorted(rays)


def build_cones():
    rng = random.Random("torified-cones")
    out = []
    two_d = [[[1, 0], [a, b]] for b in range(5, 31) for a in range(1, b) if math.gcd(a, b) == 1]
    for rays in rng.sample(two_d, 40):
        out.append(spec_entry(rays, "c2", 0.05))
    for cls, n, k, lo, hi, limit, want in (
        ("c3s", 3, 3, -3, 3, 0.3, 12),
        ("c3n", 3, 4, -2, 2, 0.4, 12),
        ("c4s", 4, 4, -2, 2, 0.4, 10),
        ("c4n", 4, 5, -1, 1, 0.6, 8),
    ):
        got = 0
        for rays in random_cones(rng, n, k, lo, hi, 200):
            entry = spec_entry(rays, cls, limit)
            if entry:
                out.append(entry)
                got += 1
                if got == want:
                    break
    out = [e for e in out if e]
    for i, e in enumerate(out):
        e["id"] = f"cone{i:03d}"
    print("cones:", {c: sum(e["class"] == c for e in out) for c in sorted({e["class"] for e in out})},
          file=sys.stderr, flush=True)
    return out


def build_soule():
    """Simplicial cones for ``soule``, classed by Hilbert-basis size g = 3..5.

    Every class has kernel rank g - n <= 1: with rank 2 or more the library's
    hom enumeration over-counts (ROADMAP item 1), so those cones are left out
    of the timed workloads and kept as repros in ``selftest.py``.  Only
    images checked to give the right count at m = 2 and m = 3 are kept.
    """
    rng = random.Random("torified-soule")
    candidates = [[[1, 0], [1, b]] for b in range(2, 7)]
    candidates += list(random_cones(rng, 3, 3, -2, 2, 120))
    candidates += list(random_cones(rng, 4, 4, -1, 1, 120))
    limits = {3: 0.3, 4: 0.5, 5: 0.8}
    out, per_class = [], {}
    for rays in candidates:
        n = len(rays[0])
        g = generator_count(rays)
        if g not in limits or g - n > 1 or per_class.get(g, 0) == 12:
            continue
        if soule_ok(rays, 2, limits[g]) is None:
            continue
        transforms = soule_transforms(rng, rays, limits[g])
        if len(transforms) < 3:
            continue
        per_class[g] = per_class.get(g, 0) + 1
        out.append({"class": f"g{g}", "rays": rays, "generators": g, "transforms": transforms})
    for i, e in enumerate(out):
        e["id"] = f"soule{i:03d}"
    print("soule:", per_class, file=sys.stderr, flush=True)
    return out


# ---------------------------------------------------------------------------
# Fans (all simplicial, given by maximal cones; faces are closed on loading)


def projective(n):
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)] + [[-1] * n]
    return rays, [sorted(set(range(n + 1)) - {i}) for i in range(n + 1)]


def fan_product(a, b):
    ra, ca = a
    rb, cb = b
    na, nb = len(ra[0]), len(rb[0])
    rays = [r + [0] * nb for r in ra] + [[0] * na + r for r in rb]
    cones = [x + [len(ra) + j for j in y] for x in ca for y in cb]
    return rays, cones


def hirzebruch(a):
    return [[1, 0], [0, 1], [-1, a], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]]


def random_complete_2d(rng, k):
    while True:
        rays = set()
        while len(rays) < k:
            r = (rng.randint(-4, 4), rng.randint(-4, 4))
            if any(r) and math.gcd(*r) == 1:
                rays.add(r)
        rays = sorted(rays, key=lambda r: math.atan2(r[1], r[0]))
        ok = all(
            rays[i][0] * rays[(i + 1) % k][1] - rays[i][1] * rays[(i + 1) % k][0] > 0
            for i in range(k)
        )
        if ok:
            return [list(r) for r in rays], [[i, (i + 1) % k] for i in range(k)]


def overlap_2d(fan):
    """Add the cone on rays i and i+2 where it is strictly convex: it covers ray i+1."""
    rays, cones = fan
    k = len(rays)
    for i in range(k):
        a, b = rays[i], rays[(i + 2) % k]
        if a[0] * b[1] - a[1] * b[0] > 0:
            return rays, cones + [[i, (i + 2) % k]]
    return None


def overlap_3d(fan):
    """Add a cone inside the first maximal cone that is not one of its faces."""
    rays, cones = fan
    first = cones[0]
    inner = [sum(rays[i][j] for i in first) for j in range(len(rays[0]))]
    return rays + [inner], cones + [first[:2] + [len(rays)]]


def fvector(dim, cones):
    faces = set()
    for c in cones:
        for mask in range(1 << len(c)):
            faces.add(tuple(sorted(c[i] for i in range(len(c)) if mask >> i & 1)))
    f = [0] * (dim + 1)
    for face in faces:
        f[len(face)] += 1
    return f


def fan_entry(cls, fan, valid):
    rays, cones = fan
    dim = len(rays[0])
    path = os.path.join(HERE, ".catalog_fan.json")
    with open(path, "w") as fh:
        json.dump({"dim": dim, "rays": rays, "cones": cones, "close_faces": True}, fh)
    try:
        code, payload, _, dt = call(["validate-fan", path])
        if payload["result"]["valid"] != valid:
            raise SystemExit(f"library disagrees on the validity of {cls} fan {fan}")
        entry = {"class": cls, "dim": dim, "rays": rays, "cones": cones, "valid": valid,
                 "fvector": fvector(dim, cones), "validate_seconds": round(dt, 4)}
        if valid:
            code, payload, _, dt = call(["dscheme", "--fan", path])
            entry["dscheme_digest"] = dscheme_digest(payload["result"], ident(dim))
    finally:
        os.remove(path)
    return entry


def build_fans():
    rng = random.Random("torified-fans")
    out = []
    for n in (2, 3):
        out.append(fan_entry("proj", projective(n), True))
    out.append(fan_entry("p4", projective(4), True))
    p1, p2 = projective(1), projective(2)
    # P^1 x P^1 is left out: its symmetry leaves too few distinct images
    for fan in (fan_product(p1, p2), fan_product(p2, p1), fan_product(fan_product(p1, p1), p1)):
        out.append(fan_entry("prod", fan, True))
    for a in range(1, 10):  # F_0 is P^1 x P^1, already in "prod"
        out.append(fan_entry("hirz", hirzebruch(a), True))
    rand = [random_complete_2d(rng, rng.randint(5, 9)) for _ in range(24)]
    for fan in rand:
        out.append(fan_entry("rand2", fan, True))
    for fan in rand[:12] + [hirzebruch(a) for a in range(0, 4)]:
        bad = overlap_2d(fan)
        if bad:
            out.append(fan_entry("bad2", bad, False))
    for fan in (projective(3), fan_product(p1, p2), fan_product(fan_product(p1, p1), p1)):
        out.append(fan_entry("bad3", overlap_3d(fan), False))
    for i, e in enumerate(out):
        e["id"] = f"fan{i:03d}"
    return out


SECTIONS = {"cones": build_cones, "soule": build_soule, "fans": build_fans}


def main(argv):
    """Rebuild the named sections (default: all) and keep the others."""
    names = argv or list(SECTIONS)
    unknown = set(names) - set(SECTIONS)
    if unknown:
        raise SystemExit(f"unknown section(s) {sorted(unknown)}; choose from {list(SECTIONS)}")
    catalog = {}
    if os.path.exists(CATALOG_PATH):
        with open(CATALOG_PATH) as fh:
            catalog = json.load(fh)
    for name in names:
        catalog[name] = SECTIONS[name]()
    with open(CATALOG_PATH, "w") as fh:
        json.dump({name: catalog[name] for name in SECTIONS}, fh, indent=1)
        fh.write("\n")
    summary = {}
    for e in catalog["cones"]:
        summary.setdefault(e["class"], []).append(e["seconds"])
    for e in catalog["fans"]:
        summary.setdefault("fan:" + e["class"], []).append(e["validate_seconds"])
    for cls, ts in sorted(summary.items()):
        print(f"{cls:10s} n={len(ts):3d} mean={sum(ts) / len(ts):.4f}s max={max(ts):.4f}s")


if __name__ == "__main__":
    main(sys.argv[1:])
