"""Command-line front end.

Every subcommand prints a JSON envelope (tool, input echo, result, timing) to
stdout and diagnostics to stderr.  Exit codes: 0 success, 1 when a validation
or verification check fails, 2 for usage and parse errors, and 141 when the
reader of stdout closed it before the envelope was written (as a shell reports
a process ended by SIGPIPE; nothing goes to stderr then).  Identical inputs
produce byte-identical payloads apart from the timing field.  ``gadget``
checks |X(D)| against N(|D| + 1) by the family's finite-field formula; a
torification file has no formula, and its ``expected`` and ``match`` are null.
``verify`` and ``gadget`` read only the delta vector, by one sum over it.

A built-in family is its record in the library's table, ``counting._FAMILIES``
(arity, check, rows, formula, listing); its parameters are ints, or a fan file
for ``toric``.  Each row is computed when first read, and kept: ``zeta``
prints the monomial row and runs no Taylor shift on a built-in family,
``count`` prints both rows and runs one on ``grassmannian``, ``flag`` and
``sl``, none on the others; both run one on a fan or a torification file,
whose delta vector is read from its tori.  ``torify`` counts the tori as N(2),
the points over F_2 by the finite-field formula (one per torus), and refuses a
listing over the enumeration budget before it builds a torus or a delta
vector.  Torifications are built only for ``torify`` listings and for
``toric`` fan files, and each is built at most once per command: ``gadget
--elements`` reads a built-in family's torus ranks from its record, which
lists them from the cells with no label made, and reads a file's from its
tori.  A torus listing writes each run of a part as one join (``_ToriList``):
one scan per distinct cell, kept on the cell across writes, decides whether
any of its labels needs an escape, only such a cell is escaped label by label,
and the part's "/" rides in the join's glue, since no part with a prefix holds
an empty label.  The cells of the built-in listings are the tables of A^d,
which the library keeps once built, so a process that lists again scans none.
``elements`` is one block (``_Elements``) that renders the group's elements
once, renders each rank's D^r once, at its first torus, as one join per
group element over the points of D^(r-1) (:func:`_power_blocks`), and writes
each torus's key and then its rank's shared blocks; no Torus object is made.
The envelope is streamed to stdout: dicts key by key, a torus listing one run
at a time, each torus's D^r as its shared blocks, and a D-scheme one point at
a time, so peak memory is bounded by the largest block and the kept D^r
texts, not by the output.  Every other value is rendered whole, by a handler
looked up by its exact type, and a list of rows of exact ints (a point's
generators, the specialization pairs) is one ``%`` format over its
flattened ints; the glue texts of each depth and the format of each row
length are kept in module tables.
``torify flag 1 1 1 1 1 1`` writes 56 MB of JSON to /dev/null in 0.04-0.07 s
and peaks at 20 MB RSS, and ``gadget --elements --group 6 --family affine 7``
(823,543 elements, 209 MB of JSON) takes 0.12-0.14 s and peaks at 122-124 MB
(Python 3.11, 2 vCPUs).

The grammar of the command line is one table, ``_COMMANDS``.  :func:`_parse`
reads an argv in its canonical forms (``--opt value``, ``--opt=value``, the
values of a "+" option up to the next option, flags, and negative ints such
as ``torify torus -2``) into the namespace argparse would give, in a few
microseconds.  Anything else (``--help``, abbreviations, unknown or repeated
options, ``--``, a missing argument, a dash-led value such as ``--cone
-1,0;0,1``) goes to :func:`build_parser`, which imports argparse and builds
its parser from the same table, so help texts, usage errors and exit codes
are argparse's own; a one-value option whose value argparse drops, as in
``--q=--``, is a usage error too.  A well-formed command never imports
argparse.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections.abc import Callable, Sequence
from json.encoder import encode_basestring_ascii
from math import isfinite
from types import SimpleNamespace

from . import __version__
from .budget import check_budget
from .counting import _FAMILIES, CountingPolynomial, _zeta, eval_counting, oracle_point_count
from .counting import to_monomial_basis, verify_counting_polynomial
from .errors import BudgetExceeded, TorifiedError
from .gadgets import (
    CyclicMonoidWithZero,
    FiniteAbelianGroup,
    count_monoid_homs,
    enumerate_monoid_homs,
    soule_count_by_faces,
)
from .lattice import Cone, Fan, _int_list, fan_from_dict, validate_fan
from .monoids import _cone_dscheme, dscheme_of_fan, monoid_of_cone
from .torify import Torification, Torus, _graded_terms, delta_vector, to_delta_basis

USAGE_ERROR = 2
CHECK_FAILED = 1
PIPE_CLOSED = 141  # what a shell reports for a process ended by SIGPIPE


class UsageError(Exception):
    """Bad parameters or malformed input files; maps to exit code 2."""


def _write_json(obj, write: Callable[[str], object]) -> None:
    """Write the JSON text of ``obj`` with sorted keys and an indent of 2
    through ``write``, in pieces: the same text as the stdlib's ``json.dumps``
    with ``sort_keys=True`` and ``indent=2``, for the values an envelope holds:
    str-keyed dicts, lists, tuples, str, int, bool, None and float, and the
    :class:`_Block` values that stand for a list and write their parts
    themselves.

    The outer dicts are written key by key and blocks part by part (a
    D-scheme's points, ``_Points``, one text per point); every other value
    is rendered whole, so the longest text held is one part, one block of a
    D^r, one point or one plain value, never the envelope.  A value is
    rendered by the handler of its exact type (:data:`_RENDERERS`); a
    subclass or a block takes the ``isinstance`` tests after it.  A plain
    dict, list or tuple is rendered in one join of its items' texts; a list
    of ints or of strs is told by the set of its items' exact types, and a
    list of rows of exact ints (generators, specialization pairs; empty or
    ragged rows too) is one ``%`` format over its flattened ints, the format
    of each row being kept by depth and length (:func:`_row_format`).  The
    texts that open, separate and close a container are kept by depth, in
    module tables (:func:`_glue`).  The stdlib encoder leaves its C
    implementation when an indent is set; here strings go through the C
    escaper.
    """
    _put(obj, 0, write)


# by depth: the texts that open a list, separate its items and close it, and
# the same for a dict, made once per process for each depth that a value reaches
_LISTS: list[tuple[str, str, str]] = []
_DICTS: list[tuple[str, str, str]] = []
# by (depth, length): the % format of a row of that many ints
_ROWS: dict[tuple[int, int], str] = {}


def _glue(depth: int) -> None:
    """Extend :data:`_LISTS` and :data:`_DICTS` to ``depth``."""
    while len(_LISTS) <= depth:
        inner, outer = "\n" + "  " * (len(_LISTS) + 1), "\n" + "  " * len(_LISTS)
        _LISTS.append(("[" + inner, "," + inner, outer + "]"))
        _DICTS.append(("{" + inner, "," + inner, outer + "}"))


def _row_format(depth: int, length: int) -> str:
    """The % format of a list of ``length`` ints at ``depth``, kept in :data:`_ROWS`."""
    if length == 0:
        return "[]"
    if depth >= len(_LISTS):
        _glue(depth)
    start, sep, end = _LISTS[depth]
    _ROWS[depth, length] = text = start + sep.join(["%d"] * length) + end
    return text


def _render(v, depth: int) -> str:
    renderer = _RENDERERS.get(type(v))
    if renderer is not None:
        return renderer(v, depth)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, (list, tuple)):
        return _render_items(v, depth)
    if isinstance(v, dict):
        return _render_dict(v, depth)
    if isinstance(v, _Block):
        pieces: list[str] = []
        v.write_json(depth, _render, pieces.append)
        return "".join(pieces)
    return json.dumps(v)  # int and float subclasses


def _render_items(v, depth: int) -> str:
    if not v:
        return "[]"
    if depth >= len(_LISTS):
        _glue(depth)
    start, sep, end = _LISTS[depth]
    kinds = set(map(type, v))  # exact types: a bool renders as true/false
    if kinds == _INT:
        texts = map(int.__repr__, v)
    elif kinds == _STR:
        texts = map(encode_basestring_ascii, v)
    elif kinds <= _SEQUENCES:
        flat = [x for row in v for x in row]
        if set(map(type, flat)) == _INT:  # rows of exact ints: one % format
            inner = depth + 1
            formats = [_ROWS.get((inner, len(x))) or _row_format(inner, len(x)) for x in v]
            return (start + sep.join(formats) + end) % tuple(flat)
        texts = [_render_items(x, depth + 1) for x in v]
    else:
        texts = [_render(x, depth + 1) for x in v]
    return "".join((start, sep.join(texts), end))


def _render_dict(v, depth: int) -> str:
    if not v:
        return "{}"
    if depth >= len(_DICTS):
        _glue(depth)
    start, sep, end = _DICTS[depth]
    texts = [
        encode_basestring_ascii(k) + ": " + _render(x, depth + 1) for k, x in sorted(v.items())
    ]
    return "".join((start, sep.join(texts), end))


def _put(v, depth: int, write) -> None:
    """Write ``v`` at ``depth``: a dict key by key, a block part by part."""
    if isinstance(v, _Block):
        v.write_json(depth, _render, write)
    elif not isinstance(v, dict):
        write(_render(v, depth))
    elif not v:
        write("{}")
    else:
        if depth >= len(_DICTS):
            _glue(depth)
        before, sep, end = _DICTS[depth]
        for k, x in sorted(v.items()):
            write(before + encode_basestring_ascii(k) + ": ")
            _put(x, depth + 1, write)
            before = sep
        write(end)


# the renderer of each exact type; a bool is not an int here, and renders as true/false
_RENDERERS: dict[type, Callable[[object, int], str]] = {
    int: lambda v, depth: int.__repr__(v),
    str: lambda v, depth: encode_basestring_ascii(v),
    list: _render_items,
    tuple: _render_items,
    dict: _render_dict,
    bool: lambda v, depth: "true" if v else "false",
    type(None): lambda v, depth: "null",
    float: lambda v, depth: float.__repr__(v) if isfinite(v) else json.dumps(v),  # NaN, Infinity
}
_INT, _STR, _SEQUENCES = {int}, {str}, {list, tuple}


class _Block:
    """A list or dict in an envelope that writes its own JSON text, the same
    text ``json.dumps`` gives it at ``depth``, through ``write`` (``render``
    is the writer's renderer, for nested plain values)."""

    __slots__ = ()

    def write_json(self, depth: int, render: Callable[[object, int], str], write) -> None:
        raise NotImplementedError


class _ToriList(_Block):
    """The ``{"label", "rank"}`` objects of a torification's tori, written
    one text per run of each ``(prefix, cell)`` part.

    A run of a part is one join of its label texts whose glue ends one torus
    object and starts the next up to its label, escaped prefix and its "/"
    included.  A cell's labels are joined as they are unless the cell needs
    an escape (:meth:`_Cell.needs_escape`, decided once per cell and kept
    across writes); only then is each label escaped, with its slash.  That is
    exact because the escaper works per character: the escape of ``p + "/" +
    l`` is the escape of ``p`` and then that of ``"/" + l``, without the
    quotes between them, and a part with a prefix holds no empty label
    (``Torification`` writes such a part out), so every label takes the slash.
    """

    __slots__ = ("t",)

    def __init__(self, t: Torification):
        self.t = t

    def __len__(self) -> int:
        return len(self.t)

    def write_json(self, depth: int, render, write) -> None:
        if not len(self.t):
            write("[]")
            return
        inner1 = "\n" + "  " * (depth + 1)
        inner2 = "\n" + "  " * (depth + 2)
        head = "{" + inner2 + '"label": "'
        # after a label: its rank and the end of its object
        ends = ['",%s"rank": %d%s}' % (inner2, r, inner1) for r in range(self.t.dim + 1)]
        before = "[" + inner1
        for prefix, cell in self.t.parts:
            p, slash = ("", "") if prefix is None else (encode_basestring_ascii(prefix)[1:-1], "/")
            runs, glue = cell.runs, slash
            if cell.needs_escape():
                runs = [(r, [slash + encode_basestring_ascii(x)[1:-1] for x in ls]) for r, ls in runs]
                glue = ""
            start = head + p + glue
            for rank, texts in runs:
                write(before + start)
                write((ends[rank] + "," + inner1 + start).join(texts))
                write(ends[rank])
                before = "," + inner1
        write("\n" + "  " * depth + "]")


def _power_blocks(texts: Sequence[str], rank: int, depth: int) -> tuple[str, ...]:
    """The text of D^rank at ``depth`` as the list of its points, in
    ``itertools.product`` order over the group's elements, from ``texts``,
    the elements' texts at ``depth + 2``: one block per element and the
    closing text, or one text below rank 2.

    A point's inner text is its elements' texts joined by ``sep``; ``rows``,
    the inner texts of the points of D^(rank-1), take rank - 2 rounds of
    ``e + sep + row``.  The points that start with e are then one join of
    ``rows`` whose glue ends one point and opens the next up to ``e + sep``,
    so the work per point of D^rank is inside ``str.join``: no list of its
    points is made, and no block is copied to put the text that opens it in
    front."""
    inner1, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth + "]"
    if not rank:
        return ("[" + inner1 + "[]" + close,)
    inner2 = inner1 + "  "
    sep, glue = "," + inner2, inner1 + "]," + inner1 + "[" + inner2
    head, tail = "[" + inner1 + "[" + inner2, inner1 + "]" + close
    if rank == 1:
        return (head + glue.join(texts) + tail,)
    rows = texts
    for _ in range(rank - 2):
        rows = [e + sep + row for e in texts for row in rows]
    blocks, before = [], head
    for e in texts:
        # the first row takes the text before the block, so the join writes it in place
        blocks.append((glue + e + sep).join([before + e + sep + rows[0], *rows[1:]]))
        before = glue
    return (*blocks, tail)


class _Elements(_Block):
    """The ``elements`` of a gadget listing: the dict ``{str(i): D^(ranks[i])}``
    over the tori, whose tori of one rank share its blocks
    (:func:`_power_blocks`).  Its keys are written in the order ``sort_keys``
    gives them, as strings (10 before 2), each in one write with the text
    before it, and then its rank's blocks, rendered at the first torus of
    that rank from the elements' texts, rendered once per write; no dict of
    the tori is made."""

    __slots__ = ("ranks", "elements")

    def __init__(self, ranks: Sequence[int], elements: tuple):
        self.ranks = ranks
        self.elements = elements

    def write_json(self, depth: int, render, write) -> None:
        if not self.ranks:
            write("{}")
            return
        # a point's items sit three levels below the dict; D^0 needs no element
        texts = [render(e, depth + 3) for e in self.elements] if any(self.ranks) else []
        blocks: dict[int, tuple[str, ...]] = {}
        inner = "\n" + "  " * (depth + 1)
        before = "{" + inner + '"'
        for key, rank in sorted(zip(map(str, range(len(self.ranks))), self.ranks)):
            write(before + key + '": ')
            if rank not in blocks:
                blocks[rank] = _power_blocks(texts, rank, depth + 1)
            for text in blocks[rank]:
                write(text)
            before = "," + inner + '"'
        write("\n" + "  " * depth + "}")


class _Points(_Block):
    """The ``{"cone", "generators", "rank"}`` objects of a D-scheme's points,
    kept as triples, not local monoids, and written one text per point, with
    the texts before the values made once per write; iterated, it gives dicts."""

    __slots__ = ("points",)

    def __init__(self, points: Sequence):
        self.points = [(p.index, p.local_monoid.generators, p.rank) for p in points]

    def __iter__(self):
        for index, generators, rank in self.points:
            yield {"cone": index, "rank": rank, "generators": [list(g) for g in generators]}

    def write_json(self, depth: int, render, write) -> None:
        inner1, inner2 = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
        to_cone, to_gens = "{" + inner2 + '"cone": ', "," + inner2 + '"generators": '
        to_rank = "," + inner2 + '"rank": '
        before = "[" + inner1
        for index, generators, rank in self.points:
            gens = render(generators, depth + 2)
            write(f"{before}{to_cone}{index}{to_gens}{gens}{to_rank}{rank}{inner1}}}")
            before = "," + inner1
        write("\n" + "  " * depth + "]" if self.points else "[]")


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


class Family:
    """A family spec or file: its oracle (family, params), None for a file, and
    its rows and torification, each computed when first read and kept."""

    def __init__(self, oracle: tuple[str, object] | None, build: Callable[[], Torification]):
        self.oracle, self.build = oracle, build
        self._record = _FAMILIES[oracle[0] if oracle else "toric"]  # a file has only its tori too

    @functools.cached_property
    def delta(self) -> tuple[int, ...]:
        if self._record.delta:
            return self._record.delta(self.oracle[1])
        return to_delta_basis(self.mono) if self._record.mono else delta_vector(self.torification)

    @functools.cached_property
    def mono(self) -> Sequence[int]:
        record = self._record
        return record.mono(self.oracle[1]) if record.mono else to_monomial_basis(self.delta)

    @functools.cached_property
    def ranks(self) -> Sequence[int]:
        """The rank of each torus in listing order: from the cells, or the tori if none."""
        if self._record.ranks:
            return self._record.ranks(self.oracle[1])
        return tuple(self.torification.ranks())

    @functools.cached_property
    def torification(self) -> Torification:
        return self.build()


def build_family(family: str, params: list[str]) -> Family:
    """A family spec's record at its parameters, which are parsed (ints, or a
    fan file for ``toric``) and checked."""
    record = _FAMILIES.get(family)
    if record is None:
        raise UsageError(f"unknown family {family!r}; choose from {', '.join(_FAMILIES)}")
    count = record.arity
    if len(params) != count if count else not params:
        got = f"{count or 'one or more'} parameter(s), got {len(params)}"
        raise UsageError(f"family {family!r} takes {got}")
    try:
        values = tuple(map(load_fan if family == "toric" else int, params))
    except ValueError as exc:
        raise UsageError(f"family {family!r} needs integer parameters") from exc
    p = values[0] if count == 1 else values
    record.check(p)
    return Family((family, p), lambda: record.build(p))


def torification_to_dict(t: Torification) -> dict:
    return {
        "dim": t.dim,
        "tori": _ToriList(t),
        "delta": list(delta_vector(t)),
        "charts": [list(c) for c in t.charts] if t.charts is not None else None,
    }


def torification_from_dict(data: dict) -> Torification:
    """The torification of a ``torify`` payload: lists of tori (int ranks, str
    labels) and of int charts or null, as written; else a usage error."""
    try:
        tori, charts = data["tori"], data.get("charts")
        for name, value in (("tori", tori), ("charts", [] if charts is None else charts)):
            if not isinstance(value, list):
                raise ValueError(f"{name} must be a list, got {value!r}")
        tori = tuple(map(_torus_from_dict, tori))
        if charts is not None:
            charts = tuple(tuple(_int_list(c, "a chart")) for c in charts)
        return Torification(tori, charts)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad torification data: {exc}") from exc


def _torus_from_dict(x: dict) -> Torus:
    rank, label = x["rank"], x.get("label", "")
    if type(rank) is not int or type(label) is not str:
        raise ValueError(f"a torus needs an integer rank and a string label, got {x!r}")
    return Torus(rank, label)


def load_torification(path: str) -> Torification:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise UsageError(f"{path} does not contain a torification payload")
    # accept either a bare payload or a full envelope from `torify`
    if "result" in data and isinstance(data["result"], dict) and "tori" in data["result"]:
        data = data["result"]
    if "tori" not in data:
        raise UsageError(f"{path} does not contain a torification payload")
    return torification_from_dict(data)


def _resolve_family(args) -> Family:
    if getattr(args, "torification", None):
        t = load_torification(args.torification)
        return Family(None, lambda: t)
    if getattr(args, "family", None):
        return build_family(args.family[0], args.family[1:])
    raise UsageError("give either --family NAME PARAMS... or --torification FILE")


def _dscheme_payload(ds) -> dict:
    return {"points": _Points(ds.points), "specialization": list(map(list, ds.specialization))}


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, exit_code)


def cmd_torify(args) -> tuple[dict, int]:
    fam = build_family(args.family_spec[0], args.family_spec[1:])
    check_budget(oracle_point_count(*fam.oracle, 2), "tori")
    if fam._record.listed:  # a listing from a fan: its charts too, counted before it is built
        check_budget(fam._record.listed(fam.oracle[1]), "tori and chart indices")
    return torification_to_dict(fam.torification), 0


def cmd_count(args) -> tuple[dict, int]:
    qs = _parse_int_list(args.q, "q") if args.q else None
    fam = _resolve_family(args)
    n_poly = CountingPolynomial._of_rows(fam.delta, fam.mono)
    payload = {
        "delta": list(n_poly.delta),
        "mono": list(n_poly.mono),
        "polynomial": n_poly.poly_string(),
    }
    if qs is not None:
        payload["values"] = {str(q): eval_counting(n_poly, q) for q in qs}
    return payload, 0


def cmd_zeta(args) -> tuple[dict, int]:
    z = _zeta(_resolve_family(args).mono)
    return {
        "factors": [list(f) for f in z.factors],
        "rendered": z.render(),
    }, 0


def cmd_spec(args) -> tuple[dict, int]:
    return _dscheme_payload(_cone_dscheme(_parse_cone(args.cone))), 0


def cmd_dscheme(args) -> tuple[dict, int]:
    fan = load_fan(args.fan)
    return _dscheme_payload(dscheme_of_fan(fan)), 0


def cmd_gadget(args) -> tuple[dict, int]:
    orders = _parse_int_list(args.group, "group")
    group = FiniteAbelianGroup(tuple(orders))
    fam = _resolve_family(args)
    # N(|D| + 1) by the family's finite-field formula; a torification file has none
    expected = oracle_point_count(*fam.oracle, group.order + 1) if fam.oracle else None
    if args.elements and expected is not None:
        # gated on N(|D| + 1), so a refusal reads no delta vector
        check_budget(expected, "group elements")
    # the delta_r tori of rank r contribute |D|^r points each
    by_grade = _graded_terms(fam.delta, group.order)
    total = sum(by_grade.values())
    payload = {
        "group": orders,
        "order": group.order,
        "by_grade": {str(r): v for r, v in by_grade.items()},
        "total": total,
        "expected": expected,
        "match": None if expected is None else total == expected,
    }
    if args.elements:
        if expected is None:
            check_budget(total, "group elements")
        # each torus of rank r lists D^r: one block per rank, rendered once
        payload["elements"] = _Elements(fam.ranks, tuple(group.elements()))
    code = CHECK_FAILED if payload["match"] is False else 0
    return payload, code


def cmd_soule(args) -> tuple[dict, int]:
    m = args.m
    if m < 1:
        raise UsageError("--m must be >= 1")
    monoid = monoid_of_cone(_parse_cone(args.cone))
    face_count = soule_count_by_faces(monoid, m)
    target = CyclicMonoidWithZero(m)
    # a listing is its own count, and a refused one carries it, so each
    # face's Hermite basis is built once
    homs = count = None
    if args.elements:
        try:
            homs = enumerate_monoid_homs(monoid, target)
            count = len(homs)
        except BudgetExceeded as exc:
            count = exc.size  # more maps than the budget: the counts only
    if count is None:
        count = count_monoid_homs(monoid, target)
    payload: dict = {
        "m": m,
        "generators": [list(g) for g in monoid.generators],
        "unit_rank": monoid.unit_rank,
        "face_count": face_count,
        "enumerated_count": count,
        "match": count == face_count,
    }
    if homs is not None:
        payload["homs"] = [
            {"values": list(h.values), "support_face": [list(r) for r in h.support_face.rays]}
            for h in homs
        ]
    return payload, CHECK_FAILED if payload["match"] is False else 0


def cmd_verify(args) -> tuple[dict, int]:
    qs = _parse_int_list(args.q, "q")
    if not qs:
        raise UsageError("--q needs at least one value")
    fam = _resolve_family(args)
    report = verify_counting_polynomial(CountingPolynomial(fam.delta), *fam.oracle, qs)
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
        status = {True: "ok", False: "MISMATCH", None: "no oracle"}[payload["match"]]
        lines.append(f"|X(D)| = {payload['total']} (expected {payload['expected']}): {status}")
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
    return "\n".join(lines)


# The command-line grammar, read by _parse for every well-formed argv and by build_parser for the
# rest.  Per subcommand: its help and its arguments (name, arity, required, help).  The arity is
# "+" for one or more values, "1" for one, "int" for one int and "" for a flag; a name without
# "--" is the positional, and its help is its metavar.  Every subcommand also takes --format, and
# its handler is the module's cmd_<name>, with "_" for "-", looked up when it is called.
_FORMATS = ("json", "text")
_FAMILY = ("--family", "+", False, None)
_COMMANDS = {
    "torify": ("build a torification of one of " + ", ".join(_FAMILIES),
               (("family_spec", "+", True, "FAMILY [PARAMS...]"),)),
    "count": ("counting polynomial of a torification",
              (_FAMILY, ("--torification", "1", False, "torification JSON file (from `torify`)"),
               ("--q", "1", False, "comma-separated values to evaluate at"))),
    "zeta": ("zeta factors of a torification", (_FAMILY, ("--torification", "1", False, None))),
    "spec": ("prime spectrum of the monoid of a cone", (("--cone", "1", True, "rays like '1,0;1,2'"),)),
    "dscheme": ("monoid scheme of a fan", (("--fan", "1", True, "fan JSON file"),)),
    "gadget": ("evaluate the group-side functor",
               (("--group", "1", True, "cyclic orders, e.g. 2,3"), _FAMILY,
                ("--torification", "1", False, None),
                ("--elements", "", False, "list the points themselves"))),
    "soule": ("monoid maps of a cone into mu_m with zero",
              (("--m", "int", True, None), ("--cone", "1", True, "rays like '1,0;1,2'"),
               ("--elements", "", False, None))),
    "verify": ("counting polynomial vs. finite-field oracle",
               (("--family", "+", True, None), ("--q", "1", True, "comma-separated prime powers"))),
    "validate-fan": ("check fan axioms and report violations", (("fan", "1", True, None),)),
}


def _is_value(token: str) -> bool:
    """Whether ``token`` is a value, as argparse reads it: it does not start
    with a dash, or it is a dash and ASCII digits (a negative int).  Argparse
    takes a few more dash-led strings as values (``-``, ``-1.5``, ``-1 0``);
    :func:`_parse` leaves those to it."""
    return token[:1] != "-" or token[1:].isdigit() and token.isascii()


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for an argv
    in a canonical form; None for any other.

    Canonical: the subcommand, then each of its arguments once: an option by
    its exact name, as ``--opt value`` or (for one value) ``--opt=value``,
    and the positional as one run of values.  A "+" argument takes the values
    up to the next option.  Anything else is left to argparse: ``-h``,
    abbreviations, ``--``, unknown or repeated options, a missing argument,
    a bad ``--format`` or ``--m``, a dash-led value other than a negative int.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    arities, positional = {"--format": "1"}, None
    for name, arity, _, _ in command[1]:
        arities[name] = arity
        if name[0] != "-":
            positional = name
    values: dict[str, object] = {}
    i, n = 1, len(argv)
    while i < n:
        if _is_value(argv[i]):  # the positional's run starts here
            name, eq = positional, ""
        else:
            name, eq, value = argv[i].partition("=")
            i += 1
        arity = arities.get(name)
        if arity is None or name in values:
            return None
        if eq:
            if arity in ("", "+") or value == "--":  # argparse drops a "--" value
                return None
        elif arity == "":
            value = True
        else:
            start = i
            while i < n and _is_value(argv[i]) and (arity == "+" or i == start):
                i += 1
            if i == start:
                return None
            value = list(argv[start:i]) if arity == "+" else argv[start]
        if arity == "int":
            try:
                value = int(value)
            except ValueError:
                return None
        values[name] = value
    args = {"subcommand": argv[0], "format": values.pop("--format", "json")}
    if args["format"] not in _FORMATS:
        return None
    for name, arity, required, _ in command[1]:
        if required and name not in values:
            return None
        args[name.lstrip("-")] = values.get(name, None if arity else False)
    return SimpleNamespace(**args)


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argparse parser of ``_COMMANDS``, built once per process and only
    when :func:`_parse` declines an argv: for ``--help`` and usage errors,
    whose texts and exit codes are argparse's own."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="torified",
        description="Exact torus decompositions, counting polynomials, zeta factors, "
        "monoid spectra, and point-set functors.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default="json")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=argparse.ArgumentParser)
    for command, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, description=help_text, parents=[common])
        for name, arity, required, text in arguments:
            nargs = "+" if arity == "+" else None
            if name[0] != "-":
                p.add_argument(name, nargs=nargs, metavar=text)
            elif arity:
                p.add_argument(name, nargs=nargs, type=int if arity == "int" else None,
                               required=required, help=text)
            else:
                p.add_argument(name, action="store_true", help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return USAGE_ERROR if exc.code not in (0, None) else 0
        # argparse drops a "--" value: `--q=--` leaves [] where one value belongs
        for name, arity, _, _ in _COMMANDS[args.subcommand][1] + (("--format", "1", False, None),):
            if arity in ("1", "int") and isinstance(getattr(args, name.lstrip("-")), list):
                print(f"error: argument {name}: expected one argument", file=sys.stderr)
                return USAGE_ERROR
    started = time.perf_counter()
    try:
        check_budget(0, "items")  # a bad budget fails every command, not only those that list
        payload, code = globals()["cmd_" + args.subcommand.replace("-", "_")](args)
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
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # from Python 3.10.7
    try:
        if limit:  # an int is written in full, however many digits it has
            sys.set_int_max_str_digits(0)
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
                        if k != "subcommand" and v is not None
                    },
                },
                "result": payload,
                "timing_ms": round(elapsed_ms, 3),
            }
            write = sys.stdout.write  # looked up now: callers may have redirected stdout
            _write_json(envelope, write)
            write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        return PIPE_CLOSED
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


def _discard_stdout() -> None:
    """Point the descriptor of stdout at the null device once its reader has
    gone, so that the flush at exit does not fail again (the recipe of the
    Python documentation on SIGPIPE).  A stdout without a descriptor, such as
    a ``StringIO`` of an in-process caller, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
