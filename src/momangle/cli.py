"""Command-line surface.

One verb per invocation; complexes come either from a builder expression
(`subst(bd(simplex(1,2,3)); bd(simplex(1,2,3)), pt, pt)`) or a JSON file
{"m": ..., "facets": [[...], ...]}.  Reports are JSON by default and embed
the missing-face generator order so Taylor output is reproducible.

Exit codes: 0 success, 1 parse/validation error, 2 size refusal (a
MemoryError among them), 3 verification failure.

The argv is a verb of `COMMANDS` and then the options `VERB_OPTIONS` gives
it, in any order (`read_argv`).  An option may be a unique prefix
(`--comp`), take its value as `--option=value`, and be repeated, the last
value kept; a value that begins with '-' is read as an option unless it is
a negative number.  `-h`/`--help` prints the usage, of the command or of a
verb, and exits 0; any other option, a stray token or `--` exits 1.

Many calls in one process (a notebook, a test run, a driver calling `main`
in a loop) build each input once.  The complex is memoised on the text of
its builder expression or JSON file, with `--max-vertices` (`_load`: a file
is read on every call, so an edited file gives its new complex), the
bracket on its text (`whitehead.parse_whitehead`), the canonical chain per
bracket, and per (K, w) its class and the one containment answer that
`status`, `realises` and `taylor-cycle` read (`whitehead`), and the
cone-free supports per K (`moment_angle.lattice_supports`).  Every memo is
bounded, and none holds an exception: a refusal or a parse error is raised
again on the next call.
"""

from __future__ import annotations

import json
import re
import sys
import time
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from math import comb, inf
from types import SimpleNamespace

from . import __version__
from . import complexes as cx
from . import moment_angle as ma
from . import taylor as ty
from . import whitehead as wh
from . import zigzag as zz

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SIZE = 2
EXIT_VERIFY = 3


class VerificationFailure(RuntimeError):
    pass


def load_complex(source, max_vertices):
    """K from a builder expression or a .json file, refused above
    `max_vertices` before it is built."""
    if not source.endswith(".json"):
        return _load(source, max_vertices, False)
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
        return _load(text, max_vertices, True)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
            OverflowError) as exc:
        raise ValueError(f"cannot load a complex from {source}: "
                         f"{type(exc).__name__}: {exc}") from exc


@lru_cache(maxsize=8)
def _load(text, max_vertices, is_json):
    """The complex of a builder expression, or of a JSON file's text, one
    per (text, max_vertices) in a process: K is immutable, and the verbs on
    one complex share its missing faces and face index."""
    if is_json:
        return cx.SimplicialComplex.from_json_dict(json.loads(text), max_vertices)
    return cx.parse_complex(text, max_vertices=max_vertices)


def group_json(h):
    return {"rank": h.rank, "torsion": list(h.torsion)}


def homology_json(table):
    return {str(d): group_json(h) for d, h in sorted(table.items())}


def cmd_homology(K, w, args, out):
    table = ma.zk_homology(K)
    out["ranks"] = {str(d): h.rank for d, h in sorted(table.items())}
    out["homology"] = homology_json(table)


def cmd_mf(K, w, args, out):
    out["missing_faces"] = [list(f) for f in K.missing_faces()]


def cmd_subst(K, w, args, out):
    out["complex"] = K.to_json_dict()
    out["missing_faces"] = [list(f) for f in K.missing_faces()]


def cmd_delta_w(K, w, args, out):
    dw = wh.delta_w(w)
    out["dimension"] = w.dimension()
    out["complex"] = dw.complex.to_json_dict()
    out["sphere_facets"] = (None if dw.sphere is None
                            else [list(f) for f in dw.sphere.facets])
    out["leaf_map"] = {str(l): v for l, v in sorted(dw.leaf_map.items())}


def cmd_hurewicz(K, w, args, out):
    # no K bounds the leaves here, and the chain's cells are bitmasks over
    # their labels: a label above --max-vertices is refused before any is made
    top = max(w.leaves())
    if top > args.max_vertices:
        raise cx.SizeLimitError(f"leaf {top} above --max-vertices {args.max_vertices}")
    chain = wh.hurewicz_chain(w)
    out["degree"] = chain.degree
    out["chain"] = chain.to_text()


def cmd_status(K, w, args, out):
    out["status"] = wh.nested_shape_status(K, w)
    if out["status"] != wh.UNDEFINED and not wh.criterion_applies(K, w):
        out["notes"] = [wh.OUTSIDE_CRITERION]


def cmd_realises(K, w, args, out):
    report = wh.realises_sufficient(K, w)
    out["defined"] = report.defined
    out["nontrivial"] = report.nontrivial
    out["witness"] = report.witness.to_text() if report.witness else None
    out["notes"] = list(report.notes)


def cmd_taylor(K, w, args, out):
    n = len(K.missing_faces())
    out["ranks_by_index"] = [comb(n, s) for s in range(n + 1)]
    out["homology"] = homology_json(ty.taylor_homology(K))


def cmd_taylor_cycle(K, w, args, out):
    chain = ty.nested_taylor_cycle(w, K)
    # every word of the closed form has the union L, the leaves
    out["degree"] = 2 * len(w.leaves()) - chain.s
    out["cycle"] = chain.to_text()


def cmd_zigzag(K, w, args, out):
    z = wh.hurewicz_chain(w, K.m)
    cycle, trace = zz.koszul_to_taylor(K, z)
    out["input_chain"] = z.to_text()
    out["cycle"] = cycle.to_text()
    out["trace"] = trace.to_list()


def _integers(option, text):
    """The comma-separated integers of `option`'s value `text`; a token that
    is none is named, with its option."""
    out = []
    for token in text.split(","):
        try:
            out.append(int(token))
        except ValueError:
            raise ValueError(f"{option} {text!r}: token {token!r} is not an integer") from None
    return out


def cmd_hochster(K, w, args, out):
    subsets = None
    if args.subset is not None:
        subset = _integers("--subset", args.subset)
        if len(set(subset)) != len(subset):
            raise ValueError(f"--subset {args.subset} repeats a vertex")
        if not all(1 <= v <= K.m for v in subset):
            raise ValueError(f"--subset {args.subset} is not within the vertices 1..{K.m}")
        subsets = [cx.face_mask(subset)]
    per_subset, aggregate = ma.hochster_table(K, subsets)
    rows = sorted((cx.mask_face(smask), d, h) for (smask, d), h in per_subset.items())
    out["by_subset"] = [{"subset": list(J), "degree": d, "group": group_json(h)}
                        for J, d, h in rows]
    out["aggregate"] = homology_json(aggregate)


def cmd_wedge_basis(K, w, args, out):
    order = tuple(_integers("--order", args.order)) if args.order is not None else None
    basis = wh.shifted_wedge_basis(K, order)
    out["is_basis"] = basis.is_basis
    out["entries"] = [
        {"subset": list(e.subset), "missing_face": list(e.missing_face),
         "product": e.expr.to_text(), "chain": e.chain.to_text()}
        for e in basis.entries]
    out["details"] = list(basis.details)


def cmd_verify(K, w, args, out):
    """Cross-route suite, refused past the Z_K gate, on a ghost vertex and
    past the Hochster gate before any table is built: the cellular, Hochster
    and Taylor tables must agree block by block, {(S, degree): group} with
    S = the empty set included; the cone-free supports those tables read
    (`moment_angle.lattice_supports`) must be the closure of the missing
    faces under union (`taylor.mask_unions`); Lyubeznik's subcomplex must
    resolve the Stanley-Reisner ideal of K; `homology`'s fold over the
    connected parts and their twin orbits (`moment_angle.zk_homology`) must
    be the cellular table's degree sums.  Every cellular and Taylor table
    is one walk read by one fold (`moment_angle.fold_blocks`); a fault in
    the fold shows against Hochster, which shares no code with it.  Past
    the Taylor bound the two Taylor checks are skipped."""
    ma._admit(K)
    ma._refuse_past_hochster_bound(K)
    failures = []
    cell = ma.zk_homology_by_support(K)
    cell_sums = ma.degree_sums(cell)
    hoch, hoch_sums = ma.hochster_table(K)
    if cell != hoch:
        failures.append("cellular vs Hochster homology differ")
    if ma.zk_homology(K) != cell_sums:
        failures.append("orbit sums vs cellular table differ")
    if set(ma.lattice_supports(K)) != {0, *ty.mask_unions(K.generators().masks)}:
        failures.append("cone-free subsets vs missing-face lattice differ")
    try:
        taylor = ty.taylor_homology_by_support(K)
        if taylor != cell:
            failures.append("Taylor vs cellular homology differ")
        report = ty.verify_taylor_is_resolution(ty.MonomialIdeal.stanley_reisner(K))
        if not report.ok():
            failures.append(f"Taylor resolution check failed: {report.failures}")
    except cx.SizeLimitError as exc:
        out.setdefault("skipped", []).append(str(exc))
    out["routes"] = {
        "cellular": homology_json(cell_sums),
        "hochster": homology_json(hoch_sums),
    }
    out["failures"] = failures
    if failures:
        raise VerificationFailure("; ".join(failures))


COMMANDS = {
    "homology": cmd_homology,
    "mf": cmd_mf,
    "subst": cmd_subst,
    "delta-w": cmd_delta_w,
    "hurewicz": cmd_hurewicz,
    "status": cmd_status,
    "realises": cmd_realises,
    "taylor": cmd_taylor,
    "taylor-cycle": cmd_taylor_cycle,
    "zigzag": cmd_zigzag,
    "hochster": cmd_hochster,
    "wedge-basis": cmd_wedge_basis,
    "verify": cmd_verify,
}


# the options each verb reads, in usage order: --complex and --w are
# required where a verb has them, and an option a verb does not read is an
# error; `main` loads K and parses w exactly for the verbs that read them
REQUIRED = ("complex", "w")
COMMON = ("format", "max-vertices")
VERB_OPTIONS = {verb: options + COMMON for verb, options in {
    "homology": ("complex",),
    "mf": ("complex",),
    "subst": ("complex",),
    "delta-w": ("w",),
    "hurewicz": ("w",),
    "status": ("complex", "w"),
    "realises": ("complex", "w"),
    "taylor": ("complex",),
    "taylor-cycle": ("complex", "w"),
    "zigzag": ("complex", "w"),
    "hochster": ("complex", "subset"),
    "wedge-basis": ("complex", "order"),
    "verify": ("complex",),
}.items()}
OPTIONS = {  # option: (value name, help)
    "complex": ("K", "builder expression or path to .json"),
    "w": ("W", "Whitehead expression, e.g. [[1,2,3],4,5]"),
    "subset": ("S", "comma-separated vertex subset"),
    "order": ("O", "comma-separated shifted vertex order"),
    "format": ("json|text", "report format (default json)"),
    "max-vertices": ("N", "bound on the vertices of --complex and the leaves of --w (default 20)"),
}
GRAMMAR = """\
An option may be shortened to a unique prefix (--comp for --complex) and
given its value as --option=value; a repeated option keeps its last value.
A value that begins with '-' and is not a negative number is given as
--option=value."""
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


class Help(Exception):
    """`-h`/`--help`: the usage text to print, with exit code 0."""


def _synopsis(options):
    return " ".join(f"--{o} {OPTIONS[o][0]}" if o in REQUIRED else f"[--{o} {OPTIONS[o][0]}]"
                    for o in options)


def usage(verb=None):
    """The help of `momangle -h` (every verb), or of `momangle VERB -h`."""
    if verb is None:
        lines = ["usage: momangle VERB [options]", "",
                 "moment-angle complex homology and Whitehead product tooling", "", "verbs:"]
        lines += [f"  {v:<13} {_synopsis(o for o in VERB_OPTIONS[v] if o not in COMMON)}"
                  for v in COMMANDS]
        lines += ["", "options of every verb:"]
        options, help_line = COMMON, "this help; momangle VERB -h gives a verb's"
    else:
        options, help_line = VERB_OPTIONS[verb], "this help"
        lines = [f"usage: momangle {verb} {_synopsis(options)}", "", "options:"]
    lines += [f"  --{o + ' ' + OPTIONS[o][0]:<18} {OPTIONS[o][1]}" for o in options]
    return "\n".join(lines + [f"  {'-h, --help':<20} {help_line}", "", GRAMMAR])


def _option(token, names):
    """How `token` reads among the options `names` ("help" included): None
    for a verb or a value, else (name, the text after '=' or None), with
    name None for an option that is none of them."""
    if token == "--":
        raise ValueError("'--' is not accepted: a value that begins with '-' "
                         "is given as --option=value")
    if token[:1] != "-" or token == "-" or _NEGATIVE.fullmatch(token):
        return None
    if token[1] == "h":
        # -h, or -hh run together; any other tail is a value help refuses
        return "help", token[2:].lstrip("h") or None
    if token[1] == "-":
        name, eq, value = token[2:].partition("=")
        matches = [name] if name in names else [n for n in names if n.startswith(name)]
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {token} could match "
                             + ", ".join(f"--{n}" for n in matches))
        if matches:
            return matches[0], value if eq else None
    # no option of ours: a token with a space in it is a value, as in argparse
    return None if " " in token else (None, None)


def _value(name, text):
    if name == "format" and text not in ("json", "text"):
        raise ValueError(f"--format {text!r}: choose json or text")
    if name == "max-vertices":
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"--max-vertices {text!r} is not an integer") from None
    return text


def read_argv(argv):
    """The verb and option values of `argv`, as attributes `verb`, `complex`,
    `w`, `subset`, `order`, `format` and `max_vertices` (None where not
    given, format json and max_vertices 20 by default).  Options are read
    left to right, so `-h` raises `Help` unless an earlier token is a bad
    value; a stray token, an unknown option or a missing --complex/--w is
    a ValueError once the whole argv is read."""
    args = SimpleNamespace(verb=None, complex=None, w=None, subset=None, order=None,
                           format="json", max_vertices=20)
    names, stray = ("help",), []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        option = _option(token, names)
        if option is None:
            if args.verb is not None:
                stray.append(token)
                continue
            if token not in COMMANDS:
                raise ValueError(f"invalid verb {token!r} (choose from {', '.join(COMMANDS)})")
            args.verb, names = token, VERB_OPTIONS[token] + ("help",)
            continue
        name, value = option
        if name is None:
            stray.append(token)
        elif name == "help":
            if value is not None:
                raise ValueError(f"-h/--help takes no value: {token}")
            raise Help(usage(args.verb))
        else:
            if value is None:
                if i == len(argv) or _option(argv[i], names) is not None:
                    raise ValueError(f"--{name} expects a value")
                value = argv[i]
                i += 1
            setattr(args, name.replace("-", "_"), _value(name, value))
    if args.verb is None:
        raise ValueError(f"a verb is required (choose from {', '.join(COMMANDS)})")
    missing = [f"--{o}" for o in REQUIRED if o in names and getattr(args, o) is None]
    if missing:
        raise ValueError("the following arguments are required: " + ", ".join(missing))
    if stray:
        raise ValueError("unrecognized arguments: " + " ".join(stray))
    return args


def render_text(out, indent=0):
    pad = "  " * indent
    lines = []
    for key, val in out.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_text(val, indent + 1))
        elif isinstance(val, list):
            lines.append(f"{pad}{key}: {json.dumps(val)}")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)


def _float_text(x):
    """A float as `json.dumps` writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key):
    """A dict key as `json.dumps` quotes it: a str as it is, a float, bool,
    None or int by its JSON text; any other key is refused, as there."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        return _quote(_float_text(key))
    if key is True or key is False or key is None:
        return _quote(_scalar_text(key))
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _scalar_text(value):
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_json(value, newline="\n"):
    """`json.dumps(value, indent=2)`, byte for byte.  The standard encoder
    runs in pure Python, one generator per container, whenever it indents;
    this walk joins each container's items at once and quotes strings with
    the C-level `encode_basestring_ascii`."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join([report_json(v, inner) for v in value])
                + newline + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return ("{" + inner + ("," + inner).join([_key_text(k) + ": " + report_json(v, inner)
                                                  for k, v in value.items()])
                + newline + "}")
    return _scalar_text(value)


def main(argv=None):
    try:
        args = read_argv(sys.argv[1:] if argv is None else list(argv))
    except Help as text:
        print(text)
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out = {"verb": args.verb,
           "inputs": {k: getattr(args, k) for k in ("complex", "w", "subset")
                      if getattr(args, k) is not None},
           "engine": f"momangle {__version__}"}
    started = time.perf_counter()
    code = EXIT_OK
    K = None
    try:
        options = VERB_OPTIONS[args.verb]
        if "complex" in options:
            K = load_complex(args.complex, args.max_vertices)
        w = wh.parse_whitehead(args.w) if "w" in options else None
        if w is not None and len(w.leaves()) > args.max_vertices:
            raise cx.SizeLimitError(f"expression has {len(w.leaves())} leaves, "
                                    f"above --max-vertices {args.max_vertices}")
        COMMANDS[args.verb](K, w, args, out)
    except (cx.ParseError, ValueError, zz.ZigzagError, RecursionError) as exc:
        # RecursionError: an input nested deeper than the recursive readers go
        if isinstance(exc, cx.SizeLimitError):
            print(f"size refusal: {exc}", file=sys.stderr)
            return EXIT_SIZE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        # an input whose work does not fit in memory is refused for its size
        print(f"size refusal: {args.verb} ran out of memory", file=sys.stderr)
        return EXIT_SIZE
    except (VerificationFailure, AssertionError) as exc:
        # an AssertionError is one of the engine's own self-checks failing
        out["verification_error"] = str(exc)
        code = EXIT_VERIFY
    out["elapsed_s"] = round(time.perf_counter() - started, 6)
    if K is not None and "verification_error" not in out:
        out["generator_order"] = list(K.generators().names)
    if args.format == "json":
        print(report_json(out))
    else:
        print(render_text(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
