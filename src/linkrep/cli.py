"""Command-line interface.

Subcommands: check, search, obstruct, bundle, canon.  Reports are JSON on
stdout with exact integers and exact rational strings (never floats),
formatted as `json.dumps` formats them with an indent of 2; the golden
corpus in tests/golden pins them byte for byte.  A `search --cache` entry
is the printed report.  Diagnostics go to stderr as JSON; exit codes:
0 success, 1 failed check/search/obstruction, 2 parse or validation errors
(an unusable `--cache` directory included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import __version__
from .conditions import (
    ConditionReport,
    Decoration,
    DecorationError,
    ensure_total,
    run_all_checks,
)
from .diagram import DiagramError, SingularLinkDiagram, betti, components
from .field import ExactScalar, format_scalar
from .obstructions import (
    ObstructionReport,
    bundle_profile,
    connected_sum_obstruction,
    divisibility_obstruction,
)
from .rotation import FiniteRotationGroup, RotationElement, preset_group
from .search import (
    SearchOptions,
    StructuralConditionError,
    canonical_class,
    count_classes,
    enumerate_valid_decorations,
)
from .sldfile import SldDocument, SldParseError, parse, serialize, split_lines


_encode_str = json.encoder.encode_basestring_ascii


class _Rendered(str):
    """JSON text that `_render` copies as it stands, rendered beforehand at
    the indentation where it is printed."""


def _render(value, newline: str = "\n") -> str:
    """`json.dumps` with an indent of 2, byte for byte, for dicts with str
    keys, lists, str, int, bool and None; `newline` is a line break and the
    indentation where value sits.  Anything else, a float included, raises
    TypeError: reports hold only integers, booleans and exact rational
    strings."""
    out: List[str] = []
    _emit(value, newline, out)
    return "".join(out)


def _emit(value, newline: str, out: List[str]) -> None:
    if isinstance(value, str):
        out.append(value if type(value) is _Rendered else _encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kind = type(value[0])
        if (kind is int or kind is str) and all(type(x) is kind for x in value):
            items = map(int.__repr__ if kind is int else _encode_str, value)
            out.append("[" + inner + ("," + inner).join(items) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _emit(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"a report cannot hold a {type(value).__name__}")


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _element_json(group: FiniteRotationGroup, g: RotationElement) -> Dict:
    """A fresh dict, {"perm": cycles} or {"matrix": [nine entries]}, built
    from the form the group computed once for g."""
    kind, value = group.form(group.index_of(g))
    return {kind: list(value) if kind == "matrix" else value}


def _solutions_text(
    group: FiniteRotationGroup, solutions: List[Decoration], newline: str
) -> _Rendered:
    """`_render` of the solutions list, one {node: element form} dict per
    decoration, printed at `newline`: each distinct element's text and each
    node's key text are rendered once, whatever the number of solutions."""
    row = newline + "  "
    entry = row + "  "
    keys: Dict[str, str] = {}
    elements: Dict[int, str] = {}
    rows = []
    for dec in solutions:
        parts = []
        for node, g in dec.mapping:
            key = keys.get(node)
            if key is None:
                key = keys[node] = entry + _encode_str(node) + ": "
            i = group.index_of(g)
            element = elements.get(i)
            if element is None:
                element = elements[i] = _render(_element_json(group, g), entry)
            parts.append(key + element)
        rows.append("{" + ",".join(parts) + row + "}" if parts else "{}")
    if not rows:
        return _Rendered("[]")
    return _Rendered("[" + row + ("," + row).join(rows) + newline + "]")


def _checks_json(report: ConditionReport) -> Dict:
    return {
        c.name: {"passed": c.passed, "diagnostics": list(c.diagnostics)}
        for c in (report.genus0, report.selfint, report.relators, report.sw)
    }


def _obstruction_json(rep: ObstructionReport) -> Dict:
    out = {
        "psq": rep.psq,
        "divisibility_pass": rep.divisibility_pass,
        "hurewicz_flag": rep.hurewicz_flag,
    }
    if rep.summand_verdicts is not None:
        out["summand_verdicts"] = [
            {"b2": b, "passed": ok} for b, ok in rep.summand_verdicts
        ]
    return out


def _load_document(path: str) -> SldDocument:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first bad byte, counted as parse counts lines
        line = len(split_lines(data[: exc.start].decode("utf-8")))
        raise SldParseError(line, "not valid UTF-8") from None
    return parse(text)


def _report_skeleton() -> Dict:
    return {
        "wellformed": None,
        "b1": None,
        "b2": None,
        "components": None,
        "checks": None,
        "obstructions": None,
        "search": None,
        "diagnostics": [],
    }


def _diagram_obstructions(b2: int) -> Dict:
    if b2 == 0:
        return {"psq": None, "b2_mod4": 0, "verdict": True}
    rep = divisibility_obstruction(b2)
    return {"psq": rep.psq, "b2_mod4": b2 % 4, "verdict": rep.divisibility_pass}


def _fill_diagram_fields(report: Dict, d: SingularLinkDiagram) -> None:
    """The report's components, b1, b2 and obstructions; b1 stays None when a
    Hopf node's members lie in different components."""
    report["components"] = [list(b) for b in components(d).blocks]
    try:
        report["b1"], report["b2"] = betti(d)
    except DiagramError:
        report["b2"] = d.n_hopf
    report["obstructions"] = _diagram_obstructions(d.n_hopf)


def cmd_check(args) -> int:
    try:
        doc = _load_document(args.file)
    except (OSError, SldParseError) as exc:
        return _fail(str(exc), 2)
    report = _report_skeleton()
    try:
        d = doc.diagram()
    except DiagramError as exc:
        report["wellformed"] = False
        report["diagnostics"] = exc.violations
        print(_render(report))
        return _fail("diagram is not well-formed", 2)
    report["wellformed"] = True
    dec = doc.decoration()
    if dec is None:
        return _fail("check requires a decorated diagram", 2)
    try:
        ensure_total(d, dec)
    except DecorationError as exc:
        return _fail(str(exc), 2)
    checks = run_all_checks(d, dec, exhaustive_paths=args.all_sw_paths)
    report["checks"] = _checks_json(checks)
    _fill_diagram_fields(report, d)
    print(_render(report))
    return 0 if checks.passed else 1


@lru_cache(maxsize=1)
def _builtin_sha256():
    """The interpreter's built-in SHA-256 (`_sha2` from Python 3.12, `_sha256`
    before): hashlib's digests without loading OpenSSL.  hashlib only when
    neither module exists.  Resolved once per process."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


@lru_cache(maxsize=1)
def _source_digest() -> str:
    """sha256 of the package's own sources, in sorted file name order: a
    cache entry written by other code is a miss."""
    h = _builtin_sha256()()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def _options_digest(doc: SldDocument, opts_desc: Dict) -> str:
    """Cache key: the sha256 of the canonical document, the options, the
    package version and the source digest, the same hex digest as hashlib's.
    No call loads OpenSSL."""
    payload = serialize(doc) + json.dumps(opts_desc, sort_keys=True) + __version__
    payload += _source_digest()
    return _builtin_sha256()(payload.encode("utf-8")).hexdigest()


def _read_cached(path: Path) -> Optional[Tuple[str, int]]:
    """A cached report rendered for printing, and its raw solution count;
    None when the entry is missing, corrupt or not a search report.  Any JSON
    text of a report is accepted: the printed form and the compact one of
    earlier versions."""
    try:
        cached = json.loads(path.read_text(encoding="utf-8"))
        search = cached["search"]
        raw, solutions = search["raw_solutions"], search["solutions"]
        if (
            cached.keys() != _report_skeleton().keys()
            or type(raw) is not int  # a bool is an int too
            or "classes" not in search
            or type(solutions) is not list
            or len(solutions) != raw
        ):
            return None
        return _render(cached), raw
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _write_atomically(path: Path, text: str) -> None:
    """Write to a temporary file beside `path`, then rename it into place;
    the temporary file is removed when either step fails."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def cmd_search(args) -> int:
    try:
        doc = _load_document(args.file)
    except (OSError, SldParseError) as exc:
        return _fail(str(exc), 2)
    try:
        d = doc.diagram()
    except DiagramError as exc:
        return _fail(str(exc), 2)
    group_name = args.group or doc.group_name() or "octahedral"
    opts_desc = {"group": group_name, "dedup": args.dedup}

    # a hit builds no group: argparse and parse accept only preset names
    cache_file = None
    if args.cache:
        cache_dir = Path(args.cache)
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _fail(f"cannot use cache directory: {exc}", 2)
        cache_file = cache_dir / f"{_options_digest(doc, opts_desc)}.json"
        cached = _read_cached(cache_file)
        if cached is not None:
            text, raw = cached
            print(text)
            return 0 if raw > 0 else 1

    try:
        group = preset_group(group_name)
    except ValueError as exc:
        return _fail(str(exc), 2)
    opts = SearchOptions(group=group, dedup=args.dedup)
    try:
        solutions = enumerate_valid_decorations(d, opts)
    except StructuralConditionError as exc:
        return _fail(str(exc), 1)
    classes = count_classes(solutions, list(d.hopfs), opts)
    report = _report_skeleton()
    report["wellformed"] = True
    _fill_diagram_fields(report, d)
    report["search"] = {
        "raw_solutions": len(solutions),
        "classes": classes,
        # the list sits two levels deep in the report
        "solutions": _solutions_text(group, solutions, "\n    "),
    }
    text = _render(report)
    if cache_file is not None:
        try:
            _write_atomically(cache_file, text + "\n")
        except OSError as exc:
            return _fail(f"cannot write cache entry: {exc}", 2)
    print(text)
    return 0 if solutions else 1


def cmd_obstruct(args) -> int:
    if args.b2 is None and args.summands is None:
        return _fail("obstruct requires --b2 and/or --summands", 2)
    out = {}
    passed = True
    try:
        if args.b2 is not None:
            rep = divisibility_obstruction(args.b2)
            out["b2"] = _obstruction_json(rep)
            passed = passed and rep.divisibility_pass
        if args.summands is not None:
            summands = [int(t) for t in args.summands.split(",") if t != ""]
            rep = connected_sum_obstruction(summands)
            out["connected_sum"] = _obstruction_json(rep)
            passed = passed and rep.divisibility_pass
    except ValueError as exc:
        return _fail(str(exc), 2)
    out["verdict"] = "pass" if passed else "fail"
    print(_render(out))
    return 0 if passed else 1


def cmd_bundle(args) -> int:
    try:
        profile = bundle_profile(args.b1, args.b2, args.c2)
    except ValueError as exc:
        return _fail(str(exc), 2)
    out = {f: getattr(profile, f) for f in profile.__match_args__}
    out["energy"] = format_scalar(ExactScalar.of(profile.energy))
    print(_render(out))
    return 0


def cmd_canon(args) -> int:
    try:
        doc = _load_document(args.file)
    except (OSError, SldParseError) as exc:
        return _fail(str(exc), 2)
    try:
        d = doc.diagram()
    except DiagramError as exc:
        return _fail(str(exc), 2)
    dec = doc.decoration()
    if dec is None:
        return _fail("canon requires a decorated diagram", 2)
    try:
        elements = [dec[h] for h in d.hopfs]
        key = canonical_class(elements)
    except (DecorationError, ValueError) as exc:
        return _fail(str(exc), 2)
    out = {
        "hopf_order": list(d.hopfs),
        "size": key.size,
        "cos_squared": [format_scalar(c) for c in key.cos_squared],
        "gram_signs": list(key.gram_signs),
        "triple_signs": list(key.triple_signs),
    }
    print(_render(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkrep",
        description="Exact checks, searches and obstruction calculus for "
        "decorated singular link diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the four condition checks on a diagram")
    p.add_argument("file")
    p.add_argument("--all-sw-paths", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="enumerate valid decorations")
    p.add_argument("file")
    p.add_argument("--group", choices=("tetrahedral", "octahedral", "icosahedral"))
    p.add_argument(
        "--dedup",
        choices=("none", "group_conjugacy", "so3_canonical"),
        default="so3_canonical",
    )
    p.add_argument("--cache", help="directory for content-hash keyed result reuse")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("obstruct", help="mod-4 divisibility obstructions")
    p.add_argument("--b2", type=int)
    p.add_argument("--summands", help="comma-separated b2 values of summands")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("bundle", help="bundle profile from (b1, b2, c2)")
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("canon", help="conjugacy key of the decorated Hopf tuple")
    p.add_argument("file")
    p.set_defaults(func=cmd_canon)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: every parse returns
    a fresh namespace, so no call sees another's arguments."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
