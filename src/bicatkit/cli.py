"""Batch front end.

Commands: validate, sigma-check, localize, ho-eq, hat, extend, elevator.
Exit codes: 0 success / Equal / ok; 1 violations / Distinct / failed checks;
2 Unknown; 3 usage, parse or bound errors.

Every command parses and validates tables, so core, presentation and library
are imported here.  Each command imports the further layers it runs inside
its own function, so a process loads only what its command needs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core import (
    SCHEMA_VERSION,
    StructureError,
    validate_bicategory,
    validate_pseudofunctor,
)
from .library import BICATEGORIES, default_probe_targets, load_fixture
from .presentation import ParseError, load_presentation_with_sigma, load_pseudofunctor

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class _Usage(Exception):
    pass


class _Invalid(Exception):
    """A table a command reads fails validation."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Usage(f"cannot read {path}: {exc}") from exc


def _load_bicategory(path: str):
    name = Path(path).stem
    if path in BICATEGORIES:  # bare fixture name
        return load_fixture(path)
    return load_presentation_with_sigma(_read(path), name=name)


def _load_valid(path: str):
    """The presentation of every table a command computes on; one that fails
    validation exits 1 before any command reads a missing entry."""
    pres = _load_bicategory(path)
    if not validate_bicategory(pres.bicategory).ok:
        raise _Invalid
    return pres


def _emit(args, payload: dict, text: str) -> None:
    """Write the text, or under --format json the payload stamped with
    schema_version, to stdout or the --out file."""
    body = (
        json.dumps({**payload, "schema_version": SCHEMA_VERSION}, indent=2, sort_keys=True) + "\n"
        if args.format == "json"
        else text
    )
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(body)
        except OSError as exc:
            raise _Usage(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(body)


def _names(spec: str) -> tuple[str, ...]:
    """The names of a comma list option, blanks dropped and repeats merged
    into their first occurrence."""
    return tuple(dict.fromkeys(n.strip() for n in spec.split(",") if n.strip()))


def _probe_targets(sigma, spec: str | None):
    """The probe targets --probes names.  A table named twice, in any
    spelling, counts once; two different tables under one name would give
    their probes the same names."""
    if spec is None:
        return default_probe_targets(sigma)
    probe_dir = os.environ.get("BICATKIT_PROBE_DIR")
    tables: dict[str, dict] = {}
    targets = []
    for name in _names(spec):
        if not name.endswith(".bic"):
            in_dir = Path(probe_dir) / f"{name}.bic" if probe_dir else None
            if in_dir and in_dir.exists():
                name = str(in_dir)
            elif name not in BICATEGORIES:
                raise _Usage(f"unknown probe target {name!r}")
        bic = _load_valid(name).bicategory
        table = {k: v for k, v in vars(bic).items() if not k.startswith("_")}
        if bic.name in tables:
            if tables[bic.name] != table:
                raise _Usage(f"two probe targets named {bic.name!r}")
            continue
        tables[bic.name] = table
        targets.append(bic)
    if not targets:
        raise _Usage("--probes names no probe target")
    return targets


def _probes(args, sigma):
    """The probe set of a command: the --probes targets, or the bundled ones
    and the table itself."""
    from .ho import enumerate_probes

    return enumerate_probes(
        sigma, _probe_targets(sigma, args.probes), include_self=args.probes is None
    )


def _sigma_for(args, pres):
    from .sigma import make_sigma

    names = pres.sigma_names
    if getattr(args, "sigma", None) is not None:
        names = _names(args.sigma)
        if not names:
            raise _Usage("--sigma names no arrow")
    try:
        return make_sigma(pres.bicategory, names)
    except StructureError as exc:
        raise _Usage(str(exc)) from exc


def _cmd_validate(args) -> int:
    if args.functor:
        if not (args.source and args.target):
            raise _Usage("--functor needs --source and --target")
        src = _load_bicategory(args.source).bicategory
        tgt = _load_bicategory(args.target).bicategory
        for which, bic in (("source", src), ("target", tgt)):
            rep = validate_bicategory(bic)
            if not rep.ok:
                _emit(args, {"subject": which, **rep.to_json()},
                      _report_text(f"{which} bicategory {bic.name}", rep))
                return EXIT_FAIL
        fun = load_pseudofunctor(_read(args.functor), src, tgt, name=Path(args.functor).stem)
        rep = validate_pseudofunctor(fun)
        _emit(args, {"subject": fun.name, **rep.to_json()},
              _report_text(f"pseudofunctor {fun.name}", rep))
        return EXIT_OK if rep.ok else EXIT_FAIL
    if args.input is None:
        raise _Usage("validate needs an input or --functor")
    pres = _load_bicategory(args.input)
    rep = validate_bicategory(pres.bicategory)
    _emit(args, {"subject": pres.bicategory.name, **rep.to_json()},
          _report_text(f"bicategory {pres.bicategory.name}", rep))
    return EXIT_OK if rep.ok else EXIT_FAIL


def _report_text(subject: str, rep) -> str:
    if rep.ok:
        return f"{subject}: ok (no violations)\n"
    lines = [f"{subject}: {len(rep.violations)} violation(s)"]
    for v in rep.violations:
        extra = f" [{v.left} != {v.right}]" if v.left or v.right else ""
        lines.append(f"  {v.axiom} at ({', '.join(v.witness)}){extra}")
    return "\n".join(lines) + "\n"


def _cmd_sigma_check(args) -> int:
    from .sigma import sigma_report

    pres = _load_valid(args.input)
    sigma = _sigma_for(args, pres)
    report = sigma_report(sigma, max_len=args.max_len)
    lines = [f"sigma on {pres.bicategory.name}: {', '.join(sorted(sigma.members))}"]
    tft = report["three_for_two"]
    lines.append(f"three-for-two: {'ok' if tft['ok'] else 'FAIL ' + json.dumps(tft['witness'])}")
    for row in report["arrows"]:
        dec = row["decomposition"]
        lines.append(
            f"  {row['arrow']}: w-split={row['w_split']['role']}"
            f" decomposition={'/'.join(dec['chain']) if dec else 'none'}"
            f" qe={row['quasiequivalence']}"
            f" equivalence={'yes' if row['equivalence'] else 'no'}"
        )
    _emit(args, report, "\n".join(lines) + "\n")
    return EXIT_OK if tft["ok"] else EXIT_FAIL


def _cmd_localize(args) -> int:
    from .localize import localize, replay_certificate

    pres = _load_valid(args.input)
    sigma = _sigma_for(args, pres)
    probes = _probes(args, sigma)
    if args.replay:
        try:
            cert = json.loads(_read(args.replay))
        except json.JSONDecodeError as exc:
            raise _Usage(f"{args.replay} is not JSON: {exc}") from exc
        ok, problems = replay_certificate(sigma, cert, probes)
        payload = {"replay_ok": ok, "problems": problems}
        _emit(args, payload, ("replay ok\n" if ok else "replay FAILED:\n  " + "\n  ".join(problems) + "\n"))
        return EXIT_OK if ok else EXIT_FAIL
    cert = localize(sigma, probes, max_len=args.max_len)
    payload = cert.to_json()
    lines = [f"localize {pres.bicategory.name} at {{{', '.join(sorted(sigma.members))}}}: {cert.status}"]
    if cert.status == "three-for-two-failed":
        lines.append(f"  witness: {json.dumps(cert.three_for_two['witness'])}")
    for e in cert.equivalences:
        lines.append(f"  {e.arrow}: quasiinverse {e.quasiinverse}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return EXIT_OK if cert.ok else EXIT_FAIL


def _query(args, sigma):
    """The query document args.query names; a query error is a usage error."""
    from .queries import QueryError, parse_query

    try:
        return parse_query(sigma, _read(args.query))
    except QueryError as exc:
        raise _Usage(str(exc)) from exc


def _cmd_ho_eq(args) -> int:
    from .ho import ho_eq

    pres = _load_valid(args.input)
    sigma = _sigma_for(args, pres)
    doc = _query(args, sigma)
    if "lhs" not in doc.sequences or "rhs" not in doc.sequences:
        raise _Usage("query must define sequences 'lhs' and 'rhs'")
    probes = _probes(args, sigma)
    try:
        verdict = ho_eq(doc.sequences["lhs"], doc.sequences["rhs"], probes)
    except StructureError as exc:
        raise _Usage(str(exc)) from exc
    payload = verdict.to_json()
    if verdict.verdict == "equal":
        text = "Equal\n" + "".join(
            f"  [{s.side}] {s.rule}: {s.law} ({s.detail})\n" for s in verdict.trace
        )
        code = EXIT_OK
    elif verdict.verdict == "distinct":
        text = (
            f"Distinct under probe {verdict.probe}: "
            f"{verdict.left_value} != {verdict.right_value}\n"
        )
        code = EXIT_FAIL
    else:
        text = "Unknown (the rewrites do not join the sides and no probe separates them)\n"
        code = EXIT_UNKNOWN
    _emit(args, payload, text)
    return code


def _cmd_hat(args) -> int:
    from .homotopy import HatError, hat

    pres = _load_valid(args.input)
    sigma = _sigma_for(args, pres)
    doc = _query(args, sigma)
    if doc.hat_target is None:
        raise _Usage("query must contain a 'hat = NAME' line")
    target = doc.cylinders.get(doc.hat_target) or doc.homotopies[doc.hat_target]
    try:
        cell = hat(sigma.bic, target)
    except HatError as exc:
        sys.stderr.write(f"hat failed: {exc}\n")
        return EXIT_FAIL
    _emit(args, {"hat": cell}, f"hat({doc.hat_target}) = {cell}\n")
    return EXIT_OK


def _cmd_extend(args) -> int:
    from .ho import extend_pseudofunctor

    src_pres = _load_valid(args.source)
    tgt_pres = _load_valid(args.target)
    src, tgt = src_pres.bicategory, tgt_pres.bicategory
    fun = load_pseudofunctor(_read(args.functor), src, tgt, name=Path(args.functor).stem)
    rep = validate_pseudofunctor(fun)
    if not rep.ok:
        _emit(args, rep.to_json(), _report_text(f"pseudofunctor {fun.name}", rep))
        return EXIT_FAIL
    sigma = _sigma_for(args, src_pres)
    ext = extend_pseudofunctor(fun, sigma, cap=args.cap)
    payload = {
        "functor": fun.name,
        "report": ext.report.to_json(),
        "values": [{"hocell": k.to_json(), "value": ext.value(k)} for k in ext.materialized],
    }
    ok = ext.report.ok
    text = (f"extension of {fun.name}: {'ok' if ok else 'FAILED'}\n"
            f"  whiskers: {ext.report.checked_whiskers}\n")
    _emit(args, payload, text)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_elevator(args) -> int:
    from .elevator import load_computad, normalize, parse_expr, render

    comp = load_computad(_read(args.computad), name=Path(args.computad).stem)
    e1 = parse_expr(comp, args.expr)
    n1 = normalize(e1)
    if args.expr2 is None:
        _emit(args, {"normal_form": str(n1.expr)}, f"normal form: {n1.expr}\n\n{render(n1.expr)}")
        return EXIT_OK
    e2 = parse_expr(comp, args.expr2)
    n2 = normalize(e2)
    equal = n1 == n2
    payload = {
        "equal": equal,
        "normal_form_1": str(n1.expr),
        "normal_form_2": str(n2.expr),
    }
    text = (
        f"normal form 1: {n1.expr}\n{render(n1.expr)}\n"
        f"normal form 2: {n2.expr}\n{render(n2.expr)}\n"
        f"{'equal' if equal else 'NOT equal'}\n"
    )
    _emit(args, payload, text)
    return EXIT_OK if equal else EXIT_FAIL


def _bound(text: str) -> int:
    """argparse type of --max-len and --cap: an integer >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bicatkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("validate", help="check bicategory or pseudofunctor axioms")
    p.add_argument("input", nargs="?", help="bicategory presentation (.bic or fixture name)")
    p.add_argument("--functor", help="pseudofunctor document (.pf)")
    p.add_argument("--source", help="source presentation for --functor")
    p.add_argument("--target", help="target presentation for --functor")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("sigma-check", help="3-for-2 and w-split table for the marked class")
    p.add_argument("input")
    p.add_argument("--sigma", help="comma-separated arrow names (default: file's sigma)")
    p.add_argument("--max-len", type=_bound, default=4)
    common(p)
    p.set_defaults(fn=_cmd_sigma_check)

    p = sub.add_parser("localize", help="build or replay a localization certificate")
    p.add_argument("input")
    p.add_argument("--sigma")
    p.add_argument("--probes", help="comma-separated probe target names or .bic paths")
    p.add_argument("--max-len", type=_bound, default=4)
    p.add_argument("--replay", help="re-verify a stored certificate")
    common(p)
    p.set_defaults(fn=_cmd_localize)

    p = sub.add_parser("ho-eq", help="decide equality of two homotopy classes")
    p.add_argument("input")
    p.add_argument("query", help="query document defining lhs and rhs")
    p.add_argument("--sigma")
    p.add_argument("--probes")
    common(p)
    p.set_defaults(fn=_cmd_ho_eq)

    p = sub.add_parser("hat", help="evaluate the hat of a cylinder or homotopy")
    p.add_argument("input")
    p.add_argument("query")
    p.add_argument("--sigma")
    common(p)
    p.set_defaults(fn=_cmd_hat)

    p = sub.add_parser("extend", help="extend a functor along the projection")
    p.add_argument("--functor", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--sigma")
    p.add_argument("--cap", type=_bound, default=60)
    common(p)
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("elevator", help="normalize and compare 2-cell expressions")
    p.add_argument("computad")
    p.add_argument("--expr", required=True)
    p.add_argument("--expr2")
    common(p)
    p.set_defaults(fn=_cmd_elevator)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (_Usage, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except StructureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    except _Invalid:
        sys.stderr.write("input fails validation; run validate first\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
