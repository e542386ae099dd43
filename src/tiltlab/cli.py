"""Command-line front end: parse specs, dispatch verifier suites, emit
deterministic JSON or Markdown reports.

Exit codes: 0 when every verdict passes, 1 when any check fails (the
report is still emitted), 2 on usage or specification errors, 3 on an
internal fault (two independent methods disagreed; no report).  Reports
contain no timing or environment data, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .battery import run_battery
from .closure import transfer_suite
from .core import BadIdealExponent, NonPrime, ParseError, PrecisionBudget
from .monoidal import sharp
from .ramified import (
    AxiomFailure,
    KummerCoverSpec,
    NoWitnessInRange,
    assemble_perfectoid,
    colimit_shadow,
    delta_table,
    find_epsilon,
    smalltilt_normality_report,
    tilted_delta_table,
)
from .tilts import InsufficientDepth, ZeroDepth, small_tilt
from .towers import (
    LevelOutOfRange,
    MethodDisagreement,
    SpecError,
    TowerSpec,
    build_tower,
    check_axioms,
)

SCHEMA = 1

_USAGE_ERRORS = (
    SpecError,
    NonPrime,
    BadIdealExponent,
    ParseError,
    LevelOutOfRange,
    ZeroDepth,
    InsufficientDepth,
    NoWitnessInRange,
    ValueError,
)


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"{flag} needs a fraction a/b with b != 0, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _spec_from_args(args) -> TowerSpec:
    """The inline spec, or the --spec file with --prec/--depth applied to
    it and to every component of a product."""
    if not args.spec:
        if args.prime is None:
            raise SpecError("either --spec FILE or --prime is required")
        return TowerSpec(
            prime=args.prime,
            n_digits=args.prec if args.prec is not None else 6,
            depth=args.depth if args.depth is not None else args.inline_depth,
            kind=args.kind,
            m=args.m,
            num_vars=args.vars,
            var_degree_cap=_fraction(args.var_cap, "--var-cap"),
            ideal_exp=_fraction(args.ideal_exp, "--ideal-exp") if args.ideal_exp else None,
            start_level=args.start,
        )
    with open(args.spec, "r", encoding="utf-8") as fh:
        data = TowerSpec.from_json(fh.read()).to_json_dict()

    def override(node):
        for key, value in (("n_digits", args.prec), ("depth", args.depth)):
            if value is not None:
                node[key] = value
        for sub in node.get("components", ()):
            override(sub)

    override(data)
    return TowerSpec.from_json_dict(data)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = _markdown(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _markdown(report: dict) -> str:
    """Deterministic human-readable rendering of any report envelope."""
    lines = [f"# tiltlab {report['command']}", ""]
    lines.append(f"* ok: {'yes' if report['ok'] else 'NO'}")
    for key, value in sorted(report.get("params", {}).items()):
        lines.append(f"* {key}: {value}")
    lines.append("")
    body = report.get("report", {})
    if isinstance(body, dict) and "delta_table_markdown" in body:
        body = dict(body)
        lines.append(body.pop("delta_table_markdown"))
        lines.append("")
    lines.extend(_md_walk(body, 0))
    return "\n".join(lines)


def _md_walk(node, depth):
    pad = "  " * depth
    out = []
    if isinstance(node, dict):
        for key in sorted(node):
            value = node[key]
            if isinstance(value, (dict, list)):
                out.append(f"{pad}- **{key}**:")
                out.extend(_md_walk(value, depth + 1))
            else:
                out.append(f"{pad}- {key}: {value}")
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, (dict, list)):
                out.append(f"{pad}-")
                out.extend(_md_walk(item, depth + 1))
            else:
                out.append(f"{pad}- {item}")
    else:
        out.append(f"{pad}{node}")
    return out


def _envelope(command: str, params: dict, report, ok: bool) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "report": report,
        "ok": bool(ok),
    }


def _cmd_axioms(args) -> tuple[dict, bool]:
    spec = _spec_from_args(args)
    handle = build_tower(spec)
    report = check_axioms(handle, samples=args.samples, seed=args.seed)
    body = report.to_json_dict()
    return (
        _envelope(
            "axioms",
            {"spec": spec.to_json_dict(), "samples": args.samples, "seed": args.seed},
            body,
            report.all_pass,
        ),
        report.all_pass,
    )


def _cmd_tilt(args) -> tuple[dict, bool]:
    spec = _spec_from_args(args)
    handle = build_tower(spec)
    pres = small_tilt(handle, args.layer, args.tilt_depth)
    body = pres.to_json_dict()
    return (
        _envelope(
            "tilt",
            {"spec": spec.to_json_dict(), "layer": args.layer, "depth": args.tilt_depth},
            body,
            True,
        ),
        True,
    )


def _cmd_sharp(args) -> tuple[dict, bool]:
    spec = _spec_from_args(args)
    if args.tilt_depth is None:
        args.tilt_depth = max(1, spec.depth - args.layer)
    handle = build_tower(spec)
    pres = small_tilt(handle, args.layer, args.tilt_depth)
    elem = pres.parse(args.element)
    result = sharp(handle, elem)
    body = result.to_json_dict()
    body["element"] = pres.text_of(elem)
    return (
        _envelope(
            "sharp",
            {
                "spec": spec.to_json_dict(),
                "layer": args.layer,
                "depth": args.tilt_depth,
                "element": args.element,
            },
            body,
            True,
        ),
        True,
    )


def _cmd_closure(args) -> tuple[dict, bool]:
    from .closure import almost_integral_probes

    spec = _spec_from_args(args)
    if spec.kind == "product":
        raise SpecError("closure does not take product towers")
    handle = build_tower(spec)
    report = transfer_suite(
        handle,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        c_cap=args.ccap,
    )
    report["almost_integral_probes"] = almost_integral_probes(
        handle, args.ccap, args.ncap
    )
    ok = report["all_ok"]
    return (
        _envelope(
            "closure",
            {
                "spec": spec.to_json_dict(),
                "mode": args.mode,
                "samples": args.samples,
                "ccap": args.ccap,
                "ncap": args.ncap,
                "seed": args.seed,
            },
            report,
            ok,
        ),
        ok,
    )


def _cmd_ramify(args) -> tuple[dict, bool]:
    spec = KummerCoverSpec(
        prime=args.p,
        m=args.m,
        precision=PrecisionBudget(args.prec),
        levels=args.levels,
    )
    table = delta_table(spec)
    witness = find_epsilon(spec, table)
    ok = True
    body = {
        "delta_table": table.to_json_dict(),
        "delta_table_markdown": table.to_markdown(),
        "epsilon": str(witness.epsilon),
        "start_level": witness.start_level,
        "tilted_rows": tilted_delta_table(spec),
        "colimit_rows": colimit_shadow(spec, table),
    }
    override = (
        _fraction(args.pillar_override, "--pillar-override")
        if args.pillar_override
        else None
    )
    try:
        handle, report, n_prime, bound = assemble_perfectoid(
            spec,
            witness,
            depth=args.depth,
            samples=args.samples,
            seed=args.seed,
            pillar_valuation_override=override,
        )
        body["n_prime"] = n_prime
        body["a_priori_bound"] = bound
        body["axioms"] = report.to_json_dict()
        ok = report.all_pass
        norm = smalltilt_normality_report(handle, samples=args.samples, seed=args.seed)
        body["smalltilt_normality"] = norm
        ok = ok and norm["all_ok"]
    except AxiomFailure as exc:
        body["axioms"] = exc.report.to_json_dict() if exc.report else str(exc)
        ok = False
    return (
        _envelope(
            "ramify",
            {
                "p": args.p,
                "m": args.m,
                "levels": args.levels,
                "prec": args.prec,
                "depth": args.depth,
                "samples": args.samples,
                "seed": args.seed,
            },
            body,
            ok,
        ),
        ok,
    )


def _cmd_suite(args) -> tuple[dict, bool]:
    report = run_battery(seed=args.seed)
    ok = report["ok"]
    return _envelope("suite", {"seed": args.seed}, report, ok), ok


def _add_spec_flags(sub, depth: int):
    sub.add_argument("--spec", help="tower spec JSON file")
    sub.add_argument("--prec", type=int, default=None,
                     help="p-adic digits (default 6, or the spec file's)")
    sub.add_argument("--depth", type=int, default=None,
                     help=f"tower depth (default {depth}, or the spec file's)")
    sub.set_defaults(inline_depth=depth)
    sub.add_argument("--prime", type=int, help="prime p (inline spec)")
    sub.add_argument("--kind", default="pure", choices=["pure", "kummer"])
    sub.add_argument("--m", type=int, help="Kummer cover exponent")
    sub.add_argument("--ideal-exp", dest="ideal_exp", help="ideal exponent a/b")
    sub.add_argument("--vars", type=int, default=0, help="number of variables")
    sub.add_argument("--var-cap", dest="var_cap", default="0", help="degree cap")
    sub.add_argument("--start", type=int, default=0, help="first realized level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltlab",
        description="finite-precision perfectoid tower laboratory",
    )
    parser.add_argument("--format", choices=["json", "md"], default="json")
    parser.add_argument("--out", help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    ax = sub.add_parser("axioms", help="run the tower axiom suite")
    _add_spec_flags(ax, depth=3)
    ax.add_argument("--samples", type=_positive_int, default=200)
    ax.add_argument("--seed", type=int, default=0)
    ax.set_defaults(fn=_cmd_axioms)

    ti = sub.add_parser("tilt", help="present a small tilt")
    _add_spec_flags(ti, depth=3)
    ti.add_argument("--layer", type=int, required=True)
    ti.add_argument("--tilt-depth", dest="tilt_depth", type=int, required=True)
    ti.set_defaults(fn=_cmd_tilt)

    sh = sub.add_parser("sharp", help="evaluate the monoidal map")
    _add_spec_flags(sh, depth=4)
    sh.add_argument("--layer", type=int, default=0)
    sh.add_argument("--tilt-depth", dest="tilt_depth", type=int, default=None)
    sh.add_argument("--element", required=True, help="tilt expression, e.g. pflat")
    sh.set_defaults(fn=_cmd_sharp)

    cl = sub.add_parser("closure", help="closure transfer suite")
    _add_spec_flags(cl, depth=3)
    cl.add_argument("--mode", choices=["exact", "sampled"], default="sampled")
    cl.add_argument("--samples", type=_positive_int, default=500)
    cl.add_argument("--ccap", type=_positive_int, default=3)
    cl.add_argument("--ncap", type=_positive_int, default=10)
    cl.add_argument("--seed", type=int, default=0)
    cl.set_defaults(fn=_cmd_closure)

    ra = sub.add_parser("ramify", help="Kummer cover ramification tables")
    ra.add_argument("--p", type=int, required=True)
    ra.add_argument("--m", type=int, required=True)
    ra.add_argument("--levels", type=int, default=5)
    ra.add_argument("--prec", type=int, default=6)
    ra.add_argument("--depth", type=int, default=3, help="assembled tower depth")
    ra.add_argument("--samples", type=_positive_int, default=200)
    ra.add_argument("--seed", type=int, default=0)
    ra.add_argument(
        "--pillar-override",
        dest="pillar_override",
        default=None,
        help="force a pillar valuation a/b (negative-control replay)",
    )
    ra.set_defaults(fn=_cmd_ramify)

    su = sub.add_parser("suite", help="run the full verification battery")
    su.add_argument("--seed", type=int, default=7)
    su.set_defaults(fn=_cmd_suite)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report, ok = args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"tiltlab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tiltlab: {exc}", file=sys.stderr)
        return 2
    except MethodDisagreement as exc:
        print(f"tiltlab: internal fault: {exc}", file=sys.stderr)
        return 3
    _emit(report, args)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
