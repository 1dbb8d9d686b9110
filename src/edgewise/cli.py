"""Command-line surface.

Every command is deterministic given its inputs, seed, and budgets;
seed and budget flags are echoed verbatim into report headers.  Exit
codes: 0 all checked properties pass, 1 a checked property fails,
2 invalid input or limits.
"""

from __future__ import annotations

import argparse
import sys

from . import checks, corpus, draw, groupoid, io
from .cat import bar, nerve, span_category, twisted_arrow, \
    validate_category, validate_partial_monoid
from .errors import GenerationError, InputError
from .groupoid import validate_groupoid, validate_sgpd
from .sset import edgewise, validate

__all__ = ["main"]

# command -> (help, format read, build(loaded, args), format written).
# A format f is read by io.load_f and written by io.save_f, looked up
# on io when the command runs, so that a wrapper bound over io's
# functions (as perfbench/layertrace.py binds one) sees the call.
_TRANSFORMS = {
    "esd": ("edgewise subdivision of a simplicial set file",
            "sset", lambda X, args: edgewise(X), "sset"),
    "nerve": ("nerve of a category file",
              "category", lambda A, args: nerve(A, args.truncation), "sset"),
    "tw": ("twisted arrow category of a category file",
           "category", lambda A, args: twisted_arrow(A), "category"),
    "bar": ("bar construction of a partial monoid file",
            "partial_monoid", lambda M, args: bar(M, args.truncation),
            "sset"),
    "spans": ("span category of a partial monoid file",
              "partial_monoid", lambda M, args: span_category(M),
              "category"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "machine"),
                        default="human", dest="fmt",
                        help="report rendering (default: human)")
    common.add_argument("--seed", type=int, default=None,
                        help="random seed, echoed into report headers")
    common.add_argument("--budget-iso-nodes", type=int, default=None,
                        help="node budget for isomorphism searches")
    common.add_argument("--budget-fuzz-count", type=int, default=None,
                        help="cap on fuzz instances")

    p = argparse.ArgumentParser(
        prog="edgewise",
        description="subdivision, Segal and 2-Segal checking for finite "
                    "simplicial data")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", parents=[common],
                       help="validate any known file format")
    q.add_argument("file")
    q.set_defaults(run=_run_validate)

    for command, (help_text, *_) in _TRANSFORMS.items():
        q = sub.add_parser(command, parents=[common], help=help_text)
        q.add_argument("file")
        if command in ("nerve", "bar"):
            q.add_argument("--truncation", type=int, required=True)
        q.add_argument("-o", "--output", default=None)
        q.set_defaults(run=_run_transform)

    q = sub.add_parser("check", parents=[common],
                       help="run a checker on a simplicial set file")
    q.add_argument("what", choices=("segal", "2segal", "theorem"))
    q.add_argument("file")
    q.add_argument("--reduced", action="store_true",
                   help="2segal only: restrict to the boundary index family")
    q.set_defaults(run=_run_check)

    q = sub.add_parser("gen", help="generate a seeded instance")
    q.set_defaults(run=_run_gen)
    gen_sub = q.add_subparsers(dest="what", required=True)
    g = gen_sub.add_parser("partial-monoid", parents=[common])
    g.add_argument("--size", type=int, required=True)
    g.add_argument("-o", "--output", default=None)
    g = gen_sub.add_parser("coskeletal", parents=[common])
    g.add_argument("--spec", required=True,
                   help="vertices,edges,truncation")
    g.add_argument("-o", "--output", default=None)

    q = sub.add_parser("sconstruction", parents=[common],
                       help="simplicial groupoid of pointed-set arrays")
    q.add_argument("--max-card", type=int, required=True)
    q.add_argument("--truncation", type=int, required=True)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(run=lambda args: _emit(io.save_sgpd(
        groupoid.s_construction(args.max_card, args.truncation)),
        args.output))

    q = sub.add_parser("fuzz", parents=[common],
                       help="randomized matched-verdict sweep")
    q.add_argument("--count", type=int, default=100)
    q.set_defaults(run=_run_fuzz)

    q = sub.add_parser("draw", parents=[common],
                       help="graph-description diagram")
    q.add_argument("what", choices=("esd-simplex",))
    q.add_argument("k", type=int)
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(run=lambda args: _emit(draw.emit_diagram(args.k),
                                          args.output))
    return p


def _header(args) -> dict:
    """What the invocation was asked to do, echoed into reports."""
    command = f"{args.command} {args.what}" \
        if getattr(args, "what", None) else args.command
    return {
        "command": command,
        "seed": args.seed,
        "budgets": {
            "iso-nodes": args.budget_iso_nodes,
            "fuzz-count": args.budget_fuzz_count,
        },
    }


def _read(path: str) -> str:
    try:
        with open(path, "r") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(text: str, output: str | None) -> int:
    """Write ``text`` to ``output``, or to stdout without one; exit 0."""
    if output is None:
        sys.stdout.write(text)
    else:
        io.write_text(output, text)
    return 0


def _stem(path: str) -> str:
    base = path.rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def _header_lines(header: dict) -> list:
    out = [f"command: {header['command']}",
           f"seed: {header['seed']}"]
    for key in sorted(header["budgets"]):
        out.append(f"budget-{key}: {header['budgets'][key]}")
    return out


def _format_report_human(report, header, context=None) -> str:
    lines = _header_lines(header)
    lines.append(f"subject: {report.subject}")
    lines.append(f"semantics: {report.semantics}")
    lines.append("summary:")
    for key, value in report.summary.items():
        lines.append(f"  {key}: {value}")
    lines.append(f"entries: {len(report.entries)}")
    for e in report.entries:
        spot = f"  {e.kind} {e.indices}: {e.verdict}"
        if e.verdict != "pass":
            spot += f"  [{e.domain_size} vs {e.codomain_size}]"
            if e.witness is not None:
                spot += f"  witness {e.witness}"
        lines.append(spot)
    if context:
        lines.append("context:")
        for key, value in context.items():
            lines.append(f"  {key}: {value}")
    return "\n".join(lines) + "\n"


def _report_out(report, args, context=None) -> int:
    header = _header(args)
    if args.fmt == "machine":
        if context:
            header = dict(header, context=context)
        sys.stdout.write(io.save_report(report, header=header))
    else:
        sys.stdout.write(_format_report_human(report, header, context))
    return 0 if report.overall == "pass" else 1


_VALIDATORS = {
    "sset": validate,
    "category": validate_category,
    "groupoid": validate_groupoid,
    "partial_monoid": validate_partial_monoid,
    "sgpd": validate_sgpd,
    "report": lambda report: [],
}


def _run_validate(args) -> int:
    kind, value = io.load_any(_read(args.file), name=_stem(args.file))
    problems = _VALIDATORS[kind](value)
    header = _header(args)
    if args.fmt == "machine":
        doc = {"header": header, "format": kind,
               "violations": [str(v) for v in problems]}
        sys.stdout.write(io.canonical_json(doc))
    else:
        lines = _header_lines(header)
        lines.append(f"format: {kind}")
        lines.append(f"violations: {len(problems)}")
        lines += [f"  {v}" for v in problems]
        sys.stdout.write("\n".join(lines) + "\n")
    return 1 if problems else 0


def _run_transform(args) -> int:
    _, source, build, target = _TRANSFORMS[args.command]
    loaded = getattr(io, f"load_{source}")(_read(args.file),
                                           name=_stem(args.file))
    return _emit(getattr(io, f"save_{target}")(build(loaded, args)),
                 args.output)


def _run_check(args) -> int:
    if args.reduced and args.what != "2segal":
        raise InputError("--reduced applies only to: check 2segal")
    X = io.load_sset(_read(args.file), name=_stem(args.file))
    if args.what == "segal":
        return _report_out(checks.segal_check(X), args)
    if args.what == "2segal":
        mode = "reduced" if args.reduced else "full"
        return _report_out(checks.two_segal_check(X, mode), args)
    report = checks.theorem_verify(X)
    own = checks.segal_check(X)
    context = {
        "own_segal_overall": own.summary["overall"],
        "own_segal_failures": [list(e.indices) for e in own.entries
                               if e.verdict != "pass"],
    }
    return _report_out(report, args, context=context)


def _run_gen(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.what == "partial-monoid":
        M = corpus.random_partial_monoid(args.size, seed)
        return _emit(io.save_partial_monoid(M), args.output)
    parts = args.spec.split(",")
    if len(parts) != 3:
        raise InputError("--spec takes vertices,edges,truncation")
    try:
        nv, ne, truncation = (int(p) for p in parts)
    except ValueError:
        raise InputError(f"bad --spec {args.spec!r}") from None
    X = corpus.random_coskeletal_sset(nv, ne, truncation, seed)
    return _emit(io.save_sset(X), args.output)


def _run_fuzz(args) -> int:
    seed = args.seed if args.seed is not None else 0
    count = args.count
    if args.budget_fuzz_count is not None:
        count = min(count, args.budget_fuzz_count)
    summary = checks.fuzz_theorem(count, seed)
    doc = {
        "count": summary.count,
        "seed": summary.seed,
        "checked": summary.checked,
        "generation_failures": summary.generation_failures,
        "kind_counts": dict(summary.kind_counts),
        "violations": [list(v) for v in summary.violations],
        "partial_bar_level2_passes": summary.partial_bar_level2_passes,
    }
    if args.fmt == "machine":
        sys.stdout.write(io.canonical_json(
            {"header": _header(args), "fuzz": doc}))
    else:
        lines = _header_lines(_header(args))
        lines += [f"{key}: {doc[key]}" for key in doc]
        sys.stdout.write("\n".join(lines) + "\n")
    return 1 if summary.violations else 0


def _check_limits(args) -> None:
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        raise InputError("seed must fit in 64 unsigned bits")
    for flag in ("budget_iso_nodes", "budget_fuzz_count"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise InputError(f"{flag.replace('_', '-')} must be nonnegative")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_limits(args)
        return args.run(args)
    except (InputError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
