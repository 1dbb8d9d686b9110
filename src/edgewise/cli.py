"""Command-line surface.

Every command is deterministic given its inputs, seed, and budgets;
seed and budget flags are echoed verbatim into report headers.  Exit
codes: 0 all checked properties pass, 1 a checked property fails,
2 invalid input or limits.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import checks, corpus, draw, groupoid, io
from .cat import bar, nerve, span_category, twisted_arrow, \
    validate_category, validate_partial_monoid
from .errors import GenerationError, InputError
from .groupoid import validate_groupoid, validate_sgpd
from .sset import edgewise, validate

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """What a single invocation was asked to do, echoed into reports."""

    command: str
    seed: int | None
    budget_iso_nodes: int | None
    budget_fuzz_count: int | None
    fmt: str

    def header(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "budgets": {
                "iso-nodes": self.budget_iso_nodes,
                "fuzz-count": self.budget_fuzz_count,
            },
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

    q = sub.add_parser("esd", parents=[common],
                       help="edgewise subdivision of a simplicial set file")
    q.add_argument("file")
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("nerve", parents=[common],
                       help="nerve of a category file")
    q.add_argument("file")
    q.add_argument("--truncation", type=int, required=True)
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("tw", parents=[common],
                       help="twisted arrow category of a category file")
    q.add_argument("file")
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("bar", parents=[common],
                       help="bar construction of a partial monoid file")
    q.add_argument("file")
    q.add_argument("--truncation", type=int, required=True)
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("spans", parents=[common],
                       help="span category of a partial monoid file")
    q.add_argument("file")
    q.add_argument("-o", "--output", default=None)

    q = sub.add_parser("check", parents=[common],
                       help="run a checker on a simplicial set file")
    q.add_argument("what", choices=("segal", "2segal", "theorem"))
    q.add_argument("file")
    q.add_argument("--reduced", action="store_true",
                   help="2segal only: restrict to the boundary index family")

    q = sub.add_parser("gen", help="generate a seeded instance")
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

    q = sub.add_parser("fuzz", parents=[common],
                       help="randomized matched-verdict sweep")
    q.add_argument("--count", type=int, default=100)

    q = sub.add_parser("draw", parents=[common],
                       help="graph-description diagram")
    q.add_argument("what", choices=("esd-simplex",))
    q.add_argument("k", type=int)
    q.add_argument("-o", "--output", default=None)
    return p


def _config(args) -> RunConfig:
    command = args.command if not getattr(args, "what", None) \
        else f"{args.command} {args.what}"
    return RunConfig(command, args.seed, args.budget_iso_nodes,
                     args.budget_fuzz_count, args.fmt)


def _read(path: str) -> str:
    try:
        with open(path, "r") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        io.write_text(output, text)


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


def _report_out(report, cfg: RunConfig, context=None) -> int:
    header = cfg.header()
    if context:
        header = dict(header, context=context)
    if cfg.fmt == "machine":
        sys.stdout.write(io.save_report(report, header=header))
    else:
        sys.stdout.write(_format_report_human(report, cfg.header(),
                                              context))
    return 0 if report.overall == "pass" else 1


_VALIDATORS = {
    "sset": validate,
    "category": validate_category,
    "groupoid": validate_groupoid,
    "partial_monoid": validate_partial_monoid,
    "sgpd": validate_sgpd,
}


def _run_validate(args) -> int:
    cfg = _config(args)
    kind, value = io.load_any(_read(args.file), name=_stem(args.file))
    if kind == "report":
        problems = []
    else:
        problems = _VALIDATORS[kind](value)
    lines = _header_lines(cfg.header())
    lines.append(f"format: {kind}")
    lines.append(f"violations: {len(problems)}")
    lines += [f"  {v}" for v in problems]
    if cfg.fmt == "machine":
        doc = {"header": cfg.header(), "format": kind,
               "violations": [str(v) for v in problems]}
        sys.stdout.write(io.canonical_json(doc))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 1 if problems else 0


def _run_transform(args) -> int:
    text = _read(args.file)
    name = _stem(args.file)
    if args.command == "esd":
        X = io.load_sset(text, name=name)
        out = io.save_sset(edgewise(X))
    elif args.command == "nerve":
        out = io.save_sset(nerve(io.load_category(text, name=name),
                                 args.truncation))
    elif args.command == "tw":
        out = io.save_category(twisted_arrow(
            io.load_category(text, name=name)))
    elif args.command == "bar":
        out = io.save_sset(bar(io.load_partial_monoid(text, name=name),
                               args.truncation))
    else:
        out = io.save_category(span_category(
            io.load_partial_monoid(text, name=name)))
    _emit(out, args.output)
    return 0


def _run_check(args) -> int:
    if args.reduced and args.what != "2segal":
        raise InputError("--reduced applies only to: check 2segal")
    cfg = _config(args)
    X = io.load_sset(_read(args.file), name=_stem(args.file))
    if args.what == "segal":
        return _report_out(checks.segal_check(X), cfg)
    if args.what == "2segal":
        mode = "reduced" if args.reduced else "full"
        return _report_out(checks.two_segal_check(X, mode), cfg)
    report = checks.theorem_verify(X)
    own = checks.segal_check(X)
    context = {
        "own_segal_overall": own.summary["overall"],
        "own_segal_failures": [list(e.indices) for e in own.entries
                               if e.verdict != "pass"],
    }
    return _report_out(report, cfg, context=context)


def _run_gen(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.what == "partial-monoid":
        M = corpus.random_partial_monoid(args.size, seed)
        _emit(io.save_partial_monoid(M), args.output)
        return 0
    parts = args.spec.split(",")
    if len(parts) != 3:
        raise InputError("--spec takes vertices,edges,truncation")
    try:
        nv, ne, truncation = (int(p) for p in parts)
    except ValueError:
        raise InputError(f"bad --spec {args.spec!r}") from None
    X = corpus.random_coskeletal_sset(nv, ne, truncation, seed)
    _emit(io.save_sset(X), args.output)
    return 0


def _run_fuzz(args) -> int:
    cfg = _config(args)
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
    if cfg.fmt == "machine":
        sys.stdout.write(io.canonical_json(
            {"header": cfg.header(), "fuzz": doc}))
    else:
        lines = _header_lines(cfg.header())
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
        if args.command == "validate":
            return _run_validate(args)
        if args.command in ("esd", "nerve", "tw", "bar", "spans"):
            return _run_transform(args)
        if args.command == "check":
            return _run_check(args)
        if args.command == "gen":
            return _run_gen(args)
        if args.command == "sconstruction":
            Y = groupoid.s_construction(args.max_card, args.truncation)
            _emit(io.save_sgpd(Y), args.output)
            return 0
        if args.command == "fuzz":
            return _run_fuzz(args)
        if args.command == "draw":
            _emit(draw.emit_diagram(args.k), args.output)
            return 0
    except (InputError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
