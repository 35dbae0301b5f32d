"""Command line front end: analyze graphs, run verification campaigns,
generate graph families.

Exit codes: 0 clean, 1 counterexample found, 2 usage or parse problem,
3 a configured size ceiling was exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .campaigns import analyze_graph, corpus_runner, report_json, run_campaign, CAMPAIGNS
from .errors import BadSpecError, BoundExceededError, MatchcovError, ParseError
from .graphio import encode_graph6, format_mg, parse_corpus_text, parse_graph_text
from .wheels import (
    WheelSpec,
    build_from_certificate,
    cert_from_obj,
    g_family_closure,
    make_wheel,
)

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _write_text(path: Optional[str], text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_graphs(graphs, fmt: str, out: Optional[str]) -> None:
    if fmt == "graph6":
        text = "\n".join(encode_graph6(g) for g in graphs)
    else:
        text = "\n\n".join(format_mg(g).rstrip("\n") for g in graphs)
    _write_text(out, text)


def cmd_analyze(args) -> int:
    g = parse_graph_text(_read_text(args.file))
    report = analyze_graph(g)
    _write_text(args.out, json.dumps(report, indent=2))
    return EXIT_PASS


def cmd_verify(args) -> int:
    # args.params holds only the flags given; the campaign's table checks
    # them, refuses the rest, and supplies the defaults.
    if args.corpus is not None:
        run = corpus_runner(args.campaign, os.path.basename(args.corpus), jobs=args.jobs, **args.params)
        report = run(parse_corpus_text(_read_text(args.corpus)))
    else:
        report = run_campaign(args.campaign, jobs=args.jobs, **args.params)
    _write_text(args.out, report_json(report))
    return EXIT_PASS if report["summary"]["status"] == "pass" else EXIT_COUNTEREXAMPLE


class _Parameter(argparse.Action):
    """Collects a campaign parameter flag into args.params."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.params = {**namespace.params, self.dest: values}


def _parse_wheel_spec(text: str) -> WheelSpec:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        numbers = [int(p) for p in parts]
    except ValueError as exc:
        raise BadSpecError(f"wheel spec must be integers, got {text!r}") from exc
    if not numbers:
        raise BadSpecError("empty wheel spec")
    k = numbers[0]
    mults = numbers[1:]
    if not mults:
        mults = [1] * k
    return WheelSpec(k, tuple(mults))


def cmd_generate(args) -> int:
    chosen = [x for x in (args.wheel, args.g_closure, args.splice) if x]
    if len(chosen) != 1:
        raise BadSpecError("choose exactly one of --wheel, --g-closure, --splice")
    if args.max_n is not None and not args.g_closure:
        raise BadSpecError("--max-n bounds --g-closure only")
    if args.wheel:
        spec = _parse_wheel_spec(args.wheel)
        graphs = [make_wheel(spec)[0]]
    elif args.g_closure:
        bound = args.max_n if args.max_n is not None else 10
        closure = g_family_closure(bound)
        entries = sorted(closure.items(), key=lambda kv: (kv[1][0].n, kv[0]))
        graphs = [g for _, (g, _) in entries]
    else:
        try:
            obj = json.loads(_read_text(args.splice))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.splice}: not valid JSON: {exc}") from exc
        cert = cert_from_obj(obj)
        graphs = [build_from_certificate(cert)]
    _emit_graphs(graphs, args.format, args.out)
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcov",
        description="Matching covered multigraph analysis and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="structural report for one graph")
    p_an.add_argument("file", help="graph file (.mg or graph6), '-' for stdin")
    p_an.add_argument("--out", help="write the report here instead of stdout")
    p_an.set_defaults(func=cmd_analyze)

    campaign_names = ", ".join(sorted(CAMPAIGNS))
    p_vf = sub.add_parser("verify", help="run a verification campaign")
    p_vf.add_argument("campaign", help=f"one of: {campaign_names}")
    p_vf.add_argument("--max-n", type=int, dest="max_n", action=_Parameter, help="vertex ceiling")
    p_vf.add_argument("--seeds", type=int, action=_Parameter, help="seeded reruns (decomposition uniqueness)")
    p_vf.add_argument("--seed", type=int, action=_Parameter, help="sampler seed (bipartite certificate campaign)")
    p_vf.add_argument("--mult-bound", type=int, dest="mult_bound", action=_Parameter, help="edge multiplicity cap")
    p_vf.add_argument(
        "--wheels",
        type=lambda s: tuple(int(x) for x in s.split(",") if x),
        action=_Parameter,
        help="odd rim lengths for the splice campaign, e.g. 3,5,7",
    )
    p_vf.add_argument(
        "--doubles",
        type=int,
        action=_Parameter,
        help="max doubled spokes per wheel in the splice campaign",
    )
    p_vf.add_argument("--corpus", help="check the claim on graphs from this file instead")
    p_vf.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="worker processes")
    p_vf.add_argument("--out", help="write the report here instead of stdout")
    p_vf.set_defaults(func=cmd_verify, params={})

    p_gen = sub.add_parser("generate", help="emit graphs from a family")
    p_gen.add_argument("--wheel", help="rim length, optionally with spoke multiplicities: K[,m0,m1,...]")
    p_gen.add_argument("--g-closure", action="store_true", dest="g_closure", help="splice family closure")
    p_gen.add_argument("--splice", help="build one graph from a certificate file (JSON)")
    p_gen.add_argument("--max-n", type=int, dest="max_n", help="vertex ceiling for --g-closure")
    p_gen.add_argument("--format", choices=("mg", "graph6"), default="mg")
    p_gen.add_argument("--out", help="write graphs here instead of stdout")
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceededError as exc:
        print(f"matchcov: bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (OSError, MatchcovError) as exc:
        print(f"matchcov: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
