"""Command-line front end for nebula-lint.

Invoked as ``python -m repro.analysis [paths ...]`` or via the main CLI
as ``repro lint``.  Exit codes: 0 — clean (or all findings baselined),
1 — new findings, 2 — usage/configuration error (unknown rule id,
unreadable baseline, unparseable source file, or the ``--max-seconds``
runtime budget exceeded).

Output formats (``--format``): ``human`` (one line per finding plus a
summary), ``json`` (an array of findings), and ``sarif`` (a SARIF 2.1.0
log for code-scanning upload).  All three are deterministic for a given
tree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, TextIO

from .baseline import apply_baseline, load_baseline, write_baseline
from .engine import AnalysisError, run_analysis
from .findings import Finding
from .rules import ALL_RULE_IDS, RULE_DOCS
from .sarif import to_sarif

FORMATS = ("human", "json", "sarif")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nebula-lint",
        description=(
            "Project-specific static analysis for the Nebula reproduction: "
            "SQL safety, transaction discipline, paper invariants, span "
            "taxonomy, resource hygiene, and interprocedural concurrency "
            "rules (lock discipline, thread affinity, blocking under lock, "
            "condition hygiene)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the src tree)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="ignore any baseline: every finding fails the run",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the current findings to FILE as the new baseline and exit 0",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help=(
            "comma-separated rule ids to run (default: all of "
            + ", ".join(ALL_RULE_IDS)
            + ")"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print phase timings (parse/project/rules) to stderr",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        metavar="S",
        help=(
            "fail with exit code 2 when the analysis wall-clock exceeds "
            "S seconds (the CI lint-runtime budget)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _default_paths() -> List[str]:
    """``src/repro`` relative to the repo the package was imported from."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [package_root]


def _emit(findings: Sequence[Finding], fmt: str, out: TextIO) -> None:
    if fmt == "json":
        json.dump([f.to_dict() for f in findings], out, indent=2)
        out.write("\n")
    elif fmt == "sarif":
        json.dump(to_sarif(findings), out, indent=2)
        out.write("\n")
    else:
        for finding in findings:
            out.write(finding.format() + "\n")


def main(
    argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None
) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in ALL_RULE_IDS:
            out.write(f"{rule_id}  {RULE_DOCS[rule_id]}\n")
        return 0

    rules: Optional[List[str]] = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]

    paths = list(args.paths) or _default_paths()
    try:
        result = run_analysis(paths, rules=rules)
    except (AnalysisError, ValueError) as exc:
        print(f"nebula-lint: error: {exc}", file=sys.stderr)
        return 2
    findings = result.findings

    if args.verbose:
        timings = result.timings
        print(
            "nebula-lint: {files} file(s): "
            "parse {parse:.3f}s, project {project:.3f}s, "
            "rules {rules:.3f}s, total {total:.3f}s".format(
                files=result.file_count,
                parse=timings["parse"],
                project=timings["project"],
                rules=timings["rules"],
                total=timings["total"],
            ),
            file=sys.stderr,
        )

    if args.max_seconds is not None and result.timings["total"] > args.max_seconds:
        print(
            f"nebula-lint: error: analysis took "
            f"{result.timings['total']:.3f}s, over the --max-seconds "
            f"budget of {args.max_seconds:.3f}s",
            file=sys.stderr,
        )
        return 2

    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        out.write(
            f"nebula-lint: wrote baseline with {len(findings)} finding(s) "
            f"to {args.write_baseline}\n"
        )
        return 0

    reported = list(findings)
    baselined = 0
    if args.baseline and not args.strict:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"nebula-lint: error: {exc}", file=sys.stderr)
            return 2
        reported = apply_baseline(findings, baseline)
        baselined = len(findings) - len(reported)

    _emit(reported, args.format, out)
    if args.format == "human":
        summary = f"nebula-lint: {len(reported)} finding(s)"
        if baselined:
            summary += f" ({baselined} baselined)"
        out.write(summary + "\n")
    return 1 if reported else 0
