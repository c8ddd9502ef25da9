"""The ``repro analyze`` subcommand."""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .runner import CHECKS, run_analysis

__all__ = ["add_analyze_arguments", "cmd_analyze"]

DEFAULT_PATHS = ("src/repro",)


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=(
            "one package directory (every rule and whole-program check) "
            "plus loose files or directories (per-file rules only); "
            "default: src/repro"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (sarif is the CI code-scanning form)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def _render_catalog() -> str:
    lines = []
    for code, (name, text) in sorted(CHECKS.items()):
        lines.append(f"{code} {name}")
        lines.append(f"    {text}")
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    """Entry point wired into :func:`repro.cli.main`.

    Exit codes: 0 clean, 1 errors or parse errors.  RPA004 warnings
    never affect the exit code.
    """
    if args.list_rules:
        print(_render_catalog())
        return 0
    select: Optional[Sequence[str]] = None
    if args.select:
        select = [
            code.strip() for code in args.select.split(",") if code.strip()
        ]
    report = run_analysis(args.paths, select=select)
    if args.format == "json":
        print(report.render_json())
    elif args.format == "sarif":
        print(report.render_sarif())
    else:
        print(report.render_text())
    return 0 if report.ok else 1
