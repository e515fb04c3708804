"""Command-line driver for corpus scans."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from .detector import DetectorConfig
from .report import scan_report
from .rules import RuleFormatError, default_ruleset, load_ruleset


def _print_version(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    if not value or ctx.resilient_parsing:
        return
    # Imported here, not at module level, so that every other command starts faster.
    from importlib.metadata import PackageNotFoundError, version

    try:
        installed = version("storescan")
    except PackageNotFoundError:
        installed = "unknown (not installed)"
    click.echo(f"storescan, version {installed}")
    ctx.exit()


@click.group()
@click.option(
    "--version",
    is_flag=True,
    expose_value=False,
    is_eager=True,
    callback=_print_version,
    help="Show the version and exit.",
)
def main():
    """Scan disassembled Android apps for app-private writes to shared storage."""


@main.command()
@click.argument(
    "corpus_root",
    type=click.Path(exists=True, file_okay=False, path_type=Path),
)
@click.option(
    "--depth",
    type=click.IntRange(min=1),
    default=DetectorConfig.depth,
    show_default=True,
    help="Call-chain depth bound.",
)
@click.option(
    "--rules",
    "rules_file",
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="Ruleset file overriding the built-in vocabularies.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="json",
    show_default=True,
    help="Report format.",
)
@click.option(
    "--output",
    type=click.Path(dir_okay=False, path_type=Path),
    help="Write the report to a file instead of stdout.",
)
@click.option(
    "--fail-on-detect",
    is_flag=True,
    help="Exit with status 1 when at least one app is flagged.",
)
@click.option(
    "--dump-callgraph",
    is_flag=True,
    help="Dump each app's call graph to stderr as a sorted edge list.",
)
def scan(corpus_root, depth, rules_file, fmt, output, fail_on_detect, dump_callgraph):
    """Scan CORPUS_ROOT, one app per immediate subdirectory."""
    try:
        rules = load_ruleset(rules_file) if rules_file else default_ruleset()
    except (RuleFormatError, OSError) as exc:
        click.echo(f"error: bad ruleset: {exc}", err=True)
        sys.exit(2)
    config = DetectorConfig(depth=depth, rules=rules)

    # sys.stderr writes a lone surrogate as \uXXXX; click's stderr wrapper raises.
    graph_sink = sys.stderr if dump_callgraph else None
    try:
        # One worker per CPU this process may run on: under `taskset -c 0` it scans alone.
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
        totals, pieces = scan_report(corpus_root, config, fmt, graph_sink, workers=len(cpus))
        if output is not None:
            with open(output, "wb") as f:
                f.writelines(pieces)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:
        # Exit 1 would read as "apps flagged" under --fail-on-detect.
        import traceback

        traceback.print_exc()
        click.echo(f"error: scan failed: {type(exc).__name__}: {exc}", err=True)
        sys.exit(2)
    if output is None:
        stdout = click.get_binary_stream("stdout")
        stdout.writelines(pieces)
        stdout.flush()

    if fail_on_detect and totals.apps_flagged > 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
