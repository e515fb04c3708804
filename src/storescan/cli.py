"""Command-line driver for corpus scans."""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .detector import DetectorConfig
from .report import scan_report
from .rules import default_ruleset, load_ruleset


def main(argv: list[str] | None = None) -> None:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and exit with its status."""
    parser = argparse.ArgumentParser(
        prog="storescan",
        description="Scan disassembled Android apps for app-private writes to shared storage.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"storescan, version {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(dest="command", required=True)
    scan = commands.add_parser(
        "scan", help="Scan a corpus.", description="Scan CORPUS_ROOT, one app per immediate subdirectory.",
        allow_abbrev=False,
    )
    scan.add_argument("corpus_root", metavar="CORPUS_ROOT")
    scan.add_argument("--depth", type=int, default=DetectorConfig.depth,
                      help="Call-chain depth bound. [default: %(default)s; at least 1]")
    scan.add_argument("--rules", help="Ruleset file overriding the built-in vocabularies.")
    scan.add_argument("--format", choices=["json", "text"], default="json",
                      help="Report format. [default: %(default)s]")
    scan.add_argument("--output", help="Write the report to a file instead of stdout.")
    scan.add_argument("--fail-on-detect", action="store_true",
                      help="Exit with status 1 when at least one app is flagged.")
    scan.add_argument("--dump-callgraph", action="store_true",
                      help="Dump each app's call graph to stderr as a sorted edge list.")
    args = parser.parse_args(argv)

    try:
        rules = default_ruleset() if args.rules is None else load_ruleset(args.rules)
    except (ValueError, OSError) as exc:  # a RuleFormatError, or a file that is not UTF-8
        print(f"error: bad ruleset: {exc}", file=sys.stderr)
        sys.exit(2)
    try:
        config = DetectorConfig(depth=args.depth, rules=rules)
    except ValueError as exc:
        scan.error(str(exc))

    graph_sink = sys.stderr if args.dump_callgraph else None
    to_stdout = args.output is None
    try:
        # One worker per CPU this process may run on: under `taskset -c 0` it scans alone.
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
        totals, pieces = scan_report(args.corpus_root, config, args.format, graph_sink, workers=len(cpus))
        with open(sys.stdout.fileno() if to_stdout else args.output, "wb", closefd=not to_stdout) as f:
            f.writelines(pieces)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except Exception as exc:
        # Exit 1 would read as "apps flagged" under --fail-on-detect.
        import traceback

        traceback.print_exc()
        print(f"error: scan failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(1 if args.fail_on_detect and totals.apps_flagged > 0 else 0)


if __name__ == "__main__":
    main()
