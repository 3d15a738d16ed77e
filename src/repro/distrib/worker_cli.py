"""The ``worker`` command line: its flags, defined once, and its entry point.

``repro-rlir worker`` builds its subcommand from :func:`add_arguments` and
runs :func:`run`; ``python -m repro.distrib.worker_cli`` runs the same
command without loading the rest of the CLI, which is how
:meth:`~repro.distrib.runner.DistributedRunner.spawn_worker` starts its
local workers.  This module imports only ``argparse`` until :func:`run`
starts the worker.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["add_arguments", "main", "run", "HELP"]

HELP = "run one distributed-sweep worker"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker's flags, on *parser*."""
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="broker address to join")
    parser.add_argument("--cache-dir", default=None,
                        help="shared result cache to consult/publish "
                             "(optional)")
    parser.add_argument("--heartbeat", type=float, default=2.0,
                        help="seconds between liveness heartbeats (default 2)")
    parser.add_argument("--authkey", default=None,
                        help="cluster auth secret (default: "
                             "REPRO_DISTRIB_AUTHKEY env or built-in)")
    parser.add_argument("--reconnects", type=int, default=5,
                        help="consecutive failed reconnect attempts before "
                             "giving the broker up for dead (default 5)")


def run(args: argparse.Namespace) -> int:
    """Run one worker from parsed flags; its exit code."""
    from .protocol import parse_address
    from .worker import worker_main

    try:
        parse_address(args.connect)
    except ValueError as exc:
        print(f"repro-rlir worker: error: {exc}", file=sys.stderr)
        return 2
    return worker_main(
        connect=args.connect,
        cache_dir=args.cache_dir,
        heartbeat=args.heartbeat,
        authkey=args.authkey,
        reconnects=args.reconnects,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-rlir worker`` on its own; returns the exit code."""
    parser = argparse.ArgumentParser(prog="repro-rlir worker", description=HELP)
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
