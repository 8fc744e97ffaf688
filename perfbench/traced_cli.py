"""Run the quadform command line with spans around the names it calls.

Usage: ``python traced_cli.py SPANS.json <quadform arguments...>``

Behaves like ``python -m quadform.cli <arguments...>`` (same output, same
exit code) and writes the recorded spans to SPANS.json when it ends.
"""

from __future__ import annotations

import sys

from spans import CLI_TARGETS, Patches, Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import quadform.cli as cli

    tracer = Tracer()
    tracer.op = 0
    Patches(tracer, CLI_TARGETS).install()
    try:
        return tracer.wrap(cli.main, "cli.main")(argv)
    finally:
        tracer.write(out_path)


if __name__ == "__main__":
    sys.exit(main())
