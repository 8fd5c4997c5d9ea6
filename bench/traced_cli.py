"""Run one embedlab invocation with spans around the package's public API.

    python3 bench/traced_cli.py SPANS.json -- <embedlab arguments>

The embedlab arguments reach ``embedlab.cli.main`` unchanged.  Spans and
counters stay in memory and are written to SPANS.json when the
invocation ends; the exit status is the CLI's.
"""

import importlib
import sys

from tracing import Tracer, install


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    idx = tracer.open("cli.import")
    cli = importlib.import_module("embedlab.cli")
    tracer.close(idx)
    install(tracer)
    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
