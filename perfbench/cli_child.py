"""Run one gcfloer CLI call with the tracer installed and save its spans.

Usage: python perfbench/cli_child.py OUT_JSON OP_ID <gcfloer cli arguments...>

stdout, stderr and the exit code are those of ``gcfloer.cli.main``; the
spans and counters go to OUT_JSON.
"""

import json
import sys

import tracer
from gcfloer import cli


def main():
    out, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t = tracer.Tracer()
    t.install()
    t.op = op
    try:
        return cli.main(argv)
    finally:
        t.uninstall()
        with open(out, "w") as f:
            json.dump({"spans": t.spans, "counters": t.counters}, f)


if __name__ == "__main__":
    sys.exit(main())
