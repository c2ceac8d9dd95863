"""Run one zeckinv CLI command with the layer wrappers installed.

Usage: python traced_cli.py SPANS_FILE ARG...

Behaves like ``python -m zeckinv.cli ARG...`` (same stdout, stderr and exit
code) and writes the spans of the run to SPANS_FILE as JSON.
"""

import json
import sys

import tracer
import zeckinv.cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    t.enabled = True
    try:
        return zeckinv.cli.main(argv)
    finally:
        t.enabled = False
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(t.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
