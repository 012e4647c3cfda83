"""Assert that a serial and a ``--jobs`` run produced the same suite digest.

Both files are ``results.json`` artifacts written by ``repro run-all``,
``sweep``, ``serve-sim`` or ``cluster-sim`` with ``--out``::

    python tools/same_digest.py NAME SERIAL.json PARALLEL.json [--points N]

Exits 1 naming NAME when the digests differ, or when ``--points`` is
given and the serial artifact does not hold exactly N experiments;
otherwise prints ``NAME smoke OK: <digest prefix>``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", help="smoke name used in the messages")
    parser.add_argument("serial", help="artifact of the --jobs 1 run")
    parser.add_argument("parallel", help="artifact of the --jobs N run")
    parser.add_argument("--points", type=int, default=None,
                        help="expected number of experiments (grid points)")
    args = parser.parse_args()
    with open(args.serial) as handle:
        serial = json.load(handle)
    with open(args.parallel) as handle:
        parallel = json.load(handle)
    if serial["suite_digest"] != parallel["suite_digest"]:
        print(f"{args.name}: serial and --jobs suite digests differ",
              file=sys.stderr)
        return 1
    if args.points is not None and len(serial["experiments"]) != args.points:
        print(f"{args.name}: expected {args.points} grid points, got "
              f"{len(serial['experiments'])}", file=sys.stderr)
        return 1
    print(f"{args.name} smoke OK: {serial['suite_digest'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
