"""Child entry point for one benchmark job, in a fresh interpreter.

    python bench/job.py [--spans FILE] cli ARGS...
    python bench/job.py [--spans FILE] sample --n-lo A --n-hi B --draws K --seed S

``cli`` runs ``treebridges.cli.main(ARGS)``; untraced CLI jobs do not
come through here but run ``python -m treebridges.cli`` directly.
``sample`` is one library session that draws K uniform graphical
bridges for each n in [A, B] and prints one ``n U/D-string`` line per
draw.  With ``--spans`` the tracer is installed first and its spans are
written to FILE when the job ends.
"""

from __future__ import annotations

import argparse
import os
import sys


def _sample_session(argv) -> int:
    parser = argparse.ArgumentParser(prog="job.py sample")
    for name in ("--n-lo", "--n-hi", "--draws", "--seed"):
        parser.add_argument(name, type=int, required=True)
    args = parser.parse_args(argv)
    from treebridges import walks_mc

    lines = []
    for n in range(args.n_lo, args.n_hi + 1):
        for draw in range(args.draws):
            bridge = walks_mc.sample_uniform_graphical_bridge(
                n, args.seed * 1_000_000 + n * 1_000 + draw
            )
            lines.append(f"{n} {''.join('U' if s == 1 else 'D' for s in bridge)}\n")
    sys.stdout.write("".join(lines))
    return 0


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if spans_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        originals = tracer.install()
    mode, rest = argv[0], argv[1:]
    try:
        if mode == "cli":
            from treebridges import cli

            return cli.main(rest)
        if mode == "sample":
            return _sample_session(rest)
        print(f"job.py: unknown mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        sys.stdout.flush()
        if spans_path:
            tracer.dump(spans_path, originals)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
