#!/usr/bin/env python3
"""Propagate a point disturbance and print the radial wave profile.

Runs the exact stepper for a point mass at the origin, radializes each time
slice, and prints u as a function of distance, together with the closed-form
value (they agree exactly; the table shows floats).
"""

import argparse
import sys

from symgraph import CauchyData, GraphParams, VertexFun, wave_closed_at, wave_direct
from symgraph.words import sphere


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--r", type=int, default=4)
    parser.add_argument("--steps", type=int, default=5)
    args = parser.parse_args()

    params = GraphParams(args.k, args.r)
    data = CauchyData(VertexFun.delta_at(params.identity()), VertexFun.of(params, {}))
    field = wave_direct(params, data, args.steps)

    print(f"point disturbance on the ({args.k}, {args.r}) graph, q = {params.q}")
    header = "  ".join(f"|x|={d:<2}" for d in range(args.steps + 1))
    print(f"{'n':>3}  {header}")
    for n in range(args.steps + 1):
        row = []
        for d in range(args.steps + 1):
            x = next(iter(sphere(params, d)))
            direct = float(field.at(x, n))
            closed = float(wave_closed_at(params, data, x, n))
            if direct != closed:
                print(f"closed form {closed!r} != stepper {direct!r} at x={x}, n={n}",
                      file=sys.stderr)
                sys.exit(1)
            row.append(f"{direct:+.4f}")
        print(f"{n:>3}  " + "  ".join(row))


if __name__ == "__main__":
    main()
