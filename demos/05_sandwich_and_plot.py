"""End-to-end sandwich report and an SVG picture, via the CLI entry point.

The `sandwich` subcommand gathers everything the library can certify for
one pair of points: a lower bound (the Poisson witness of an enclosing
ball), every applicable upper bound (the one-step pair bound and the
relay chain bound, each in its stated and proof-sharp form, the entropy
bound in its sharp and rounded form, and the relay set bound), and —
when the domain is a ball — the exact value, then checks that
lower <= exact <= uppers actually holds.

This script drives the CLI in-process, prints the JSON report, renders
the domain, the pair, and a connecting ball chain to SVG, and lets the
`plot` subcommand draw the witnesses of a `set bound` report: one entropy
polyline per pair of points and one relay chain per target.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from harnack import Ball, Lattice, build_ball_chain, eac_estimate
from harnack.cli import main as cli_main
from harnack.svg import render_svg


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        domain_file = tmp / "disk.json"
        domain_file.write_text(
            json.dumps({"dim": 2, "shape": {"type": "ball", "center": [0, 0], "radius": 1}})
        )

        print("== sandwich report for (-0.4, 0) vs (0.4, 0) on the unit disk ==")
        code = cli_main(
            ["sandwich", "--domain", str(domain_file), "--pair=-0.4,0;0.4,0", "--hops", "2"]
        )
        print(f"(exit code {code})")

        print()
        print("== SVG rendering ==")
        disk = Ball(np.zeros(2), 1.0)
        pts = np.array([[-0.5, 0.0], [0.5, 0.0]])
        est = eac_estimate(Lattice(disk, 0.05), pts)
        chain = build_ball_chain(disk, pts[0], pts[1], est.value + 0.1, est)
        doc = render_svg(disk, point_sets=[pts], chains=[(chain.centers, chain.radius)])
        out = Path("sandwich_demo.svg")
        out.write_text(doc)
        print(f"wrote {out.resolve()} ({len(doc)} bytes, {doc.count('<circle')} circles)")

        print()
        print("== witnesses of a `set bound` report, drawn by `plot` ==")
        set_file = tmp / "three.json"
        set_file.write_text(json.dumps({"points": [[0.5, 0.1], [-0.6, 0.3], [0.1, -0.7]]}))
        report, picture = tmp / "bound.json", tmp / "bound.svg"
        cli_main(["set", "bound", "--domain", str(domain_file), "--set", str(set_file),
                  "--start=0,0", "--grid", "0.1", "--out", str(report)])
        cli_main(["plot", "--domain", str(domain_file), str(report), "--out", str(picture)])
        print(f"{picture.read_text().count('<path')} polylines: 3 entropy witnesses "
              "(one per pair) and 3 relay chains (one per target)")


if __name__ == "__main__":
    main()
