#!/usr/bin/env python3
"""Regenerate the diagnostic data files for the heavy-tailed n = 2 example.

Writes two CSVs (exact vs approximate density with their ratio, CDF tail
error ratios) into the output directory.  Pass --problem to run the
same diagnostics on any problem JSON instead.
"""

import argparse
import sys

from qfratio.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figure_data", help="output directory")
    parser.add_argument("--problem", help="optional problem JSON path")
    parser.add_argument("--draws", type=int, default=0,
                        help="Monte-Carlo draws per tail point (0 = exact oracle)")
    args = parser.parse_args()

    argv = ["figure", "--out", args.out, "--draws", str(args.draws)]
    if args.problem:
        argv += ["--problem", args.problem]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
