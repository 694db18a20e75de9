#!/usr/bin/env python3
"""Convert STS-Benchmark releases (sts-train.csv / sts-dev.csv /
sts-test.csv) to the package's 3-column TSV.

The native files are tab-separated with at least seven fields:
genre, file, year, index, score, sentence1, sentence2 (some rows carry
extra provenance columns, which are ignored).  Scores stay in their
native [0, 5] range; the training objective maps them onto integer
levels internally.  A row with fewer than seven fields, or a score that
is not a finite number (nan and inf included), is skipped with a note
on stderr.

Usage: convert_stsb.py sts-train.csv > train.tsv
"""

import argparse
import math
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", help="native STS-Benchmark csv (tab-separated)")
    args = parser.parse_args()

    kept = skipped = 0
    with open(args.source, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) < 7:
                print(f"line {lineno}: {len(fields)} fields, skipped",
                      file=sys.stderr)
                skipped += 1
                continue
            score, s1, s2 = fields[4], fields[5], fields[6]
            try:
                finite = math.isfinite(float(score))
            except ValueError:
                finite = False
            if not finite:
                print(f"line {lineno}: bad score {score!r}, skipped",
                      file=sys.stderr)
                skipped += 1
                continue
            print(f"{s1}\t{s2}\t{score}")
            kept += 1
    print(f"{kept} pairs written, {skipped} skipped", file=sys.stderr)


if __name__ == "__main__":
    main()
