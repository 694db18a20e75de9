#!/usr/bin/env python3
"""Convert STS-Benchmark releases (sts-train.csv / sts-dev.csv /
sts-test.csv) to the package's 3-column TSV.

The native files are tab-separated with at least seven fields:
genre, file, year, index, score, sentence1, sentence2 (some rows carry
extra provenance columns, which are ignored).  Scores stay in their
native [0, 5] range; the training objective maps them onto integer
levels internally.  A row with fewer than seven fields, or a score that
is not a finite number (nan and inf included), is skipped with a note
on stderr.  A source that cannot be read, or is not UTF-8, ends the run
with exit status 1 and one line saying why.

Usage: convert_stsb.py sts-train.csv > train.tsv
"""

import argparse
import math
import sys


def read_lines(path, encoding="utf-8"):
    """The lines of ``path``; exit 1 with one line where it cannot be read."""
    try:
        with open(path, encoding=encoding) as handle:
            return handle.readlines()
    except OSError as exc:
        sys.exit(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        sys.exit(f"cannot read {path}: not UTF-8 ({exc.reason})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", help="native STS-Benchmark csv (tab-separated)")
    args = parser.parse_args()

    kept = skipped = 0
    for lineno, line in enumerate(read_lines(args.source), start=1):
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
