#!/usr/bin/env python3
"""Convert the Microsoft Research Paraphrase Corpus to 3-column TSV.

The native files (msr_paraphrase_train.txt / msr_paraphrase_test.txt)
are tab-separated with a header row and five columns: Quality, #1 ID,
#2 ID, #1 String, #2 String.  Quality (0/1) becomes the paraphrase
label.  A source that cannot be read, or is not UTF-8, ends the run
with exit status 1 and one line saying why.

Usage: convert_mrpc.py msr_paraphrase_train.txt > mrpc-train.tsv
"""

import argparse
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
    parser.add_argument("source", help="native MRPC file")
    args = parser.parse_args()

    kept = skipped = 0
    lines = read_lines(args.source, encoding="utf-8-sig")
    for lineno, line in enumerate(lines[1:], start=2):     # after the header
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 5 or fields[0] not in ("0", "1"):
            print(f"line {lineno}: malformed, skipped", file=sys.stderr)
            skipped += 1
            continue
        print(f"{fields[3]}\t{fields[4]}\t{fields[0]}")
        kept += 1
    print(f"{kept} pairs written, {skipped} skipped", file=sys.stderr)


if __name__ == "__main__":
    main()
