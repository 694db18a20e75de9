#!/usr/bin/env python3
"""Convert the SemEval SICK release (SICK.txt) to 3-column TSV.

SICK.txt is tab-separated with a header row naming at least: pair_ID,
sentence_A, sentence_B, entailment_label, relatedness_score, ...,
SemEval_set.  One invocation extracts one split of one task:

    convert_sick.py SICK.txt --task sts --split TRAIN        > sick-r-train.tsv
    convert_sick.py SICK.txt --task entailment --split TEST  > sick-e-test.tsv

Relatedness scores stay in their native [1, 5] range (use score_k = 5,
raw_min = 1, raw_max = 5); entailment labels become lowercase
entailment / contradiction / neutral.  A row with fewer fields than the
header (a blank or truncated line) is skipped with a note on stderr.
A source that cannot be read, or is not UTF-8, ends the run with exit
status 1 and one line saying why.
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
    parser.add_argument("source", help="SICK.txt from the SemEval release")
    parser.add_argument("--task", choices=("sts", "entailment"), required=True)
    parser.add_argument("--split", choices=("TRAIN", "TRIAL", "TEST"),
                        required=True)
    args = parser.parse_args()

    lines = read_lines(args.source)
    header = lines[0].rstrip("\n").split("\t") if lines else []
    col = {name: i for i, name in enumerate(header)}
    for need in ("sentence_A", "sentence_B", "relatedness_score",
                 "entailment_label", "SemEval_set"):
        if need not in col:
            sys.exit(f"missing column {need!r} in {args.source}")
    kept = skipped = 0
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.rstrip("\n").split("\t")
        if len(fields) < len(header):
            print(f"line {lineno}: malformed, skipped", file=sys.stderr)
            skipped += 1
            continue
        if fields[col["SemEval_set"]] != args.split:
            continue
        s1 = fields[col["sentence_A"]]
        s2 = fields[col["sentence_B"]]
        if args.task == "sts":
            gold = fields[col["relatedness_score"]]
        else:
            gold = fields[col["entailment_label"]].lower()
        print(f"{s1}\t{s2}\t{gold}")
        kept += 1
    print(f"{kept} pairs written for split {args.split}, {skipped} skipped",
          file=sys.stderr)


if __name__ == "__main__":
    main()
