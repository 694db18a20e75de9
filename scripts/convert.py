#!/usr/bin/env python3
"""Convert a public benchmark release to pairsim's 3-column TSV
(sentence1 <TAB> sentence2 <TAB> gold) on stdout.

    convert.py stsb sts-train.csv                                > stsb-train.tsv
    convert.py sick SICK.txt --task sts --split TRAIN            > sick-r-train.tsv
    convert.py sick SICK.txt --task entailment --split TEST      > sick-e-test.tsv
    convert.py mrpc msr_paraphrase_train.txt                     > mrpc-train.tsv

stsb   STS Benchmark (sts-train.csv, sts-dev.csv, sts-test.csv).
       Scores stay in their native [0, 5] range.
sick   SemEval SICK (SICK.txt), one split of one task per run.
       Relatedness scores stay in [1, 5] (score_k = 5, raw_min = 1,
       raw_max = 5); entailment labels are lowercased.
mrpc   Microsoft Research Paraphrase Corpus (msr_paraphrase_train.txt,
       msr_paraphrase_test.txt); the 0/1 quality is the label.

A row that does not fit its release is skipped with a note on stderr
naming its line; the last stderr line counts the pairs written and the
rows skipped.  The source is read by pairsim's own text reader
(pairsim.evaldata.text_lines): UTF-8, a leading byte-order mark dropped,
only a line feed ends a line and one carriage return before it is
dropped, so a stray carriage return stays inside its sentence.  pairsim
must therefore be importable (installed, or PYTHONPATH=src).  A source
that cannot be read, or is not UTF-8, ends the run with exit status 1,
nothing on stdout and one line on stderr saying why.
"""

import argparse
import math
import sys

from pairsim.evaldata import text_lines

SICK_COLUMNS = ("sentence_A", "sentence_B", "relatedness_score", "entailment_label",
                "SemEval_set")


def stsb(fields, header, args):
    """genre, file, year, index, score, sentence1, sentence2 [, provenance ...];
    the score must be a finite number."""
    if len(fields) < 7:
        return f"{len(fields)} fields"
    try:
        finite = math.isfinite(float(fields[4]))
    except ValueError:
        finite = False
    return (fields[5], fields[6], fields[4]) if finite else f"bad score {fields[4]!r}"


def sick(fields, header, args):
    """Columns named by the header row; a row shorter than the header is
    malformed, and a row of another split is left out."""
    if len(fields) < len(header):
        return "malformed"
    row = dict(zip(header, fields))
    if row["SemEval_set"] == args.split:
        gold = (row["relatedness_score"] if args.task == "sts"
                else row["entailment_label"].lower())
        return row["sentence_A"], row["sentence_B"], gold


def mrpc(fields, header, args):
    """Quality, #1 ID, #2 ID, #1 String, #2 String after a header row."""
    if len(fields) != 5 or fields[0] not in ("0", "1"):
        return "malformed"
    return fields[3], fields[4], fields[0]


# release -> (row rule, number of header lines).  A rule takes a row's
# fields, the header's fields and the arguments, and returns the pair
# (sentence1, sentence2, gold), the reason the row is skipped, or None
# for a row of another split.
RELEASES = {"stsb": (stsb, 0), "sick": (sick, 1), "mrpc": (mrpc, 1)}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    releases = parser.add_subparsers(dest="release", required=True)
    for name in RELEASES:
        sub = releases.add_parser(name)
        sub.add_argument("source", help="native file of the release")
        if name == "sick":
            sub.add_argument("--task", choices=("sts", "entailment"), required=True)
            sub.add_argument("--split", choices=("TRAIN", "TRIAL", "TEST"), required=True)
    args = parser.parse_args()
    rule, header_lines = RELEASES[args.release]

    lines = text_lines(args.source, error=SystemExit)    # exit 1 with its one line
    if lines[-1] == "":                  # what follows the last line feed
        lines.pop()
    header = lines[0].split("\t") if header_lines and lines else []
    if args.release == "sick":
        for need in SICK_COLUMNS:
            if need not in header:
                sys.exit(f"missing column {need!r} in {args.source}")
    kept = skipped = 0
    for lineno, line in enumerate(lines[header_lines:], start=header_lines + 1):
        row = rule(line.split("\t"), header, args)
        if isinstance(row, str):
            print(f"line {lineno}: {row}, skipped", file=sys.stderr)
            skipped += 1
        elif row is not None:
            print("\t".join(row))
            kept += 1
    split = f" for split {args.split}" if args.release == "sick" else ""
    print(f"{kept} pairs written{split}, {skipped} skipped", file=sys.stderr)


if __name__ == "__main__":
    main()
