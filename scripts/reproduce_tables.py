#!/usr/bin/env python3
"""Regenerate every built-in result table into an output directory.

Usage: python scripts/reproduce_tables.py [outdir] [--seed N]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from coexcap.cli import TABLE_READS
from coexcap.cli import main as cli_main
from coexcap.tables import TABLE_IDS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", default="results")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for table_id in TABLE_IDS:
        out = outdir / f"table{table_id}.csv"
        argv = ["table", str(table_id), "--out", str(out)]
        if args.seed is not None and "seed" in TABLE_READS[table_id]:
            argv += ["--seed", str(args.seed)]
        status = cli_main(argv)
        if status != 0:
            return status
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
