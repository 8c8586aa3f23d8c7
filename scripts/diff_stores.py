#!/usr/bin/env python
"""Semantic diff of two campaign result stores (store parity gate).

Command-line front end of :func:`repro.engine.store.diff_stores`:
golden / plan / shard records must match by fingerprint and cells by
campaign identity, with wall-time fields ignored. By default the
records both stores hold must also have been appended in the same
relative order; ``--ignore-order`` compares them as fingerprint-keyed
sets (for concurrent twins: process pools and the campaign service
complete jobs in racy order).

Exit status 0 means the stores agree; 1 lists the differences.

Usage::

    python scripts/diff_stores.py ckpt-on.jsonl ckpt-off.jsonl
    python scripts/diff_stores.py --ignore-order pool.jsonl dist.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.engine.store import ResultStore, diff_stores


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("left", type=Path, help="first JSONL store")
    parser.add_argument("right", type=Path, help="second JSONL store")
    parser.add_argument(
        "--ignore-order", action="store_true",
        help="compare as canonical fingerprint-keyed sets, ignoring "
             "append order (for concurrent twins: process pools and "
             "the campaign service reorder completions)")
    args = parser.parse_args(argv)
    left, right = ResultStore(args.left), ResultStore(args.right)
    problems = diff_stores(left, right, ignore_order=args.ignore_order)
    cells = [store.counts_by_kind().get("cell", 0)
             for store in (left, right)]
    counts = (f"{len(left) - cells[0]} sim records + {cells[0]} cells vs "
              f"{len(right) - cells[1]} + {cells[1]}")
    if problems:
        print(f"stores DIFFER ({counts}):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    mode = "append order ignored" if args.ignore_order \
        else "append order checked"
    print(f"stores agree ({counts}; wall-time fields ignored, {mode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
