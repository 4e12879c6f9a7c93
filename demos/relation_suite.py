#!/usr/bin/env python3
"""Verify the defining relations symbolically.

The generator matrices must satisfy the three relations of the
triple-generator group, and the braid-generator images must satisfy the
Artin and far-commutativity relations.  Both suites compare exact
Laurent-polynomial matrices, so a pass is a proof for the instances run.
Every group-relation instance uses at most six indices, and a word on six
indices folds as on six strands, so the n = 6 suite covers every n.
"""

from collections import Counter

from braidrep import check_braid_relations, check_relations

for n in (4, 5, 6):
    report = check_relations(n)
    counts = Counter(entry["relation"] for entry in report)
    failures = [entry for entry in report if not entry["ok"]]
    print(f"group relations at n={n}: "
          + ", ".join(f"relation {r}: {c} instances" for r, c in sorted(counts.items())))
    print(f"  failures: {len(failures)}")
    for entry in failures:
        print(f"    {entry['instance']}")

print()
for n in (3, 4, 5):
    report = check_braid_relations(n)
    failures = [entry for entry in report if not entry["ok"]]
    print(f"braid relation images at n={n}: {len(report)} instances, "
          f"failures: {len(failures)}")
