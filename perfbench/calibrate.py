"""A fixed pure-Python task that measures how fast the host runs Python now.

    python3 perfbench/calibrate.py

run.py times this script, spawn to exit, between untraced `crossint`
invocations, about once per second of invocation time, and scales its
end-to-end times by the median of those times (see run.py).  The script
imports nothing of `crossint`, so a change to the program does not change
it; what moves its time is the host: CPU sharing with other machines' work,
memory and page-fault cost, interpreter start-up.
Its mix mirrors the program's: interpreter start, small-object allocation,
bit counting on integers, dict grouping, sorting and text formatting.
"""

ROWS = 25_000

masks = [(i * 2654435761) & 0xFFFFF for i in range(ROWS)]
groups: dict[int, list[int]] = {}
for i, mask in enumerate(masks):
    groups.setdefault(mask & 1023, []).append(i)
weight = sum(mask.bit_count() for mask in masks)
text = "\n".join(",".join(map(str, members)) for _, members in sorted(groups.items()))
if weight <= 0 or len(text) < ROWS:
    raise SystemExit(1)
