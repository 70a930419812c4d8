"""The two benchmark workloads: inputs, timed commands and output checks.

Each workload is a closed loop with one caller: one `crossint` invocation at
a time, each in a fresh child interpreter, nothing in parallel.  A *pass* is
one round of the workload's timed invocations.  Inputs are made from the
seed before any timing.  Expected outputs are pinned from crossint 0.1.0 or
checked by code of the benchmark's own.

sweep
    The paper's main campaign and its recovery, in two steps:

    1. `crossint sweep-inequalities --out F` with the default flags: 86,592
       grid points and a 40,496,733-byte stream.  The `inequalities`
       evaluation and the `cli` write path (`record_to_line`, two digests
       per record, the stream write) do almost all the work.
    2. F torn inside one of its last TEAR_WINDOW records (the seed picks the
       record and the byte offset), as after a crash, then
       `crossint sweep-inequalities --out F --resume`.  Mostly the read
       path: `parse_record_line`, re-serialising every kept line, rewriting
       the trimmed file and `iter_grid` skipping 86k points;
       `evaluate_point` runs only on the torn tail.

    Work per pass: 86,592 points swept and 86,592 records resumed.
search-family
    `crossint verify-main-small --n N --k K --t T --shift-trials 200
    --seed SEED` at the ten SEARCH_POINTS, the seed driving only the shift
    trials, then `crossint compress`, `crossint genset` and
    `crossint genset --expand` on each of the FAMILY_SLOTS families.  Each
    family is the up-set of a fixed generator pattern on the ground set
    relabelled by a permutation that the seed picks, so the family is not
    compressed and has the same size for every seed.  The `search` layer
    (the genset branch-and-bound, brute force, witness canonicalisation and
    the shift stress), then the only command-line use of the family and
    genset text I/O, `left_compress`, `minimal_genset` and `upset_k`.  Work
    per pass: 10 points confirmed and 7,096 family members.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from itertools import combinations

#: sha256 of the default sweep's stream and sidecars, as crossint 0.1.0 writes them.
FRESH_SHA256 = {
    "": "76541e8ae205922dcc45f68f32fb0399b240090b17076ce33c4a626fca196c42",
    ".summary.csv": "df3f40d78d5cc91db34af13b36cb5d5e635fa8400bb5ba7967e6cf9ce39cafb1",
    ".summary.json": "c094a94d1073b42443a40ab708ed40f6908d07a7d17f7aa26e7104cb1467e6cd",
}
FRESH_RECORDS = 86_592

#: The documented criterion-3 failure: the strict lemma_g margin is exactly 0
#: at (n,k,s,i,t) = (15,6,7,5,4).  It is the expected output of the default
#: sweep, whose exit code is therefore 2.
FRESH_VIOLATIONS = [[15, 6, 7, 5, 4, "lemma_g"]]
FRESH_EXIT = 2

#: The tear lands inside one of the stream's last TEAR_WINDOW records.
TEAR_WINDOW = 64

#: Pinned points and the verdict fields of `verify-main-small` at each.  Node
#: counts are not compared: a faster search may visit fewer nodes.
VERDICT_FIELDS = ("value", "star_value", "bound_confirmed", "all_star", "structures", "shift_ok")
SEARCH_POINTS = {
    # brute-force cross-checked
    (6, 4, 3): ("25", "9", None, None, ["window"], True),
    (7, 5, 4): ("36", "9", None, None, ["window"], True),
    (6, 3, 2): ("16", "16", True, None, ["star", "window"], True),
    # at the threshold, where star and window tie.  (12,5,3) would add 5 s
    # of the same genset scan as (10,5,3) to every pass, so it is left out.
    (8, 4, 3): ("25", "25", True, None, ["star", "window"], True),
    # above the threshold
    (9, 4, 3): ("36", "36", True, True, ["star"], True),
    (11, 5, 4): ("49", "49", True, True, ["star"], True),
    (13, 6, 5): ("64", "64", True, True, ["star"], True),
    (16, 7, 6): ("100", "100", True, True, ["star"], True),
    (10, 4, 2): ("784", "784", True, True, ["star"], True),
    # below the threshold
    (10, 5, 3): ("676", "441", None, None, ["window"], True),
}
SHIFT_TRIALS = 200

#: (n, k, generators): generator sizes are t or t+1, with t = the smallest.
#: The up-sets have 1,441 and 5,655 members.
FAMILY_SLOTS = (
    (16, 6, ((1, 2), (1, 3, 4), (2, 3, 5))),
    (18, 7, ((1, 2), (3, 4, 5))),
)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_fresh_stream(inv, path: str) -> None:
    """The default sweep's outputs, byte for byte, and its one violation."""
    for suffix, expected in FRESH_SHA256.items():
        if not os.path.exists(path + suffix):
            inv.fail(f"missing output {os.path.basename(path + suffix)}")
        elif sha256_file(path + suffix) != expected:
            inv.fail(f"{os.path.basename(path + suffix)} differs from the pinned sha256")
    if not inv.errors:
        with open(path + ".summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary["violations"] != FRESH_VIOLATIONS or summary["records"] != FRESH_RECORDS:
            inv.fail(f"unexpected summary: {summary['records']} records, "
                     f"violations {summary['violations']}")


def remove_outputs(path: str) -> None:
    for suffix in FRESH_SHA256:
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


class Sweep:
    name = "sweep"
    work = {"points swept": FRESH_RECORDS, "records resumed": FRESH_RECORDS}

    def prepare(self, session, seed: int) -> None:
        self.out = session.path("sweep.jsonl")
        self.seed = seed
        self.tear_at = None  # found in the first complete stream

    def run_pass(self, session, traced: bool) -> list:
        remove_outputs(self.out)
        fresh = session.cli(["sweep-inequalities", "--out", self.out], FRESH_EXIT, traced)
        if fresh.ok:
            check_fresh_stream(fresh, self.out)
        if not fresh.ok:  # there is no pinned stream to tear
            return [fresh]
        if self.tear_at is None:
            self.tear_at = tear_offset(self.out, random.Random(self.seed))
        os.truncate(self.out, self.tear_at)
        for suffix in FRESH_SHA256:  # a sweep cut short leaves no sidecars
            if suffix:
                os.remove(self.out + suffix)
        resumed = session.cli(
            ["sweep-inequalities", "--out", self.out, "--resume"], FRESH_EXIT, traced
        )
        if resumed.ok:
            check_fresh_stream(resumed, self.out)
        return [fresh, resumed]


def tear_offset(path: str, rng: random.Random) -> int:
    """A byte offset strictly inside one of the last TEAR_WINDOW records."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        fh.seek(max(0, size - TEAR_WINDOW * 2048))
        tail = fh.read()
    lines = tail.split(b"\n")[:-1][-TEAR_WINDOW:]  # complete lines; ends with "\n"
    pick = rng.randrange(len(lines))
    start = size - sum(len(line) + 1 for line in lines[pick:])
    return start + rng.randrange(1, len(lines[pick]))


class SearchFamily:
    name = "search-family"

    def prepare(self, session, seed: int) -> None:
        self.seed = seed
        self.out = session.path("main-small.json")
        rng = random.Random(seed)
        self.families = []
        for slot, (n, k, generators) in enumerate(FAMILY_SLOTS):
            members = relabelled_upset(n, k, generators, rng)
            path = session.path(f"family-{slot}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(family_text(n, k, members))
            self.families.append((path, n, k, len(members)))
        self.work = {
            "points confirmed": len(SEARCH_POINTS),
            "family members": sum(size for _, _, _, size in self.families),
        }

    def run_pass(self, session, traced: bool) -> list:
        invocations = []
        for (n, k, t), expected in SEARCH_POINTS.items():
            if os.path.exists(self.out):
                os.remove(self.out)
            argv = ["verify-main-small", "--n", str(n), "--k", str(k), "--t", str(t),
                    "--shift-trials", str(SHIFT_TRIALS), "--seed", str(self.seed),
                    "--out", self.out]
            inv = session.cli(argv, 0, traced)
            if inv.ok:
                with open(self.out, encoding="utf-8") as fh:
                    report = json.load(fh)
                verdict = tuple(report.get(name) for name in VERDICT_FIELDS)
                if verdict != expected:
                    inv.fail(f"verdict at {(n, k, t)}: {verdict}, expected {expected}")
            invocations.append(inv)
        for path, n, k, size in self.families:
            invocations.extend(family_round_trip(session, path, n, k, size, traced))
        return invocations


def relabelled_upset(n: int, k: int, generators, rng: random.Random) -> list[tuple[int, ...]]:
    """All k-subsets of [n] containing a generator, under a random relabelling."""
    members = set()
    for gen in generators:
        free = [e for e in range(1, n + 1) if e not in gen]
        for extra in combinations(free, k - len(gen)):
            members.add(frozenset(gen + extra))
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return sorted(tuple(sorted(label[e - 1] for e in m)) for m in members)


def family_text(n: int, k: int, members) -> str:
    return f"{n} {k}\n" + "".join(",".join(map(str, m)) + "\n" for m in members)


def parse_family(text: str) -> tuple[int, int, list[int]]:
    """Header and member bitmasks of a family file (benchmark's own reader)."""
    lines = text.splitlines()
    n, k = map(int, lines[0].split())
    masks = []
    for line in lines[1:]:
        mask = 0
        for element in line.split(","):
            mask |= 1 << (int(element) - 1)
        masks.append(mask)
    return n, k, masks


def is_left_compressed(n: int, masks: list[int]) -> bool:
    """Every shift j -> i with i < j, j in A and i not in A stays in the family."""
    members = set(masks)
    for mask in masks:
        for j in range(1, n):
            if not mask >> j & 1:
                continue
            without_j = mask & ~(1 << j)
            for i in range(j):
                if not mask >> i & 1 and without_j | 1 << i not in members:
                    return False
    return True


def family_round_trip(session, path: str, n: int, k: int, size: int, traced: bool) -> list:
    """compress, genset and genset --expand on one family file, checked."""
    compressed, genset, expanded = (path + ".c", path + ".g", path + ".e")
    for out in (compressed, genset, expanded):
        if os.path.exists(out):
            os.remove(out)
    steps = [
        session.cli(["compress", "--in", path, "--out", compressed], 0, traced),
        session.cli(["genset", "--in", compressed, "--out", genset], 0, traced),
        session.cli(["genset", "--expand", "--in", genset, "--out", expanded], 0, traced),
    ]
    if not steps[0].ok:
        return steps
    with open(compressed, encoding="utf-8") as fh:
        compressed_text = fh.read()
    got_n, got_k, masks = parse_family(compressed_text)
    if (got_n, got_k, len(masks), len(set(masks))) != (n, k, size, size):
        steps[0].fail(f"compressed family is n={got_n} k={got_k} with {len(masks)} "
                      f"lines, expected n={n} k={k} with {size} distinct members")
    elif any(m.bit_count() != k or m >> n for m in masks):
        steps[0].fail("compressed family has a member that is not a k-subset of [n]")
    elif not is_left_compressed(n, masks):
        steps[0].fail("compressed family is not left-compressed")
    if steps[2].ok:
        with open(expanded, encoding="utf-8") as fh:
            if fh.read() != compressed_text:
                steps[2].fail("expand(genset(compressed)) differs from compressed")
    return steps


WORKLOADS = {cls.name: cls for cls in (Sweep, SearchFamily)}
