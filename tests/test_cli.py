"""The command-line surface: subcommands, exit codes, output files, the
deterministic record stream with its crash-safe resume, and the summary
emitters.

Most tests drive ``main(argv)`` in-process; one test calls the console
script's entry point, as pyproject.toml names it, in a child process, and
the installed console script when there is one.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest

from crossint import cli, constructions, inequalities, search, workers
from crossint.cli import main, resolve_out
from crossint.compression import is_left_compressed, left_compress
from crossint.errors import DomainError, IntegrityError
from crossint.families import UniformFamily, enumerate_k_subsets, read_family, write_family
from crossint.gensets import read_genset, upset_k
from crossint.inequalities import SweepSummary, evaluate_point, iter_grid, sweep
from crossint.records import CHECK_ORDER, STATUSES, VALUE_NAMES, Checks, Values, VerificationRecord
from crossint.stream import RecordDigest, _checks_json, parse_record_line, record_to_line


SMALL_SWEEP = [
    "sweep-inequalities",
    "--t-min", "3", "--t-max", "3", "--k-span", "2", "--n-span", "3",
]


def test_missing_subcommand_is_usage_error(capsys) -> None:
    assert main([]) == 1
    assert "required" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys) -> None:
    assert main(["frankl", "--n", "8", "--k", "4", "--t", "3", "--frobnicate"]) == 1


def test_help_exits_zero(capsys) -> None:
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("sweep-inequalities", "search", "frankl", "compress", "genset"):
        assert name in out


def test_frankl_csv(capsys) -> None:
    assert main(["frankl", "--n", "8", "--k", "4", "--t", "3", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "r,size,max,tie",
        "0,5,1,1",
        "1,5,1,1",
        "2,0,0,0",
    ]
    assert "regime: boundary r=0 tied=(0, 1) threshold=8" in captured.err


def test_frankl_domain_error_exits_one(capsys) -> None:
    assert main(["frankl", "--n", "3", "--k", "4", "--t", "3"]) == 1
    assert "t <= k <= n" in capsys.readouterr().err


def test_search_genset_product(capsys, tmp_path) -> None:
    out = tmp_path / "search.json"
    rc = main(
        ["search", "--n", "8", "--k", "4", "--t", "3", "--out", str(out)]
    )
    assert rc == 0
    assert "25 with 2 witness pair(s)" in capsys.readouterr().err
    obj = json.loads(out.read_text())
    assert obj["value"] == "25"
    assert obj["method"] == "genset"
    assert len(obj["witnesses"]) == 2
    kinds = {w["a"]["kind"] for w in obj["witnesses"]}
    assert kinds == {"genset"}
    # expandable sides carry both the generator text and the full family text
    star = obj["witnesses"][0]["a"]
    assert star["genset"].startswith("8 4\n")
    assert star["family"].count("\n") >= 2
    for name in ("nodes", "improvements", "prune_level", "prune_solo", "prune_suffix"):
        assert name in obj["stats"]


def test_a_cut_witness_list_is_said(capsys, monkeypatch) -> None:
    # 218 optimal pairs at (8,4,1), of which the JSON keeps MAX_WITNESSES
    for command in ("search", "verify-main-small"):
        assert main([command, "--n", "8", "--k", "4", "--t", "1", "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["witnesses"]) == 64
        assert "witness list cut: kept 64 of 218 optimal pairs\n" in captured.err
    # the tie count stops at its cap, so a count there is a lower bound; cli
    # reads the cap from search when it says the cut
    monkeypatch.setattr(search, "_TIE_SOFT_CAP", 100)
    assert main(["search", "--n", "8", "--k", "4", "--t", "1", "--out", "-"]) == 0
    assert "kept 64 of at least 100 optimal pairs\n" in capsys.readouterr().err
    # a list that holds every optimal pair says nothing of a cut
    assert main(["search", "--n", "8", "--k", "4", "--t", "3", "--out", "-"]) == 0
    assert "cut" not in capsys.readouterr().err


def test_search_brute_sum(capsys) -> None:
    rc = main(
        ["search", "--n", "5", "--k", "3", "--t", "2",
         "--objective", "sum", "--method", "brute", "--out", "-"]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == "8"
    assert obj["method"] == "brute"


def test_search_genset_sum_is_usage_error(capsys) -> None:
    rc = main(
        ["search", "--n", "8", "--k", "4", "--t", "3", "--objective", "sum"]
    )
    assert rc == 1
    assert "sum" in capsys.readouterr().err


def test_search_has_no_window_flag(capsys) -> None:
    # the window is always 2k - t, the bound the trace-pairing lemma forces
    rc = main(["search", "--n", "12", "--k", "6", "--t", "3", "--s-max", "4", "--out", "-"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "--s-max" in captured.err
    assert captured.out == ""


def test_witness_texts_read_back_to_the_witnesses(tmp_path) -> None:
    # the set-list texts inside the JSON come from the one writer: each reads
    # back to its witness, and a genset side's family text to its expansion
    runs = [
        (["search", "--n", "8", "--k", "4", "--t", "3"],
         search.genset_search_best_product(8, 4, 3)),
        (["search", "--n", "5", "--k", "3", "--t", "2", "--method", "brute"],
         search.brute_force_best(5, 3, 2)),
        (["verify-main-small", "--n", "9", "--k", "4", "--t", "3"],
         search.verify_main_theorem_small(9, 4, 3)),
    ]
    kinds = set()
    for argv, result in runs:
        out = tmp_path / "witnesses.json"
        assert main([*argv, "--out", str(out)]) == 0
        witnesses = json.loads(out.read_text())["witnesses"]
        assert len(witnesses) == len(result.witnesses) > 0
        for pair_obj, pair in zip(witnesses, result.witnesses):
            for side, witness in zip((pair_obj["a"], pair_obj["b"]), pair):
                kinds.add(side["kind"])
                family = read_family(side["family"].splitlines())
                if side["kind"] == "genset":
                    genset = read_genset(side["genset"].splitlines())
                    assert (genset.n, genset.k, genset.elements) == (
                        witness.n, witness.k, witness.elements
                    )
                    assert family == upset_k(witness)
                else:
                    assert family == witness
    assert kinds == {"genset", "family"}


def test_search_capacity_error_exits_two(capsys) -> None:
    rc = main(["search", "--n", "10", "--k", "5", "--t", "2", "--method", "brute"])
    assert rc == 2
    assert "genset" in capsys.readouterr().err  # points at the scalable method


def test_compress_roundtrip(tmp_path, capsys) -> None:
    src = tmp_path / "fam.txt"
    src.write_text("5 3\n4,3,5\n1,2,3\n")
    out = tmp_path / "compressed.txt"
    assert main(["compress", "--in", str(src), "--out", str(out)]) == 0
    assert out.read_text() == "5 3\n1,2,3\n1,2,4\n"
    assert capsys.readouterr().err == "family n=5 k=3 members=2: compressed\n"
    again = tmp_path / "again.txt"
    assert main(["compress", "--in", str(out), "--out", str(again)]) == 0
    assert again.read_text() == out.read_text()
    assert capsys.readouterr().err == (
        "family n=5 k=3 members=2: already left-compressed\n"
    )


def test_compress_verdict_is_is_left_compressed(tmp_path, capsys) -> None:
    # the verdict is read off the compression: the members stay as they
    # are exactly when the family is left-compressed
    rng = random.Random(31)
    src, out = tmp_path / "fam.txt", tmp_path / "compressed.txt"
    verdicts = set()
    for _ in range(80):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        layer = enumerate_k_subsets(n, k).members
        family = UniformFamily.from_masks(n, k, rng.sample(layer, rng.randint(0, len(layer))))
        for fam in (family, left_compress(family)):
            src.write_text("".join(write_family(fam)))
            assert main(["compress", "--in", str(src), "--out", str(out)]) == 0
            already = is_left_compressed(fam)
            verdict = "already left-compressed" if already else "compressed"
            assert capsys.readouterr().err.endswith(f": {verdict}\n"), fam
            verdicts.add(already)
    assert verdicts == {False, True}


def test_compress_in_place_replaces_the_file_whole(tmp_path) -> None:
    fam = tmp_path / "fam.txt"
    fam.write_text("5 3\n# a comment line longer than the compressed text\n4,3,5\n1,2,3\n")
    assert main(["compress", "--in", str(fam), "--out", str(fam)]) == 0
    assert fam.read_text() == "5 3\n1,2,3\n1,2,4\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.txt"]


#: The relabelled up-set of the generators (1,2), (1,3,4), (2,3,5) in [16],
#: k = 6, under element e -> _PIN_LABEL[e - 1]: 1,441 members.
_PIN_LABEL = (11, 4, 16, 7, 1, 13, 9, 2, 15, 6, 10, 3, 14, 8, 5, 12)
_PIN_COMPRESSED_SHA256 = "d64b4d9dc5768fe513bfb6b885e69fa7bb45e3f775ae70be03e31908b60e087d"


def test_compress_output_bytes_are_pinned(tmp_path) -> None:
    n, k = 16, 6
    members = set()
    for gen in ((1, 2), (1, 3, 4), (2, 3, 5)):
        free = [e for e in range(1, n + 1) if e not in gen]
        for extra in itertools.combinations(free, k - len(gen)):
            members.add(tuple(sorted(_PIN_LABEL[e - 1] for e in gen + extra)))
    assert len(members) == 1441
    src, out = tmp_path / "fam.txt", tmp_path / "compressed.txt"
    src.write_text(f"{n} {k}\n" + "".join(",".join(map(str, m)) + "\n" for m in sorted(members)))
    assert main(["compress", "--in", str(src), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PIN_COMPRESSED_SHA256


def test_compress_rejects_bytes_that_are_not_utf8(tmp_path, capsys) -> None:
    src = tmp_path / "fam.txt"
    src.write_bytes(b"5 3\n1,2,3\n\xff\xfe,4\n")
    assert main(["compress", "--in", str(src), "--out", str(tmp_path / "c.txt")]) == 1
    assert "error: line 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["compress"], ["genset"], ["genset", "--expand"]])
def test_family_header_ground_set_size(tmp_path, capsys, command) -> None:
    # a size below 1 is a malformed file, for a family as for a generating
    # set; a size above the word cap is a capacity refusal
    src, out = tmp_path / "fam.txt", tmp_path / "out.txt"
    for header in ("0 0", "-3 2"):
        src.write_text(header + "\n")
        assert main(command + ["--in", str(src), "--out", str(out)]) == 1
        assert "error: " in capsys.readouterr().err
    src.write_text("65 1\n")
    assert main(command + ["--in", str(src), "--out", str(out)]) == 2
    assert "capacity: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, named",
    [
        (["compress"], "5 3\n1,2,3\n1,2,3\n", "1,2,3"),
        (["genset"], "5 3\n1,2,3\n1,2,3\n", "1,2,3"),
        (["genset", "--expand"], "5 3\n1,2\n2,1\n", "1,2"),
    ],
    ids=["compress", "genset", "expand"],
)
def test_a_repeated_set_is_a_usage_error(tmp_path, capsys, monkeypatch, command, text, named) -> None:
    # a file that names a set twice is refused, not folded to one member
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text(text)
    message = f"error: set {named} appears more than once in the input\n"
    assert main(command + ["--in", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    assert main(command + ["--in", "-", "--out", "-"]) == 1
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "command", [["compress"], ["genset"], ["genset", "--expand"]], ids=["compress", "genset", "expand"]
)
def test_standard_output_gets_the_file_bytes(tmp_path, capsysbinary, command) -> None:
    # the set-list lines are written one by one, to a file as to standard
    # output, and make the same bytes
    label = list(range(1, 13))
    random.Random(33).shuffle(label)
    members = set()
    for gen in ((1, 2), (3, 4, 5)):
        free = [e for e in range(1, 13) if e not in gen]
        for extra in itertools.combinations(free, 5 - len(gen)):
            members.add(tuple(sorted(label[e - 1] for e in gen + extra)))
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    _write_members(src, 12, 5, sorted(members))
    if command[-1] == "--expand":
        assert main(["genset", "--in", str(src), "--out", str(src)]) == 0
    capsysbinary.readouterr()
    assert main(command + ["--in", str(src), "--out", str(out)]) == 0
    err = capsysbinary.readouterr().err
    assert main(command + ["--in", str(src), "--out", "-"]) == 0
    assert capsysbinary.readouterr() == (out.read_bytes(), err)
    assert out.read_bytes().count(b"\n") > 1


def test_genset_and_expand_invert(tmp_path) -> None:
    fam_path = tmp_path / "star.txt"
    # members in canonical incidence-word order
    fam_path.write_text("5 3\n1,2,3\n1,2,4\n1,3,4\n1,2,5\n1,3,5\n1,4,5\n")
    gen_path = tmp_path / "gen.txt"
    assert main(["genset", "--in", str(fam_path), "--out", str(gen_path)]) == 0
    assert gen_path.read_text() == "5 3\n1\n"
    back_path = tmp_path / "back.txt"
    assert (
        main(["genset", "--in", str(gen_path), "--expand", "--out", str(back_path)])
        == 0
    )
    assert back_path.read_text() == fam_path.read_text()


def _write_members(path: Path, n: int, k: int, members) -> None:
    path.write_text(f"{n} {k}\n" + "".join(",".join(map(str, m)) + "\n" for m in members))


@pytest.mark.parametrize(
    "n, k",
    [(3, 2), (20, 3)],
    ids=["n3", "n20"],
)
def test_genset_of_a_family_that_is_not_left_compressed(tmp_path, n, k) -> None:
    # the star through 2: generated by {2}, whose one cell misses the sets
    # that hold 1 as well, so only a count of the whole up-set is its size
    fam, gen, back = tmp_path / "star.txt", tmp_path / "gen.txt", tmp_path / "back.txt"
    _write_members(fam, n, k, (m for m in itertools.combinations(range(1, n + 1), k) if 2 in m))
    assert main(["genset", "--in", str(fam), "--out", str(gen)]) == 0
    assert gen.read_text() == f"{n} {k}\n2\n"
    assert main(["genset", "--in", str(gen), "--expand", "--out", str(back)]) == 0
    assert read_family(str(back)) == read_family(str(fam))


def test_genset_past_the_profile_cap_counts_cells(tmp_path, capsys) -> None:
    # generators past [PROFILE_CAP] = [24] are counted by cells: the 25 first
    # singletons of [26] are left-compressed, so their cells cover them
    fam, gen = tmp_path / "fam.txt", tmp_path / "gen.txt"
    _write_members(fam, 26, 1, ((x,) for x in range(1, 26)))
    assert main(["genset", "--in", str(fam), "--out", str(gen)]) == 0
    assert gen.read_text() == fam.read_text()
    # the 3-sets of [26] holding 2 and 26 are generated by {2, 26}, whose
    # cell holds none of them: not left-compressed, so a usage error
    _write_members(fam, 26, 3, (sorted((2, 26, x)) for x in range(1, 26) if x != 2))
    gen.unlink()
    capsys.readouterr()
    assert main(["genset", "--in", str(fam), "--out", str(gen)]) == 1
    assert "run compress first" in capsys.readouterr().err
    assert not gen.exists()


def _refuse_replace(src, dst):
    raise OSError(f"no replace of {dst}")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["compress"], "5 3\n4,3,5\n1,2,3\n"),
        (["genset"], "5 3\n1,2,3\n1,2,4\n"),
        (["genset", "--expand"], "5 3\n1,2\n"),
    ],
    ids=["compress", "genset", "genset-expand"],
)
def test_family_tool_write_failure_keeps_the_previous_file(
    tmp_path, monkeypatch, capsys, argv, text
) -> None:
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text(text)
    out.write_text("previous\n")
    monkeypatch.setattr(os, "replace", _refuse_replace)
    full = argv + ["--in", str(src), "--out", str(out)]
    assert main(full) == 1
    assert capsys.readouterr().err == f"error: no replace of {out}\n"
    assert out.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "out.txt"]
    monkeypatch.undo()
    assert main(full) == 0
    assert out.read_text().startswith("5 3\n") and out.read_text() != "previous\n"


def test_verify_case4(capsys, tmp_path) -> None:
    out = tmp_path / "case4.json"
    assert main(["verify-case4", "--n", "10", "--k", "6", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    names = [c["name"] for c in obj["checks"]]
    assert "senary-split" in names
    guarded_failures = [
        row
        for check in obj["checks"]
        for row in check.get("rows", [])
        if row["guard_met"] and not row["holds"]
    ]
    assert guarded_failures == []
    err = capsys.readouterr().err
    assert "all printed comparisons hold under their hypotheses" in err


def test_verify_case4_guarded_failure_exits_two_and_writes_nothing(
    capsys, tmp_path, monkeypatch
) -> None:
    name, first = next(
        (check.name, row)
        for check in constructions.verify_section4_constructions(10, 6).checks
        for row in check.rows
        if row.relation == ">" and row.guard_met
    )
    monkeypatch.setitem(constructions._RELATIONS, ">", lambda a, b: False)
    out = tmp_path / "case4.json"
    assert main(["verify-case4", "--n", "10", "--k", "6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"integrity: {name}: {first.label}: " in err
    assert not out.exists()
    # the same failed row under a hypothesis that does not hold at n = 10,
    # the threshold n >= 16, is recorded, not raised
    rb = constructions._ReportBuilder(10, 6, 3)
    builder = rb.construction(name)
    assert not builder.row(first.label, first.lhs, ">", first.rhs, rb.regime)
    row = builder.rows[-1]
    assert (row.guard_met, row.holds) == (False, False)


#: The sha256 of the JSON each report command writes to standard output.
_PIN_REPORT_SHA256 = [
    (["verify-case4", "--n", "10", "--k", "6"],
     "3858df9c854ab5b15c0d6d70ebbf2715f1af3454710119376458e4ad84bb8247"),
    (["verify-case4", "--n", "9", "--k", "5", "--t", "4"],
     "122780cdf57767fb6a281a16b8b00d9d1c8a4bc41ecb4515a304d4beddf4fb17"),
    (["verify-case4", "--n", "12", "--k", "4", "--t", "3"],
     "e4107a2bdbf1bcbd18ed50cc689b1202889d033948ee28c45a54df2ffde217ab"),
    (["verify-case4", "--n", "30", "--k", "8"],
     "9da35364d36d37fa7f21e820d0f09e3e647b8e2b2bf5f0b7ff16ffda9140f310"),
    (["verify-main-small", "--n", "8", "--k", "4", "--t", "3",
      "--shift-trials", "20", "--seed", "7"],
     "a46b3140dbc349104f66fbb8dc9ed5deb133454693fe0383a42e60e177124adc"),
    (["verify-main-small", "--n", "10", "--k", "5", "--t", "3",
      "--shift-trials", "20", "--seed", "7"],
     "a49860352a99f340e015b8e565bb0a470e80c4674412f56a54475e7e008d253a"),
    (["search", "--n", "5", "--k", "3", "--t", "2", "--objective", "sum",
      "--method", "brute"],
     "f5e7c0830a58992ee9891b1b23d9283711017e10f94df464bfb0697095c90780"),
    (["search", "--n", "9", "--k", "4", "--t", "1"],
     "086cc17fb6beb4d9e600883d982da5eeef4d6841cb32810756a7379d85e748d5"),
]


@pytest.mark.parametrize(
    "argv, digest", _PIN_REPORT_SHA256, ids=[" ".join(a) for a, _ in _PIN_REPORT_SHA256]
)
def test_report_bytes_are_pinned(capsys, argv, digest) -> None:
    assert main(argv + ["--out", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_main_small(capsys, tmp_path) -> None:
    out = tmp_path / "main.json"
    rc = main(
        ["verify-main-small", "--n", "9", "--k", "4", "--t", "3",
         "--shift-trials", "10", "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "bound confirmed: True" in err
    obj = json.loads(out.read_text())
    assert obj["bound_confirmed"] is True
    assert obj["all_star"] is True
    assert obj["shift_ok"] is True
    assert obj["value"] == "36"
    assert obj["stats"]["prune_suffix"] >= 0


def test_verify_main_small_refuses_negative_shift_trials(capsys, tmp_path) -> None:
    out = tmp_path / "main.json"
    argv = ["verify-main-small", "--n", "9", "--k", "4", "--t", "3",
            "--shift-trials", "-5", "--out", str(out)]
    assert main(argv) == 1
    assert "shift trials must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_out_write_failure_keeps_the_previous_file(tmp_path, monkeypatch, capsys) -> None:
    out = tmp_path / "frankl.csv"
    out.write_text("previous\n")
    monkeypatch.setattr(os, "replace", _refuse_replace)
    argv = ["frankl", "--n", "8", "--k", "4", "--t", "3", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: no replace of {out}\n"
    assert out.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frankl.csv"]
    monkeypatch.undo()
    assert main(argv) == 0
    assert out.read_text().splitlines()[0] == "r,size,max,tie"


# ---------------------------------------------------------------------------
# record stream, summaries, resume


def _sweep_to(path, resume: bool = False) -> int:
    argv = SMALL_SWEEP + ["--out", str(path)]
    if resume:
        argv.append("--resume")
    return main(argv)


def test_sweep_writes_stream_and_summaries(tmp_path, capsys) -> None:
    out = tmp_path / "records.jsonl"
    assert _sweep_to(out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    for lineno, line in enumerate(lines, start=1):
        record = parse_record_line(lineno, line)
        assert record.t == 3
    csv_text = (tmp_path / "records.jsonl.summary.csv").read_text()
    rows = csv_text.splitlines()
    assert rows[0] == "check,holds,excluded,violated,skipped,min_value"
    assert rows[1] == "records,8,,,,"
    obj = json.loads((tmp_path / "records.jsonl.summary.json").read_text())
    assert obj["records"] == 8
    assert obj["checks"]["thm32"] == {
        "holds": 4, "excluded": 4, "violated": 0, "skipped": 0
    }
    assert obj["violations"] == []
    assert obj["last_point"] == [3, 5, 15, 7, 5]
    assert Fraction(obj["thm32_min_ratio"]) > 1


def test_sweep_stream_is_deterministic(tmp_path) -> None:
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert _sweep_to(a) == 0
    assert _sweep_to(b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sidecars_agree_with_a_sweep_summary_of_the_same_records(tmp_path) -> None:
    # t = 4, k in [4, 6], n at its threshold: reaches the documented lemma_g
    # equality at (15,6,7,5,4), so there is a violation to compare
    out = tmp_path / "t4.jsonl"
    argv = ["sweep-inequalities", "--t-min", "4", "--t-max", "4", "--k-span", "2",
            "--n-span", "0", "--out", str(out)]
    assert main(argv) == 2
    summary = SweepSummary()
    for record in sweep(4, 4, 2, 0):
        summary.absorb(record)
    obj = json.loads((tmp_path / "t4.jsonl.summary.json").read_text())
    assert obj["records"] == summary.checked
    assert {
        name: {status: count for status, count in bucket.items() if count}
        for name, bucket in obj["checks"].items()
    } == summary.status_counts
    assert obj["violations"] == [list(v) for v in summary.violations]
    assert obj["violations"] == [[15, 6, 7, 5, 4, "lemma_g"]]
    assert obj["min_slack"] == {name: str(v) for name, v in summary.min_slack.items()}


#: Standard error of the t = 4 sweep of two points, from its "checked" line on.
_PIN_T4_REPORT = """\
checked 2 grid points (t in [4,4], k span 2, n span 0)
  thm32: holds=2 min=5684/5445
  ratio_identity: holds=2
  lemma_f: holds=1 excluded=1 min=12
  lemma_g: holds=1 violated=1 min=0
  lemma_h: holds=2 min=20
  lemma_phi: holds=2 min=1
  equa1: skipped=2
  equac2: skipped=2
  st: skipped=2
  equac1: skipped=2
  equac3: skipped=2
  appendix: holds=1 skipped=1
violations (1 check(s)):
  (n,k,s,i,t)=(15,6,7,5,4): lemma_g
"""


def test_sweep_report_is_pinned(tmp_path, capsys) -> None:
    argv = ["sweep-inequalities", "--t-min", "4", "--t-max", "4", "--k-span", "2",
            "--n-span", "0", "--out", str(tmp_path / "t4.jsonl")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err[err.index("checked "):] == _PIN_T4_REPORT


def test_sweep_digests_each_record_once(tmp_path, monkeypatch, forked_calls) -> None:
    # counted across processes: the sweep's workers digest the records
    for label, owner in (("digest", RecordDigest), ("summary", SweepSummary)):
        logged = forked_calls.wrap(label, owner.absorb, lambda digest, record: record.point)
        monkeypatch.setattr(owner, "absorb", logged)
    out = tmp_path / "once.jsonl"
    assert _sweep_to(out) == 0
    grid = list(inequalities._grid_points(3, 3, 2, 3))
    assert sorted(forked_calls("digest")) == grid and forked_calls("summary") == []
    # with no checkpoint, a resume digests every record again: the kept
    # records as they are compared, the rest as they are written
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(b"".join(lines[:5]) + lines[5][:30])
    assert _sweep_to(out, resume=True) == 0
    assert sorted(forked_calls("digest")) == sorted(grid * 2)
    assert forked_calls("summary") == []


def test_sidecar_write_failure_keeps_the_previous_sidecar(
    tmp_path, monkeypatch, capsys
) -> None:
    out = tmp_path / "s.jsonl"
    assert _sweep_to(out) == 0
    before = _snapshot(tmp_path)
    (tmp_path / "s.jsonl.summary.csv").write_text("previous\n")
    (tmp_path / "s.jsonl.summary.json").write_text("previous\n")
    monkeypatch.setattr(os, "replace", _refuse_replace)
    capsys.readouterr()
    assert _sweep_to(out) == 1
    assert capsys.readouterr().err == f"error: no replace of {out}.summary.csv\n"
    assert (tmp_path / "s.jsonl.summary.csv").read_text() == "previous\n"
    assert (tmp_path / "s.jsonl.summary.json").read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
    monkeypatch.undo()
    assert _sweep_to(out) == 0
    assert _snapshot(tmp_path) == before


def test_resume_over_a_partial_tail_is_byte_identical(tmp_path) -> None:
    fresh = tmp_path / "fresh.jsonl"
    assert _sweep_to(fresh) == 0
    fresh_bytes = fresh.read_bytes()

    resumed = tmp_path / "resumed.jsonl"
    lines = fresh_bytes.splitlines(keepends=True)
    # five complete records, then an interrupted sixth write
    resumed.write_bytes(b"".join(lines[:5]) + lines[5][:30])
    assert _sweep_to(resumed, resume=True) == 0
    assert resumed.read_bytes() == fresh_bytes
    assert (tmp_path / "resumed.jsonl.summary.csv").read_text() == (
        tmp_path / "fresh.jsonl.summary.csv"
    ).read_text()
    assert (tmp_path / "resumed.jsonl.summary.json").read_text() == (
        tmp_path / "fresh.jsonl.summary.json"
    ).read_text()


def test_resume_walks_the_grid_once(tmp_path, monkeypatch, forked_calls) -> None:
    # the parent counts the grid without walking it, and each worker walks
    # it once, up to its last block's end; each point is evaluated once, in
    # one worker
    monkeypatch.setattr(workers, "SWEEP_BLOCK", 3)
    monkeypatch.setattr(workers, "CHECKPOINT_EVERY", 6)  # past the torn sixth line
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "walk.jsonl"
    assert _sweep_to(out) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(b"".join(lines[:5]) + lines[5][:30])
    walk, flat, render = inequalities._grid_points, inequalities.evaluate_point, cli.record_to_line
    step = forked_calls.wrap("step", lambda point: None, lambda point: (os.getpid(), point))

    def profile(frame, event, arg) -> None:
        # the walk's generator frame returns once per point it yields, under
        # whatever name the walk was called
        if event == "return" and frame.f_code is walk.__code__ and arg is not None:
            step(arg)

    monkeypatch.setattr(
        inequalities,
        "evaluate_point",
        forked_calls.wrap("evaluate", flat, lambda n, k, s, i, t: (t, k, n, s, i)),
    )
    logged = forked_calls.wrap("render", render, lambda record: (os.getpid(), record.point))
    monkeypatch.setattr(cli, "record_to_line", logged)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert _sweep_to(out, resume=True) == 0
    finally:
        sys.setprofile(previous)
    grid = list(walk(3, 3, 2, 3))
    assert len(grid) == len(lines) == 8
    walks: dict[int, list] = {}
    for pid, point in forked_calls("step"):
        walks.setdefault(pid, []).append(point)
    assert os.getpid() not in walks
    # blocks of 3: worker 0 takes points 1-3 and 7-8, worker 1 points 4-6
    assert sorted(walks.values()) == [grid[:6], grid]
    assert sorted(forked_calls("evaluate")) == grid
    # the workers render each record once, for its line, the torn sixth's
    # too; the parent renders only the records it parses, each to compare
    # with its line
    rendered = [point for pid, point in forked_calls("render") if pid != os.getpid()]
    assert sorted(rendered) == grid


def test_a_fresh_sweep_reads_and_writes_no_record_line_in_its_parent(
    tmp_path, monkeypatch
) -> None:
    # the workers render the records; the parent adds each block's digest
    # and writes each checkpoint from state lines of numbers and status
    # words, so it neither parses nor renders a record line
    monkeypatch.setattr(workers, "SWEEP_BLOCK", 3)
    monkeypatch.setattr(workers, "CHECKPOINT_EVERY", 6)
    calls = []
    for name in ("parse_record_line", "record_to_line"):
        def counted(*args, _name=name, _call=getattr(cli, name)):
            calls.append(_name)  # the workers' calls land in their own copies
            return _call(*args)

        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "fresh.jsonl"
    assert main(CHECKPOINT_SWEEP + ["--out", str(out)]) == 2
    assert len(out.read_bytes().splitlines()) == 12
    assert (tmp_path / "fresh.jsonl.checkpoint").exists()
    assert calls == []


def test_resume_on_complete_stream_is_byte_identical(tmp_path) -> None:
    fresh = tmp_path / "s.jsonl"
    assert _sweep_to(fresh) == 0
    before = fresh.read_bytes()
    assert _sweep_to(fresh, resume=True) == 0
    assert fresh.read_bytes() == before


def test_resume_over_missing_file_starts_fresh(tmp_path) -> None:
    out = tmp_path / "new.jsonl"
    assert _sweep_to(out, resume=True) == 0
    assert len(out.read_text().splitlines()) == 8


@pytest.mark.parametrize("tail", ["unterminated", "blank line", "torn"])
def test_resume_cuts_the_tail_in_place(tmp_path, tail) -> None:
    fresh = tmp_path / "fresh.jsonl"
    assert _sweep_to(fresh) == 0
    expected = fresh.read_bytes()
    lines = expected.splitlines(keepends=True)
    damaged = {
        "unterminated": b"".join(lines[:5]) + lines[5].rstrip(b"\n"),
        "blank line": expected + b"\n",
        "torn": b"".join(lines[:5]) + lines[5][:30],
    }[tail]
    resumed = tmp_path / "resumed.jsonl"
    resumed.write_bytes(damaged)
    inode = resumed.stat().st_ino
    assert _sweep_to(resumed, resume=True) == 0
    assert resumed.read_bytes() == expected
    # cut and appended in place, not written anew beside the old file
    assert resumed.stat().st_ino == inode


def test_resume_refuses_a_reformatted_record_before_the_last(tmp_path, capsys) -> None:
    # the same record in another JSON layout, or padded with a space or a
    # carriage return: kept as it stands, it would make the resumed stream
    # differ from the fresh one
    out = tmp_path / "reformatted.jsonl"
    assert _sweep_to(out) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    for bad, tail in itertools.product(
        (
            json.dumps(json.loads(lines[2])).encode() + b"\n",
            b" " + lines[2],
            lines[2].replace(b"\n", b"\r\n"),
        ),
        (lines[-1], lines[-1][:30]),
    ):
        out.write_bytes(b"".join(lines[:2] + [bad] + lines[3:-1]) + tail)
        before = _snapshot(tmp_path)
        assert _sweep_to(out, resume=True) == 2
        assert (
            "integrity: line 3: not a record line as sweep-inequalities writes it"
            in capsys.readouterr().err
        )
        assert _snapshot(tmp_path) == before


def test_resume_rewrites_a_reformatted_last_record(tmp_path) -> None:
    fresh = tmp_path / "fresh.jsonl"
    assert _sweep_to(fresh) == 0
    lines = fresh.read_bytes().splitlines(keepends=True)
    reformatted = json.dumps(json.loads(lines[-1]), indent=1).replace("\n", "")
    assert reformatted.encode() + b"\n" != lines[-1]
    resumed = tmp_path / "resumed.jsonl"
    resumed.write_bytes(b"".join(lines[:-1]) + reformatted.encode() + b"\n")
    assert _sweep_to(resumed, resume=True) == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    for sidecar in (".summary.csv", ".summary.json"):
        assert (tmp_path / ("resumed.jsonl" + sidecar)).read_bytes() == (
            tmp_path / ("fresh.jsonl" + sidecar)
        ).read_bytes()


def test_resume_rejects_midstream_damage(tmp_path, capsys) -> None:
    out = tmp_path / "damaged.jsonl"
    assert _sweep_to(out) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    # T_den as a JSON number: used to be read as the same value and kept
    wrong_type = lines[3].replace(b'"T_den":"', b'"T_den":', 1)
    wrong_type = wrong_type.replace(b'","T_num"', b',"T_num"', 1)
    for lineno, bad in ((3, b"not json at all\n"), (4, wrong_type), (6, b"\xff\xfe garbage\n")):
        damaged = b"".join(lines[: lineno - 1] + [bad] + lines[lineno:])
        out.write_bytes(damaged)
        before = _snapshot(tmp_path)
        assert _sweep_to(out, resume=True) == 2
        assert f"integrity: line {lineno}" in capsys.readouterr().err
        assert _snapshot(tmp_path) == before


#: (bytes in line 4 of the SMALL_SWEEP stream, their replacement): a status
#: or slack damaged
_DAMAGED_STATUSES = [
    pytest.param(b'"thm32":"holds"', b'"thm32":"holdz"', id="unknown status"),
    pytest.param(b'"lemma_h":"holds"', b'"lemma_hh":"holds"', id="unknown check name"),
    pytest.param(b'"lemma_h_slack":"', b'"lemma_hh_slack":"', id="missing slack"),
    pytest.param(b'"lemma_h_slack":"', b'"lemma_h_slack":"x', id="unreadable slack"),
    pytest.param(b'"S1":"', b'"S9":"', id="unknown value name"),
    pytest.param(b'"lemma_h_slack":"', b'"lemma_h_slack":"1_', id="underscored slack"),
    pytest.param(b'"lemma_f_slack":"', b'"lemma_f_slak":"', id="excluded slack renamed"),
    # a duplicate key: json.loads keeps the last "S1", and no lemma_h_slack
    pytest.param(b',"lemma_h_slack":"', b',"S1":"', id="dropped slack"),
]


@pytest.mark.parametrize("good, bad", _DAMAGED_STATUSES)
def test_resume_rejects_damaged_statuses_and_slacks(tmp_path, capsys, good, bad) -> None:
    # with a torn tail to cut, each of these but the dropped slack used to
    # resume: exit 0 and "no violations" (the unreadable slack: a ValueError
    # traceback); int() reads "1_13" as 113, and lemma_f is excluded on line 4
    out = tmp_path / "damaged.jsonl"
    assert _sweep_to(out) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    assert good in lines[3] and b'"lemma_f":"excluded"' in lines[3]
    lines[3] = lines[3].replace(good, bad, 1)
    lines[-1] = lines[-1][:30]
    out.write_bytes(b"".join(lines))
    before = _snapshot(tmp_path)
    assert _sweep_to(out, resume=True) == 2
    assert "integrity: line 4: " in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_resume_refuses_an_edited_status_before_the_last(tmp_path, capsys) -> None:
    # two records, the first the documented lemma_g equality at
    # (15,6,7,5,4): with its "violated" edited to "holds" and the second
    # torn, a resume used to keep the edit, exit 0 with "no violations" and
    # report lemma_g: holds=2 min=0
    out = tmp_path / "edited.jsonl"
    argv = ["sweep-inequalities", "--t-min", "4", "--t-max", "4", "--k-span", "2",
            "--n-span", "0", "--out", str(out)]
    assert main(argv) == 2
    lines = out.read_bytes().splitlines(keepends=True)
    assert len(lines) == 2
    edited = lines[0].replace(b'"lemma_g":"violated"', b'"lemma_g":"holds"')
    assert edited != lines[0]
    out.write_bytes(edited + lines[1][:30])
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(argv + ["--resume"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "integrity: line 1: the record at (t,k,n,s,i) = (4, 6, 15, 7, 5) is not "
        "the one sweep-inequalities computes there\n"
    )
    assert _snapshot(tmp_path) == before


def test_resume_recomputes_an_edited_last_record(tmp_path) -> None:
    # an edited value on the last line is damage there too, so it is cut off
    # and written as a fresh sweep writes it
    out = tmp_path / "edited.jsonl"
    assert _sweep_to(out) == 0
    fresh = _snapshot(tmp_path)
    lines = out.read_bytes().splitlines(keepends=True)
    slack = lines[-1].index(b'"lemma_h_slack":"') + len(b'"lemma_h_slack":"')
    out.write_bytes(b"".join(lines[:-1]) + lines[-1][:slack] + b"9" + lines[-1][slack:])
    assert _sweep_to(out, resume=True) == 0
    assert _snapshot(tmp_path) == fresh


def _grid_sweep(path, *flags: str) -> int:
    argv = ["sweep-inequalities", "--t-max", "3", "--k-span", "3", "--out", str(path)]
    return main(argv + list(flags))


def test_resume_names_the_last_record_it_keeps(tmp_path, capsys) -> None:
    # the edited last record is read, then cut away: the resume is said at
    # the record before it
    out = tmp_path / "edited.jsonl"
    assert _grid_sweep(out) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    edited = lines[-1].replace(b'"lemma_h_slack":"', b'"lemma_h_slack":"9')
    out.write_bytes(b"".join(lines[:-1]) + edited)
    capsys.readouterr()
    assert _grid_sweep(out, "--resume") == 0
    kept = parse_record_line(len(lines) - 1, lines[-2][:-1].decode()).point
    err = capsys.readouterr().err
    assert err.startswith(f"resuming after canonical point (t,k,n,s,i) = {kept}\n")


def _snapshot(tmp_path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}


def test_resume_with_a_grown_grid_is_refused_untouched(tmp_path, capsys) -> None:
    # n span 2 then 5: the records part from the grid at line 7, where the
    # stream moves on to k = 6 and the grid still has n = 15 at k = 5;
    # appending after the last record would drop the missing points silently
    out = tmp_path / "grid.jsonl"
    assert _grid_sweep(out, "--n-span", "2") == 0
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(b"".join(lines) + lines[0][:20])  # an interrupted write too
    before = _snapshot(tmp_path)
    assert _grid_sweep(out, "--n-span", "5", "--resume") == 1
    err = capsys.readouterr().err
    assert "line 7 holds (3, 6, 16, 6, 4)" in err
    assert "the grid's point 7 is (3, 5, 15, 6, 4)" in err
    assert _snapshot(tmp_path) == before


def test_resume_with_a_shrunk_grid_is_refused_untouched(tmp_path) -> None:
    out = tmp_path / "grid.jsonl"
    assert _grid_sweep(out, "--n-span", "5") == 0
    before = _snapshot(tmp_path)
    assert _grid_sweep(out, "--n-span", "2", "--resume") == 1
    assert _snapshot(tmp_path) == before


def test_resume_of_a_stream_longer_than_the_grid_is_refused_untouched(
    tmp_path, capsys
) -> None:
    # t up to 4 then 3: the 12 records run past the 6 points of the grid;
    # exit 2 first, at the documented lemma_g equality at (15,6,7,5,4)
    out = tmp_path / "long.jsonl"
    argv = ["sweep-inequalities", "--k-span", "2", "--n-span", "2", "--out", str(out)]
    assert main(argv + ["--t-max", "4"]) == 2
    assert len(out.read_bytes().splitlines()) == 12
    before = _snapshot(tmp_path)
    assert main(argv + ["--t-max", "3", "--resume"]) == 1
    assert "line 7 holds (4, 6, 15, 7, 5), but the grid has only 6 points" in (
        capsys.readouterr().err
    )
    assert _snapshot(tmp_path) == before


def test_resume_refuses_swapped_lines_as_corruption_untouched(tmp_path, capsys) -> None:
    # line 3 is a grid point out of place, but line 4 goes backwards: the
    # stream is corrupt, whatever the flags, so exit 2 and not 1
    out = tmp_path / "swapped.jsonl"
    assert _sweep_to(out) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]
    out.write_bytes(b"".join(lines))
    before = _snapshot(tmp_path)
    assert _sweep_to(out, resume=True) == 2
    assert "integrity: line 4: record out of canonical order" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_fresh_sweep_with_bad_flags_leaves_the_stream_untouched(tmp_path, capsys) -> None:
    out = tmp_path / "kept.jsonl"
    assert _sweep_to(out) == 0
    before = _snapshot(tmp_path)
    argv = ["sweep-inequalities", "--t-min", "2", "--t-max", "3", "--out", str(out)]
    assert main(argv) == 1
    assert "t = 2 < 3" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_resume_extends_a_stream_whose_grid_is_a_prefix(tmp_path) -> None:
    grown, fresh = tmp_path / "grown.jsonl", tmp_path / "fresh.jsonl"
    assert _grid_sweep(grown, "--n-span", "2") == 0
    # exit 2: t = 4 reaches the documented lemma_g equality at (15,6,7,5,4)
    assert _grid_sweep(grown, "--n-span", "2", "--t-max", "4", "--resume") == 2
    assert _grid_sweep(fresh, "--n-span", "2", "--t-max", "4") == 2
    assert grown.read_bytes() == fresh.read_bytes()


#: 12 points, the 7th the documented lemma_g equality at (15,6,7,5,4): with
#: checkpoints every 5 records, the last one, at 10, holds a violation.
CHECKPOINT_SWEEP = [
    "sweep-inequalities", "--t-max", "4", "--k-span", "2", "--n-span", "2",
]


def _resume_in(run_dir: Path, stream: bytes, checkpoint: bytes | None, capsys) -> tuple:
    """Exit code, standard error and files of a CHECKPOINT_SWEEP resume of
    stream in a new run_dir, beside checkpoint (none when None); the
    checkpoint is left out of the files and run_dir out of standard error."""
    run_dir.mkdir()
    out = run_dir / "s.jsonl"
    out.write_bytes(stream)
    if checkpoint is not None:
        (run_dir / "s.jsonl.checkpoint").write_bytes(checkpoint)
    capsys.readouterr()
    rc = main(CHECKPOINT_SWEEP + ["--out", str(out), "--resume"])
    err = capsys.readouterr().err.replace(str(run_dir), "DIR")
    files = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.suffix != ".checkpoint"}
    return rc, err, files


def _count_parsed_lines(monkeypatch) -> list[int]:
    """The line numbers parse_record_line is called with in this process,
    from now on."""
    parse, lines = cli.parse_record_line, []

    def counted(lineno: int, line: str):
        lines.append(lineno)
        return parse(lineno, line)

    monkeypatch.setattr(cli, "parse_record_line", counted)
    return lines


def _count_evaluated_points(monkeypatch, forked_calls) -> None:
    """Log to forked_calls, as "evaluate", the (t, k, n, s, i) point of each
    evaluate_point call from now on, in the sweep's workers too."""
    monkeypatch.setattr(
        inequalities,
        "evaluate_point",
        forked_calls.wrap(
            "evaluate", inequalities.evaluate_point, lambda n, k, s, i, t: (t, k, n, s, i)
        ),
    )


def _checkpointed_sweep(tmp_path, *flags: str) -> tuple[bytes, bytes]:
    """The stream and checkpoint of a fresh CHECKPOINT_SWEEP, flags added."""
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "fresh.jsonl"
    main(CHECKPOINT_SWEEP + list(flags) + ["--out", str(out)])
    return out.read_bytes(), (tmp_path / "fresh.jsonl.checkpoint").read_bytes()


@pytest.mark.parametrize(
    "tear, parsed",
    [
        # the checkpoint lies past the end, so the whole stream is read; a
        # line a fresh sweep writes there is not parsed, so only the torn
        # one is, after the worker's line there, for its point
        ("before", [10, 10]),
        # the worker's line 11 at the stream's end, or the worker's line 12
        # and the torn one after line 11
        ("at", [11]),
        ("after", [12, 12]),
    ],
)
def test_resume_through_a_checkpoint_equals_a_full_read(
    tmp_path, capsys, monkeypatch, forked_calls, tear, parsed
) -> None:
    monkeypatch.setattr(workers, "CHECKPOINT_EVERY", 5)
    stream, checkpoint = _checkpointed_sweep(tmp_path)
    lines = stream.splitlines(keepends=True)
    assert len(lines) == 12
    at = len(b"".join(lines[:10]))
    # only at multiples of 5, so not at the end; the state lines follow the
    # stream line, which ends in their crc32
    _, _, line, state = checkpoint.split(b"\n", 3)
    assert line == b"stream 10 %d %d %d" % (at, zlib.crc32(stream[:at]), zlib.crc32(state))
    cut = {"before": at - 7, "at": at, "after": len(stream) - 7}[tear]
    calls = _count_parsed_lines(monkeypatch)
    _count_evaluated_points(monkeypatch, forked_calls)
    through = _resume_in(tmp_path / "through", stream[:cut], checkpoint, capsys)
    assert calls == parsed
    # each point after the checkpoint's records is evaluated once, to
    # compare with its line or to be written; with the checkpoint past the
    # end, every point is
    grid = list(inequalities._grid_points(3, 4, 2, 2))
    assert sorted(forked_calls("evaluate")) == grid[0 if tear == "before" else 10:]
    full = _resume_in(tmp_path / "full", stream[:cut], None, capsys)
    assert through == full
    if tear == "before":
        # both resumes write record 10 again, and its checkpoint with it
        for run in ("through", "full"):
            assert (tmp_path / run / "s.jsonl.checkpoint").read_bytes() == checkpoint
    rc, err, files = full
    assert rc == 2 and "(n,k,s,i,t)=(15,6,7,5,4): lemma_g" in err
    assert files["s.jsonl"] == stream
    for sidecar in (".summary.csv", ".summary.json"):
        assert files["s.jsonl" + sidecar] == (tmp_path / ("fresh.jsonl" + sidecar)).read_bytes()


def test_a_checkpoint_restores_the_digest_of_its_records(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(workers, "CHECKPOINT_EVERY", 5)
    stream, checkpoint = _checkpointed_sweep(tmp_path)
    absorbed = RecordDigest()
    for lineno, line in enumerate(stream.decode().splitlines()[:10], start=1):
        absorbed.absorb(parse_record_line(lineno, line))
    restored, offset, crc = workers._read_checkpoint(
        str(tmp_path / "fresh.jsonl"), (3, 4, 2, 2)
    )
    assert restored.records == 10
    assert offset == len(b"".join(stream.splitlines(keepends=True)[:10]))
    assert crc == zlib.crc32(stream[:offset])
    assert restored.violations == absorbed.violations == [(15, 6, 7, 5, 4, "lemma_g")]
    assert restored.to_csv() == absorbed.to_csv()
    assert restored.to_json_obj() == absorbed.to_json_obj()
    assert restored.state_lines() == absorbed.state_lines()
    assert restored.last_point == absorbed.last_point
    assert workers._checkpoint_text((3, 4, 2, 2), offset, crc, restored).encode() == checkpoint


def test_checkpoint_bytes_are_pinned(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(workers, "CHECKPOINT_EVERY", 5)
    _, checkpoint = _checkpointed_sweep(tmp_path)
    assert hashlib.sha256(checkpoint).hexdigest() == (
        "d427c54b73beeadbcea4e39f65812286ca87caccfd476db166f6334330a804c0"
    )


def _flip(data: bytes, old: bytes, new: bytes) -> bytes:
    assert old in data
    return data.replace(old, new, 1)


def _without_state_crc(checkpoint: bytes) -> bytes:
    """checkpoint as the sweep wrote it before its stream line ended in the
    crc32 of the state lines."""
    lines = checkpoint.split(b"\n")
    lines[2] = lines[2].rsplit(b" ", 1)[0]
    return b"\n".join(lines)


def _with_record_text(checkpoint: bytes, last: bytes) -> bytes:
    """checkpoint as the sweep wrote it while its digest lines embedded the
    record line's format: each checks entry's statuses as the line's checks
    object, and "last" followed by last, the whole last record line."""
    lines = _without_state_crc(checkpoint).decode().split("\n")
    for at, line in enumerate(lines):
        if line.startswith("checks "):
            _, count, *statuses = line.split(" ")
            lines[at] = f"checks {count} {_checks_json(Checks._make(statuses))}"
        elif line.startswith("last "):
            lines[at] = "last " + last.decode().removesuffix("\n")
    return "\n".join(lines).encode()


@pytest.mark.parametrize(
    "case",
    [
        "version",
        "grid flags",
        "offset past the end",
        "flipped byte in the prefix",
        "another run's stream",
        "empty",
        "not UTF-8",
        "no final newline",
        "carriage returns",
        "extra line",
        "signed number",
        "unknown status",
        "three slack minima",
        "counts that do not add up",
        "unreadable last record",
        "the parent's format",
        "eleven statuses",
        "no state checksum",
        "edited ratio",
        "edited slack",
    ],
)
def test_an_unusable_checkpoint_falls_back_to_a_full_read(
    tmp_path, capsys, monkeypatch, forked_calls, case
) -> None:
    monkeypatch.setattr(workers, "CHECKPOINT_EVERY", 5)
    stream, checkpoint = _checkpointed_sweep(tmp_path)
    lines = stream.splitlines(keepends=True)
    torn = b"".join(lines[:11]) + lines[11][:30]
    if case == "version":
        monkeypatch.setattr(workers, "__version__", "0.1.1")
    elif case == "grid flags":
        # the checkpoint of the 6-point t = 3 grid, whose stream is a prefix
        stream, checkpoint = _checkpointed_sweep(tmp_path / "t3", "--t-max", "3")
        torn = stream + lines[6][:30]
    elif case == "offset past the end":
        torn = b"".join(lines[:8])
    elif case == "flipped byte in the prefix":
        torn = _flip(torn, b'"T_den"', b'"T_deN"')
    elif case == "another run's stream":
        # the same flags, but the stream of a grid grown in n: it parts from
        # the checkpointed bytes at line 7
        torn, _ = _checkpointed_sweep(tmp_path / "grown", "--n-span", "5")
    elif case == "the parent's format":
        checkpoint = _with_record_text(checkpoint, lines[9])
        assert hashlib.sha256(checkpoint).hexdigest() == (
            "48fe9f164eff83e07317d0c885624448391cbae87de59a217f31c36f2b44343a"
        )
    elif case == "no state checksum":
        checkpoint = _without_state_crc(checkpoint)
        assert hashlib.sha256(checkpoint).hexdigest() == (
            "4f85ae1193ad2189d7bfd1c7dbb6f9a476fd7732977328aafd5ded2e4badcbc3"
        )
    else:
        ratio, slack, entry = checkpoint.split(b"\n")[3:6]
        checkpoint = {
            "empty": b"",
            "not UTF-8": b"\xff" + checkpoint,
            "no final newline": checkpoint[:-1],
            "carriage returns": checkpoint.replace(b"\n", b"\r\n"),
            "extra line": checkpoint.replace(ratio, ratio + b"\n" + ratio),
            "signed number": _flip(checkpoint, b"stream 10 ", b"stream +10 "),
            "unknown status": _flip(checkpoint, b"checks 2 holds", b"checks 2 holdz"),
            "three slack minima": _flip(checkpoint, slack, slack.rsplit(b" ", 1)[0]),
            "counts that do not add up": _flip(checkpoint, b"stream 10 ", b"stream 11 "),
            "unreadable last record": _flip(checkpoint, b"\nlast 4 ", b"\nlast four "),
            "eleven statuses": _flip(checkpoint, entry, entry.rsplit(b" ", 1)[0]),
            # lines in form, whose digest writes them back whole: only the
            # state's checksum on the stream line tells them from the sweep's
            "edited ratio": _flip(checkpoint, ratio, b"ratio 1 2"),
            "edited slack": _flip(checkpoint, slack, b"slack -1" + slack[slack.index(b" ", 6):]),
        }[case]
    parsed = _count_parsed_lines(monkeypatch)
    _count_evaluated_points(monkeypatch, forked_calls)
    through = _resume_in(tmp_path / "through", torn, checkpoint, capsys)
    parsed_through, evaluated_through = list(parsed), sorted(forked_calls("evaluate"))
    parsed.clear()
    forked_calls.clear()
    full = _resume_in(tmp_path / "full", torn, None, capsys)
    evaluated = sorted(forked_calls("evaluate"))
    assert through == full
    # every line of the stream was read, against the grid's points from the
    # first on
    assert parsed_through == parsed
    grid = list(inequalities._grid_points(3, 4, 2, 2))
    for points in (evaluated_through, evaluated):
        # each point at most once, from the grid's first on; every point,
        # unless the stream is refused and the workers killed part way
        assert points[0] == grid[0] and len(set(points)) == len(points)
        assert points == grid or "checked 12 grid points" not in full[1]


def test_a_fresh_sweep_replaces_a_stale_checkpoint(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(workers, "CHECKPOINT_EVERY", 5)
    _, expected = _checkpointed_sweep(tmp_path / "clean")
    stale = tmp_path / "fresh.jsonl.checkpoint"
    stale.write_bytes(_checkpointed_sweep(tmp_path / "t3", "--t-max", "3")[1])
    assert stale.read_bytes() != expected
    _checkpointed_sweep(tmp_path)
    assert stale.read_bytes() == expected
    # a new stream too short for a checkpoint leaves none of the old one
    # behind, whether fresh or resumed from no kept record
    out = tmp_path / "fresh.jsonl"
    argv = ["sweep-inequalities", "--t-min", "4", "--t-max", "4", "--k-span", "2",
            "--n-span", "0", "--out", str(out)]
    for resume in ([], ["--resume"]):
        stale.write_bytes(expected)
        out.write_bytes(out.read_bytes()[:30])
        assert main(argv + resume) == 2
        assert len(out.read_bytes().splitlines()) == 2
        assert not stale.exists()


def _small_blocks(monkeypatch, cpus: int) -> None:
    """CHECKPOINT_SWEEP's 12 points in blocks of 5, the last one partial,
    with a checkpoint at 10, on cpus CPUs."""
    monkeypatch.setattr(workers, "SWEEP_BLOCK", 5)
    monkeypatch.setattr(workers, "CHECKPOINT_EVERY", 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _no_process_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _small_sweep(run_dir: Path, capsys, *flags: str) -> tuple:
    """Exit code, standard error (run_dir as DIR) and files of a
    CHECKPOINT_SWEEP to run_dir, made if it is not there."""
    run_dir.mkdir(exist_ok=True)
    capsys.readouterr()
    rc = main(CHECKPOINT_SWEEP + ["--out", str(run_dir / "s.jsonl"), *flags])
    return rc, capsys.readouterr().err.replace(str(run_dir), "DIR"), _snapshot(run_dir)


def test_the_worker_count_changes_no_output(tmp_path, capsys, monkeypatch) -> None:
    # the lemma_g equality at the 7th point: exit 2, whatever the workers
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = []
    for cpus in (1, 2, 3, 4):
        _small_blocks(monkeypatch, cpus)
        forks.clear()
        runs.append(_small_sweep(tmp_path / str(cpus), capsys))
        assert len(forks) == min(cpus, 3)  # never more workers than blocks
        _no_process_left()
    assert all(run == runs[0] for run in runs)
    rc, err, files = runs[0]
    assert rc == 2 and "(n,k,s,i,t)=(15,6,7,5,4): lemma_g" in err
    assert files["s.jsonl"] == "".join(
        record_to_line(record) + "\n" for record in sweep(3, 4, 2, 2)
    ).encode()
    assert files["s.jsonl.checkpoint"].split(b"\n")[2].startswith(b"stream 10 ")


def test_a_tear_anywhere_resumes_to_the_fresh_bytes(tmp_path, capsys, monkeypatch) -> None:
    # at each line's start, one byte in, and one byte short of its end,
    # before the checkpoint at 10, which is then not used, or after it
    _small_blocks(monkeypatch, 2)
    _, _, fresh = _small_sweep(tmp_path / "fresh", capsys)
    stream = fresh["s.jsonl"]
    ends = list(itertools.accumulate(map(len, stream.splitlines(keepends=True))))
    cuts = sorted({0, 1, *ends, *(end + 1 for end in ends[:-1]), *(end - 1 for end in ends)})
    for cut in cuts:
        run_dir = tmp_path / f"cut-{cut}"
        run_dir.mkdir()
        (run_dir / "s.jsonl").write_bytes(stream[:cut])
        (run_dir / "s.jsonl.checkpoint").write_bytes(fresh["s.jsonl.checkpoint"])
        rc, _, files = _small_sweep(run_dir, capsys, "--resume")
        assert (rc, files) == (2, fresh), cut
    _no_process_left()


def _fail_at(line: int, how):
    """An evaluate_point that calls how(line) at the grid's point on that line."""
    evaluate = inequalities.evaluate_point
    at = list(inequalities._grid_points(3, 4, 2, 2))[line - 1]

    def failing(n: int, k: int, s: int, i: int, t: int):
        if (t, k, n, s, i) == at:
            how(line)
        return evaluate(n, k, s, i, t)

    return failing


def _inject(line: int) -> None:
    raise IntegrityError(f"injected at line {line}")


def _kill(line: int) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "case, line, cpus, kept",
    [
        ("error", 1, 2, 0),  # at the first point: the old stream stays whole
        ("error", 4, 2, 3),
        ("error", 6, 3, 5),  # at the first point of a block
        ("error", 12, 3, 11),  # after the checkpoint at 10
        ("killed", 7, 2, 5),  # worker 1, in its block of lines 6-10
        ("checkpoint write", None, 3, 10),
    ],
)
def test_a_failed_sweep_keeps_the_records_before_it_and_no_worker(
    tmp_path, capsys, monkeypatch, case, line, cpus, kept
) -> None:
    _small_blocks(monkeypatch, cpus)
    _, _, fresh = _small_sweep(tmp_path / "fresh", capsys)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    previous = {"s.jsonl" + suffix: b"previous\n" for suffix in ("", ".checkpoint")}
    previous.update((name, data) for name, data in fresh.items() if "summary" in name)
    for name, data in previous.items():
        (run_dir / name).write_bytes(data)
    if case == "error":
        monkeypatch.setattr(inequalities, "evaluate_point", _fail_at(line, _inject))
        expected = 2, f"integrity: injected at line {line}\n"
    elif case == "killed":
        monkeypatch.setattr(inequalities, "evaluate_point", _fail_at(line, _kill))
        expected = 2, "integrity: sweep worker 1 died or sent a short frame before line 6\n"
    else:
        monkeypatch.setattr(os, "replace", _refuse_replace)
        expected = 1, "error: no replace of DIR/s.jsonl.checkpoint\n"
    rc, err, files = _small_sweep(run_dir, capsys)
    _no_process_left()
    assert (rc, err) == expected
    # the records before the failure, the old sidecars, and a checkpoint
    # only once 10 records were written
    if kept == 0:
        assert files == previous
        return
    stream = b"".join(fresh["s.jsonl"].splitlines(keepends=True)[:kept])
    expected_files = {name: data for name, data in previous.items() if "summary" in name}
    expected_files["s.jsonl"] = stream
    if kept >= 10 and case == "error":
        expected_files["s.jsonl.checkpoint"] = fresh["s.jsonl.checkpoint"]
    assert files == expected_files


@pytest.mark.parametrize(
    "case",
    ["missing input", "missing directory", "directory stream", "checkpoint write", "sidecar write"],
)
def test_an_os_error_is_one_error_line(tmp_path, capsys, monkeypatch, case) -> None:
    # each of these used to end in a traceback; the exit code stays 1
    if case == "missing input":
        path = tmp_path / "missing.txt"
        argv = ["compress", "--in", str(path)]
    elif case == "missing directory":
        path = tmp_path / "no" / "such" / "f.csv"
        argv = ["frankl", "--n", "8", "--k", "4", "--t", "3", "--out", str(path)]
    elif case == "directory stream":
        path = tmp_path / "dir"
        path.mkdir()
        argv = SMALL_SWEEP + ["--out", str(path), "--resume"]
    elif case == "checkpoint write":
        monkeypatch.setattr(workers, "CHECKPOINT_EVERY", 5)
        path = tmp_path / "s.jsonl.checkpoint"
        path.mkdir()
        argv = SMALL_SWEEP + ["--out", str(tmp_path / "s.jsonl")]
    else:
        path = tmp_path / "s.jsonl.summary.csv"
        path.mkdir()
        argv = SMALL_SWEEP + ["--out", str(tmp_path / "s.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    # a failed write names the file asked for, not the temporary file it
    # was written through
    assert ".tmp" not in err
    if case == "missing directory":
        assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    elif case == "sidecar write":
        assert err == f"error: [Errno 21] Is a directory: {str(path)!r}\n"
    assert not list(tmp_path.rglob("*.tmp"))


def test_sweep_to_stdout_writes_the_stream(tmp_path, capsysbinary) -> None:
    assert main(SMALL_SWEEP + ["--out", "-"]) == 0
    written = capsysbinary.readouterr().out
    assert _sweep_to(tmp_path / "s.jsonl") == 0
    assert written == (tmp_path / "s.jsonl").read_bytes()
    assert not (tmp_path / "s.jsonl.checkpoint").exists()


def test_resume_to_stdout_is_usage_error(capsys) -> None:
    assert main(SMALL_SWEEP + ["--out", "-", "--resume"]) == 1


def test_sweep_rejects_small_t(capsys) -> None:
    assert main(["sweep-inequalities", "--t-min", "2", "--t-max", "3"]) == 1
    assert "t >= 3" in capsys.readouterr().err


def test_record_line_is_compact_and_sorted() -> None:
    record = evaluate_point(18, 7, 8, 6, 5)
    line = record_to_line(record)
    assert "\n" not in line and ": " not in line
    obj = json.loads(line)
    assert list(obj) == sorted(obj)
    assert parse_record_line(1, line) == record


_FLAGSHIP = record_to_line(evaluate_point(18, 7, 8, 6, 5))


_NOT_A_RECORD = "not a record line as sweep-inequalities writes it"


#: (line number, line): lines that are no record at all
_NOT_RECORDS = [
    (7, "{broken"),
    (9, '["list", "not", "object"]'),
    (2, '{"n": 18}'),
    (3, _FLAGSHIP[: _FLAGSHIP.index(',"values"')] + "}"),
]


def test_parse_record_line_errors_name_the_line() -> None:
    for lineno, line in _NOT_RECORDS:
        with pytest.raises(IntegrityError, match=f"^line {lineno}: {_NOT_A_RECORD}$"):
            parse_record_line(lineno, line)


#: (text in the flagship line, its replacement): a field of the wrong JSON
#: type or value
_WRONG_TYPES = [
    pytest.param('"n":18', '"n":18.9', id="float n"),
    pytest.param('"n":18', '"n":true', id="boolean n"),
    pytest.param('"k":7', '"k":"7"', id="string k"),
    pytest.param('"T_num":"615"', '"T_num":615.0', id="number T_num"),
    pytest.param('"T_num":"615"', '"T_num":"615.0"', id="non-decimal T_num"),
    pytest.param('"T_den":"572"', '"T_den":"0"', id="zero T_den"),
    pytest.param('"thm32":"holds"', '"thm32":1', id="number status"),
    pytest.param('"S1":"', '"S1":null,"x":"', id="null value"),
    pytest.param('"checks":{', '"checks":["holds"],"c":{', id="checks list"),
]


@pytest.mark.parametrize("good, bad", _WRONG_TYPES)
def test_parse_record_line_refuses_wrong_types(good, bad) -> None:
    # each of these used to be converted silently (18.9 read as 18, true as
    # 1, "thm32": 1 as the status "1") and kept as it stands on --resume
    assert good in _FLAGSHIP
    damaged = _FLAGSHIP.replace(good, bad, 1)
    with pytest.raises(IntegrityError, match=f"^line 4: {_NOT_A_RECORD}$"):
        parse_record_line(4, damaged)


#: (text in the flagship line, its replacement): values int() would read
_MALFORMED_VALUES = [
    ('"S1":"82"', '"S9":"82"'),
    ('"S1":"82"', '"S1":"1_13"'),
    ('"S1":"82"', '"S1":" 82"'),
    ('"S1":"82"', '"S1":"\u0668\u0662"'),
    (',"lemma_h_slack":"26"', ""),
]


def test_parse_record_line_refuses_malformed_values() -> None:
    # int() reads "1_13" as 113 and the Arabic-Indic digits as 82, so only
    # writing the record back tells these from its line
    for good, bad in _MALFORMED_VALUES:
        assert good in _FLAGSHIP
        with pytest.raises(IntegrityError, match=f"^line 5: {_NOT_A_RECORD}$"):
            parse_record_line(5, _FLAGSHIP.replace(good, bad, 1))


def test_record_line_matches_json_dumps() -> None:
    def dumped(record: VerificationRecord) -> str:
        obj = {
            "n": record.n,
            "k": record.k,
            "s": record.s,
            "i": record.i,
            "t": record.t,
            "T_num": str(record.t_num),
            "T_den": str(record.t_den),
            "checks": record.checks._asdict(),
            "values": {name: str(value) for name, value in record.values._asdict().items()},
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    for p in iter_grid(3, 5, 3, 2):
        record = evaluate_point(p.n, p.k, p.s, p.i, p.t)
        line = record_to_line(record)
        assert line == dumped(record)
        assert parse_record_line(1, line) == record


# (text in the flagship line, its replacement): each is the same record to
# a JSON reader, or one that a JSON reader takes, but not the bytes
# record_to_line writes
_NEAR_CANONICAL = [
    ('"i":6', '"i":07'),
    ('"T_num":"615"', '"T_num":"-0"'),
    ('"T_num":"615"', '"T_num":"007"'),
    ('"n":18', '"n":-18'),
    ('"n":18', '"n": 18'),
    ('"i":6,"k":7', '"k":7,"i":6'),
    ('"S1":', '"\\u0053\\u0031":'),
    ('"T_den":"572"', '"T_den":"0"'),
    ('"T_den":"572"', '"T_den":"0572"'),
    ('"lemma_h_slack":"26"', '"lemma_h_slack":"1_13"'),
    ('"lemma_h_slack":"26"', '"lemma_h_slack":"026"'),
    ('"lemma_h_slack":"26"', '"lemma_h_slack":"-0"'),
    ('"appendix":"holds"', '"appendix": "holds"'),
    ('"appendix":"holds"', '"\\u0061ppendix":"holds"'),
    ('"appendix":"holds"', '"appendix":"holdz"'),
    ('"appendix":"holds"', '"appendix":["holds"]'),
    ('"appendix":"holds"', '"appendix":{"x":"holds"}'),
    ('"appendix":"holds"', '"appendix":"}"'),
    ('"checks":{', '"checks":{"thm32":"violated",'),
    ('"values":{', '"values":{"S1":"82",'),
    ('}}', '} }'),
]


def test_near_canonical_variants_are_refused() -> None:
    for good, bad in _NEAR_CANONICAL:
        assert good in _FLAGSHIP
        with pytest.raises(IntegrityError, match=_NOT_A_RECORD):
            parse_record_line(1, _FLAGSHIP.replace(good, bad, 1))


#: The reader the parser replaced, kept as the reference it is held to: one
#: pattern of record_to_line's bytes for a record of canonical check and
#: value names.  The keys in sorted order, the grid coordinates as positive
#: JSON integers, T_num and T_den as the decimal strings str() writes (T_den
#: positive), the checks object captured whole and each value as the decimal
#: string str() writes, in sorted name order; each group named by its key.
_INT = "0|-?[1-9][0-9]*"
_POSITIVE = "[1-9][0-9]*"
_CANONICAL_LINE = re.compile(
    rf'\{{"T_den":"(?P<T_den>{_POSITIVE})","T_num":"(?P<T_num>{_INT})",'
    r'"checks":(?P<checks>\{[^}]*\}),'
    + ",".join(f'"{name}":(?P<{name}>{_POSITIVE})' for name in "iknst")
    + r',"values":\{'
    + ",".join(f'"{name}":"(?P<{name}>{_INT})"' for name in sorted(VALUE_NAMES))
    + r"\}\}"
)
#: The checks object: every check name, in sorted order, each with one of
#: the statuses, in a group named by the check.
_CANONICAL_CHECKS = re.compile(
    r"\{"
    + ",".join(f'"{name}":"(?P<{name}>{"|".join(STATUSES)})"' for name in sorted(CHECK_ORDER))
    + r"\}"
)


def _reference_parse(line: str) -> VerificationRecord | None:
    """The record the reference pattern reads on line, or None."""
    line_match = _CANONICAL_LINE.fullmatch(line)
    if line_match is None:
        return None
    checks_match = _CANONICAL_CHECKS.fullmatch(line_match["checks"])
    if checks_match is None:
        return None
    return VerificationRecord(
        *(int(line_match[name]) for name in ("n", "k", "s", "i", "t", "T_num", "T_den")),
        Checks._make(checks_match.group(*CHECK_ORDER)),
        Values._make(int(line_match[name]) for name in VALUE_NAMES),
    )


def _one_character_edits(lines: list[str], rng: random.Random, count: int) -> Iterator[str]:
    """count lines, each a line of lines with one character deleted,
    replaced or inserted, all drawn from rng."""
    alphabet = '0123456789-+.eE"\\:,{}[] xSTl_'
    for _ in range(count):
        line = rng.choice(lines)
        at = rng.randrange(len(line))
        kind = rng.randrange(3)  # delete, replace or insert one character
        if kind == 0:
            yield line[:at] + line[at + 1:]
        else:
            yield line[:at + (kind == 2)] + rng.choice(alphabet) + line[at + 1:]


def test_the_parser_reads_what_the_reference_pattern_reads(tmp_path) -> None:
    # seeded one-character edits of a grid's lines, and every damaged or
    # reformatted line this module refuses elsewhere, each in every line
    # where its text stands: the two readers take the same lines, and read
    # the same records from them
    lines = _grid_lines(tmp_path) + [_FLAGSHIP]
    vectors = [
        *_NEAR_CANONICAL,
        *_MALFORMED_VALUES,
        *(param.values for param in _WRONG_TYPES),
        *((good.decode(), bad.decode()) for good, bad in (p.values for p in _DAMAGED_STATUSES)),
        ('"T_den":"', '"T_den":'),
    ]
    candidates = [
        *lines,
        *(line.replace(good, bad, 1) for line in lines for good, bad in vectors if good in line),
        *(line for _, line in _NOT_RECORDS),
        *(json.dumps(json.loads(line)) for line in lines),
        *(json.dumps(json.loads(line), indent=1).replace("\n", "") for line in lines),
        *(" " + line for line in lines),
        *(line + "\r" for line in lines),
        "not json at all",
        "",
        *_one_character_edits(lines, random.Random(21), 5000),
    ]
    accepted = 0
    for line in candidates:
        try:
            record = parse_record_line(1, line)
        except IntegrityError:
            record = None
        assert record == _reference_parse(line), line
        accepted += record is not None
    assert len(lines) < accepted < len(candidates)


def _grid_lines(tmp_path) -> list[str]:
    out = tmp_path / "grid.jsonl"
    argv = ["sweep-inequalities", "--t-max", "4", "--k-span", "3", "--n-span", "3",
            "--out", str(out)]
    assert main(argv) == 2  # t = 4 reaches the lemma_g equality at (15,6,7,5,4)
    lines = out.read_text().splitlines()
    assert len(lines) == 56
    return lines


def test_every_line_of_a_grid_round_trips(tmp_path) -> None:
    for line in _grid_lines(tmp_path):
        record = parse_record_line(1, line)
        t, k, n, s, i = record.point
        fresh = evaluate_point(n, k, s, i, t)
        assert record == fresh
        assert type(record.checks) is type(fresh.checks) is Checks
        assert type(record.values) is type(fresh.values) is Values
        assert record_to_line(record) == line


def test_seeded_edits_are_refused_or_round_trip(tmp_path) -> None:
    # one-character edits of a grid's lines: a line that parses is one that
    # record_to_line writes, byte for byte, so a resume keeps only those
    refused = 0
    for line in _one_character_edits(_grid_lines(tmp_path), random.Random(20241), 4000):
        try:
            record = parse_record_line(1, line)
        except IntegrityError:
            refused += 1
        else:
            assert record_to_line(record) == line
    assert 0 < refused < 4000  # both outcomes are reached


def test_parsed_records_are_immutable_and_share_their_checks() -> None:
    # two lines with one checks text: the parse caches its Checks, which no
    # record can change, so both records may hold the same one
    first_line = record_to_line(evaluate_point(40, 7, 8, 6, 5))
    second_line = record_to_line(evaluate_point(41, 7, 8, 6, 5))
    pattern = _CANONICAL_LINE
    assert pattern.fullmatch(first_line)["checks"] == pattern.fullmatch(second_line)["checks"]
    first = parse_record_line(1, first_line)
    second = parse_record_line(2, second_line)
    assert first.checks is second.checks
    assert first.checks == evaluate_point(40, 7, 8, 6, 5).checks
    assert type(first.checks) is Checks and type(first.values) is Values
    for owner, name in ((first.checks, "thm32"), (first.values, "S1")):
        with pytest.raises(AttributeError):
            setattr(owner, name, 0)
    with pytest.raises(TypeError):
        first.checks[0] = "violated"
    with pytest.raises(TypeError):
        first.values[0] = 0
    assert first == evaluate_point(40, 7, 8, 6, 5)
    assert second == evaluate_point(41, 7, 8, 6, 5)


def test_parsed_and_fresh_records_share_digest_entries(tmp_path) -> None:
    # the digest keys its per-Checks entries on the record's Checks itself,
    # so a parsed record and a fresh one of a point land on the same entry
    fresh, both = RecordDigest(), RecordDigest()
    for line in _grid_lines(tmp_path):
        parsed = parse_record_line(1, line)
        t, k, n, s, i = parsed.point
        record = evaluate_point(n, k, s, i, t)
        fresh.absorb(record)
        both.absorb(record)
        both.absorb(parsed)

    def entries(digest: RecordDigest) -> list[tuple[int, str]]:
        return [
            (int(count), checks)
            for _, count, checks in (
                line.split(" ", 2)
                for line in digest.state_lines()
                if line.startswith("checks ")
            )
        ]

    assert len(entries(fresh)) > 1
    assert entries(both) == [(2 * count, checks) for count, checks in entries(fresh)]
    assert both.violations == [v for v in fresh.violations for _ in range(2)]
    both_obj, fresh_obj = both.to_json_obj(), fresh.to_json_obj()
    assert both_obj["checks"] == {
        name: {status: 2 * count for status, count in counts.items()}
        for name, counts in fresh_obj["checks"].items()
    }
    for field in ("min_slack", "thm32_min_ratio", "last_point"):
        assert both_obj[field] == fresh_obj[field]
    assert both.last_point == fresh.last_point


def test_digest_of_a_parsed_record_equals_the_fresh_one() -> None:
    # two violated checks: the digest joins their names in CHECK_ORDER, for a
    # parsed record as for a fresh one
    flagship = evaluate_point(18, 7, 8, 6, 5)
    record = flagship._replace(
        checks=flagship.checks._replace(thm32="violated", lemma_g="violated")
    )
    direct, parsed = RecordDigest(), RecordDigest()
    direct.absorb(record)
    parsed.absorb(parse_record_line(1, record_to_line(record)))
    assert direct.violations == [(18, 7, 8, 6, 5, "thm32,lemma_g")]
    assert parsed.to_csv() == direct.to_csv()
    assert parsed.to_json_obj() == direct.to_json_obj()
    assert json.dumps(parsed.to_json_obj()) == json.dumps(direct.to_json_obj())


def test_digest_of_a_read_back_stream_equals_the_fresh_one(tmp_path) -> None:
    # the digest keeps its least key ratio as two ints and its last record
    # as its point: over every line of a sweep with lemma exclusions and
    # the lemma_g equality point, the parsed records give the digest of the
    # fresh ones, and both give the minima of the records themselves
    out = tmp_path / "t4.jsonl"
    argv = ["sweep-inequalities", "--t-min", "4", "--t-max", "4", "--k-span", "3",
            "--n-span", "2", "--out", str(out)]
    assert main(argv) == 2
    fresh, parsed = RecordDigest(), RecordDigest()
    records = []
    for lineno, line in enumerate(out.read_text().splitlines(), start=1):
        record = parse_record_line(lineno, line)
        t, k, n, s, i = record.point
        records.append(evaluate_point(n, k, s, i, t))
        fresh.absorb(records[-1])
        parsed.absorb(record)
    assert parsed.to_csv() == fresh.to_csv()
    assert parsed.to_json_obj() == fresh.to_json_obj()
    obj = fresh.to_json_obj()
    assert parsed.to_json_obj()["thm32_min_ratio"] == obj["thm32_min_ratio"] == str(min(
        Fraction(r.t_num, r.t_den) for r in records if r.checks.thm32 != "excluded"
    ))
    assert parsed.last_point == fresh.last_point == records[-1].point
    assert fresh.violations == [(15, 6, 7, 5, 4, "lemma_g")]
    assert obj["min_slack"] == {
        name: str(min(
            getattr(r.values, name + "_slack")
            for r in records
            if getattr(r.checks, name) != "excluded"
        ))
        for name in ("lemma_f", "lemma_g", "lemma_h", "lemma_phi")
    }
    assert obj["min_slack"]["lemma_g"] == "0"
    assert obj["checks"]["lemma_f"]["excluded"] > 0


def test_emit_summary_empty_stream_is_zeroed() -> None:
    digest = RecordDigest()
    rows = digest.to_csv().splitlines()
    assert rows[1] == "records,0,,,,"
    assert len(rows) == 2 + len(CHECK_ORDER)
    for row in rows[2:]:
        name, rest = row.split(",", 1)
        assert rest == "0,0,0,0,"
    obj = digest.to_json_obj()
    assert obj["records"] == 0
    assert obj["thm32_min_ratio"] is None
    assert obj["last_point"] is None


def test_emit_summary_single_flagship_record() -> None:
    record = evaluate_point(18, 7, 8, 6, 5)
    digest = RecordDigest()
    digest.absorb(record)
    assert "thm32,1,0,0,0,615/572" in digest.to_csv().splitlines()
    obj = digest.to_json_obj()
    assert obj["thm32_min_ratio"] == "615/572"
    assert obj["checks"]["appendix"]["holds"] == 1
    assert obj["checks"]["equa1"]["skipped"] == 1


def test_digest_counts_minima() -> None:
    record = evaluate_point(18, 7, 8, 6, 5)
    digest = RecordDigest()
    digest.absorb(record)
    assert digest.records == 1
    obj = digest.to_json_obj()
    assert obj["thm32_min_ratio"] == str(Fraction(615, 572))
    assert sum(counts["violated"] for counts in obj["checks"].values()) == 0
    # lemma_f is excluded at this triple, so it contributes no slack minimum
    assert "lemma_f" not in obj["min_slack"]
    assert obj["min_slack"]["lemma_g"] == str(record.values.lemma_g_slack)


def test_min_ratio_skips_excluded_points() -> None:
    excluded = evaluate_point(12, 5, 6, 4, 3)
    assert excluded.checks.thm32 == "excluded"
    digest = RecordDigest()
    digest.absorb(excluded)
    assert digest.to_json_obj()["thm32_min_ratio"] is None
    digest.absorb(evaluate_point(18, 7, 8, 6, 5))
    assert digest.to_json_obj()["thm32_min_ratio"] == str(Fraction(615, 572))


def test_an_absorbed_ratio_is_written_as_fractions_writes_it() -> None:
    # the digest renders its least key ratio with integer arithmetic, so a
    # sweep never imports fractions; a record's ratio is in lowest terms
    ranked = [r for r in sweep(3, 4, 3, 3) if r.checks.thm32 != "excluded"]
    assert len(ranked) == 48
    for record in ranked:
        digest = RecordDigest()
        digest.absorb(record)
        text = str(Fraction(record.t_num, record.t_den))
        assert digest.to_json_obj()["thm32_min_ratio"] == text
        assert f"thm32,1,0,0,0,{text}" in digest.to_csv().splitlines()


@pytest.mark.parametrize(
    "num, den",
    [(615, 572), (1230, 1144), (4, 6), (7, 1), (12, 3), (0, 1), (0, 5), (-3, 9), (-615, 572)],
)
def test_an_added_ratio_is_written_as_fractions_writes_it(num, den) -> None:
    # state lines may carry a ratio in any terms: it is written in lowest
    # terms, with no denominator when that is 1, and the sign on the numerator
    digest = RecordDigest()
    digest.add_state_lines(0, [f"ratio {num} {den}", "slack - - - -", "last 3 3 4 6 4"])
    assert digest.to_json_obj()["thm32_min_ratio"] == str(Fraction(num, den))


@pytest.mark.parametrize("cap", [1000, 5])
def test_merged_digests_equal_the_digest_of_every_record(monkeypatch, cap) -> None:
    # split in three anywhere: the state lines of the parts' digests added
    # in order give the digest that absorbs every record, from its least
    # ratio (the first of equal ones) and its slack minima to its capped
    # violations and last point; an empty part has no last point, and so
    # no state lines.  Each record is followed by a twin that writes its ratio with
    # both terms doubled and violates lemma_h; the t = 3 points open with
    # excluded key ratios, and t = 4 holds the lemma_g equality
    monkeypatch.setattr(RecordDigest, "VIOLATION_CAP", cap)
    records = []
    for record in sweep(3, 4, 2, 2):
        checks = record.checks._replace(lemma_h="violated")
        records += [record, record._replace(t_num=2 * record.t_num, t_den=2 * record.t_den,
                                            checks=checks)]
    whole = RecordDigest()
    for record in records:
        whole.absorb(record)
    assert len(whole.violations) == min(cap, 13)
    for i, j in itertools.combinations_with_replacement(range(len(records) + 1), 2):
        merged = RecordDigest()
        for part in (records[:i], records[i:j], records[j:]):
            digest = RecordDigest()
            for record in part:
                digest.absorb(record)
            if part:
                merged.add_state_lines(len(part), digest.state_lines())
        assert merged.records == whole.records
        assert merged.state_lines() == whole.state_lines(), (i, j)
        assert (merged.to_csv(), merged.to_json_obj()) == (whole.to_csv(), whole.to_json_obj())


@pytest.mark.parametrize(
    "frame",
    [b"", b"block 1 10", b"block 1 x 5\n", b"block 1 10 5\nabc", b"error 0 11 4\nDomainErr"],
)
def test_a_short_frame_is_an_integrity_error_naming_its_worker(frame) -> None:
    message = "^sweep worker 3 died or sent a short frame before line 7$"
    with pytest.raises(IntegrityError, match=message):
        workers._read_frame(io.BytesIO(frame), 3, 7)


def test_an_error_frame_raises_its_error() -> None:
    with pytest.raises(DomainError, match="^t = 2 < 3$"):
        workers._read_frame(io.BytesIO(b"error 0 11 9\nDomainErrort = 2 < 3"), 0, 1)


def test_out_dir_environment_variable(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("CROSSINT_OUT_DIR", str(tmp_path / "outputs"))
    assert main(["frankl", "--n", "8", "--k", "4", "--t", "3"]) == 0
    produced = tmp_path / "outputs" / "frankl-8-4-3.csv"
    assert produced.exists()
    assert produced.read_text().startswith("r,size,max,tie")


def test_resolve_out_defaults_to_stdout_without_env(monkeypatch) -> None:
    monkeypatch.delenv("CROSSINT_OUT_DIR", raising=False)
    assert resolve_out(None, "anything.txt") == "-"
    assert resolve_out("given.txt", "anything.txt") == "given.txt"


def test_console_script_entry_point() -> None:
    # the module:function pyproject.toml names, called in a child as the
    # console script calls it, and the installed script when there is one
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        module, function = tomllib.load(fh)["project"]["scripts"]["crossint"].split(":")
    code = f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n"
    runs = [([sys.executable, "-c", code], dict(os.environ, PYTHONPATH=str(root / "src")))]
    exe = shutil.which("crossint")
    if exe is not None:
        runs.append(([exe], None))
    for command, env in runs:
        proc = subprocess.run(
            command + ["frankl", "--n", "8", "--k", "4", "--t", "3", "--out", "-"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "r,size,max,tie"


#: The commands that run the searches.
_SEARCHING = {"search", "verify-main-small", "verify-case4"}

#: Modules that only some commands need, and the commands that may import them.
_HEAVY_MODULES = {
    "crossint.inequalities": {"sweep-inequalities"},
    "crossint.workers": {"sweep-inequalities"},
    "crossint.stream": {"sweep-inequalities"},
    "crossint.search": _SEARCHING,
    "crossint.frankl": {"frankl"} | _SEARCHING,
    "crossint.gensets": {"genset"} | _SEARCHING,
    "crossint.constructions": {"verify-case4"},
    "crossint.reference": set(),
    "dataclasses": set(),
    "decimal": {"frankl"},
    "fractions": {"frankl"},
    "json": {"verify-main-small", "sweep-inequalities"},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["compress", "--in", "family.txt"],
        ["genset", "--in", "family.txt"],
        ["genset", "--expand", "--in", "genset.txt"],
        ["frankl", "--n", "8", "--k", "4", "--t", "3"],
        ["verify-main-small", "--n", "8", "--k", "4", "--t", "3", "--shift-trials", "5"],
        ["sweep-inequalities", "--t-max", "3", "--k-span", "1", "--n-span", "1"],
    ],
    ids=["compress", "genset", "genset-expand", "frankl", "verify-main-small", "sweep"],
)
def test_each_command_imports_only_what_it_runs(tmp_path, argv) -> None:
    # start-up is most of a short command's cost: each command compiles and
    # builds only the modules it runs, and no package module imports dataclasses
    (tmp_path / "family.txt").write_text("5 3\n1,2,3\n1,2,4\n1,3,5\n")
    (tmp_path / "genset.txt").write_text("5 3\n1,2\n")
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from crossint import cli\n"
        "rc = cli.main(sys.argv[1:] + ['--out', 'out.txt'])\n"
        "print(rc, *sorted(set(sys.modules) - before))\n"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    rc, *loaded = proc.stdout.split()
    assert rc == "0", proc.stderr
    assert "crossint.cli" in loaded
    unwanted = [
        name for name, users in _HEAVY_MODULES.items()
        if name in loaded and argv[0] not in users
    ]
    assert unwanted == []


def test_importing_cli_loads_no_layer_and_lends_each_traced_name() -> None:
    # importing cli compiles neither a layer nor the record stream; each name
    # the benchmark's tracer wraps in cli is its owner's object, imported on
    # first use, and any other name is missing as usual
    code = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        "from crossint import cli\n"
        "print(*sorted(name for name in set(sys.modules) - before if 'crossint' in name))\n"
        "for name, owner in cli._OWNERS.items():\n"
        "    assert getattr(cli, name) is getattr(importlib.import_module('crossint.' + owner), name), name\n"
        "from crossint import compression, stream\n"
        "from crossint.cli import record_to_line\n"
        "assert record_to_line is stream.record_to_line\n"
        "assert cli.left_compress is compression.left_compress\n"
        "assert cli.RecordDigest is stream.RecordDigest\n"
        "assert not hasattr(cli, 'no_such_name')\n"
    )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["crossint", "crossint.cli", "crossint.errors"]
    assert set(cli._OWNERS.values()) == {"compression", "families", "gensets", "search", "stream"}


def test_running_cli_as_a_module_imports_it_once(tmp_path) -> None:
    # python -m runs cli.py as __main__; the sweep's workers module imports
    # crossint.cli, which must be that module, not a second copy of it
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "crossint.cli", "sweep-inequalities",
         "--t-max", "3", "--k-span", "2", "--n-span", "2", "--out", "s.jsonl"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "crossint.workers" in imported
    assert "crossint.cli" not in imported
    assert len((tmp_path / "s.jsonl").read_bytes().splitlines()) > 0


def test_benchmark_tracer_finds_every_name_it_wraps() -> None:
    # perfbench/tracing.py wraps package functions and methods by name; a
    # rename or deletion must fail here, not only under `run.py --trace 1`
    root = Path(__file__).resolve().parents[1]
    code = "import sys; sys.path.insert(0, 'perfbench'); import tracing; tracing.install()"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


#: The calls of each span the benchmark's tracer wraps in cli, by command,
#: on the family and genset files of _TRACED_FILES.
_TRACED_CLI_CALLS = {
    "compress": {"cli": 1, "families.text_io": 2, "compression.left_compress": 1},
    "genset": {"cli": 1, "families.text_io": 1, "gensets.minimal_genset": 1, "gensets.text_io": 1},
    "genset --expand": {"cli": 1, "gensets.text_io": 1, "gensets.upset_k": 1, "families.text_io": 1},
}
_TRACED_FILES = {"family.txt": "5 3\n1,2,3\n1,2,4\n1,3,5\n", "genset.txt": "5 3\n1,2\n"}


def test_every_span_the_tracer_wraps_in_cli_records_its_calls(tmp_path) -> None:
    # the tracer wraps layer functions in cli's namespace; a handler that
    # reached one by another route would skip the wrapper, and its span
    # would read 0 on working code
    commands = [
        ["compress", "--in", "family.txt"],
        ["genset", "--in", "family.txt"],
        ["genset", "--expand", "--in", "genset.txt"],
        ["verify-main-small", "--n", "8", "--k", "4", "--t", "3", "--shift-trials", "5"],
    ]
    for name, text in _TRACED_FILES.items():
        (tmp_path / name).write_text(text)
    root = Path(__file__).resolve().parents[1]
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
        "import tracing\n"
        "tracer = tracing.install()\n"
        "from crossint import cli\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    before = {name: span[0] for name, span in tracer.spans.items()}\n"
        "    rc = cli.main(argv + ['--out', 'out.txt'])\n"
        "    after = {name: span[0] for name, span in tracer.spans.items()}\n"
        "    runs.append([rc, {n: c - before.get(n, 0) for n, c in after.items()}])\n"
        "print(json.dumps(runs))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [rc for rc, _ in runs] == [0, 0, 0, 0]
    wrapped_in_cli = {
        "cli", "families.text_io", "gensets.text_io", "compression.left_compress",
        "compression.is_left_compressed", "gensets.minimal_genset",
        "gensets.size_from_genset", "gensets.upset_k", "search.verify_main",
    }
    for label, (_, calls) in zip(_TRACED_CLI_CALLS, runs):
        used = {name: count for name, count in calls.items() if count and name in wrapped_in_cli}
        assert used == _TRACED_CLI_CALLS[label], label
    # verify-main-small renders its witness pairs through cli's writers
    verify = runs[3][1]
    assert verify["search.verify_main"] == 1
    for name in ("families.text_io", "gensets.text_io", "gensets.upset_k"):
        assert verify.get(name, 0) >= 1, name


def test_traced_sweep_and_resume_repeat_their_counts(tmp_path) -> None:
    # as the benchmark's traced passes do: a sweep through a checkpoint, then
    # a resume of it torn in its last record, twice in one process under
    # perfbench/tracing.py; every span's calls and every counter repeat, and
    # the resume renders and digests records
    root = Path(__file__).resolve().parents[1]
    code = (
        "import json, os, sys\n"
        f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
        "import tracing\n"
        "tracer = tracing.install()\n"
        "from crossint import cli, workers\n"
        "workers.CHECKPOINT_EVERY = 5\n"
        "argv = sys.argv[1:] + ['--out', 's.jsonl']\n"
        "def calls():\n"
        "    return {name: span[0] for name, span in tracer.spans.items()}\n"
        "def step(rc, before):\n"
        "    after = calls()\n"
        "    used = {n: c - before.get(n, 0) for n, c in after.items() if c > before.get(n, 0)}\n"
        "    return [rc, used, dict(tracer.counters)]\n"
        "rounds = []\n"
        "for _ in range(2):\n"
        "    before = calls()\n"
        "    sweep = step(cli.main(argv), before)\n"
        "    os.truncate('s.jsonl', os.path.getsize('s.jsonl') - 7)\n"
        "    before = calls()\n"
        "    rounds.append([sweep, step(cli.main(argv + ['--resume']), before)])\n"
        "print(json.dumps(rounds))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *CHECKPOINT_SWEEP],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout)
    assert first == second
    (sweep_rc, sweep, _), (resume_rc, resume, _) = first
    assert sweep_rc == resume_rc == 2  # the lemma_g equality at (15,6,7,5,4)
    # the tracer sees this process only, and the workers evaluate, render
    # and digest the records: the sweep reads and writes no record line
    # itself, and the resume parses the worker's line 12, where the stream
    # parts from it, rendered back to compare, and the torn one, too short
    # to be rendered back
    assert "cli.parse_record_line" not in sweep and "cli.record_to_line" not in sweep
    assert resume["cli.parse_record_line"] == 2
    assert resume["cli.record_to_line"] == 1
    assert "cli.digest_absorb" not in resume
    assert "inequalities.evaluate_point" not in resume
