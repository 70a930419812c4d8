"""The command-line surface: subcommands, exit codes, output files, the
deterministic record stream with its crash-safe resume, and the summary
emitters.

Most tests drive ``main(argv)`` in-process; one test goes through the
installed console script to pin the packaging entry point.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from crossint import cli, constructions, inequalities, search
from crossint.cli import (
    RecordDigest,
    main,
    parse_record_line,
    record_to_line,
    resolve_out,
)
from crossint.errors import IntegrityError
from crossint.families import read_family
from crossint.gensets import read_genset, upset_k
from crossint.inequalities import SweepSummary, evaluate_point, iter_grid, sweep
from crossint.records import CHECK_ORDER, Checks, Values, VerificationRecord


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
    tmp_path, monkeypatch, argv, text
) -> None:
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text(text)
    out.write_text("previous\n")
    monkeypatch.setattr(os, "replace", _refuse_replace)
    full = argv + ["--in", str(src), "--out", str(out)]
    with pytest.raises(OSError, match="no replace"):
        main(full)
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
    first = next(
        row
        for check in constructions.verify_section4_constructions(10, 6).checks
        for row in check.rows
        if row.relation == ">" and row.guard_met
    )
    monkeypatch.setitem(constructions._RELATIONS, ">", lambda a, b: False)
    out = tmp_path / "case4.json"
    assert main(["verify-case4", "--n", "10", "--k", "6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"integrity: {first.construction}: {first.label}: " in err
    assert not out.exists()
    # the same failed row outside its hypothesis is recorded, not raised
    builder = constructions._ReportBuilder(10, 6, 3).construction(first.construction)
    assert not builder.row(first.label, first.lhs, ">", first.rhs, first.guard, guard_met=False)
    assert builder.rows[-1].holds is False


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


def test_out_write_failure_keeps_the_previous_file(tmp_path, monkeypatch) -> None:
    out = tmp_path / "frankl.csv"
    out.write_text("previous\n")

    def refuse(src, dst):
        raise OSError(f"no replace of {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    argv = ["frankl", "--n", "8", "--k", "4", "--t", "3", "--out", str(out)]
    with pytest.raises(OSError, match="no replace"):
        main(argv)
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


def test_sweep_digests_each_record_once(tmp_path, monkeypatch) -> None:
    calls = {"digest": 0, "summary": 0}
    digest_absorb, summary_absorb = RecordDigest.absorb, SweepSummary.absorb

    def count(name, absorb):
        def counted(self, record):
            calls[name] += 1
            absorb(self, record)
        return counted

    monkeypatch.setattr(RecordDigest, "absorb", count("digest", digest_absorb))
    monkeypatch.setattr(SweepSummary, "absorb", count("summary", summary_absorb))
    out = tmp_path / "once.jsonl"
    assert _sweep_to(out) == 0
    assert calls == {"digest": 8, "summary": 0}
    # a resume digests the kept records as it reads them, the rest as it writes
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(b"".join(lines[:5]) + lines[5][:30])
    assert _sweep_to(out, resume=True) == 0
    assert calls == {"digest": 16, "summary": 0}


def test_sidecar_write_failure_keeps_the_previous_sidecar(tmp_path, monkeypatch) -> None:
    out = tmp_path / "s.jsonl"
    assert _sweep_to(out) == 0
    before = _snapshot(tmp_path)
    (tmp_path / "s.jsonl.summary.csv").write_text("previous\n")
    (tmp_path / "s.jsonl.summary.json").write_text("previous\n")

    def refuse(src, dst):
        raise OSError(f"no replace of {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="no replace"):
        _sweep_to(out)
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


def test_resume_walks_the_grid_once(tmp_path, monkeypatch) -> None:
    # the reader checks the kept records against the grid walk, and the sweep
    # goes on from where that walk stands: kept plus evaluated points are the
    # grid, each stepped once
    out = tmp_path / "walk.jsonl"
    assert _sweep_to(out) == 0
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(b"".join(lines[:5]) + lines[5][:30])
    walk, flat = inequalities._grid_points, inequalities.evaluate_point
    steps, evaluated = [], []

    def profile(frame, event, arg) -> None:
        # the walk's generator frame returns once per point it yields, under
        # whatever name the walk was called
        if event == "return" and frame.f_code is walk.__code__ and arg is not None:
            steps.append(arg)

    def counting_evaluate(*point):
        evaluated.append(point)
        return flat(*point)

    monkeypatch.setattr(inequalities, "evaluate_point", counting_evaluate)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert _sweep_to(out, resume=True) == 0
    finally:
        sys.setprofile(previous)
    assert steps == list(walk(3, 3, 2, 3))
    assert len(steps) == 5 + len(evaluated) == len(lines) == 8


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


@pytest.mark.parametrize(
    "good, bad",
    [
        pytest.param(b'"thm32":"holds"', b'"thm32":"holdz"', id="unknown status"),
        pytest.param(b'"lemma_h":"holds"', b'"lemma_hh":"holds"', id="unknown check name"),
        pytest.param(b'"lemma_h_slack":"', b'"lemma_hh_slack":"', id="missing slack"),
        pytest.param(b'"lemma_h_slack":"', b'"lemma_h_slack":"x', id="unreadable slack"),
        pytest.param(b'"S1":"', b'"S9":"', id="unknown value name"),
        pytest.param(b'"lemma_h_slack":"', b'"lemma_h_slack":"1_', id="underscored slack"),
        pytest.param(b'"lemma_f_slack":"', b'"lemma_f_slak":"', id="excluded slack renamed"),
        # a duplicate key: json.loads keeps the last "S1", and no lemma_h_slack
        pytest.param(b',"lemma_h_slack":"', b',"S1":"', id="dropped slack"),
    ],
)
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


def _grid_sweep(path, *flags: str) -> int:
    argv = ["sweep-inequalities", "--t-max", "3", "--k-span", "3", "--out", str(path)]
    return main(argv + list(flags))


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


def test_parse_record_line_errors_name_the_line() -> None:
    for lineno, line in (
        (7, "{broken"),
        (9, '["list", "not", "object"]'),
        (2, '{"n": 18}'),
        (3, _FLAGSHIP[: _FLAGSHIP.index(',"values"')] + "}"),
    ):
        with pytest.raises(IntegrityError, match=f"^line {lineno}: {_NOT_A_RECORD}$"):
            parse_record_line(lineno, line)


@pytest.mark.parametrize(
    "good, bad",
    [
        pytest.param('"n":18', '"n":18.9', id="float n"),
        pytest.param('"n":18', '"n":true', id="boolean n"),
        pytest.param('"k":7', '"k":"7"', id="string k"),
        pytest.param('"T_num":"615"', '"T_num":615.0', id="number T_num"),
        pytest.param('"T_num":"615"', '"T_num":"615.0"', id="non-decimal T_num"),
        pytest.param('"T_den":"572"', '"T_den":"0"', id="zero T_den"),
        pytest.param('"thm32":"holds"', '"thm32":1', id="number status"),
        pytest.param('"S1":"', '"S1":null,"x":"', id="null value"),
        pytest.param('"checks":{', '"checks":["holds"],"c":{', id="checks list"),
    ],
)
def test_parse_record_line_refuses_wrong_types(good, bad) -> None:
    # each of these used to be converted silently (18.9 read as 18, true as
    # 1, "thm32": 1 as the status "1") and kept as it stands on --resume
    assert good in _FLAGSHIP
    damaged = _FLAGSHIP.replace(good, bad, 1)
    with pytest.raises(IntegrityError, match=f"^line 4: {_NOT_A_RECORD}$"):
        parse_record_line(4, damaged)


def test_parse_record_line_refuses_malformed_values() -> None:
    # int() reads "1_13" as 113 and the Arabic-Indic digits as 82, so only
    # the pattern of the written bytes tells these from the record
    for good, bad in (
        ('"S1":"82"', '"S9":"82"'),
        ('"S1":"82"', '"S1":"1_13"'),
        ('"S1":"82"', '"S1":" 82"'),
        ('"S1":"82"', '"S1":"\u0668\u0662"'),
        (',"lemma_h_slack":"26"', ""),
    ):
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
    lines = _grid_lines(tmp_path)
    rng = random.Random(20241)
    alphabet = '0123456789-+.eE"\\:,{}[] xSTl_'
    refused = 0
    for _ in range(4000):
        line = rng.choice(lines)
        at = rng.randrange(len(line))
        kind = rng.randrange(3)  # delete, replace or insert one character
        if kind == 0:
            line = line[:at] + line[at + 1:]
        else:
            line = line[:at + (kind == 2)] + rng.choice(alphabet) + line[at + 1:]
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
    pattern = cli._CANONICAL_LINE
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
    assert len(fresh._by_checks) > 1
    assert list(both._by_checks) == list(fresh._by_checks)
    for (records, *implied), (fresh_records, *fresh_implied) in zip(
        both._by_checks.values(), fresh._by_checks.values()
    ):
        assert records == 2 * fresh_records
        assert implied == fresh_implied


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
    # the digest keeps its least key ratio as two ints and its last point as
    # its last record: over every line of a sweep with lemma exclusions and
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
    assert parsed.min_ratio == fresh.min_ratio == min(
        Fraction(r.t_num, r.t_den) for r in records if r.checks.thm32 != "excluded"
    )
    assert parsed.last_point == fresh.last_point == records[-1].point
    assert fresh.violations == [(15, 6, 7, 5, 4, "lemma_g")]
    assert fresh.min_slack == {
        name: min(
            getattr(r.values, name + "_slack")
            for r in records
            if getattr(r.checks, name) != "excluded"
        )
        for name in ("lemma_f", "lemma_g", "lemma_h", "lemma_phi")
    }
    assert fresh.min_slack["lemma_g"] == 0
    assert fresh.status_counts["lemma_f"]["excluded"] > 0


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
    assert digest.min_ratio == Fraction(615, 572)
    assert digest.violation_count == 0
    # lemma_f is excluded at this triple, so it contributes no slack minimum
    assert "lemma_f" not in digest.min_slack
    assert digest.min_slack["lemma_g"] == record.values.lemma_g_slack


def test_min_ratio_skips_excluded_points() -> None:
    excluded = evaluate_point(12, 5, 6, 4, 3)
    assert excluded.checks.thm32 == "excluded"
    digest = RecordDigest()
    digest.absorb(excluded)
    assert digest.min_ratio is None
    digest.absorb(evaluate_point(18, 7, 8, 6, 5))
    assert digest.min_ratio == Fraction(615, 572)


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
    exe = shutil.which("crossint")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "frankl", "--n", "8", "--k", "4", "--t", "3", "--out", "-"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "r,size,max,tie"


#: Modules that only some commands need, and the commands that may import them.
_HEAVY_MODULES = {
    "crossint.inequalities": {"sweep-inequalities"},
    "crossint.constructions": {"verify-case4"},
    "dataclasses": set(),
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
