import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pentaplanar
from pentaplanar import kernels
from pentaplanar.cli import _parse_range, main
from pentaplanar.enumeration import corpus
from pentaplanar.families import FAMILY_MAX_N
from pentaplanar.graphs import GraphError, parse_graph6

from .test_verification import _falling_cycle_counts


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_count_flag(capsys):
    code, out, _ = run(capsys, "construct", "--family", "dn", "--n", "6", "--count")
    assert code == 0 and out.strip() == "24"
    code, out, _ = run(capsys, "construct", "--family", "a11", "--count")
    assert code == 0 and out.strip() == "144"
    # verified count for the joined-apexes family (the oft-quoted 20 is wrong)
    code, out, _ = run(capsys, "construct", "--family", "en", "--n", "6", "--count")
    assert code == 0 and out.strip() == "18"
    for k, c5 in enumerate((36, 60, 79, 80, 110, 144)):
        code, out, _ = run(capsys, "construct", "--family", f"exc{k}", "--count")
        assert code == 0 and out.strip() == str(c5), k


def test_construct_graph_output(tmp_path, capsys):
    out_file = tmp_path / "d7.g6"
    code, _, _ = run(capsys, "construct", "--family", "dn", "--n", "7",
                     "--out", str(out_file))
    assert code == 0
    g = parse_graph6(out_file.read_text())
    assert g.n == 7 and g.m == 15

    code, out, _ = run(capsys, "construct", "--family", "dn", "--n", "7",
                       "--format", "edgelist")
    assert code == 0
    assert out.splitlines()[0] == "7 15"


def test_construct_usage_errors(capsys):
    code, _, err = run(capsys, "construct", "--family", "zz")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "construct", "--family", "dn", "--n", "3")
    assert code == 2
    # a fixed-size family refuses any other --n instead of ignoring it
    for fam, n in (("a8", 9), ("a11", 8), ("exc2", 4), ("exc5", 12)):
        code, out, err = run(capsys, "construct", "--family", fam, "--n", str(n))
        assert code == 2 and err.startswith("error:") and out == "", (fam, n)
    code, out, _ = run(capsys, "construct", "--family", "a8", "--n", "8")
    assert code == 0 and parse_graph6(out.strip()).n == 8
    # refused by the size cap before any adjacency row is built
    for fam, n in (("dn", FAMILY_MAX_N + 1), ("en", 10 ** 8)):
        code, _, err = run(capsys, "construct", "--family", fam, "--n", str(n))
        assert code == 2 and err.startswith("error:"), (fam, n)


def test_worker_and_variant_counts_are_usage_errors(capsys):
    # refused before any level is built or any pool starts
    for argv in (("enumerate", "--n", "12", "--workers", "0"),
                 ("enumerate", "--n", "12", "--workers", "100000"),
                 ("verify", "--n", "12", "--workers", "-1"),
                 ("verify", "--n", "12", "--variants", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and out == "", argv


def test_count_command(tmp_path, capsys):
    f = tmp_path / "k4.txt"
    f.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "count", str(f), "--k", "3")
    assert code == 0 and out.strip() == "4"

    code, out, _ = run(capsys, "count", str(f), "--json", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["c3"] == 4 and payload["c4"] == 3 and payload["c5"] == 0

    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "count", str(bad))
    assert code == 2


def test_count_d7_graph6(tmp_path, capsys):
    g6 = tmp_path / "d7.g6"
    code, _, _ = run(capsys, "construct", "--family", "dn", "--n", "7",
                     "--out", str(g6))
    code, out, _ = run(capsys, "count", str(g6), "--k", "5", "--oracle")
    assert code == 0 and out.strip() == "41"


def test_enumerate_command(tmp_path, capsys):
    out_file = tmp_path / "corpus.g6"
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--out", str(out_file),
                       "--json")
    assert code == 0
    cert = json.loads(out)
    assert cert["n"] == 5 and cert["count"] == 1
    lines = out_file.read_text().splitlines()
    assert len(lines) == 1
    assert parse_graph6(lines[0]).n == 5

    code, out, _ = run(capsys, "enumerate", "--n", "6", "--json")
    assert json.loads(out)["count"] == 2

    code, _, _ = run(capsys, "enumerate", "--n", "20")
    assert code == 2


def test_count_json_text_of_a8(tmp_path, capsys):
    # the exact stdout: keys in this order, two-space indent, one newline
    g6 = tmp_path / "a8.g6"
    run(capsys, "construct", "--family", "a8", "--out", str(g6))
    code, out, _ = run(capsys, "count", str(g6), "--json")
    per_edge = [[0, 1, 18], [0, 2, 18], [0, 3, 16], [0, 4, 18], [0, 5, 16], [0, 7, 16],
                [1, 2, 18], [1, 3, 16], [1, 4, 18], [1, 5, 16], [1, 6, 16], [2, 3, 16],
                [2, 4, 18], [2, 6, 16], [2, 7, 16], [4, 5, 16], [4, 6, 16], [4, 7, 16]]
    assert code == 0 and out == json.dumps({
        "schema_version": 1, "n": 8, "m": 18, "c3": 16, "c4": 33, "c5": 60,
        "per_vertex_c5": [51, 51, 51, 24, 51, 24, 24, 24],
        "per_edge_c5": per_edge,
    }, indent=2) + "\n"


def test_enumerate_json_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--json")
    assert code == 0 and out == (
        '{\n'
        '  "schema_version": 1,\n'
        '  "n": 6,\n'
        '  "count": 2,\n'
        '  "digest": "3e3c014200950841e151c2adfea66db28a1911475ba27f0fc947f9d77c8b802d"\n'
        '}\n'
    )


def test_enumerate_workers_deterministic(capsys):
    code, a, _ = run(capsys, "enumerate", "--n", "7", "--json", "--workers", "1")
    code, b, _ = run(capsys, "enumerate", "--n", "7", "--json", "--workers", "8")
    assert json.loads(a) == json.loads(b)


def test_verify_single_n(capsys):
    code, out, _ = run(capsys, "verify", "--n", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    cert = payload["certificates"][0]
    assert cert["max_c5"] == 60
    assert sorted(e["family"] for e in cert["extremal"]) == ["A", "D"]
    assert payload["monotonicity"]["passed"]


def test_verify_lemmas_only_with_variants(capsys):
    code, out, _ = run(capsys, "verify", "--n", "6..7", "--lemmas-only",
                       "--variants", "20", "--json", "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["certificates"]) == 2
    assert payload["variants"]["count"] == 20
    for stats in payload["variants"]["lemmas"].values():
        assert stats["violations"] == 0


def test_verify_range_guard(capsys):
    code, _, err = run(capsys, "verify", "--n", "13")
    assert code == 2 and "allow-big" in err


def test_removed_bench_command_is_a_usage_error(capsys):
    # argparse rejects the unknown subcommand: exit 2, usage on stderr
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_roundtrip_every_family_with_oracle(tmp_path, capsys):
    """construct -> count --oracle holds for every family name, n = 5..20."""
    jobs = [("a8", None), ("a11", None)] + [(f"exc{i}", None) for i in range(6)]
    jobs += [(fam, n) for fam in ("dn", "en") for n in range(5, 21)]
    for fam, n in jobs:
        path = tmp_path / f"{fam}{n or ''}.g6"
        argv = ["construct", "--family", fam, "--out", str(path)]
        if n is not None:
            argv += ["--n", str(n)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        code, _, err = run(capsys, "count", str(path), "--oracle")
        assert code == 0, (fam, n, err)


@pytest.fixture
def pools(monkeypatch, pool_rounds):
    """`pool_rounds` (the rounds of every process pool opened, each round
    its chunk sizes), on a fresh level cache."""
    from pentaplanar import enumeration

    monkeypatch.setattr(enumeration, "_LEVELS", {})
    return pool_rounds


def test_verify_opens_one_level_pool_and_one_check_pool_per_n(capsys, monkeypatch, pools):
    """verify grows its top level once, so each level is grown once for
    every n; growing a level and checking one each open a pool when it has
    more than 100 classes per worker, with or without --lemmas-only."""
    from pentaplanar import enumeration

    for lemmas_only in ((), ("--lemmas-only",)):
        pools.clear()
        monkeypatch.setattr(enumeration, "_LEVELS", {})
        code, out, _ = run(capsys, "verify", "--n", "5..11", "--workers", "2",
                           "--json", *lemmas_only)
        payload = json.loads(out)
        assert code == 0 and payload["certificates"][-1]["lemmas"]
        assert lemmas_only or payload["monotonicity"]["passed"]
        # level 10 has more than 100 * 2 parents, so one pool grows level
        # 11; one pool each checks n = 10 and 11; each pool takes its items
        # in one round of 4 * 2 chunks
        rounds = [[(sum(r), len(r)) for r in pool] for pool in pools]
        assert rounds == [[(233, 8)], [(233, 8)], [(1249, 8)]], lemmas_only


def test_verify_variants_grow_their_levels_with_workers(capsys, pools):
    """--variants samples the levels up to n = 12; verify grows them with
    --workers, like the checked levels."""
    code, out, _ = run(capsys, "verify", "--n", "5", "--lemmas-only",
                       "--variants", "20", "--workers", "2", "--json")
    assert code == 0 and json.loads(out)["variants"]["count"] == 20
    # levels 10 and 11 have more than 100 * 2 parents, so one pool grows
    # level 11 and one level 12; the single class at n = 5 and the 20
    # variants need no check pool; each pool takes its parents in one round
    # of 4 * 2 chunks
    assert [[(sum(r), len(r)) for r in pool] for pool in pools] == [[(233, 8)], [(1249, 8)]]


def test_verify_monotonicity_grows_its_levels_with_workers(capsys, pools):
    """The monotonicity check samples the levels up to n = 11; verify grows
    them with --workers, like the checked levels, and stdout does not
    change."""
    code, out, _ = run(capsys, "verify", "--n", "5", "--workers", "2", "--json")
    assert code == 0 and json.loads(out)["monotonicity"]["passed"]
    # level 10 has more than 100 * 2 parents, so one pool grows level 11 in
    # one round of 4 * 2 chunks; the single class at n = 5 needs no check pool
    assert [[(sum(r), len(r)) for r in pool] for pool in pools] == [[(233, 8)]]
    code, serial, _ = run(capsys, "verify", "--n", "5", "--workers", "1", "--json")
    assert code == 0 and serial == out


def test_verify_variants_check_in_one_pool_with_worker_independent_output(capsys, pools):
    """Above 100 variants per worker, --variants embeds and checks them in
    one process pool, and the output equals the serial run's."""
    args = ("verify", "--n", "5", "--lemmas-only", "--variants", "300", "--json")
    code, serial, _ = run(capsys, *args, "--workers", "1")
    assert code == 0 and pools == []
    code, pooled, _ = run(capsys, *args, "--workers", "2")
    # the levels are cached by now, so the one pool is the variant sweep's
    assert code == 0 and [[(sum(r), len(r)) for r in pool] for pool in pools] == [[(300, 8)]]
    assert pooled == serial


def test_variant_sweep_memory_does_not_grow_with_count(capsys):
    """verify --variants checks one variant at a time: the traced peak for
    2000 variants stays within 1.5x of the peak for 200."""
    corpus(12)  # the variants come from the cached levels 5..12
    # fill CPython's tuple free lists first: tracemalloc counts their blocks,
    # so without this the peak would grow with them up to their cap
    spare = [tuple(range(k)) for k in range(1, 21) for _ in range(2000)]
    del spare
    peaks = {}
    for count in (200, 2000):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "verify", "--n", "5", "--lemmas-only",
                               "--variants", str(count), "--json", "--workers", "1")
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["variants"]["count"] == count
    assert peaks[2000] <= 1.5 * peaks[200], peaks


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a mismatch to exercise the nonzero-exit contract
    from pentaplanar import verification

    monkeypatch.setattr(verification, "expected_max_c5", lambda n: 10 ** 9)
    code, out, _ = run(capsys, "verify", "--n", "6")
    assert code == 1
    assert "FAIL" in out


def test_verify_monotonicity_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(kernels, "cycle_counts", _falling_cycle_counts)
    code, out, _ = run(capsys, "verify", "--n", "5", "--workers", "1")
    assert code == 1
    assert out.splitlines()[-1] == "monotonicity: FAIL (2114 edge additions, seed=42)"


def test_malformed_edge_list_is_a_usage_error(tmp_path, capsys):
    # a header n above the graph6 limit is refused before any allocation
    for text in ("2 1\n0 x\n", "x 1\n0 1\n", "2 1\n0 ²\n", "258048 0\n",
                 "100000000000 0\n"):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        code, _, err = run(capsys, "count", str(f))
        assert code == 2 and err.startswith("error:"), text


def test_non_ascii_graph6_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.g6"
    f.write_text("Dé\n", encoding="utf-8")
    code, _, err = run(capsys, "count", str(f))
    assert code == 2 and err.startswith("error:")
    f.write_bytes(b"\xff\xfe\n")
    code, _, err = run(capsys, "count", str(f))
    assert code == 2 and err.startswith("error:")


def test_verify_malformed_range_is_a_usage_error(capsys):
    for text in ("5..x", "5..", "x", ""):
        code, _, err = run(capsys, "verify", "--n", text)
        assert code == 2 and err.startswith("error:"), text
    # the range is checked before it is materialised
    code, _, err = run(capsys, "verify", "--n", f"5..{10 ** 12}")
    assert code == 2 and "5..12" in err


def test_closed_stdout_exits_1_without_an_error_line():
    # the n = 12 dump (about 100 KB) outgrows the pipe, so the run is still
    # writing when the reader closes it after one line, as `| head -1` does
    src = str(Path(pentaplanar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pentaplanar", "enumerate", "--n", "12", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )
    assert proc.stdout.readline().startswith(b"K")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet="0123456789.-x ", max_size=12))
def test_parse_range_returns_or_raises_graph_error(text):
    try:
        ns = _parse_range(text)
    except GraphError:
        return
    assert isinstance(ns, range)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=40) | st.text(alphabet="0123456789 \n?@ABC~", max_size=40))
def test_count_on_arbitrary_text_exits_0_or_2(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz-count.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["count", str(path)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
