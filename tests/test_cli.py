import json
import os
from types import SimpleNamespace

import pytest

from mimlab import harness, recognize
from mimlab.cli import main
from mimlab.construct import complete_both_sides
from mimlab.graph import graph_to_text, path, two_color


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_grid(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code, _, _ = run(["gen", "grid", "3", "3", "--out", str(out)], capsys)
    assert code == 0
    text = out.read_text()
    assert text.startswith("graph 9 12\n")
    assert text.count("\n") == 13


def test_gen_cubic_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(["gen", "cubic", "10", "--seed", "7", "--out", str(a)], capsys)[0] == 0
    assert run(["gen", "cubic", "10", "--seed", "7", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_cubic_parity_exit_code(capsys):
    code, _, err = run(["gen", "cubic", "7"], capsys)
    assert code == 4
    assert "error" in err


def test_recognize_output(tmp_path, capsys):
    f = tmp_path / "c6.txt"
    run(["gen", "cycle", "6", "--out", str(f)], capsys)
    code, out, _ = run(["recognize", "chordal-bipartite", str(f)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "false"


def test_mimw_exact(tmp_path, capsys):
    f = tmp_path / "c6.txt"
    run(["gen", "cycle", "6", "--out", str(f)], capsys)
    code, out, _ = run(["mimw", "--exact", str(f)], capsys)
    assert code == 0
    assert out.startswith('{"value": 2, "mode": "exact"')


def test_mimw_limit_exit_code(tmp_path, capsys):
    f = tmp_path / "big.txt"
    run(["gen", "path", "12", "--out", str(f)], capsys)
    code, _, _ = run(["mimw", "--exact", str(f)], capsys)
    assert code == 3
    code, out, _ = run(["mimw", "--exact", "--exact-limit", "12", str(f)], capsys)
    assert code == 0


def test_env_limits_flags_win(tmp_path, capsys, monkeypatch):
    f = tmp_path / "p.txt"
    run(["gen", "path", "10", "--out", str(f)], capsys)
    monkeypatch.setenv("MIMLAB_LIMITS", "exact=10")
    assert run(["mimw", "--exact", str(f)], capsys)[0] == 0
    # flag overrides env back down
    assert run(["mimw", "--exact", "--exact-limit", "9", str(f)], capsys)[0] == 3


@pytest.mark.parametrize(
    "env, flags, code, err",
    [
        ("bogus=3", [], 4, "error: unknown limit 'bogus' in MIMLAB_LIMITS\n"),
        ("exact=x", [], 4, "error: bad limit value in MIMLAB_LIMITS: 'exact=x'\n"),
        ("exact", [], 4, "error: bad limit value in MIMLAB_LIMITS: 'exact'\n"),
        ("=5", [], 4, "error: unknown limit '' in MIMLAB_LIMITS\n"),
        ("tw = 5", [], 3, "error: n=8 exceeds treewidth limit 5\n"),
        (" , tw=14 ,, exact=10 ,", [], 0, ""),
        ("tw=2", [], 3, "error: n=8 exceeds treewidth limit 2\n"),
        ("tw=2", ["--tw-limit", "8"], 0, ""),
        ("tw=5", ["--tw-limit", "0"], 4, "error: tw limit must be positive, got 0\n"),
        ("tw=0", [], 4, "error: tw limit must be positive, got 0\n"),
        ("exact=-1", [], 4, "error: exact limit must be positive, got -1\n"),
        ("exact=1,exact=2,tw=-3", [], 4, "error: tw limit must be positive, got -3\n"),
    ],
)
def test_env_limits_table(env, flags, code, err, tmp_path, capsys, monkeypatch):
    # Defaults, then MIMLAB_LIMITS, then the flags, then the positivity
    # check, which covers the limit that the command does not read too.
    f = tmp_path / "g.txt"
    run(["gen", "grid", "3", "4", "--out", str(f)], capsys)
    monkeypatch.setenv("MIMLAB_LIMITS", env)
    got, out, stderr = run(["tw", *flags, str(f)], capsys)
    assert (got, stderr) == (code, err)
    assert out == ("tw 3\norder 0 3 8 11 1 4 5 2 6 7 9 10\n" if code == 0 else "")


def test_verify_eq1_honours_exact_limit(capsys, monkeypatch):
    # The corpus reaches n=10, so a limit of 3 stops it.
    assert run(["verify", "eq1", "--exact-limit", "3"], capsys)[0] == 3
    monkeypatch.setenv("MIMLAB_LIMITS", "exact=3")
    assert run(["verify", "eq1"], capsys)[0] == 3


def test_nonpositive_limits_rejected(tmp_path, capsys, monkeypatch):
    f = tmp_path / "p.txt"
    run(["gen", "path", "4", "--out", str(f)], capsys)
    code, _, err = run(["tw", "--tw-limit", "0", str(f)], capsys)
    assert code == 4 and "positive" in err
    monkeypatch.setenv("MIMLAB_LIMITS", "exact=-1")
    assert run(["mimw", "--exact", str(f)], capsys)[0] == 4


def test_unindexable_tables_exit_limit(tmp_path, capsys):
    # A table over 2^70 sets cannot be indexed.
    f = tmp_path / "p70.txt"
    run(["gen", "path", "70", "--out", str(f)], capsys)
    assert run(["mimw", "--exact", "--exact-limit", "70", str(f)], capsys)[0] == 3
    # The treewidth tables are over the kernel: K35,35 has no reducible vertex.
    k = tmp_path / "k35.txt"
    run(["gen", "complete-bipartite", "35", "35", "--out", str(k)], capsys)
    assert run(["tw", "--tw-limit", "70", str(k)], capsys)[0] == 3


def test_oversized_tables_exit_limit(tmp_path, capsys):
    # Tables over 2^40 sets exceed the byte budget: refused before any
    # allocation, whatever the limit.
    f = tmp_path / "p40.txt"
    run(["gen", "path", "40", "--out", str(f)], capsys)
    code, _, err = run(["mimw", "--exact", "--exact-limit", "40", str(f)], capsys)
    assert code == 3 and "MiB" in err
    k = tmp_path / "k20.txt"
    run(["gen", "complete-bipartite", "20", "20", "--out", str(k)], capsys)
    code, _, err = run(["tw", "--tw-limit", "40", str(k)], capsys)
    assert code == 3 and "MiB" in err


def test_usage_errors_exit_4(tmp_path, capsys):
    f = tmp_path / "p.txt"
    run(["gen", "path", "4", "--out", str(f)], capsys)
    assert run(["tw", "--tw-limit", "abc", str(f)], capsys)[0] == 4
    assert run(["recognize", "strongly-chordal", "--cycle-limit", "5", str(f)], capsys)[0] == 4
    assert run(["--help"], capsys)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "grid", "a", "3"],
        ["gen", "grid", "2.5", "3"],
        ["gen", "random-bipartite", "2", "2", "x"],
        ["construct", "circle", "x"],
        ["sweep", "--family", "split-grid", "--sizes", "2,x"],
        ["verify", "lemma31", "--n-max", "1"],
        ["verify", "lemma31", "--trials", "-1"],
    ],
)
def test_bad_numeric_input_exit_4(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 4
    assert out == "" and err.startswith("error: ")


def test_mimw_lower(tmp_path, capsys):
    f = tmp_path / "k5.txt"
    run(["gen", "complete", "5", "--out", str(f)], capsys)
    code, out, _ = run(["mimw", "--lower", str(f)], capsys)
    assert code == 0
    assert out.startswith("lower 4/15 integer 1 tw 4 degeneracy 4")


def test_tw(tmp_path, capsys):
    f = tmp_path / "k4.txt"
    run(["gen", "complete", "4", "--out", str(f)], capsys)
    code, out, _ = run(["tw", str(f)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "tw 3"


def test_construct_and_embed_pipeline(tmp_path, capsys):
    f = tmp_path / "sub.txt"
    code, _, _ = run(
        ["construct", "circle", "6", "--seed", "2", "--out", str(f)], capsys
    )
    assert code == 0
    code, out, _ = run(["embed", str(f)], capsys)
    assert code == 0
    word = out.split()
    assert len(word) == 2 * 15  # n + 3n/2 chords, two endpoints each


def test_embed_empty_graph(tmp_path, capsys):
    f = tmp_path / "e.txt"
    f.write_text("graph 0 0\n")
    assert run(["embed", str(f)], capsys) == (0, "\n", "")


def test_negative_header_counts(tmp_path, capsys):
    f = tmp_path / "neg.txt"
    for header in ("graph 3 -1", "graph -1 0"):
        f.write_text(header + "\n")
        code, _, err = run(["recognize", "split", str(f)], capsys)
        assert code == 4
        assert err == f"error: bad header line: {header!r}\n"


def test_construct_split(tmp_path, capsys):
    f = tmp_path / "p4.txt"
    run(["gen", "path", "4", "--out", str(f)], capsys)
    code, out, _ = run(["construct", "split", str(f)], capsys)
    assert code == 0
    assert out.startswith("graph 4 ")


def test_construct_cocomp(tmp_path, capsys):
    f = tmp_path / "p5.txt"
    run(["gen", "path", "5", "--out", str(f)], capsys)
    code, out, err = run(["construct", "cocomp", str(f)], capsys)
    assert (code, err) == (0, "")
    assert out == graph_to_text(complete_both_sides(two_color(path(5))).result)


def test_verify_lemma31_n_max_over_exact_limit(capsys):
    code, out, err = run(["verify", "lemma31", "--n-max", "12"], capsys)
    assert (code, out, err) == (3, "", "error: n_max=12 exceeds exact limit 9\n")


def test_recognize_violation_exit_code(tmp_path, capsys, monkeypatch):
    # A recognizer whose certificate fails its check exits 2.
    f = tmp_path / "p3.txt"
    f.write_text(graph_to_text(path(3)))
    monkeypatch.setattr(recognize, "verify_transitive_orientation", lambda g, o: False)
    code, out, err = run(["recognize", "comparability", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("violation: ")


def test_report_violation_exit_code(tmp_path, capsys, monkeypatch):
    # A violation goes to stderr and exits 2; the report is still written.
    real_verify_eq1 = harness.verify_eq1
    reports = []

    def verify_eq1_with_violation(*args, **kwargs):
        report = real_verify_eq1(*args, **kwargs)
        report.violations.append("p3.txt: mimw=0 < 1/2")
        reports.append(report)
        return report

    monkeypatch.setattr(harness, "verify_eq1", verify_eq1_with_violation)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run(["gen", "path", "3", "--out", str(corpus / "p3.txt")], capsys)
    csv = tmp_path / "r.csv"
    code, out, err = run(["verify", "eq1", "--corpus", str(corpus), "--out", str(csv)], capsys)
    assert (code, out, err) == (2, "", "violation: p3.txt: mimw=0 < 1/2\n")
    assert csv.read_text() == reports[0].to_csv()
    assert csv.read_text().splitlines()[1].split(",")[1:3] == ["p3.txt", "3"]


def test_verify_lemma31_small(capsys):
    code, out, _ = run(
        ["verify", "lemma31", "--trials", "5", "--n-max", "6", "--seed", "1"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("family,parameter,")
    assert len(lines) == 6


def test_verify_eq1_reads_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run(["gen", "path", "3", "--out", str(corpus / "p3.txt")], capsys)
    run(["gen", "cycle", "4", "--out", str(corpus / "c4.txt")], capsys)
    code, out, _ = run(["verify", "eq1", "--corpus", str(corpus)], capsys)
    assert code == 0
    rows = [line.split(",")[1:3] for line in out.splitlines()[1:]]
    assert rows == [["c4.txt", "4"], ["p3.txt", "3"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "eq1", "--trials", "5"],
        ["verify", "eq1", "--n-max", "6"],
        ["verify", "constructions", "--trials", "5"],
        ["verify", "constructions", "--n-max", "6"],
        ["verify", "lemma31", "--corpus", "."],
        ["verify", "constructions", "--seed", "5"],
        ["verify", "constructions", "--exact-limit", "2"],
        ["verify", "constructions", "--tw-limit", "1"],
        ["verify", "eq1", "--seed", "5"],
        ["verify", "lemma31", "--tw-limit", "3"],
    ],
)
def test_verify_rejects_options_of_other_suites(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 4
    assert out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--upper", "--exact-limit", "12"], "mimw --upper does not take --exact-limit"),
        (["--upper", "--tw-limit", "4"], "mimw --upper does not take --tw-limit"),
        (["--exact", "--tw-limit", "4"], "mimw --exact does not take --tw-limit"),
        (["--tw-limit", "4"], "mimw --exact does not take --tw-limit"),
        (["--lower", "--exact-limit", "12"], "mimw --lower does not take --exact-limit"),
    ],
)
def test_mimw_rejects_limits_its_mode_does_not_read(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    run(["gen", "path", "3", "--out", "g.txt"], capsys)
    code, out, err = run(["mimw", *argv, "g.txt"], capsys)
    assert code == 4
    assert out == "" and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "path", "3", "--exact-limit", "4"],
        ["gen", "path", "3", "--format", "json"],
        ["recognize", "split", "g.txt", "--seed", "1"],
        ["recognize", "split", "g.txt", "--tw-limit", "4"],
        ["mimw", "--upper", "g.txt", "--seed", "7"],
        ["mimw", "g.txt", "--format", "json"],
        ["tw", "g.txt", "--seed", "1"],
        ["tw", "g.txt", "--exact-limit", "4"],
        ["construct", "circle", "4", "--tw-limit", "4"],
        ["embed", "g.txt", "--seed", "1"],
        ["gen", "grid", "3", "3", "--seed", "5"],
        ["construct", "split", "g.txt", "--seed", "3"],
        ["construct", "cocomp", "g.txt", "--side", "X"],
        ["construct", "circle", "4", "--side", "X"],
    ],
)
def test_subcommands_reject_options_they_do_not_read(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    run(["gen", "path", "3", "--out", "g.txt"], capsys)
    code, out, err = run(argv, capsys)
    assert code == 4
    assert out == "" and "unrecognized arguments" in err


def test_verify_constructions_json(capsys):
    code, out, _ = run(
        ["verify", "constructions", "--format", "json"], capsys
    )
    assert code == 0
    assert '"violations": []' in out


def test_sweep_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--family", "circle-cubic", "--sizes", "4,6", "--seed", "3"]
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0].endswith("runtime_ms")


@pytest.mark.parametrize(
    "cls, gen, checker",
    [
        ("split", ["complete", "4"], "verify_clique"),
        ("chordal", ["cycle", "4"], "verify_cycle"),
        ("strongly-chordal", ["complete", "4"], "verify_simple_elimination_order"),
        ("chordal", ["complete", "4"], "verify_elimination_order"),
    ],
)
def test_failed_certificate_exit_code(tmp_path, capsys, monkeypatch, cls, gen, checker):
    f = tmp_path / "g.txt"
    run(["gen", *gen, "--out", str(f)], capsys)
    monkeypatch.setattr(recognize, checker, lambda *args: False)
    code, _, err = run(["recognize", cls, str(f)], capsys)
    assert code == 2
    assert "violation" in err


def test_bad_file_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("not a graph\n")
    assert run(["recognize", "split", str(f)], capsys)[0] == 4
    assert run(["mimw", str(tmp_path / "missing.txt")], capsys)[0] == 4


def test_undecodable_file_exit_code(tmp_path, capsys):
    # A byte that is not UTF-8 is a format error, not a UnicodeDecodeError.
    (tmp_path / "corpus").mkdir()
    f = tmp_path / "corpus" / "g.txt"
    f.write_bytes(b"graph 2 1\n0 1\n\xff\n")
    for argv in (
        ["mimw", str(f)],
        ["tw", str(f)],
        ["recognize", "chordal", str(f)],
        ["construct", "split", str(f)],
        ["embed", str(f)],
        ["verify", "eq1", "--corpus", str(f.parent)],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (4, "", f"error: {f}: not UTF-8 text at byte 14\n"), argv


def _rejected(g):
    """A recognizer stand-in whose verdict is always False."""
    return SimpleNamespace(verdict=False)


@pytest.mark.parametrize(
    "argv, module, name, replacement, message",
    [
        (["verify", "lemma31", "--trials", "1"], "construct",
         "split_submatching_survives", lambda rec, rep: False,
         "trial 0: sub-matching check failed"),
        (["verify", "constructions"], "recognize", "is_chordal", _rejected,
         "3-sun negative control failed"),
        (["verify", "eq1", "--corpus", "corpus"], None, "mimw_exact",
         lambda g, limit: SimpleNamespace(value=0, mode="exact"), "p3.txt: mimw=0 < 1/6"),
        (["sweep", "--family", "split-grid", "--sizes", "2"], "recognize", "is_split", _rejected,
         "k=2: completion is not split"),
    ],
    ids=["lemma31", "constructions", "eq1", "sweep"],
)
def test_suite_violation_exit_code(argv, module, name, replacement, message,
                                   tmp_path, capsys, monkeypatch):
    # Each suite's violation goes to stderr and exits 2; its CSV is still written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "p3.txt").write_text(graph_to_text(path(3)))
    monkeypatch.setattr(getattr(harness, module) if module else harness, name, replacement)
    code, out, err = run([*argv, "--out", "r.csv"], capsys)
    assert (code, out, err) == (2, "", f"violation: {message}\n")
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == ",".join(harness.CSV_COLUMNS) and len(lines) > 1


def test_header_over_vertex_cap_exit_limit(tmp_path, capsys):
    # The header is refused before a graph of its size is built.
    f = tmp_path / "huge.txt"
    f.write_text("graph 3000000 0\n")
    code, out, err = run(["mimw", "--exact", str(f)], capsys)
    assert (code, out) == (3, "")
    assert err == "error: n=3000000 exceeds the graph file vertex cap 65536\n"


def test_mimw_one_vertex_null_report(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("graph 1 0\n")
    for mode in ("--exact", "--upper"):
        code, out, err = run(["mimw", mode, str(f)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "value": 0,
            "mode": mode[2:],
            "decomposition": None,
            "critical_cut_a_side": None,
            "matching_edges": None,
        }
