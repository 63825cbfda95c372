import os

import pytest

from mimlab import recognize
from mimlab.cli import main


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
    assert out == "" and "does not take --" in err


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
