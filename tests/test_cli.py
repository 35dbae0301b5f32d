"""Command line interface: subcommands, formats, exit codes."""

import contextlib
import io
import json
import sys

import pytest

from matchcov import SpliceNode, g_family_closure
from matchcov.cli import (
    EXIT_BOUND,
    EXIT_COUNTEREXAMPLE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from matchcov.graphio import encode_graph6, format_mg
from matchcov.wheels import cert_to_obj, simple_wheel
from matchcov.zoo import complete_bipartite, complete_graph, cycle_graph, prism_graph


def run_cli(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse-level usage errors
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_analyze_stdin_graph6():
    code, out, _ = run_cli(["analyze", "-"], stdin="C~\n")
    assert code == EXIT_PASS
    rep = json.loads(out)
    assert rep["n"] == 4 and rep["m"] == 6
    assert rep["matching_covered"] and rep["brick"] and rep["bicritical"]
    assert rep["solid"] and rep["minimal"]
    assert rep["wheel_like_hubs"] == [0, 1, 2, 3]
    assert len(rep["removable_doubletons"]) == 3
    assert rep["removable_singles"] == []
    assert rep["status"] == "ok"


def test_analyze_mg_file(tmp_path):
    path = tmp_path / "prism.mg"
    path.write_text(format_mg(prism_graph()))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(["analyze", str(path), "--out", str(out_path)])
    assert code == EXIT_PASS
    rep = json.loads(out_path.read_text())
    assert rep["n"] == 6 and rep["brick"]
    assert rep["wheel_like_hubs"] == []


def test_analyze_not_matching_covered():
    code, out, _ = run_cli(["analyze", "-"], stdin="4 3\n0 1\n1 2\n2 3\n")
    assert code == EXIT_PASS
    rep = json.loads(out)
    assert rep["matching_covered"] is False
    assert rep["status"] == "not matching covered"


def test_analyze_bipartite_above_pm_cap():
    code, out, _ = run_cli(["analyze", "-"], stdin=format_mg(cycle_graph(26)))
    assert code == EXIT_PASS
    rep = json.loads(out)
    assert rep["status"] == "ok" and rep["brace"] is None
    assert "brace: perfect matching enumeration capped at 24 vertices" in rep["skipped"]


def test_analyze_dense_above_pm_budget():
    # K11,11 is under the vertex cap, but its table of perfect matchings is
    # past the matching budget: the brace verdict is refused, not a crash.
    code, out, _ = run_cli(["analyze", "-"], stdin=format_mg(complete_bipartite(11, 11)))
    assert code == EXIT_PASS
    rep = json.loads(out)
    assert rep["status"] == "ok" and rep["brace"] is None
    assert "brace: perfect matching enumeration capped at 524288 matchings" in rep["skipped"]


def test_analyze_malformed_input():
    code, _, err = run_cli(["analyze", "-"], stdin="garbage here\n")
    assert code == EXIT_USAGE
    assert "matchcov:" in err


def test_analyze_missing_file(tmp_path):
    # An input or output path the CLI cannot use is a usage problem (exit 2
    # with a message), not a traceback (exit 1, a counterexample's code).
    k4 = tmp_path / "k4.g6"
    k4.write_text("C~\n")
    latin = tmp_path / "latin1.mg"
    latin.write_bytes("4 6\n0 1\n# \xe9\n".encode("latin-1"))
    for argv in (
        ["analyze", "/nonexistent/graph.mg"],
        ["analyze", str(tmp_path)],
        ["analyze", str(k4), "--out", str(tmp_path)],
        ["verify", "thm-1.1", "--corpus", str(tmp_path)],
        ["analyze", str(latin)],
    ):
        code, _, err = run_cli(argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith("matchcov: "), argv


def test_verify_small_campaign():
    code, out, _ = run_cli(["verify", "thm-1.1", "--max-n", "4"])
    assert code == EXIT_PASS
    rep = json.loads(out)
    assert rep["campaign"] == "thm-1.1"
    assert rep["summary"]["status"] == "pass"


def test_verify_out_file(tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", "thm-1.1", "--max-n", "4", "--out", str(out_path)])
    assert code == EXIT_PASS
    rep = json.loads(out_path.read_text())
    assert rep["campaign"] == "thm-1.1"


def test_verify_unknown_campaign():
    code, _, err = run_cli(["verify", "thm-9.9"])
    assert code == EXIT_USAGE
    assert "matchcov:" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--wheels", "3,4"],
        ["--wheels", "1"],
        ["--mult-bound", "0"],
        ["--doubles", "-1"],
        # A repeated rim length would make the same splices twice.
        ["--wheels", "3,3"],
    ],
)
def test_verify_lemma39_bad_parameters(flags):
    assert main(["verify", "lemma-3.9", "--jobs", "1", *flags]) == EXIT_USAGE


@pytest.mark.parametrize(
    "command, code",
    [
        *(
            (f"{name} --mult-bound 0", EXIT_USAGE)
            for name in ("lemma-2.16", "lemma-2.17", "lemma-2.18", "lemma-3.6", "lemma-3.9", "thm-1.3")
        ),
        ("decomp-unique --seeds 1", EXIT_USAGE),
        ("decomp-unique --corpus CORPUS --seeds 1", EXIT_USAGE),
        ("thm-1.1 --corpus CORPUS --seeds 1", EXIT_USAGE),
        ("thm-1.1 --jobs 0", EXIT_USAGE),
        ("thm-1.1 --corpus CORPUS --jobs 0", EXIT_USAGE),
        ("thm-1.1 --corpus CORPUS --max-n 6", EXIT_USAGE),
        ("lemma-3.9 --wheels 3,4", EXIT_USAGE),
        ("lemma-3.9 --wheels 3,3", EXIT_USAGE),
        ("lemma-3.9 --doubles -1", EXIT_USAGE),
        # Enumeration stops at 10 vertices, and these populations reach 12.
        *((f"{name} --max-n 12", EXIT_BOUND) for name in ("thm-1.1", "thm-1.4", "prop-3.13", "decomp-unique")),
        ("thm-1.3 --max-n 12", EXIT_BOUND),
    ],
)
def test_verify_refuses_before_any_work(monkeypatch, tmp_path, command, code):
    import matchcov.campaigns as campaigns

    def no_work(*args, **kwargs):
        raise AssertionError("population built before the parameters were checked")

    for kernel in ("enumerate_connected_graphs", "multiplicity_classes", "spoke_vectors"):
        monkeypatch.setattr(campaigns, kernel, no_work)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(encode_graph6(complete_graph(4)) + "\n")
    argv = [str(corpus) if a == "CORPUS" else a for a in command.split()]
    assert run_cli(["verify", *argv])[0] == code


@pytest.mark.parametrize("campaign", ["lemma-3.6", "lemma-2.17"])
def test_verify_refuses_mult_bound_below_one(campaign):
    # No multiplicity vector has entries below 1, so the multigraph
    # population would be empty and the gate would test nothing.
    code, _, err = run_cli(["verify", campaign, "--jobs", "1", "--mult-bound", "0"])
    assert code == EXIT_USAGE
    assert "mult_bound" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_refuses_fewer_than_one_job(jobs):
    # Every run honours --jobs or refuses it, rather than run serially unrecorded.
    code, _, err = run_cli(["verify", "thm-1.1", "--max-n", "4", "--jobs", jobs])
    assert code == EXIT_USAGE
    assert "jobs" in err


@pytest.mark.parametrize("seeds", ["1", "0"])
def test_verify_decomp_refuses_fewer_than_two_seeds(seeds):
    # One seed compares no two decompositions, so the gate would test nothing.
    argv = ["verify", "decomp-unique", "--max-n", "6", "--jobs", "1", "--seeds", seeds]
    code, _, err = run_cli(argv)
    assert code == EXIT_USAGE
    assert "seeds" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--jobs", "0"],
        ["--seeds", "-5"],
        ["--seeds", "1"],
        ["--max-n", "6"],
        ["--mult-bound", "3"],
        ["--seed", "4"],
        ["--wheels", "3,5"],
        ["--doubles", "2"],
    ],
)
def test_verify_corpus_refuses_ignored_parameters(tmp_path, flags):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(encode_graph6(cycle_graph(6)) + "\n")
    code, _, err = run_cli(["verify", "decomp-unique", "--corpus", str(corpus), *flags])
    assert code == EXIT_USAGE
    assert flags[0][2:] in err


@pytest.mark.parametrize("text", ["not a graph\n", None])
def test_verify_corpus_refuses_before_reading(tmp_path, text):
    # The flags are refused before the file is read, so a malformed or
    # missing corpus still gets the flag's refusal, not a read error.
    corpus = tmp_path / "bad.g6"
    if text is not None:
        corpus.write_text(text)
    code, _, err = run_cli(["verify", "thm-1.1", "--corpus", str(corpus), "--max-n", "6"])
    assert code == EXIT_USAGE
    assert "--max-n" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["lemma-3.9", "--wheels", ","],
        ["thm-1.4", "--max-n", "2"],
        ["prop-3.13", "--max-n", "3"],
        ["thm-1.1", "--max-n", "2"],
    ],
)
def test_verify_empty_run_fails(flags):
    # A run that checks no graph has tested nothing, so it cannot pass.
    code, out, _ = run_cli(["verify", *flags, "--jobs", "1"])
    rep = json.loads(out)
    assert code == EXIT_COUNTEREXAMPLE
    assert rep["graphs_checked"] == 0 and rep["summary"]["status"] == "fail"


def test_verify_counterexample_exit(monkeypatch):
    import matchcov.cli as cli_mod

    def fake(name, **params):
        return {
            "schema": 1,
            "campaign": name,
            "parameters": {},
            "graphs_checked": 1,
            "summary": {"status": "fail"},
            "counterexamples": [{"canon": "00"}],
            "wall_clock_seconds": 0.0,
        }

    monkeypatch.setattr(cli_mod, "run_campaign", fake)
    code, out, _ = run_cli(["verify", "thm-1.1", "--max-n", "4"])
    assert code == EXIT_COUNTEREXAMPLE
    assert json.loads(out)["summary"]["status"] == "fail"


def test_verify_corpus_graph6(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(
        encode_graph6(complete_graph(4)) + "\n" + encode_graph6(prism_graph()) + "\n"
    )
    code, out, _ = run_cli(["verify", "thm-1.1", "--corpus", str(corpus)])
    assert code == EXIT_PASS
    rep = json.loads(out)
    assert rep["summary"]["applied"] == 2
    assert rep["parameters"]["corpus"] == "corpus.g6"


def test_verify_corpus_mg_blocks(tmp_path):
    corpus = tmp_path / "corpus.mg"
    corpus.write_text(format_mg(complete_graph(4)) + "\n" + format_mg(cycle_graph(6)))
    code, out, _ = run_cli(["verify", "decomp-unique", "--corpus", str(corpus), "--seeds", "3"])
    assert code == EXIT_PASS
    summary = json.loads(out)["summary"]
    # K4 is a brick (no nontrivial tight cut), so only C6 exercises the claim
    assert summary["applied"] == 1
    assert summary["skipped_hypotheses"] == 1


def test_verify_corpus_bound(tmp_path):
    corpus = tmp_path / "big.g6"
    corpus.write_text(encode_graph6(simple_wheel(9)[0]) + "\n")
    # No vertex ceiling on a wheel: it is a leaf of its own certificate.
    code, out, _ = run_cli(["verify", "thm-1.3", "--corpus", str(corpus)])
    assert code == EXIT_PASS
    assert json.loads(out)["summary"]["applied"] == 1


def test_verify_corpus_empty(tmp_path):
    corpus = tmp_path / "empty.g6"
    corpus.write_text("\n")
    code, _, _ = run_cli(["verify", "thm-1.1", "--corpus", str(corpus)])
    assert code == EXIT_USAGE


def test_generate_wheel():
    code, out, _ = run_cli(["generate", "--wheel", "5"])
    assert code == EXIT_PASS
    assert out.splitlines()[0] == "6 10"


def test_generate_wheel_multiplicities():
    code, out, _ = run_cli(["generate", "--wheel", "3,1,1,2", "--format", "mg"])
    assert code == EXIT_PASS
    lines = out.splitlines()
    assert lines[0] == "4 7"
    assert len(lines) == 8


def test_generate_wheel_graph6():
    code, out, _ = run_cli(["generate", "--wheel", "5", "--format", "graph6"])
    assert code == EXIT_PASS
    assert out.strip()  # a single graph6 line


def test_generate_wheel_bad_spec():
    assert run_cli(["generate", "--wheel", "2"])[0] == EXIT_USAGE
    assert run_cli(["generate", "--wheel", "5,1,1"])[0] == EXIT_USAGE
    assert run_cli(["generate", "--wheel", "abc"])[0] == EXIT_USAGE


def test_generate_closure():
    code, out, _ = run_cli(["generate", "--g-closure", "--max-n", "6"])
    assert code == EXIT_PASS
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 18


def test_generate_closure_graph6_rejects_multigraphs():
    # the closure contains graphs with parallel edges, so graph6 cannot hold it
    code, _, _ = run_cli(["generate", "--g-closure", "--max-n", "6", "--format", "graph6"])
    assert code == EXIT_USAGE


def test_generate_closure_bound():
    code, _, err = run_cli(["generate", "--g-closure", "--max-n", "40"])
    assert code == EXIT_BOUND
    assert "bound exceeded" in err


def test_generate_refuses_max_n_without_closure(tmp_path):
    # --max-n bounds the closure only; with another mode it would be ignored.
    cert = tmp_path / "w5.json"
    cert.write_text(json.dumps({"wheel": {"k": 5, "mults": [1, 1, 1, 1, 1]}}))
    for mode in (["--wheel", "5"], ["--splice", str(cert)]):
        assert run_cli(["generate", *mode])[0] == EXIT_PASS
        code, out, err = run_cli(["generate", *mode, "--max-n", "9"])
        assert code == EXIT_USAGE and not out
        assert "--max-n" in err


def test_generate_splice_certificate(tmp_path):
    members = g_family_closure(8)
    node = next(c for _, c in members.values() if isinstance(c, SpliceNode))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert_to_obj(node)))
    code, out, _ = run_cli(["generate", "--splice", str(cert_path)])
    assert code == EXIT_PASS
    n, m = map(int, out.splitlines()[0].split())
    assert n == 8


def test_generate_splice_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["generate", "--splice", str(bad)])[0] == EXIT_USAGE
    shape = tmp_path / "shape.json"
    shape.write_text('{"zig": 1}')
    assert run_cli(["generate", "--splice", str(shape)])[0] == EXIT_USAGE
    # A node of the wrong shape is a usage error too, not a traceback
    # (exit 1, the code for a counterexample).
    w3 = {"k": 3, "mults": [1, 1, 1]}
    for cert in (
        {"wheel": {"k": "x", "mults": [1]}},
        {"wheel": {"k": 5}},
        {"wheel": 5},
        {"splice": {"left": {"wheel": w3}, "wheel": w3, "u": 0, "v": 0}},  # no theta
        # Numbers must be integers: no truncation, no string, no bool.
        {"wheel": {"k": 5.9, "mults": [1.5, 1, 1, 1, 1]}},
        {"wheel": {"k": "5", "mults": [1, 1, 1, 1, 1]}},
        {"wheel": {"k": True, "mults": [1, 1, 1]}},
        {"splice": {"left": {"wheel": w3}, "wheel": w3, "u": 0, "v": 0.0, "theta": [0, 1, 2]}},
    ):
        shape.write_text(json.dumps(cert))
        code, out, err = run_cli(["generate", "--splice", str(shape)])
        assert code == EXIT_USAGE and not out, cert
        assert err.startswith("matchcov: malformed certificate node"), cert


def test_generate_requires_one_mode(tmp_path):
    assert run_cli(["generate"])[0] == EXIT_USAGE
    cert = tmp_path / "c.json"
    cert.write_text("{}")
    code, _, _ = run_cli(["generate", "--wheel", "5", "--splice", str(cert)])
    assert code == EXIT_USAGE


def test_argparse_usage_errors():
    assert run_cli([])[0] == 2
    assert run_cli(["verify"])[0] == 2
    assert run_cli(["frobnicate"])[0] == 2
