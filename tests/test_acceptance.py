"""Acceptance gate: the eleven desk-scale verification criteria.

Each test records one verdict line, which conftest prints after the run
(pass detail here, fail lines from the report hook). Budgets are asserted
against the wall clocks the campaign reports measure themselves.
"""

import itertools
import random
import time

from matchcov import (
    Multigraph,
    Single,
    matching_number,
    removable_classes,
    simple_wheel,
)
from matchcov.campaigns import run_campaign
from matchcov.generate import enumerate_connected_graphs
from matchcov.zoo import complete_graph, prism_graph
from conftest import brute_matching_number, record_acceptance
from test_report_digests import digest

SAMPLES_PER_N = 10_000
SAMPLE_SEED = 20260819

# The sha256 of each report built here, its wall clock dropped as in
# `test_report_digests.digest`: every default run's bytes are pinned.
REPORT_DIGESTS = {
    "thm-1.1": "184ca0d33dffc1a541b1ee95c0c2ee7bacd873d888939138122feca8b2118333",
    "thm-1.3": "2021408b03abc580b317fbf555c8fbd14fb583d482d43b9d09b7a6f688ccbc4c",
    "thm-1.4": "79d81130a07a92e6481191b13df2be299b6e1fd15a978081f0069ed2bc741a3f",
    "lemma-2.16": "8b172173c0226a8afe8ea19a300c47eabeed04e504c4595ea03e986fe3b00728",
    "lemma-3.6": "2ea21861ac2b0feeff5adf0b96237382c248c210efbcbdd9d47db1e2971e8c8a",
    "lemma-3.9": "ee7ae928a6801765f5112dd7d95d35652331870cd516c1094ebc9d0c837e75e9",
    "prop-3.13": "ea223271f568db39ae5f5bf9c0c4426839a19798483bbee5ac4243fa081efeda",
    "decomp-unique": "af4fbd6baaf4f11c7c7dca3fe670a70cdeac8fc86488db67fa9ae0f92683d6e3",
    "fig-r8": "e15399eff6578ef093abd3c024e2017e183a855739dc5508244989f554782b2d",
    "fig-nonsolid-6": "6915990bfd85361e40a20058ab5bc41ebb77d02bbea0e5869a43f4ab1acd56eb",
    "fig-g3": "3b1d7338de2221f54008c76ada74c8b92bbddeab743e68e0b275fb4e3960a202",
    "lemma-3.9 wide": "d91c7063e18746a7909054ff7ce2d1839bb3eef7e1dc741e5764bdedba7bee76",
}

R8_CANON = "08000101000201000301010201010401020501030401030601040701050601050701060701"


def _announce(idx: int, detail: str) -> None:
    record_acceptance(idx, detail)


def test_01_matching_oracle_equivalence():
    started = time.monotonic()
    exhaustive = 0
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            assert matching_number(g) == brute_matching_number(g)
            exhaustive += 1
    sampled = 0
    for n in (7, 8):
        rng = random.Random(SAMPLE_SEED + n)
        pairs = list(itertools.combinations(range(n), 2))
        done = 0
        while done < SAMPLES_PER_N:
            edges = tuple(p for p in pairs if rng.random() < 0.5)
            g = Multigraph(n, edges)
            if not g.is_connected():
                continue
            assert matching_number(g) == brute_matching_number(g)
            done += 1
            sampled += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _announce(1, f"{exhaustive} exhaustive + {sampled} sampled graphs, {elapsed:.1f}s")


def test_02_removable_class_goldens():
    started = time.monotonic()
    expected = {
        "K4": (complete_graph(4), 0, 3),
        "prism": (prism_graph(), 0, 3),
        "W5": (simple_wheel(5)[0], 5, 0),
        "W7": (simple_wheel(7)[0], 7, 0),
    }
    for name, (g, want_singles, want_doubletons) in expected.items():
        classes = removable_classes(g)
        singles = [c for c in classes if isinstance(c, Single)]
        doubletons = [c for c in classes if not isinstance(c, Single)]
        assert len(singles) == want_singles, name
        assert len(doubletons) == want_doubletons, name
    for k in (5, 7):
        wheel, hub = simple_wheel(k)
        removable = {c.edge for c in removable_classes(wheel) if isinstance(c, Single)}
        for e in range(wheel.m):
            u, v = wheel.endpoints(e)
            if hub in (u, v):
                assert e in removable, "spokes are removable"
            else:
                assert e not in removable, "rim edges are not removable"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _announce(2, f"K4/prism/W5/W7 class counts and rim facts, {elapsed:.2f}s")


def test_03_brick_removable_class_lower_bound():
    rep = run_campaign("thm-1.1", max_n=8)
    assert digest(rep) == REPORT_DIGESTS["thm-1.1"]
    assert rep["summary"]["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["summary"]["bricks_by_n"] == {"4": 1, "6": 13, "8": 2088}
    assert rep["summary"]["exempt_from_edge_count"] == 2
    assert rep["wall_clock_seconds"] < 600
    _announce(3, f"{rep['graphs_checked']} bricks, {rep['wall_clock_seconds']:.0f}s")


def test_04_minimal_graphs_have_degree_two_or_three():
    rep = run_campaign("thm-1.4", max_n=8)
    assert digest(rep) == REPORT_DIGESTS["thm-1.4"]
    assert rep["summary"]["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["summary"]["minimal"] >= 6
    assert all(ex["delta"] in (2, 3) for ex in rep["summary"]["minimal_examples"])
    # Both degrees must occur, or the claim was only tested on one side.
    assert {ex["delta"] for ex in rep["summary"]["minimal_examples"]} == {2, 3}
    assert rep["wall_clock_seconds"] < 600
    _announce(
        4,
        f"{rep['summary']['minimal']} minimal graphs among "
        f"{rep['summary']['matching_covered']} covered, {rep['wall_clock_seconds']:.0f}s",
    )


def test_05_six_vertex_wheel_like_classification():
    rep = run_campaign("lemma-3.6", mult_bound=2)
    assert digest(rep) == REPORT_DIGESTS["lemma-3.6"]
    assert rep["summary"]["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["summary"]["distinct_multigraphs"] == 7738
    assert rep["summary"]["wheel_like"] == 8
    # Both sides of the equivalence occur: wheel-like bricks and bricks
    # that are not.
    summary = rep["summary"]
    assert 0 < summary["wheel_like"] < summary["distinct_multigraphs"] - summary["non_bricks"]
    assert rep["wall_clock_seconds"] < 180
    _announce(
        5,
        f"{rep['summary']['distinct_multigraphs']} multigraphs, "
        f"{rep['summary']['wheel_like']} wheel-like, {rep['wall_clock_seconds']:.0f}s",
    )


def test_06_splice_condition_equivalence():
    rep = run_campaign("lemma-3.9", wheels=(3, 5, 7), mult_bound=2, doubles=2)
    assert digest(rep) == REPORT_DIGESTS["lemma-3.9"]
    assert rep["summary"]["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["summary"]["brick_results"] > 0
    assert rep["wall_clock_seconds"] < 600
    # Spokes of multiplicity 3 reach splices on both sides of the
    # equivalence: wheel-like bricks and bricks that are not.
    wide = run_campaign("lemma-3.9", wheels=(3, 5), mult_bound=3, doubles=2)
    assert digest(wide) == REPORT_DIGESTS["lemma-3.9 wide"]
    assert wide["summary"]["status"] == "pass"
    assert wide["summary"]["wheel_like"] > 0
    assert wide["summary"]["brick_results"] > wide["summary"]["wheel_like"]
    _announce(
        6,
        f"{rep['summary']['orbit_representatives']} splice orbits, "
        f"{rep['summary']['brick_results']} bricks, {rep['wall_clock_seconds']:.0f}s; "
        f"widened: {wide['summary']['wheel_like']} of {wide['summary']['brick_results']} "
        f"bricks wheel-like",
    )


def test_07_wheel_like_bricks_admit_family_certificates():
    rep = run_campaign("thm-1.3", max_n=8, mult_n=6, mult_bound=2)
    assert digest(rep) == REPORT_DIGESTS["thm-1.3"]
    assert rep["summary"]["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["summary"]["wheel_like_bricks"] == 16
    assert rep["wall_clock_seconds"] < 300
    certified = sum(row["certified"] for row in rep["verdicts"])
    _announce(
        7,
        f"{certified} of {rep['summary']['wheel_like_bricks']} wheel-like bricks "
        f"certified top-down from their own separating cuts, {rep['wall_clock_seconds']:.0f}s",
    )


def test_08_bipartite_removability_certificates():
    rep = run_campaign("lemma-2.16")
    assert digest(rep) == REPORT_DIGESTS["lemma-2.16"]
    assert rep["summary"]["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["summary"]["edges_tested"] > 0
    assert rep["summary"]["certificates_validated"] > 0
    assert rep["summary"]["sampled_graphs"] > 0
    # Both sides occur: nonremovable edges, each with a validated
    # certificate, and removable edges, which have none because the search
    # never runs on them ("removable => no certificate" is not tested).
    assert 0 < rep["summary"]["certificates_validated"] < rep["summary"]["edges_tested"]
    assert rep["wall_clock_seconds"] < 300
    _announce(
        8,
        f"{rep['summary']['edges_tested']} edges, "
        f"{rep['summary']['certificates_validated']} certificates, "
        f"{rep['wall_clock_seconds']:.0f}s",
    )


def test_09_decomposition_uniqueness():
    rep = run_campaign("decomp-unique", max_n=8, seeds=20)
    assert digest(rep) == REPORT_DIGESTS["decomp-unique"]
    assert rep["summary"]["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["summary"]["seeds_per_graph"] == 20
    assert rep["summary"]["with_nontrivial_tight_cut"] > 0
    # Graphs with and without a nontrivial tight cut both occur.
    assert 0 < rep["summary"]["with_nontrivial_tight_cut"] < rep["summary"]["matching_covered"]
    assert rep["wall_clock_seconds"] < 300
    _announce(
        9,
        f"{rep['summary']['with_nontrivial_tight_cut']} graphs x 20 seeds, "
        f"{rep['wall_clock_seconds']:.0f}s",
    )


def test_10_unremovable_bicritical_degree_three_count():
    rep = run_campaign("prop-3.13", max_n=8)
    assert digest(rep) == REPORT_DIGESTS["prop-3.13"]
    assert rep["summary"]["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["summary"]["without_removable_edge"] >= 1
    assert all(ex["degree_three"] >= 4 for ex in rep["summary"]["examples"])
    assert rep["wall_clock_seconds"] < 300
    _announce(
        10,
        f"{rep['summary']['without_removable_edge']} of "
        f"{rep['summary']['bicritical']} bicritical graphs lack a removable edge, "
        f"{rep['wall_clock_seconds']:.0f}s",
    )


def test_11_figure_reconstruction_searches():
    r8 = run_campaign("fig-r8")
    assert digest(r8) == REPORT_DIGESTS["fig-r8"]
    assert r8["summary"]["status"] == "pass"
    assert r8["summary"]["candidates"] == 1
    assert r8["summary"]["candidate_canon"] == [R8_CANON]

    nonsolid = run_campaign("fig-nonsolid-6")
    assert digest(nonsolid) == REPORT_DIGESTS["fig-nonsolid-6"]
    assert nonsolid["summary"]["status"] == "pass"
    assert nonsolid["summary"]["six_vertex_bricks"] == 13
    assert nonsolid["summary"]["candidates"] == 11

    g3 = run_campaign("fig-g3", max_n=10)
    assert digest(g3) == REPORT_DIGESTS["fig-g3"]
    assert g3["summary"]["status"] == "pass"
    assert g3["summary"]["closure_size"] == 676
    assert g3["summary"]["third_generation"] == 364
    assert g3["summary"]["non_wheel_like_bricks"] == 328
    assert g3["summary"]["non_wheel_like_bricks"] >= 1
    assert g3["summary"]["examples"]

    total = (
        r8["wall_clock_seconds"]
        + nonsolid["wall_clock_seconds"]
        + g3["wall_clock_seconds"]
    )
    assert total < 600
    _announce(
        11,
        f"1 eight-vertex candidate, {nonsolid['summary']['candidates']} nonsolid "
        f"candidates, {g3['summary']['non_wheel_like_bricks']} non-wheel-like "
        f"third-generation members, {total:.0f}s",
    )
