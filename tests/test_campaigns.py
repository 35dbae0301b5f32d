"""Campaign runners: reduced-bound runs, report schema, corpus mode, errors."""

import json

import pytest

from matchcov import Multigraph, campaigns, enumerate_connected_graphs, is_brick, is_robust, wheels
from matchcov.campaigns import (
    CAMPAIGNS,
    SCHEMA_VERSION,
    analyze_graph,
    report_json,
    run_campaign,
    run_corpus,
)
from matchcov.cuts import _odd_shores, has_robust_cut
from matchcov.errors import BadSpecError, BoundExceededError, UnknownCampaignError
from matchcov.wheels import WheelSpec, make_wheel, simple_wheel
from matchcov.zoo import complete_graph, cycle_graph, petersen_graph, prism_graph
from test_report_digests import CORPUS, FULL_RUNS

REPORT_KEYS = {
    "schema",
    "campaign",
    "parameters",
    "graphs_checked",
    "summary",
    "counterexamples",
    "verdicts",
    "wall_clock_seconds",
}


def _check_shape(report, name):
    # verdicts are recorded only where per-graph rows are meaningful
    assert REPORT_KEYS - {"verdicts"} <= set(report) <= REPORT_KEYS
    assert report["schema"] == SCHEMA_VERSION
    assert report["campaign"] == name
    assert report["summary"]["status"] in ("pass", "fail")
    assert isinstance(report["counterexamples"], list)
    assert report["wall_clock_seconds"] >= 0
    json.loads(report_json(report))


def test_registry_names():
    assert set(CAMPAIGNS) == {
        "thm-1.1",
        "thm-1.3",
        "thm-1.4",
        "lemma-2.16",
        "lemma-2.17",
        "lemma-2.18",
        "lemma-3.6",
        "lemma-3.9",
        "prop-3.13",
        "decomp-unique",
        "fig-r8",
        "fig-nonsolid-6",
        "fig-g3",
    }
    assert {name for name, c in CAMPAIGNS.items() if c.corpus} == {
        "thm-1.1",
        "thm-1.3",
        "thm-1.4",
        "lemma-2.16",
        "lemma-2.17",
        "lemma-2.18",
        "lemma-3.6",
        "prop-3.13",
        "decomp-unique",
    }


def test_thm_1_1_reduced():
    rep = run_campaign("thm-1.1", max_n=6)
    _check_shape(rep, "thm-1.1")
    assert rep["summary"]["status"] == "pass"
    assert rep["counterexamples"] == []
    assert rep["summary"]["bricks_by_n"] == {"4": 1, "6": 13}
    assert rep["parameters"] == {"max_n": 6, "population": "simple bricks"}


def test_thm_1_4_reduced():
    rep = run_campaign("thm-1.4", max_n=6)
    _check_shape(rep, "thm-1.4")
    assert rep["parameters"] == {"max_n": 6, "min_n": 4}
    assert rep["summary"]["status"] == "pass"
    assert rep["summary"]["minimal"] >= 1
    assert rep["graphs_checked"] >= rep["summary"]["matching_covered"]
    # K4 and C4 are minimal at four vertices
    assert sum(1 for ex in rep["summary"]["minimal_examples"] if ex["n"] == 4) == 2


def test_thm_1_3_reduced():
    rep = run_campaign("thm-1.3", max_n=6)
    _check_shape(rep, "thm-1.3")
    assert rep["summary"]["status"] == "pass"
    # W3 and W5 hubs give wheel-like bricks already at this bound
    assert rep["summary"]["wheel_like_bricks"] >= 2
    assert [row["certified"] for row in rep["verdicts"]] == [True] * rep["summary"]["wheel_like_bricks"]


def test_lemma_2_17_reduced():
    rep = run_campaign("lemma-2.17", max_n=6, mult_n=4)
    _check_shape(rep, "lemma-2.17")
    assert rep["summary"]["status"] == "pass"
    assert rep["summary"]["with_p_set"] + rep["summary"]["without_p_set"] == (
        rep["graphs_checked"]
    )


def test_lemma_2_18_reduced():
    rep = run_campaign("lemma-2.18", max_n=6, mult_n=4)
    _check_shape(rep, "lemma-2.18")
    assert rep["summary"]["status"] == "pass"
    assert rep["summary"]["orientations_tested"] > 0


def test_prop_3_13_reduced():
    rep = run_campaign("prop-3.13", max_n=6)
    _check_shape(rep, "prop-3.13")
    assert rep["summary"]["status"] == "pass"
    assert rep["summary"]["bicritical"] > 0


def test_decomp_unique_reduced():
    rep = run_campaign("decomp-unique", max_n=6, seeds=5)
    _check_shape(rep, "decomp-unique")
    assert rep["summary"]["status"] == "pass"
    assert rep["summary"]["seeds_per_graph"] == 5
    assert rep["summary"]["with_nontrivial_tight_cut"] >= 1


def test_lemma_3_9_population_with_heavy_spokes():
    # Population only: three doubles and spokes of multiplicity 3 reach
    # site stabilizers and class actions that the digest bound does not.
    ctx = {"wheels": (3, 5), "mult_bound": 3, "doubles": 3}
    # Every result carries the splice that built it.
    reps = sum(len(g.built_by) == 4 for g in CAMPAIGNS["lemma-3.9"].population(ctx))
    assert (ctx["splice_sites"], ctx["tasks"], ctx["theta_matrices"], reps) == (
        122,
        1737,
        70201,
        30394,
    )


def test_lemma_3_9_results_carry_their_splice():
    # The fold reads each row's splice and condition verdict off the graph
    # itself; both must be the ones that graph was built from.
    ctx = {"wheels": (3, 5), "mult_bound": 2, "doubles": 1}
    reps = 0
    for g in CAMPAIGNS["lemma-3.9"].population(ctx):
        sg, sh, matrix, conds = g.built_by
        theta = wheels.theta_from_class_matrix(sg.graph, sg.vertex, sh.graph, sh.vertex, matrix)
        assert g == wheels.splice(sg.graph, sg.vertex, sh.graph, sh.vertex, theta)
        assert conds == wheels.check_odd_wheel_splice(sg.graph, sg.vertex, sh.graph, sh.vertex, theta)
        reps += 1
    assert reps > ctx["tasks"] > 1


def test_lemma_3_9_checks_k4_splices_under_every_hub():
    # K4 with spokes (1, 1, 3), spliced at vertex 3 to the W5 hub, is
    # wheel-like: vertex 2 is a hub of K4 too, and makes vertex 3 a rim
    # vertex, under which designation the conditions hold.
    rep = run_campaign("lemma-3.9", wheels=(3, 5), mult_bound=3, doubles=1)
    _check_shape(rep, "lemma-3.9")
    assert rep["summary"]["status"] == "pass"
    assert rep["summary"]["wheel_like"] == rep["summary"]["conditions_true"] == 3


def test_lemma_3_9_keeps_one_matrix_per_orbit_by_burnside():
    # Burnside: a task's orbits number its (matrix, symmetry) pairs with
    # the symmetry fixing the matrix, over the group order. Fixed points
    # are counted here without the population's orbit filter.
    ctx = {"wheels": (3, 5, 7), "mult_bound": 2, "doubles": 1}
    tasks = {}
    for g in CAMPAIGNS["lemma-3.9"].population(ctx):
        sg, sh = g.built_by[:2]
        tasks.setdefault((id(sg), id(sh)), [sg, sh, 0])[2] += 1
    # Every task keeps at least one matrix, so all of them are seen here.
    assert len(tasks) == ctx["tasks"]
    assert sum(kept for _, _, kept in tasks.values()) == 1711
    for sg, sh, kept in tasks.values():
        perms = set(wheels.matrix_symmetries(sg, sh))
        fixed = 0
        for matrix in wheels.theta_class_matrices(sh.class_sizes, sg.class_sizes):
            flat = [x for row in matrix for x in row]
            fixed += sum(all(flat[p[j]] == x for j, x in enumerate(flat)) for p in perms)
        assert fixed == kept * len(perms)


def test_fig_nonsolid_6():
    rep = run_campaign("fig-nonsolid-6")
    _check_shape(rep, "fig-nonsolid-6")
    assert rep["summary"]["status"] == "pass"
    assert rep["summary"]["six_vertex_bricks"] == 13
    assert rep["summary"]["candidates"] == 11


def test_verdict_lines_present():
    rep = run_campaign("thm-1.1", max_n=4)
    assert rep["verdicts"], "per-graph verdicts should be recorded"
    v = rep["verdicts"][0]
    assert isinstance(v, dict) and "canon" in v


def test_unknown_campaign():
    with pytest.raises(UnknownCampaignError):
        run_campaign("thm-9.9")


def test_unknown_parameter():
    with pytest.raises(UnknownCampaignError):
        run_campaign("thm-1.1", bogus=3)
    # An unknown key is refused whatever its value, None included.
    with pytest.raises(UnknownCampaignError):
        run_campaign("thm-1.1", bogus=None, max_n=4)


@pytest.mark.parametrize("sample_n", [2, 7])
def test_lemma216_sample_order_refused_before_any_work(monkeypatch, sample_n):
    # At 2 the sampler finds only K2, whose claim the fold cannot read; at
    # an odd order it samples nothing and the slice would pass empty.
    import matchcov.campaigns as campaigns

    def no_work(*args, **kwargs):
        raise AssertionError("population built before the parameters were checked")

    for kernel in ("enumerate_connected_graphs", "multiplicity_classes", "_sample_bipartite_mc"):
        monkeypatch.setattr(campaigns, kernel, no_work)
    with pytest.raises(BadSpecError, match="sample_n"):
        run_campaign("lemma-2.16", max_n=4, mult_n=2, sample_n=sample_n)


def test_lemma216_negative_samples_refused():
    with pytest.raises(BadSpecError, match="samples"):
        run_campaign("lemma-2.16", max_n=4, mult_n=2, samples=-3)


@pytest.mark.parametrize(
    "name, params, kernel",
    [
        ("thm-1.3", {"mult_n": 12}, "graph enumeration"),
        ("lemma-2.16", {"sample_n": 256}, "canonical forms"),
    ],
)
def test_kernel_ceilings_refuse_parameters(monkeypatch, name, params, kernel):
    # The parameter table reads the ceiling of the kernel the run would
    # reach, so the run refuses before it builds a graph.
    import matchcov.campaigns as campaigns

    def no_work(*args, **kwargs):
        raise AssertionError("population built before the parameters were checked")

    monkeypatch.setattr(campaigns, "enumerate_connected_graphs", no_work)
    with pytest.raises(BoundExceededError, match=f"{kernel} capped at"):
        run_campaign(name, **params)


def test_corpus_run():
    rep = run_corpus("thm-1.1", [complete_graph(4), prism_graph()])
    assert rep["campaign"] == "thm-1.1"
    assert rep["summary"]["status"] == "pass"
    assert rep["summary"]["applied"] == 2
    assert rep["graphs_checked"] == 2
    assert rep["parameters"]["graphs"] == 2


def test_corpus_skips_inapplicable(monkeypatch):
    # the prism is not wheel-like, so the wheel-like check does not apply,
    # and no certificate is searched for it
    def no_search(*args, **kwargs):
        raise AssertionError("certificate searched for a brick that is not wheel-like")

    monkeypatch.setattr(campaigns, "search_G_certificate", no_search)
    rep = run_corpus("thm-1.3", [prism_graph()])
    assert rep["summary"]["applied"] == 0
    assert rep["summary"]["skipped_hypotheses"] == 1
    # A corpus run that applies its claim to no graph has tested nothing.
    assert rep["summary"]["status"] == "fail"
    assert rep["counterexamples"] == [{"mg": "", "failed": "claim applied to no corpus graph"}]


def test_corpus_thm_1_3_heavy_spokes():
    # Wheel-like bricks whose spoke multiplicities exceed the family
    # closure's caps: each is a leaf of its own certificate.
    corpus = [make_wheel(WheelSpec(5, (3, 1, 1, 1, 1)))[0], make_wheel(WheelSpec(3, (4, 1, 1)))[0]]
    rep = run_corpus("thm-1.3", corpus)
    assert rep["counterexamples"] == []
    assert rep["summary"] == {"applied": 2, "skipped_hypotheses": 0, "status": "pass"}


def test_corpus_agrees_with_full_run():
    # The corpus rerun of prop-3.13 over its own population applies the
    # claim exactly where the full run found a bicritical graph.
    full = run_campaign("prop-3.13", max_n=6)
    population = list(CAMPAIGNS["prop-3.13"].population({"max_n": 6}))
    rep = run_corpus("prop-3.13", population)
    assert rep["graphs_checked"] == full["graphs_checked"] == len(population)
    assert rep["summary"]["applied"] == full["summary"]["bicritical"]
    assert rep["counterexamples"] == []


def _untimed(report):
    return {k: v for k, v in report.items() if k != "wall_clock_seconds"}


@pytest.mark.parametrize(
    "name, params",
    [
        ("lemma-2.17", {"max_n": 6, "mult_n": 4}),
        ("fig-nonsolid-6", {}),
        *((name, params) for name, (params, _) in sorted(FULL_RUNS.items())),
    ],
)
def test_jobs_do_not_change_reports(name, params):
    serial = run_campaign(name, jobs=1, **params)
    pooled = run_campaign(name, jobs=2, **params)
    assert _untimed(pooled) == _untimed(serial)


@pytest.mark.parametrize("name", ["thm-1.3", "decomp-unique"])
def test_jobs_do_not_change_corpus_reports(name):
    serial = run_corpus(name, CORPUS, seeds=3, jobs=1)
    pooled = run_corpus(name, CORPUS, seeds=3, jobs=2)
    assert _untimed(pooled) == _untimed(serial)


@pytest.mark.parametrize(
    "name, params",
    [
        ("lemma-3.9", {"wheels": (3, 5), "mult_bound": 2, "doubles": 1}),
        ("thm-1.1", {"max_n": 6}),
        ("decomp-unique", {"max_n": 6, "seeds": 3}),
    ],
)
def test_jobs_twins_across_pool_chunks(monkeypatch, name, params):
    # Seven graphs to a chunk: the worker pool restarts between chunks, and
    # each lemma-3.9 row must still carry the splice that built it.
    monkeypatch.setattr(campaigns, "_POOL_CHUNK", 7)
    serial = run_campaign(name, jobs=1, **params)
    assert serial["graphs_checked"] > campaigns._POOL_CHUNK
    assert _untimed(run_campaign(name, jobs=2, **params)) == _untimed(serial)


def test_verdict_rows_past_the_cap_are_counted(monkeypatch):
    monkeypatch.setattr(campaigns, "VERDICT_CAP", 3)
    rep = run_campaign("thm-1.1", max_n=6)
    assert "verdicts" not in rep
    assert rep["verdicts_omitted"] == 14


def test_corpus_petersen():
    # Petersen is a brick, with no nontrivial tight cut: the claim skips it
    # and applies to the 10-cycle.
    rep = run_corpus("decomp-unique", [petersen_graph(), cycle_graph(10)], seeds=3)
    assert rep["summary"] == {"applied": 1, "skipped_hypotheses": 1, "status": "pass"}


def test_corpus_unsupported_campaign():
    with pytest.raises(UnknownCampaignError):
        run_corpus("lemma-3.9", [complete_graph(4)])
    with pytest.raises(UnknownCampaignError):
        run_corpus("fig-r8", [complete_graph(4)])


def test_corpus_bound():
    # The runner reads no graph's order, and the 9-wheel is a leaf of its
    # own certificate: no kernel the claim reaches has a ceiling below it.
    rep = run_corpus("thm-1.3", [simple_wheel(9)[0]])
    assert rep["summary"] == {"applied": 1, "skipped_hypotheses": 0, "status": "pass"}


def test_robust_cut_read_from_shore_sets():
    seen = set()
    for g in enumerate_connected_graphs(6, min_degree=3):
        if is_brick(g):
            walked = any(is_robust(g, x) for x in _odd_shores(g.n))
            assert has_robust_cut(g) == walked, g.edges
            seen.add(walked)
    assert seen == {True, False}


def _odd_prism(k):
    """Two k-cycles joined by a perfect matching: cubic, and for odd k a
    brick that is not bipartite."""
    rims = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return Multigraph(2 * k, rims + [(i, k + i) for i in range(k)])


def test_analyze_skips_brace_above_pm_cap():
    rep = analyze_graph(cycle_graph(26))
    assert rep["status"] == "ok" and rep["bipartite"] and rep["matching_covered"]
    assert rep["brace"] is None
    # Each skipped verdict carries its kernel's refusal; maximal barriers
    # have no cap: the two colour classes of C26.
    assert rep["skipped"] == [
        "brace: perfect matching enumeration capped at 24 vertices",
        "solid: solidity check capped at 14 vertices",
    ]
    assert rep["maximal_barriers"] == [list(range(0, 26, 2)), list(range(1, 26, 2))]
    # at the cap the verdict is still made; off the bipartite side it needs
    # no perfect matching
    assert analyze_graph(cycle_graph(24))["brace"] is False
    rep = analyze_graph(_odd_prism(13))
    assert rep["brace"] is False and not rep["bipartite"]
    assert rep["skipped"] == ["solid: solidity check capped at 14 vertices"]
    # The 62-vertex odd prism is a brick: every maximal barrier is a single
    # vertex, and only solidity is past its kernel's cap.
    rep = analyze_graph(_odd_prism(31))
    assert rep["brick"] and rep["maximal_barriers"] == [[v] for v in range(62)]
    assert rep["skipped"] == ["solid: solidity check capped at 14 vertices"]
