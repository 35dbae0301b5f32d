"""The three benchmark workloads and the checks on their verdicts.

Each workload has three methods. `make_inputs(seed)` is set-up, untimed.
`run(mc, inputs, rec)` is one timed repetition against the public API, and
returns the reports; `mc` is the imported matchcov package. In it,
`rec.request()` marks the start of each request for the tracer, `rec.now()`
is the clock, and `rec.latencies` takes per-graph times.
`check(reports, inputs, seed)` returns one boolean per check made.
"""
from __future__ import annotations

import hashlib
import json

import pmunion

# The default --seed. The corpus-stream digest is stored for it.
DEFAULT_SEED = 0
# corpus-stream graphs per k in {3, 4, 5}, by order n: 1,008 in all, so that
# at least ten latency samples lie beyond p99. n = 12 is a seventh of the
# stream but costs about half its time and holds its slow tail.
PER_K = {8: 160, 10: 128, 12: 48}
# run_corpus refuses graphs above its ingestion cap (MATCHCOV_MAX_CORPUS_N,
# default 10), so only bipartite members up to this order go to the corpus
# campaigns.
CORPUS_MAX_N = 10

# Summary counts at default bounds, from the campaign reports.
PROP_313 = {"graphs_checked": 2609, "bicritical": 2206, "without_removable_edge": 8}
FIG_G3 = {"closure_size": 676, "third_generation": 364, "non_wheel_like_bricks": 328}
LEMMA_39 = {"orbit_representatives": 1711, "brick_results": 1701, "distinct_results": 1615}

# sha256 of every analyze and corpus report of one corpus-stream pass, timing
# fields removed, by seed. Other seeds are checked by the invariants alone.
CORPUS_DIGESTS = {
    0: "40e53d348a9894272a65de925fc5b268ebc024f7162d1cbe32228c6397017929",
    1: "1240d92c7c431d74bd44841944bf9f6e97bf9bf65174eb6fd2ed77f00da7b85e",
    2: "a40b0a7a76c29649d1404faac78cf0942a21b43ee9d51b860135a5db9c483a94",
    3: "04a0d6e5508cfb637df7e36649452c632c92fdf47de5319b3c081808c0d1d6a6",
    4: "67adba52d564a89c64c2e90ae92001137b691df927cc3ac49488264add0b0b52",
    5: "448259e7e56f0aab5d57ca3965799527908122239970980613f6dc6f79c46982",
}


def _summary_checks(report: dict, expected: dict) -> list[bool]:
    out = [report["summary"]["status"] == "pass"]
    for key, value in expected.items():
        got = report["graphs_checked"] if key == "graphs_checked" else report["summary"][key]
        out.append(got == value)
    return out


def graphs_in(reports: list[dict]) -> int:
    """Graphs checked: campaign and corpus `graphs_checked`, plus one per
    analyze report."""
    return sum(r.get("graphs_checked", 1) for r in reports)


# -- enum-n8 --------------------------------------------------------------


class EnumN8:
    name = "enum-n8"
    why = "prop-3.13 to n=8: enumeration and canonical labelling of 2,609 min-degree-3 graphs, the floor under every campaign"
    per_graph_latency = False

    def make_inputs(self, seed: int):
        return None

    def run(self, mc, inputs, rec):
        rec.request()
        return [mc.run_campaign("prop-3.13", max_n=8, jobs=1)]

    def check(self, reports, inputs, seed) -> list[bool]:
        return _summary_checks(reports[0], PROP_313)


# -- splice-n10 -----------------------------------------------------------


class SpliceN10:
    name = "splice-n10"
    why = "fig-g3 closure to n=10, then lemma-3.9 on 1,711 splices: theta search, removability, brick and wheel-like tests; no enumeration"
    per_graph_latency = False

    def make_inputs(self, seed: int):
        return None

    def run(self, mc, inputs, rec):
        rec.request()
        closure = mc.run_campaign("fig-g3", max_n=10, jobs=1)
        rec.request()
        return [closure, mc.run_campaign("lemma-3.9", wheels=(3, 5, 7), mult_bound=2, doubles=1, jobs=1)]

    def check(self, reports, inputs, seed) -> list[bool]:
        return _summary_checks(reports[0], FIG_G3) + _summary_checks(reports[1], LEMMA_39)


# -- corpus-stream --------------------------------------------------------


def report_digest(reports: list[dict]) -> str:
    stripped = [{k: v for k, v in r.items() if k != "wall_clock_seconds"} for r in reports]
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


class CorpusStream:
    name = "corpus-stream"
    why = "1,008 seeded unions of 3-5 random perfect matchings, n=8-12, parsed and analyzed in a closed loop: cuts, solidity, barriers, bipartite"
    per_graph_latency = True

    def make_inputs(self, seed: int):
        return pmunion.corpus(seed, PER_K)

    def run(self, mc, inputs, rec):
        """One caller, closed loop: parse and analyze each graph, then run the
        bipartite corpus campaigns on the bipartite members."""
        reports = []
        for item in inputs:
            rec.request()
            t0 = rec.now()
            report = mc.analyze_graph(mc.parse_graph_text(item.text))
            rec.latencies.append(rec.now() - t0)
            reports.append(report)
        members = [
            mc.parse_graph_text(item.text)
            for item in inputs
            if item.bipartite and item.n <= CORPUS_MAX_N
        ]
        for name in ("lemma-2.16", "lemma-2.17"):
            rec.request()
            reports.append(mc.run_corpus(name, members, source="pm-unions"))
        return reports

    def check(self, reports, inputs, seed) -> list[bool]:
        analyzed = reports[: len(inputs)]
        out = [r["matching_covered"] == item.connected for r, item in zip(analyzed, inputs)]
        out += [r["summary"]["status"] == "pass" for r in reports[len(inputs) :]]
        reference = CORPUS_DIGESTS.get(seed)
        if reference is not None:
            out.append(report_digest(reports) == reference)
        return out


WORKLOADS = {w.name: w for w in (EnumN8(), SpliceN10(), CorpusStream())}
