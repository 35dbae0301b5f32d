"""Relabel twin: every claim is invariant under isomorphism.

Each campaign's claim is wrapped so that it sees a seeded random
relabelling of its graph, vertices permuted and edges reordered, instead of
the copy `_verdicts` rebuilds. The population, the fold and the report rows
still see the original graphs, so every report must keep the digest pinned
in `test_report_digests.py`. A kernel whose answer depends on vertex or
edge order fails here even where the enumeration's own labelling hides it.
"""
import random

import pytest

from matchcov import Multigraph
from matchcov.campaigns import CAMPAIGNS, run_campaign, run_corpus
from test_report_digests import CORPUS, CORPUS_RUNS, FULL_RUNS, digest


def _relabelled(claim, rng):
    def relabelled_claim(g, ctx):
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        rng.shuffle(edges)
        return claim(Multigraph(g.n, edges), ctx)

    return relabelled_claim


def _twin(monkeypatch, name):
    campaign = CAMPAIGNS[name]
    claim = _relabelled(campaign.claim, random.Random(name))
    monkeypatch.setitem(CAMPAIGNS, name, campaign._replace(claim=claim))


@pytest.mark.parametrize("name", sorted(FULL_RUNS))
def test_full_run_digest_under_relabelling(monkeypatch, name):
    params, expected = FULL_RUNS[name]
    _twin(monkeypatch, name)
    assert digest(run_campaign(name, **params)) == expected


@pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
def test_corpus_digest_under_relabelling(monkeypatch, name):
    _twin(monkeypatch, name)
    assert digest(run_corpus(name, CORPUS, source="golden", seeds=3)) == CORPUS_RUNS[name]
