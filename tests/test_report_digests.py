"""Report bytes pinned at reduced bounds.

Each digest is the sha256 of `report_json` of one report with its
`wall_clock_seconds` field removed: every full campaign at a reduced bound,
and every corpus-capable campaign over one small fixed corpus. A change to
a campaign's population, claim, fold or report layout shows up here.
"""
import hashlib

import pytest

from matchcov.campaigns import report_json, run_campaign, run_corpus
from matchcov.multigraph import Multigraph
from matchcov.wheels import WheelSpec, make_wheel, simple_wheel
from matchcov.zoo import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    prism_graph,
)

FULL_RUNS = {
    "thm-1.1": ({"max_n": 6}, "00784995a6e1ee006150ddd799d1e640a0349474d4888bd92273b60aef4a857a"),
    "thm-1.3": ({"max_n": 6, "mult_n": 4}, "b2ef1d813839480ffa812903e90cf3383dc95621698d841f1895756f92b747a2"),
    "thm-1.4": ({"max_n": 6}, "2d791a9d4a90e8f5ae7f63c183c96892565528101a712c3dc36779dfe6c61e4e"),
    "lemma-2.16": ({"max_n": 6, "sample_n": 8, "samples": 5}, "b8d02d606dc52543ba965e09bf42310ff720d671b2b02a64d0b25555d79aaf78"),
    "lemma-2.17": ({"max_n": 6}, "f8e6bc07bbddbf5ccf951082da278156f6bdebda9c5cf97619cff183ce065902"),
    "lemma-2.18": ({"max_n": 6}, "e151dd264a04ed05b01b61eb371cdf4cdf213f02434d497d253288026fea74b7"),
    "lemma-3.6": ({"mult_bound": 1}, "5452cd25be726fd498a5dd794d7611d6549fedccc71bf53a536fc6bfb35acca7"),
    "lemma-3.9": ({"wheels": (3, 5), "mult_bound": 2, "doubles": 1}, "54ef7bd8d7bbe7ac021798adf9708d536800112848b970c56458dfb94e6d3be6"),
    "prop-3.13": ({"max_n": 6}, "048f7a051e01b1b9ea6478113156ab75cfd5c2a27c7a720052463beeb9da5b31"),
    "decomp-unique": ({"max_n": 6, "seeds": 3}, "0e85d3f50e4f23015ec5e3f3cf1393559d903e7bb18d1373af0006573d187789"),
    "fig-r8": ({}, "e15399eff6578ef093abd3c024e2017e183a855739dc5508244989f554782b2d"),
    "fig-nonsolid-6": ({}, "6915990bfd85361e40a20058ab5bc41ebb77d02bbea0e5869a43f4ab1acd56eb"),
    # no third generation below n = 10, so this report is a fail
    "fig-g3": ({"max_n": 8}, "3e9d5a757451d8d4d8eddcb9fb9d9919a8abe7edb424dc08e62c6498a43ec1b1"),
}

CUBE = Multigraph(
    8,
    [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7), (0, 4), (1, 5), (2, 6), (3, 7)],
)

# Wheel-like bricks K4, W5 and the 3-wheel with spokes (1, 1, 2); the
# prism and Petersen bricks; bipartite K33, C6, the cube and C4 with a
# doubled edge; and P4, which is not matching covered.
CORPUS = [
    complete_graph(4),
    prism_graph(),
    simple_wheel(5)[0],
    make_wheel(WheelSpec(3, (1, 1, 2)))[0],
    complete_bipartite(3, 3),
    cycle_graph(6),
    CUBE,
    Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (0, 3)]),
    petersen_graph(),
    path_graph(4),
]

CORPUS_RUNS = {
    "thm-1.1": "8657e1926a7fc393803e0175b60fa8b17c22580ae5ada4a583f02e5b66953c57",
    "thm-1.3": "c7c6d2c8ffa9ae3774e01656e04f1d0d28cd95d4fe785c2e14db1dada7322631",
    "thm-1.4": "b4a04a98774f446c1f50179729cd13f87f5c563ff83d8ea2d7756154bb06af3e",
    "lemma-2.16": "fb076857d1323d5fb73806e914625b7715afcbd323926014531136c5da4de6f2",
    "lemma-2.17": "cab105ed4bcc4cb1979c555e364035191663bce58169913175d42054f75ec090",
    "lemma-2.18": "a9412b65f22fd765bf4a080ba5e7de0f65a1a4ac7046fe185419fbbc683dbdfb",
    "lemma-3.6": "0099207c505964b405d81ebac64fbcd048ca0854b0d4543fac917cb694c0b6c7",
    "prop-3.13": "cf4e3eeca023e2dc6b269e7b2c2e4fca7f4272f41e5d8f2e672a940335b24bda",
    "decomp-unique": "b56ef635a76795f76bf1f9cb0baaa2842648b9be3650d19d01a9968503659745",
}


def digest(report: dict) -> str:
    untimed = {k: v for k, v in report.items() if k != "wall_clock_seconds"}
    return hashlib.sha256(report_json(untimed).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FULL_RUNS))
def test_full_run_digest(name):
    params, expected = FULL_RUNS[name]
    assert digest(run_campaign(name, **params)) == expected


@pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
def test_corpus_digest(name):
    assert digest(run_corpus(name, CORPUS, source="golden", seeds=3)) == CORPUS_RUNS[name]
