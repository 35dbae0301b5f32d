"""Orderly generation: `canon.orbit_representatives` and the class matrices
built on it keep exactly the least member of each symmetry class, in the
order of the full sweep they replace."""

import itertools
from math import prod

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matchcov import wheels
from matchcov.canon import automorphisms, orbit_representatives
from conftest import least_in_orbit, multigraphs

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _closure(gens, n):
    identity = tuple(range(n))
    group, new = {identity}, {identity}
    while new:
        new = {tuple(p[i] for i in s) for p in new for s in gens} - group
        group |= new
    return group


@st.composite
def _perm_groups(draw):
    """(n, group): the closure of 1 to 3 random permutations of n <= 7
    positions, or the action of a multigraph's automorphisms on its
    adjacent pairs."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 7))
        gens = draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3))
        return n, _closure(gens, n)
    g = draw(multigraphs(max_n=5, even=False))
    pairs = sorted(g.parallel_classes)
    position = {pair: i for i, pair in enumerate(pairs)}
    return len(pairs), [
        [position[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])] for u, v in pairs]
        for p in automorphisms(g)
    ]


def _swept(perms, values):
    """The oracle: the full sweep, filtered by `least_in_orbit`."""
    return list(filter(least_in_orbit(perms), itertools.product(*values)))


@PROPERTY_SETTINGS
@given(st.data())
def test_representatives_are_the_filtered_sweep_in_order(data):
    n, group = data.draw(_perm_groups())
    values = data.draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True).map(sorted),
            min_size=n,
            max_size=n,
        )
    )
    assume(prod(map(len, values)) <= 20_000)
    # Blocks of random widths, each filled from the product of its values.
    widths = []
    while sum(widths) < n:
        widths.append(data.draw(st.integers(1, n - sum(widths))))
    starts = dict(zip(itertools.accumulate([0] + widths), widths))

    def choices(prefix):
        at = len(prefix)
        return itertools.product(*values[at : at + starts[at]])

    assert list(orbit_representatives(group, widths, choices)) == _swept(group, values)


def test_representatives_of_no_positions():
    assert list(orbit_representatives([()], [], lambda prefix: [])) == [()]
    assert list(orbit_representatives([], [], lambda prefix: [])) == [()]


def _sites(ks, mult_bound, doubles):
    """The splice sites of lemma-3.9's population: k-wheels with spokes up
    to mult_bound, at most `doubles` of them raised, under their
    hub-fixing groups."""
    sites = []
    for k in ks:
        for vec in wheels.spoke_vectors(k, mult_bound):
            if sum(x > 1 for x in vec) > doubles:
                continue
            wheel, hub = wheels.make_wheel(wheels.WheelSpec(k, vec))
            group = [p for p in automorphisms(wheel) if p[hub] == hub]
            sites += wheels.splice_sites(wheel, group)
    return sites


def test_class_matrices_are_the_filtered_sweep_at_every_site_pair():
    # lemma-3.9's default bounds: 372 site pairs, 173,232 matrices. With
    # all seven spokes of a 7-wheel raised, one pair alone has 9,135,630.
    sites = _sites((3, 5, 7), 2, 2)
    pairs = kept = 0
    for i, a in enumerate(sites):
        for b in sites[i:]:
            if sum(a.class_sizes) != sum(b.class_sizes):
                continue
            perms = wheels.matrix_symmetries(a, b)
            every = list(wheels.theta_class_matrices(b.class_sizes, a.class_sizes))
            keep = least_in_orbit(perms)
            want = [m for m in every if keep(tuple(itertools.chain.from_iterable(m)))]
            got = list(wheels.least_class_matrices(b.class_sizes, a.class_sizes, perms))
            assert got == want
            assert wheels.count_class_matrices(b.class_sizes, a.class_sizes) == len(every)
            pairs += 1
            kept += len(got)
    assert (pairs, kept) == (372, 32235)


def test_class_matrices_of_every_small_shape():
    # The shapes of the theta_class_matrices oracle test: up to 3 x 4 with
    # row and column sums up to 4 in total, the empty shape, zero sums and
    # unequal totals included. With no symmetry every matrix is kept; with
    # the row and column swaps of a square shape, the filtered sweep.
    def sums(parts):
        return [t for t in itertools.product(range(5), repeat=parts) if sum(t) <= 4]

    for rows in range(4):
        for cols in range(5):
            for row_sums in sums(rows):
                for col_sums in sums(cols):
                    every = list(wheels.theta_class_matrices(row_sums, col_sums))
                    assert wheels.count_class_matrices(row_sums, col_sums) == len(every)
                    got = list(wheels.least_class_matrices(row_sums, col_sums, []))
                    assert got == every, (row_sums, col_sums)
                    if rows != cols or row_sums != col_sums:
                        continue
                    perms = [
                        tuple(r * cols + c for r in rp for c in cp)
                        for rp in itertools.permutations(range(rows))
                        for cp in itertools.permutations(range(cols))
                    ]
                    keep = least_in_orbit(perms)
                    want = [m for m in every if keep(tuple(itertools.chain.from_iterable(m)))]
                    assert list(wheels.least_class_matrices(row_sums, col_sums, perms)) == want
    assert list(wheels.least_class_matrices((), (), [()])) == [()]
    assert list(wheels.least_class_matrices((0, 0), (), [()])) == [((), ())]
    assert list(wheels.least_class_matrices((), (0, 0), [()])) == [()]
    assert list(wheels.least_class_matrices((1, 2), (2,), [(0, 1)])) == []
    assert wheels.count_class_matrices((1, 2), (2,)) == 0
