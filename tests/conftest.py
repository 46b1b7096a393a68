import time
from types import SimpleNamespace

import pytest

from triprime.graph import build_graph, diameter
from triprime.groups import catalog, direct_product


def _bundle(group, timed=False):
    t0 = time.perf_counter()
    table = group.element_table()
    graph = build_graph(table)
    build_secs = time.perf_counter() - t0
    t1 = time.perf_counter()
    diam = diameter(graph)
    diam_secs = time.perf_counter() - t1
    ns = SimpleNamespace(group=group, table=table, graph=graph, diam=diam)
    if timed:
        ns.build_secs = build_secs
        ns.diam_secs = diam_secs
    return ns


@pytest.fixture(scope="session")
def d30():
    return _bundle(catalog("dihedral", 30))


@pytest.fixture(scope="session")
def c30():
    return _bundle(catalog("cyclic", 30))


@pytest.fixture(scope="session")
def f21xc2():
    return _bundle(direct_product(catalog("frobenius21"), catalog("cyclic", 2)))


@pytest.fixture(scope="session")
def sl23x():
    """The order-1512 semidirect-product example; built once, with timings."""
    return _bundle(catalog("sl23_example"), timed=True)


@pytest.fixture
def count_letters():
    """A function that starts the count on a table: it returns a list that
    gains the letters of word(i) for each call table.mul_maps(i), one per
    map composed."""

    def start(table):
        letters = []
        mul_maps = table.mul_maps

        def counted(i):
            letters.extend(table.word(i))
            return mul_maps(i)

        table.mul_maps = counted
        return letters

    return start
