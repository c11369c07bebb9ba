from __future__ import annotations

import pytest

from hamming_radio.data import golden_document, golden_ordering
from hamming_radio.graphs import enumerate_vertices, make_graph_spec
from hamming_radio.perms import Permutation
from hamming_radio.verify import Ordering, permute_column

from .k34_finds import TWO_ENDED_FINDS


@pytest.fixture(scope="session")
def k32_spec():
    return make_graph_spec([(3, 2)])


@pytest.fixture(scope="session")
def k34_spec():
    return make_graph_spec([(3, 4)])


@pytest.fixture(scope="session")
def golden_k32():
    return golden_ordering("k3_2")


@pytest.fixture(scope="session")
def golden_k34():
    return golden_ordering("k3_4")


@pytest.fixture(scope="session")
def golden_k34_document():
    return golden_document("k3_4")


@pytest.fixture(scope="session")
def k34_finds(k34_spec):
    """The three two-ended 3^4 finds, each relabeled column by column with
    permute_column so that it starts all-1, all-2, as instruction columns must."""
    vertices = list(enumerate_vertices(k34_spec))
    out = []
    for indices in TWO_ENDED_FINDS:
        ordering = Ordering(k34_spec, [vertices[i] for i in indices])
        for col, (first, second) in enumerate(zip(*ordering.rows[:2]), start=1):
            images = [3, 3, 3]
            images[first - 1], images[second - 1] = 1, 2
            ordering = permute_column(ordering, col, Permutation(images))
        out.append(ordering)
    return tuple(out)
