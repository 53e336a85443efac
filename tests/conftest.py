import pytest

from gsos.presheaf import make_presheaf
from round_trips import load_bundled_spec


@pytest.fixture(scope="session")
def ccs():
    return load_bundled_spec("ccs")


@pytest.fixture(scope="session")
def toy():
    return load_bundled_spec("toy")


@pytest.fixture(scope="session")
def ccs_labels(ccs):
    return ccs.labels


@pytest.fixture()
def paper_lts():
    """A 3-state system: x <-a_bar- y =b=> z (parallel b edges), a-loop on z."""
    from gsos.presheaf import LabelSet

    return make_presheaf(
        LabelSet(("a", "a_bar", "b")),
        ("x", "y", "z"),
        [
            ("a_bar", "e", "y", "x"),
            ("b", "f", "y", "z"),
            ("b", "f2", "y", "z"),
            ("a", "g", "z", "z"),
        ],
    )


@pytest.fixture()
def sync_ambient(ccs_labels):
    """Five states, e1: x1 -a_bar-> y1 and e2: x3 -a-> y2."""
    return make_presheaf(
        ccs_labels,
        ("x1", "x2", "x3", "y1", "y2"),
        [("a_bar", "e1", "x1", "y1"), ("a", "e2", "x3", "y2")],
    )


@pytest.fixture()
def rsync_ambient(ccs_labels):
    """Three states, e1: x -a_bar-> y1 and e2: x -a-> y2 share their source."""
    return make_presheaf(
        ccs_labels,
        ("x", "y1", "y2"),
        [("a_bar", "e1", "x", "y1"), ("a", "e2", "x", "y2")],
    )
