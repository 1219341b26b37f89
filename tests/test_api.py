import pytest

import scdkit
from scdkit import chains, cli

# Names the package no longer has: the middle-rank bound and the API that
# only the tests used.
GONE = {
    "ChainCheck", "EdgeMatching", "NecessaryConditions", "Packet", "PacketGrid",
    "ScdError", "element_at", "enumerate_matchings", "expected_chain_count",
    "necessary_conditions", "packet", "validate_chain", "SearchConfig",
}


def test_every_exported_name_resolves_once():
    assert len(scdkit.__all__) == len(set(scdkit.__all__))
    for name in scdkit.__all__:
        assert getattr(scdkit, name) is not None, name


def test_deleted_names_are_not_exported():
    assert not GONE & set(scdkit.__all__)
    assert not any(hasattr(scdkit, name) for name in GONE)


def test_deleted_attributes_are_gone():
    # rank_of is the one rank read, covers the one cover listing,
    # cli._parser the one parser builder, a report's findings its one
    # verdict, GradedPoset.__eq__ the one host equality, and product the
    # one builder that names a chain factor on a table poset.
    assert not hasattr(scdkit.GradedPoset, "rank")
    assert not hasattr(scdkit.GradedPoset, "cover_set")
    assert not hasattr(cli, "build_parser")
    assert not hasattr(scdkit.ValidationReport, "is_partition")
    assert not hasattr(scdkit.ValidationReport, "all_symmetric")
    assert not hasattr(chains, "_same_elements")
    with pytest.raises(TypeError):
        scdkit.GradedPoset([0], [], {0: 0}, chain_factor=(scdkit.build_hypercube(0), 1))
