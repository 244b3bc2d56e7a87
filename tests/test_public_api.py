"""The package's public names."""

import ccoe


def test_every_name_in_all_resolves_once():
    assert [n for n in ccoe.__all__ if not hasattr(ccoe, n)] == []
    assert len(set(ccoe.__all__)) == len(ccoe.__all__)
