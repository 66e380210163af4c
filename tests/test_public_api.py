import sttsim


def test_every_public_name_resolves():
    missing = [name for name in sttsim.__all__ if not hasattr(sttsim, name)]
    assert missing == []
    assert len(set(sttsim.__all__)) == len(sttsim.__all__)
