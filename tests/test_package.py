import jaco


def test_every_exported_name_resolves():
    missing = [name for name in jaco.__all__ if not hasattr(jaco, name)]
    assert missing == []
    assert len(set(jaco.__all__)) == len(jaco.__all__)
