import bifr


def test_public_surface():
    """Every exported name resolves, once; an export added or removed changes the count."""
    names = bifr.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(bifr, name)] == []
    assert len(names) == 42
