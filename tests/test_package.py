import su21dual


def test_every_exported_name_resolves_once():
    """A name left in __all__ after its definition moved away fails here."""
    names = su21dual.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(su21dual, name)] == []
