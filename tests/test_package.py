import contourflow


def test_public_names_resolve_once():
    names = contourflow.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(contourflow, name)]
    assert missing == []
