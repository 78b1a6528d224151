"""Package surface tests."""

import ustatlab


def test_public_names_resolve():
    missing = [name for name in ustatlab.__all__ if not hasattr(ustatlab, name)]
    assert missing == []
