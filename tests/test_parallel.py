"""The map over independent checks keeps input order."""

from tiltlab.parallel import pmap


def test_pmap_preserves_input_order():
    items = list(range(50))
    assert pmap(lambda x: x * x, items) == [x * x for x in items]


def test_pmap_serial_path():
    assert pmap(str, [3, 1, 2]) == ["3", "1", "2"]
    assert pmap(str, []) == []
    assert pmap(str, iter([4, 5])) == ["4", "5"]
