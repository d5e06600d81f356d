import threading

from gaussem import util


def test_pmap_pool_is_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(util.os, "cpu_count", lambda: 1)
    seen = []

    def one(x):
        seen.append(threading.get_ident())
        return x * x

    assert util.pmap(one, range(8), threads=4) == [x * x for x in range(8)]
    assert len(set(seen)) == 1
