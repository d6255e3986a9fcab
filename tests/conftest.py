import pytest

from pdmdirac import numerics


@pytest.fixture
def empty_memos(monkeypatch):
    """An empty ``numerics._memos`` for the test, and the former store after."""
    monkeypatch.setattr(numerics, "_memos", {})
